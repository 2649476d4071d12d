import hashlib
import random
from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, fzero

from eistau import clear_caches, integrals, mmv
from eistau.algebra import make_index
from eistau.config import BudgetError, SingularParameterError, TruncationBudget
from eistau.eisenstein import _constant_mpf as eis_constant_mpf
from eistau.eisenstein import (
    convolution_majorant,
    eis_constant,
    eis_cusp_eval,
    sigma_majorant,
    sigma_table,
)
from eistau.exppoly import ExpPoly, elem_exp_tail, mul_qseries
from eistau.integrals import int_eval, int_exppoly, word_eval
from eistau.lseries import l_eval
from eistau.mmv import MonomialCoefficientRequest, r_iter, s_coeff
from test_exppoly import _call_mpc_horner

BUDGET = TruncationBudget(1e-30, 100_000)


def test_depth0_is_one():
    assert int_eval(make_index([], []), mpc(0, 1), BUDGET) == mpc(1)


@pytest.mark.parametrize("tau", [mpc(0, 1), mpc(0, 2), mpc("0.3", "1.2")])
def test_depth1_equals_minus_lseries(tau):
    idx = make_index([2], [1])
    assert abs(int_eval(idx, tau, BUDGET) + l_eval(idx, tau, BUDGET)) < mpf("1e-29")


def test_depth_cap():
    idx = make_index([2] * 7, [1] * 7)
    with pytest.raises(ValueError):
        int_eval(idx, mpc(0, 1), BUDGET)


def test_int_eval_rejects_tau_power():
    # the tau^t factor belongs to the caller (numeric_value, the CLI), never dropped
    with pytest.raises(ValueError, match="t = 2"):
        int_eval(make_index([2], [1], 2), mpc(0, 1), BUDGET)


def test_int_exppoly_rejects_tau_power():
    with pytest.raises(ValueError, match="t = 1"):
        int_exppoly(make_index([2, 3], [1, 2], 1), mpc(0, 1), BUDGET)


def test_budget_exhaustion_for_tiny_im():
    with pytest.raises(BudgetError):
        int_eval(make_index([2], [1]), mpc(0, "0.001"), TruncationBudget(1e-30, 60))


@pytest.mark.parametrize(
    "ks,alphas",
    [((2,), (2,)), ((2, 3), (2, 1)), ((2, 2, 3), (1, 2, 1))],
)
def test_derivative_contract(ks, alphas):
    # d/dtau Int(k; a)(tau) = -E0_{2k_1}(tau) tau^{a_1-1} Int(rest)(tau)
    tau = mpc(0, 2)
    h = mpf("1e-12")
    idx = make_index(ks, alphas)
    rest = make_index(ks[1:], alphas[1:])
    lhs = (int_eval(idx, tau + h, BUDGET) - int_eval(idx, tau - h, BUDGET)) / (2 * h)
    rhs = -eis_cusp_eval(ks[0], tau, BUDGET) * tau ** (alphas[0] - 1) * int_eval(rest, tau, BUDGET)
    assert abs(lhs - rhs) <= mpf("1e-8") * max(abs(lhs), abs(rhs))


def test_exppoly_form_matches_eval():
    idx = make_index([2, 2], [1, 2])
    tau = mpc(0, "1.5")
    g = int_exppoly(idx, tau, BUDGET)
    assert abs(g(tau) - int_eval(idx, tau, BUDGET)) < mpf("1e-28")


def test_shuffle_depth1_squares():
    # Int(a)^2 = 2 Int(a,a) for a single letter, by the interleaving identity
    tau = mpc(0, 1)
    a = make_index([2], [1])
    aa = make_index([2, 2], [1, 1])
    lhs = int_eval(a, tau, BUDGET) ** 2
    assert abs(lhs - 2 * int_eval(aa, tau, BUDGET)) < mpf("1e-20")


def _mpc_digest(values) -> str:
    """sha256 of the raw (sign, mantissa, exponent, bitcount) parts of mpc values."""
    h = hashlib.sha256()
    for v in values:
        for part in v._mpc_:
            h.update((",".join(str(int(x)) for x in part) + ";").encode())
    return h.hexdigest()


# Folds at depth 1-3, with shifted (alpha > 1) stages, on and off the imaginary
# axis, and the constant-cusp fold of r_iter; every bit is pinned.
PINNED_INDICES = [((2,), (1,)), ((4,), (3,)), ((3, 2), (2, 1)), ((2, 3), (3, 2)),
                  ((2, 2, 3), (1, 2, 1)), ((3, 2, 4), (2, 1, 3))]
PINNED_TAUS = [("0", "1"), ("0.3", "0.8")]  # parsed at the test's working precision
PINNED_FOLD_SHA256 = "ab0370f50a7224f9386ac66e08e0e5175c661bb21801ec019000879ee9e40ca3"


def test_fold_values_bit_identical():
    vals = [int_eval(make_index(ks, al), mpc(*tau)) for ks, al in PINNED_INDICES for tau in PINNED_TAUS]
    vals.append(r_iter([("const", 3), ("cusp", 2)], (2, 1)))
    assert _mpc_digest(vals) == PINNED_FOLD_SHA256


def _tau_cases(seed: int, count: int, re_max: float):
    """Seeded (ks, alphas, t, dps, tau) of depth 1-3 at 30, 40 or 50 digits,
    tau = x + iy as decimal strings with 0 < |x| < re_max, x never a multiple
    of 1/2 (so neither tau nor q has an exactly zero part) and y log-uniform on
    [0.15, 2]."""
    rng = random.Random(seed)
    for j in range(count):
        depth = 1 + j % 3
        ks = tuple(rng.randint(2, 5) for _ in range(depth))
        alphas = tuple(rng.randint(1, 4) for _ in range(depth))
        x = rng.choice((-1, 1)) * rng.randint(1, int(re_max * 10**4) - 1)
        if x % 5000 == 0:
            x += 1
        y = 0.15 * (2 / 0.15) ** rng.random()
        yield (ks, alphas, rng.randint(0, 2), rng.choice((30, 40, 50)),
               (f"{x / 10**4:.4f}", f"{y:.4f}"))


def _int_and_l_values(cases) -> list:
    vals = []
    for ks, alphas, t, dps, tau in cases:
        with mp.workdps(dps):
            tau = mpc(*tau)
            vals += [int_eval(make_index(ks, alphas), tau), l_eval(make_index(ks, alphas, t), tau)]
    return vals


# 100 int_eval and 100 l_eval values off the axes (Re tau in [-1/2, 1/2]);
# every bit is pinned
PINNED_GENERAL_TAU_SHA256 = "ae98359a4a14599942dc4492b7caae69541189fbc59475c819a897fc30f8b433"


def test_general_tau_values_bit_identical():
    assert _mpc_digest(_int_and_l_values(_tau_cases(2222, 100, 0.5))) == PINNED_GENERAL_TAU_SHA256


def test_returned_values_equal_the_horner_read(monkeypatch):
    # the dot and Horner in q on mpc values differ only in their roundings at the
    # fold's precision, 15 digits (an L table's: 10) above the returned one
    cases = list(_tau_cases(2223, 60, 3))
    clear_caches()
    got = _int_and_l_values(cases)
    clear_caches()
    with monkeypatch.context() as patch:
        patch.setattr(ExpPoly, "__call__", _call_mpc_horner)
        ref = _int_and_l_values(cases)
    clear_caches()  # no Horner-read value stays in the value memos
    assert [v._mpc_ for v in got] == [v._mpc_ for v in ref]


# a malformed word raises before any stage is made: the zip of the two tuples
# dropped an unmatched factor, and a const innermost factor folded to 0
MALFORMED_WORDS = {
    "empty": ((), (), ValueError),
    "unequal-lengths": ((("cusp", 2), ("cusp", 3)), (1,), ValueError),
    "unknown-kind": ((("full", 2), ("cusp", 3)), (1, 1), ValueError),
    "k-below-2": ((("cusp", 2), ("cusp", 1)), (1, 1), ValueError),
    "alpha-below-1": ((("cusp", 2), ("cusp", 3)), (1, 0), ValueError),
    "const-innermost": ((("cusp", 2), ("const", 3)), (1, 1), SingularParameterError),
}


@pytest.mark.parametrize("case", MALFORMED_WORDS)
def test_word_eval_rejects_malformed_word(case):
    word, alphas, error = MALFORMED_WORDS[case]
    clear_caches()
    with pytest.raises(ValueError) as info:
        word_eval(word, alphas, mpc(0, 1), BUDGET)
    assert info.type is error
    assert integrals._stage.cache_info().misses == 0


# -- the stage table: one kept stage per (stage chain, precision), reused ------


def _fold_prec() -> int:
    """The working precision of a fold at the current one (`extradps(15)`)."""
    with mp.extradps(15):
        return mp.prec


def _kept_stages(keys) -> list:
    """The kept stages at `keys`, distinct (chain, prec) pairs, asserting that
    they are all the kept stages: the cache holds as many, and each is a hit."""
    before = integrals._stage.cache_info()
    stages = [integrals._stage(*key) for key in keys]
    after = integrals._stage.cache_info()
    assert after.hits - before.hits == len(keys) == before.currsize == after.currsize
    return stages


def _chain_of(stage) -> tuple:
    """The stage chain of a stage, read back through its inner stages."""
    return () if stage is None else _chain_of(stage.inner) + ((stage.op, stage.arg),)

FOLD_INDEX = make_index([3, 2, 2], [2, 1, 3])
FOLD_WORD = tuple(("cusp", k) for k in FOLD_INDEX.ks)
FOLD_CHAIN = integrals._chain(FOLD_WORD, FOLD_INDEX.alphas)
FOLD_TAUS = [mpc("0.1", "0.7"), mpc(0, "0.9"), mpc("-0.4", "1.3"), mpc(0, 2)]  # Im tau ascending


def _cold(index, tau):
    clear_caches()
    return int_eval(index, tau, BUDGET)._mpc_


@pytest.mark.parametrize("taus", [FOLD_TAUS, FOLD_TAUS[::-1]], ids=["truncated-hits", "growth"])
def test_fold_cache_values_bit_identical_to_cold(taus):
    cold = [_cold(FOLD_INDEX, tau) for tau in taus]
    clear_caches()
    warm = [int_eval(FOLD_INDEX, tau, BUDGET)._mpc_ for tau in taus]
    warm += [int_eval(FOLD_INDEX, tau, BUDGET)._mpc_ for tau in taus]
    assert warm == cold + cold
    # every stage of the chain is kept, and only those, at the largest n_cut seen
    stages = _kept_stages([(FOLD_CHAIN[:j], _fold_prec()) for j in range(1, len(FOLD_CHAIN) + 1)])
    with mp.extradps(15):  # the precision int_eval folds at
        top = stages[-1]
        n_cut = max(integrals.freq_cutoff(top.majorant, top.bound, tau, BUDGET) for tau in taus)
    assert [stage.n for stage in stages] == [n_cut] * len(FOLD_CHAIN)


# R words at i (const factors too) and an int_eval chain sharing their inner
# stages; Im tau rises, then falls, so stages grow and are then read below their n
RISE_FALL = [(("cusp", 2), ("cusp", 3)), (1, 2), (("const", 4), ("cusp", 3)), (3, 2)]
RISE_FALL_TAUS = [mpc(0, "1.3"), mpc("0.2", "0.9"), mpc(0, "0.7"), mpc("-0.3", "1.1"), mpc(0, 2)]


def test_stages_grown_up_and_down_give_cold_bits():
    (w1, a1, w2, a2), idx = RISE_FALL, make_index([2, 3], [1, 2])
    calls = [lambda tau: integrals.word_eval(w1, a1, tau, BUDGET),
             lambda tau: integrals.word_eval(w2, a2, tau, BUDGET),
             lambda tau: int_eval(idx, tau, BUDGET)]
    cold = []
    for tau in RISE_FALL_TAUS:
        for f in calls:
            clear_caches()
            cold.append(f(tau)._mpc_)
    clear_caches()
    warm = [f(tau)._mpc_ for tau in RISE_FALL_TAUS for f in calls]
    assert warm == cold
    assert integrals._stage.cache_info().currsize


def test_mmv_words_keep_inner_stages_never_their_last(monkeypatch):
    # int_eval keeps every stage of its chain; a base-point word of mmv, whose
    # value mmv memoizes, keeps the stages below its outermost tail integral
    clear_caches()
    int_eval(FOLD_INDEX, FOLD_TAUS[0], BUDGET)
    _kept_stages([(FOLD_CHAIN[:j], _fold_prec()) for j in range(1, len(FOLD_CHAIN) + 1)])
    clear_caches()
    words = []

    def recording(word, alphas, tau, budget):
        words.append(integrals._chain(word, alphas))
        return integrals.word_eval(word, alphas, tau, budget)

    monkeypatch.setattr(mmv, "word_eval", recording)
    r_iter([("const", 3), ("cusp", 2)], (2, 1), BUDGET)
    s_coeff(MonomialCoefficientRequest((2, 3), (1, 2)), budget=BUDGET)
    assert words and mmv._r_value.cache_info().currsize
    # a word's own chain is kept only as the inner stage of a longer word
    kept = {chain[:j] for chain in words for j in range(1, len(chain))}
    _kept_stages([(chain, _fold_prec()) for chain in kept])
    assert any(chain not in kept for chain in words)


def test_s_coeff_sweep_builds_each_product_stage_once(monkeypatch):
    # R(E0_1, E0_2; a1, a2) and R(E0_1, E0_2; 2k1 - a1, 2k2 - a2) for every a1
    # share the product stage of (k2, a2, k1) and of (k2, 2k2 - a2, k1)
    built = []

    class Counted(integrals._Stage):
        __slots__ = ()

        def __init__(self, op, arg, inner):
            built.append(self)
            super().__init__(op, arg, inner)

    clear_caches()
    monkeypatch.setattr(integrals, "_Stage", Counted)
    for a1 in range(1, 6):
        s_coeff(MonomialCoefficientRequest((3, 2), (a1, 1)), budget=BUDGET)
    chains = [_chain_of(stage) for stage in built]
    products = {chain for chain in chains
                if chain[-1][0] == integrals.PRODUCT and len(chain) > 1}
    assert products == {(("product", 2), ("tail", a2), ("product", 3)) for a2 in (1, 3)}
    # each kept stage built once, with the two series, five tails over E0_3 and
    # two over E0_2; no other stage is built: an R word's outermost tail
    # integral is a dot against the J table, not a stage
    assert len(set(chains)) == len(chains) == 11
    assert _kept_stages([(chain, _fold_prec()) for chain in chains]) == built
    assert mmv._r_value.cache_info().currsize


@pytest.mark.parametrize("dps", [15, 40])
def test_series_stage_is_the_sieve_rounded_once(dps):
    # the innermost stage is sigma_{2k-1}(m) of the sieve, each rounded once at
    # the working precision (sigma_11 is wider than the 53 bits of 15 digits
    # from m = 25 on), grown in two steps as a fold grows
    with mp.workdps(dps):
        prec, rnd = mp._prec_rounding
        for k in (2, 6):
            clear_caches()
            stage = integrals._stage(((integrals.PRODUCT, k),), prec)
            stage.grow(9)
            stage.grow(40)
            sig = sigma_table(2 * k - 1, 40)
            assert stage.n == 40
            assert {m: tuple(z._mpc_ for z in p) for m, p in stage.fold.terms.items()} == {
                m: ((from_man_exp(sig[m], 0, prec, rnd), fzero),) for m in range(1, 41)}
    clear_caches()


def test_no_engine_fold_has_a_frequency_0_term(monkeypatch):
    # every fold `mul_qseries` multiplies is an inner stage, made of tail
    # integrals, which reject frequency 0: the innermost series comes from
    # the sieve, never as a product with the constant 1
    inputs = []

    def recording(g, coeffs, n_cut, n_lo=0):
        inputs.append(min(g.terms, default=None))
        return mul_qseries(g, coeffs, n_cut, n_lo)

    clear_caches()
    monkeypatch.setattr(integrals, "mul_qseries", recording)
    for tau in FOLD_TAUS + [mpc("0.3", "0.1")]:
        int_eval(FOLD_INDEX, tau, BUDGET)
        int_eval(make_index([2, 3], [1, 2]), tau, BUDGET)
    for word, alphas in zip(RISE_FALL[::2], RISE_FALL[1::2]):
        integrals.word_eval(word, alphas, RISE_FALL_TAUS[0], BUDGET)
    s_coeff(MonomialCoefficientRequest((2, 3), (1, 2)), budget=BUDGET)
    clear_caches()
    assert inputs and 0 not in inputs


def test_fold_cache_keys_on_precision():
    tau = FOLD_TAUS[1]
    values = {}
    for dps in (30, 50):
        with mp.workdps(dps):
            values[dps] = _cold(FOLD_INDEX, tau)
    clear_caches()
    for _ in range(2):
        for dps in (30, 50):
            with mp.workdps(dps):
                assert int_eval(FOLD_INDEX, tau, BUDGET)._mpc_ == values[dps]
    keys = []
    for dps in (30, 50):
        with mp.workdps(dps):
            keys += [(FOLD_CHAIN[:j], _fold_prec()) for j in range(1, len(FOLD_CHAIN) + 1)]
    _kept_stages(keys)


# sha256 of int_exppoly([3, 2]; [2, 1]) at tau = 1.3i and 40 digits, .dump()
EXPPOLY_DUMP_SHA256 = "0975ebc9e04540f76a32109bd52e5d586a46e83fab1b3f55a63157852da9b1b8"


def test_int_exppoly_dump_unchanged_by_fold_cache():
    idx = make_index([3, 2], [2, 1])
    clear_caches()
    cold = int_exppoly(idx, mpc(0, "1.3"), BUDGET).dump()
    for _ in range(2):  # keeps the fold at the larger n_cut of Im tau = 0.7
        int_eval(idx, mpc(0, "0.7"), BUDGET)
    warm = int_exppoly(idx, mpc(0, "1.3"), BUDGET).dump()
    assert warm == cold
    assert hashlib.sha256(warm.encode()).hexdigest() == EXPPOLY_DUMP_SHA256


def test_exppoly_call_n_max_is_truncated_value():
    g = int_exppoly(make_index([2, 3], [1, 2]), mpc(0, "0.8"), BUDGET)
    t = mpc("0.3", "1.1")
    for n_max in (0, 1, 5, g.max_freq() - 1, g.max_freq(), g.max_freq() + 3):
        assert g(t, n_max=n_max)._mpc_ == g.truncated(n_max)(t)._mpc_
    assert g(t, n_max=None)._mpc_ == g(t)._mpc_


# -- word_eval's outermost tail integral: one dot against the J table ----------

DOT_TAUS = [mpc(0, 1), mpc("0.3", "0.8"), mpc("-0.45", "1.7")]


@pytest.mark.parametrize("dps", [30, 40, 50])
def test_tail_table_rows_equal_elem_exp_tail(dps):
    # J_{n,e}(tau) = int_tau^{i oo} e^{2 pi i n s} s^e ds = elem_exp_tail(n, e + 1, tau)
    with mp.workdps(dps):
        for tau in DOT_TAUS:
            table = integrals._tails(tau._mpc_, mp.prec)
            table.grow(20, 12)
            table.grow(8, 16)  # grows the first rows in e only
            assert [len(row) for row in table.rows[1:]] == [17] * 8 + [13] * 12
            for n, row in enumerate(table.rows[1:], 1):
                for e, parts in enumerate(row):
                    with mp.extradps(30):
                        ref = elem_exp_tail(n, e + 1, tau)
                    err = abs(mp.make_mpc(parts) - ref) / abs(ref)
                    assert err <= mpf(2) ** (4 - mp.prec), (tau, n, e, err * 2**mp.prec)


def _dot_words(seed=2121):
    """Seeded words of depth 1-3, const factors outside the innermost, with
    exponents up to 2k-1."""
    rng = random.Random(seed)
    for _ in range(12):
        depth = rng.randint(1, 3)
        word = [(rng.choice(["cusp", "const"]), rng.randint(2, 7)) for _ in range(depth - 1)]
        word = tuple(word + [("cusp", rng.randint(2, 7))])
        yield word, tuple(rng.randint(1, 2 * k - 1) for _, k in word)


def _materialized_top(word, alphas, tau):
    """word_eval with its outermost tail integral as a stage over the kept inner
    stage, grown to n_cut and read by Horner on mpc values: the reference for
    the dot."""
    tau = mpc(tau)
    chain = integrals._chain(word, alphas)
    with mp.extradps(15):
        top = integrals._Stage(*chain[-1], integrals._stage(chain[:-1], mp.prec))
        n_cut = integrals.freq_cutoff(top.majorant, top.bound, tau, BUDGET, _einf_product(word))
        top.grow(n_cut)
        val = _call_mpc_horner(top.fold, tau, n_max=n_cut)
        for kind, k in word:
            if kind == "const":
                val = eis_constant_mpf(k) * val
    return +val


@pytest.mark.parametrize("dps", [30, 40, 50])
def test_word_eval_dot_equals_materialized_top(dps):
    mismatches = []
    with mp.workdps(dps):
        clear_caches()
        for word, alphas in _dot_words():
            for tau in DOT_TAUS:
                got = word_eval(word, alphas, tau, BUDGET)
                ref = _materialized_top(word, alphas, tau)
                if got._mpc_ != ref._mpc_:
                    mismatches.append((word, alphas, tau, abs(got - ref) / abs(ref)))
    assert not mismatches


def test_word_eval_builds_no_stage_beyond_the_kept_ones(monkeypatch):
    built = []

    class Counted(integrals._Stage):
        __slots__ = ()

        def __init__(self, op, arg, inner):
            built.append(self)
            super().__init__(op, arg, inner)

    clear_caches()
    monkeypatch.setattr(integrals, "_Stage", Counted)
    for word, alphas in _dot_words():
        for tau in DOT_TAUS:
            word_eval(word, alphas, tau, BUDGET)
    chains = {integrals._chain(word, alphas) for word, alphas in _dot_words()}
    # kept, and built once each: the inner stages of each word, never a word's
    # own chain unless it is the inner chain of another word
    kept = {chain[:j] for chain in chains for j in range(1, len(chain))}
    stages = _kept_stages([(chain, _fold_prec()) for chain in kept])
    assert built and sorted(map(id, built)) == sorted(map(id, stages))


# -- the fold majorant: it dominates every realized frequency, and is sharp -----


def _einf_product(word) -> Fraction:
    out = Fraction(1)
    for kind, k in word:
        if kind == "const":
            out *= abs(eis_constant(k))
    return out


def _majorant_words(seed=2019):
    """Seeded words of depth <= 3 (k <= 11, so |Einf| reaches 140.7) at seeded tau,
    R words at i with exponents up to 2k-1, and two words that need the peak
    term of `convolution_majorant` (at n = 2) and the constant |Einf_11|."""
    rng = random.Random(seed)
    for _ in range(16):
        depth = rng.randint(1, 3)
        word = [(rng.choice(["cusp", "const"]), rng.randint(2, 11)) for _ in range(depth - 1)]
        word = tuple(word + [("cusp", rng.randint(2, 11))])
        alphas = tuple(rng.randint(1, min(2 * k - 1, 5)) for _, k in word)
        yield word, alphas, mpc(rng.randint(-400, 400) / 10, rng.randint(20, 200) / 100)
    for _ in range(8):
        word = [(rng.choice(["cusp", "const"]), rng.randint(2, 11)), ("cusp", rng.randint(2, 11))]
        yield tuple(word), tuple(rng.randint(1, 2 * k - 1) for _, k in word), mpc(0, 1)
    yield (("cusp", 11), ("cusp", 11)), (1, 1), mpc(0, 1)
    yield (("const", 11), ("cusp", 11)), (1, 1), mpc(0, 1)


def _word_majorant(word, alphas):
    """The top stage's majorant (P, c, h) with c times the word's |Einf| product."""
    power, c, h = integrals._stage(integrals._chain(word, alphas), mp.prec).majorant
    einf = _einf_product(word)
    return power, tuple(x * einf for x in c), h


def test_fold_majorant_dominates_realized_frequencies():
    for word, alphas, tau in _majorant_words():
        with mp.extradps(15):
            power, c, h = _word_majorant(word, alphas)
            u = 2 * mp.pi * abs(tau)
            scale = sum(mpf(x.numerator) / x.denominator * u**d for d, x in enumerate(c))
            scale /= (2 * mp.pi) ** h
            stage = integrals._stage(integrals._chain(word, alphas), mp.prec)
            einf = _einf_product(word)
            n_cut = integrals.freq_cutoff(stage.majorant, stage.bound, tau, BUDGET, einf)
            stage.grow(2 * n_cut)
            fold = stage.fold
            assert fold.max_freq() > n_cut
            einf = mpf(einf.numerator) / einf.denominator
            for n, poly in fold.terms.items():
                realized = abs(mp.polyval(poly[::-1], tau)) * einf
                assert realized <= scale * mpf(n) ** power, (word, alphas, tau, n)


def test_fold_majorant_stage_constants():
    # cusp-cusp: zeta(3) <= 3/2 per series, sum_{n1+n2=n} n1^3 n2^2 <= K n^6 with
    # K = B(4, 3) + 3^3 2^2 / 5^5, and one 1/(2 pi n) per alpha = 1 stage
    k32 = Fraction(1, 60) + Fraction(108, 3125)
    word = (("cusp", 2), ("cusp", 2))
    assert _word_majorant(word, (1, 1)) == (5, (Fraction(9, 4) * k32,), 2)
    # const-cusp: |P_n(t)| <= |Einf_3| (3/2) n^2/(2 pi) (|t|/(2 pi n) + 1/(2 pi n)^2)
    #   <= n (2 pi)^{-3} (1 + 2 pi |t|) / 336, as |Einf_3| = 1/504
    word = (("const", 3), ("cusp", 2))
    assert _word_majorant(word, (2, 1)) == (1, (Fraction(1, 336),) * 2, 3)


def _fold_majorant_loop(word, alphas):
    """The word-by-word majorant loop, |Einf| folded in at each const factor:
    the reference for the majorants the stages carry."""
    power, c, h = 0, None, 0
    for (kind, k), alpha in zip(reversed(word), reversed(alphas)):
        if c is None:
            power, c = 2 * k - 1, [sigma_majorant(k)]
        elif kind == "cusp":
            s = sigma_majorant(k) * convolution_majorant(2 * k - 1, power)
            power, c = power + 2 * k, [x * s for x in c]
        else:
            e = abs(eis_constant(k))
            c = [x * e for x in c]
        q = [Fraction(0)] * (alpha - 1) + c
        c = [sum(q[d] * (factorial(d) // factorial(e)) for d in range(e, len(q)))
             for e in range(len(q))]
        power, h = max(power - 1, 0), h + alpha
    return power, tuple(c), h


def test_stage_majorants_equal_the_word_loop():
    words = [(word, alphas) for word, alphas, _ in _majorant_words()]
    words += [(tuple(("cusp", k) for k in ks), alphas) for ks, alphas in SHARPNESS_GRID]
    clear_caches()
    for word, alphas in words:
        assert _word_majorant(word, alphas) == _fold_majorant_loop(word, alphas), (word, alphas)


# certified / needed n_cut at Re tau = 0.3 and y = 0.7, 1, 2; "needed" is the
# smallest N whose realized dropped terms sum below eps/4, from a fold at 3 n_cut + 10
SHARPNESS_GRID = {
    ((2,), (1,)): ((16, 11, 5), (16, 11, 5)),
    ((3, 4), (2, 3)): ((22, 14, 6), (20, 13, 6)),
    ((2, 3, 5), (1, 4, 2)): ((22, 14, 6), (21, 14, 6)),
    ((5, 5), (4, 4)): ((26, 16, 7), (24, 16, 7)),
}


def test_freq_cutoff_sharp_on_grid():
    for (ks, alphas), (certified, needed) in SHARPNESS_GRID.items():
        word = tuple(("cusp", k) for k in ks)
        with mp.extradps(15):
            stage = integrals._stage(integrals._chain(word, alphas), mp.prec)
            got = tuple(integrals.freq_cutoff(stage.majorant, stage.bound, mpc("0.3", y), BUDGET)
                        for y in ("0.7", "1", "2"))
        assert got == certified
        assert all(n <= 1.5 * m for n, m in zip(got, needed))
