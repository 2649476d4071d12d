import hashlib
import random
from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp, mpc, mpf

from eistau import clear_caches, exppoly, integrals, mmv
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
from eistau.exppoly import ExpPoly, _majorants, _rows
from eistau.integrals import int_dump, int_eval, word_eval
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


def test_int_dump_rejects_tau_power():
    with pytest.raises(ValueError, match="t = 1"):
        int_dump(make_index([2, 3], [1, 2], 1), mpc(0, 1), BUDGET)


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


def _parse_dump(text: str) -> tuple:
    """(h, B, {m: (R_{m,0}, R_{m,1}, ...)}) of a row dump (`int_dump`)."""
    head, *lines = text.splitlines()
    h, bits = (int(part.split(" = ")[1]) for part in head.split(", "))
    rows = dict(line.split("; ") for line in lines)
    return h, bits, {int(m): tuple(map(int, row.split(", "))) for m, row in rows.items()}


def read_dump(text: str, tau) -> mpc:
    """The value (2 pi i)^{-h} 2^{-B} sum_m q^m sum_d R_{m,d} w^d of a row dump at
    tau, summed in mpc arithmetic at the working precision."""
    h, bits, rows = _parse_dump(text)
    q, w = mp.expjpi(2 * tau), 2 * mp.pi * mpc(0, 1) * tau
    total = mp.fsum(r * q**m * w**d for m, row in rows.items() for d, r in enumerate(row))
    return (2 * mp.pi * mpc(0, 1)) ** -h * total * mpf(2) ** -bits


def test_exppoly_form_matches_eval():
    # the rows that --dump-exppoly prints, read at 20 more digits, give int_eval's value
    for ks, alphas, tau in (((), (), mpc(0, 1)),
                            ((2, 2), (1, 2), mpc(0, "1.5")),
                            ((3, 2, 4), (2, 1, 3), mpc("-0.45", "0.3")),
                            ((3, 4), (2, 3), mpc(40, 1))):
        idx = make_index(ks, alphas)
        text = int_dump(idx, tau, BUDGET)
        with mp.extradps(20):
            assert abs(read_dump(text, tau) - int_eval(idx, tau, BUDGET)) <= BUDGET.eps, ks


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


def _horner_read(rows, tau, n) -> tuple:
    """The fixed-point rows up to n as mpc coefficients (2 pi i)^{d-h} R_{m,d} 2^-B,
    each formed in mpc arithmetic, read at the raw tau by Horner in q on mpc
    values: the reference for the exact dot of `exppoly._Rows.read`."""
    two_pi_i = 2 * mp.pi * mpc(0, 1)
    scale = [two_pi_i ** (d - rows.h) * mpf(2) ** -rows.bits for d in range(len(rows.cols))]
    f = ExpPoly({m: tuple(mpf(col[m]) * s for col, s in zip(rows.cols, scale))
                 for m in range(1, n + 1)})
    return _call_mpc_horner(f, mp.make_mpc(tau))._mpc_


def test_returned_values_equal_the_horner_read(monkeypatch):
    # the dot and Horner in q on mpc values differ only in their roundings at the
    # fold's precision, 15 digits (an L table's: 10) above the returned one
    cases = list(_tau_cases(2223, 60, 3))
    clear_caches()
    got = _int_and_l_values(cases)
    clear_caches()
    with monkeypatch.context() as patch:
        patch.setattr(exppoly._Rows, "read", _horner_read)
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
    assert _rows.cache_info().misses == 0


# -- the row table: one kept table per (chain, bits), reused -------------------


def _fold_bits(chain, tau, einf=Fraction(1)) -> int:
    """B of the fixed-point rows of a fold whose whole chain is `chain`, at tau
    and the precision a fold runs at (`extradps(15)`)."""
    with mp.extradps(15):
        return integrals._cutoff_bits(chain, mpc(tau), BUDGET, einf)[1]


def _kept_stages(keys) -> list:
    """The kept tables at `keys`, distinct (chain, bits) pairs, asserting that
    they are all the kept tables: the cache holds as many, and each is a hit."""
    before = _rows.cache_info()
    stages = [_rows(*key) for key in keys]
    after = _rows.cache_info()
    assert after.hits - before.hits == len(keys) == before.currsize == after.currsize
    return stages


def _chain_of(stage) -> tuple:
    """The chain of a table, read back through its inner tables."""
    return () if stage is None else _chain_of(stage.inner) + ((stage.op, stage.arg),)


def _counted_tables(monkeypatch) -> list:
    """The list every table made from now on is appended to."""
    built = []

    class Counted(exppoly._Rows):
        __slots__ = ()

        def __init__(self, op, arg, inner, bits):
            built.append(self)
            super().__init__(op, arg, inner, bits)

    monkeypatch.setattr(exppoly, "_Rows", Counted)
    return built


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
    # every table of the chain is kept, and only those, at one B and at the
    # largest n_cut seen
    (bits,) = {_fold_bits(FOLD_CHAIN, tau) for tau in taus}
    stages = _kept_stages([(FOLD_CHAIN[:j], bits) for j in range(1, len(FOLD_CHAIN) + 1)])
    with mp.extradps(15):  # the precision int_eval folds at
        n_cut = max(integrals._cutoff_bits(FOLD_CHAIN, tau, BUDGET)[0] for tau in taus)
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
    assert _rows.cache_info().currsize


def test_mmv_words_keep_inner_stages_never_their_last(monkeypatch):
    # int_eval keeps every table of its chain; a base-point word of mmv, whose
    # value mmv memoizes, keeps the tables below its outermost tail integral
    clear_caches()
    int_eval(FOLD_INDEX, FOLD_TAUS[0], BUDGET)
    bits = _fold_bits(FOLD_CHAIN, FOLD_TAUS[0])
    _kept_stages([(FOLD_CHAIN[:j], bits) for j in range(1, len(FOLD_CHAIN) + 1)])
    clear_caches()
    words = []

    def recording(word, alphas, tau, budget):
        chain = integrals._chain(word, alphas)
        words.append((chain, _fold_bits(chain, tau, _einf_product(word))))
        return integrals.word_eval(word, alphas, tau, budget)

    monkeypatch.setattr(mmv, "word_eval", recording)
    r_iter([("const", 3), ("cusp", 2)], (2, 1), BUDGET)
    s_coeff(MonomialCoefficientRequest((2, 3), (1, 2)), budget=BUDGET)
    assert words and mmv._r_value.cache_info().currsize
    # a word's own chain is kept only as the inner table of a longer word
    kept = {(chain[:j], bits) for chain, bits in words for j in range(1, len(chain))}
    _kept_stages(kept)
    assert any(key not in kept for key in words)


def test_s_coeff_sweep_builds_each_product_stage_once(monkeypatch):
    # R(E0_1, E0_2; a1, a2) and R(E0_1, E0_2; 2k1 - a1, 2k2 - a2) for every a1
    # share the product stage of (k2, a2, k1) and of (k2, 2k2 - a2, k1)
    built = _counted_tables(monkeypatch)
    clear_caches()
    for a1 in range(1, 6):
        s_coeff(MonomialCoefficientRequest((3, 2), (a1, 1)), budget=BUDGET)
    chains = [_chain_of(stage) for stage in built]
    products = {chain for chain in chains
                if chain[-1][0] == integrals.PRODUCT and len(chain) > 1}
    assert products == {(("product", 2), ("tail", a2), ("product", 3)) for a2 in (1, 3)}
    # each kept table built once, with the two series, five tails over E0_3 and
    # two over E0_2; no other table is built: an R word's outermost tail
    # integral is a dot against the J' table, not a table
    assert len(set(chains)) == len(chains) == 11
    assert _kept_stages([(chain, stage.bits) for chain, stage in zip(chains, built)]) == built
    assert mmv._r_value.cache_info().currsize


@pytest.mark.parametrize("dps", [15, 40])
def test_series_stage_is_the_sieve_rounded_once(dps):
    # the innermost table is sigma_{2k-1}(m) of the sieve times 2^B, exact
    # integers where the mpc stages rounded each sigma once (sigma_11 is wider
    # than the 53 bits of 15 digits from m = 25 on), and the sieve itself in
    # the exact ring, grown in two steps as a fold grows
    with mp.workdps(dps):
        for k in (2, 6):
            clear_caches()
            sig = sigma_table(2 * k - 1, 40)
            for bits, one in ((mp.prec + 128, 2 ** (mp.prec + 128)), (None, Fraction(1))):
                table = _rows(((integrals.PRODUCT, k),), bits)
                table.grow(9)
                table.grow(40)
                assert table.n == 40 and table.h == 0
                assert table.cols == [[0] + [sig[m] * one for m in range(1, 41)]]
    clear_caches()


def test_no_engine_fold_has_a_frequency_0_term(monkeypatch):
    # every table a product multiplies is a tail integral, which has no
    # frequency 0: the innermost series comes from the sieve, never as a
    # product with the constant 1, and row 0 of every table stays 0
    built = _counted_tables(monkeypatch)
    clear_caches()
    for tau in FOLD_TAUS + [mpc("0.3", "0.1")]:
        int_eval(FOLD_INDEX, tau, BUDGET)
        int_eval(make_index([2, 3], [1, 2]), tau, BUDGET)
    for word, alphas in zip(RISE_FALL[::2], RISE_FALL[1::2]):
        integrals.word_eval(word, alphas, RISE_FALL_TAUS[0], BUDGET)
    s_coeff(MonomialCoefficientRequest((2, 3), (1, 2)), budget=BUDGET)
    clear_caches()
    products = [t for t in built if t.op == integrals.PRODUCT and t.inner is not None]
    assert products and all(t.inner.op == integrals.TAIL for t in products)
    assert all(col[0] == 0 for t in built for col in t.cols)


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
            bits = _fold_bits(FOLD_CHAIN, tau)
            keys += [(FOLD_CHAIN[:j], bits) for j in range(1, len(FOLD_CHAIN) + 1)]
    _kept_stages(keys)


# sha256 of int_dump([3, 2]; [2, 1]) at tau = 1.3i and 40 digits
INT_DUMP_SHA256 = "a4cbe8fa9601265bb6865767b034aad61d8321099eeb4ac76572da1aea4c0987"
# sha256 of the retired carrier dump of the same fold, the mpc coefficients
# (2 pi i)^{d-h} R_{m,d} 2^-B, one line 'm; c_0, c_1, ...' per nonzero frequency
EXPPOLY_DUMP_SHA256 = "0975ebc9e04540f76a32109bd52e5d586a46e83fab1b3f55a63157852da9b1b8"


def test_int_dump_unchanged_by_fold_cache():
    idx = make_index([3, 2], [2, 1])
    clear_caches()
    cold = int_dump(idx, mpc(0, "1.3"), BUDGET)
    for _ in range(2):  # keeps the fold at the larger n_cut of Im tau = 0.7
        int_eval(idx, mpc(0, "0.7"), BUDGET)
    warm = int_dump(idx, mpc(0, "1.3"), BUDGET)
    assert warm == cold
    assert hashlib.sha256(warm.encode()).hexdigest() == INT_DUMP_SHA256


def test_int_dump_rebuilds_the_retired_carrier_dump():
    # each coefficient scaled and rounded once at the fold's precision, as the
    # carrier was (`exppoly._scaled`), its zeros trimmed by ExpPoly, and printed
    # at 40 digits: the row dump loses nothing that the carrier showed
    h, bits, rows = _parse_dump(int_dump(make_index([3, 2], [2, 1]), mpc(0, "1.3"), BUDGET))
    with mp.extradps(15):
        prec, rnd = mp._prec_rounding
        carrier = ExpPoly({m: tuple(mp.make_mpc(exppoly._scaled((r, 0, 0), h - d, bits, prec, rnd))
                                    for d, r in enumerate(row)) for m, row in rows.items()})
    text = "\n".join(f"{m}; " + ", ".join(mp.nstr(c, mp.dps) for c in carrier.terms[m])
                     for m in sorted(carrier.terms))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPPOLY_DUMP_SHA256


# -- word_eval's outermost tail integral: one dot against the J table ----------

DOT_TAUS = [mpc(0, 1), mpc("0.3", "0.8"), mpc("-0.45", "1.7"), mpc("0.5", "0.3"),
            mpc(-40, "0.9"), mpc("12.25", "0.4")]


def _j_errors(tau, n, e) -> dict:
    """(n, e) -> |J - ref| / |ref| 2^prec for the rows 1..n, 0..e of the J'
    table at tau and the working precision, scaled back by (2 pi i)^{-e-1},
    against ExpPoly's tail integral of e^{2 pi i m s} at 30 more digits: the mpc
    recurrence, apart from the table that elem_exp_tail reads."""
    prec = mp.prec
    table = exppoly._tails(tau._mpc_, prec)
    table.grow(n, e)
    out = {}
    with mp.extradps(30):
        two_pi_i = 2 * mp.pi * mpc(0, 1)
        for m, row in enumerate(table.rows[1:n + 1], 1):
            for j, (a, b, x) in enumerate(row[:e + 1]):
                got = mpc(mpf(a) * mpf(2) ** x, mpf(b) * mpf(2) ** x) / two_pi_i ** (j + 1)
                ref = ExpPoly.from_qseries({m: 1}).tail_integral(j + 1)(tau)
                out[m, j] = abs(got - ref) / abs(ref) * mpf(2) ** prec
    return out


@pytest.mark.parametrize("dps", [30, 40, 50])
def test_tail_table_rows_equal_elem_exp_tail(dps):
    # (2 pi i)^{-e-1} J'_{n,e}(tau) = int_tau^{i oo} e^{2 pi i n s} s^e ds, the
    # value of elem_exp_tail(n, e + 1, tau), against ExpPoly's tail integral
    with mp.workdps(dps):
        for tau in DOT_TAUS:
            table = exppoly._tails(tau._mpc_, mp.prec)
            table.grow(20, 12)
            table.grow(8, 16)  # grows the first rows in e only
            assert [len(row) for row in table.rows[1:]] == [17] * 8 + [13] * 12
            errors = _j_errors(tau, 20, 16)  # grows the last rows in e
            assert len(errors) == 20 * 17
            assert max(errors.values()) <= 16, (tau, max(errors.items(), key=lambda x: x[1]))


def test_tail_table_row_error_off_the_axis():
    # n <= 25 and e <= 24 at 40 digits, in ulps of the table's precision: the J
    # table's forward recurrence on mpc values, rounded at every step, lost up
    # to 52.2 at 0.5 + 0.3i (row 3, e = 20) and 10.0 at i (row 25, e = 6);
    # summed exactly as n^{e+1} J' over the power chains (q at 8 guard bits),
    # with one floor per entry, the J' table loses at most 0.26 (row 3, e = 20)
    # and 0.08 (row 25, e = 24), measured; asserted within twice the J table's
    for tau, worst in ((mpc("0.5", "0.3"), 52.2), (mpc(0, 1), 10.0)):
        errors = _j_errors(tau, 25, 24)
        assert max(errors.values()) <= 2 * worst, (tau, max(errors.values()))


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
    """word_eval with its outermost tail integral as a table over the kept inner
    table, grown to n_cut and read by Horner on mpc values: the reference for
    the dot."""
    tau = mpc(tau)
    chain = integrals._chain(word, alphas)
    with mp.extradps(15):
        n_cut, bits = integrals._cutoff_bits(chain, tau, BUDGET, _einf_product(word))
        top = exppoly._Rows(*chain[-1], _rows(chain[:-1], bits), bits)
        top.grow(n_cut)
        val = mp.make_mpc(_horner_read(top, tau._mpc_, n_cut))
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
    built = _counted_tables(monkeypatch)
    clear_caches()
    for word, alphas in _dot_words():
        for tau in DOT_TAUS:
            word_eval(word, alphas, tau, BUDGET)
    keys = {(integrals._chain(word, alphas), _fold_bits(integrals._chain(word, alphas), tau,
                                                         _einf_product(word)))
            for word, alphas in _dot_words() for tau in DOT_TAUS}
    # kept, and built once each: the inner tables of each word, never a word's
    # own chain unless it is the inner chain of another word
    kept = {(chain[:j], bits) for chain, bits in keys for j in range(1, len(chain))}
    stages = _kept_stages(kept)
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
    """The majorant (P, c, h) of the word's chain with c times its |Einf| product."""
    power, c, h = _majorants(integrals._chain(word, alphas))[0]
    einf = _einf_product(word)
    return power, tuple(x * einf for x in c), h


def test_fold_majorant_dominates_realized_frequencies():
    for word, alphas, tau in _majorant_words():
        with mp.extradps(15):
            power, c, h = _word_majorant(word, alphas)
            u = 2 * mp.pi * abs(tau)
            scale = sum(mpf(x.numerator) / x.denominator * u**d for d, x in enumerate(c))
            scale /= (2 * mp.pi) ** h
            chain = integrals._chain(word, alphas)
            einf = _einf_product(word)
            n_cut, bits = integrals._cutoff_bits(chain, tau, BUDGET, einf)
            rows = _rows(chain, bits)
            rows.grow(2 * n_cut)
            assert rows.n > n_cut
            einf = mpf(einf.numerator) / einf.denominator
            w = 2 * mp.pi * mpc(0, 1) * tau
            for n in range(1, rows.n + 1):
                poly = [mpf(col[n]) * mpf(2) ** -rows.bits for col in rows.cols]
                realized = abs(mp.polyval(poly[::-1], w)) / (2 * mp.pi) ** h * einf
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
            chain = integrals._chain(word, alphas)
            got = tuple(integrals._cutoff_bits(chain, mpc("0.3", y), BUDGET)[0]
                        for y in ("0.7", "1", "2"))
        assert got == certified
        assert all(n <= 1.5 * m for n, m in zip(got, needed))


# -- the fixed-point rows against the exact ones --------------------------------

# every chain of PINNED_INDICES, the inner chain of r_iter's (const 3, cusp 2; 2, 1)
# word (that of Int(2; 1) again), and Int(2, 2, 3; 1, 1, 2), whose rows go to N = 400
CERTIFIED_CHAINS = [integrals._chain(tuple(("cusp", k) for k in ks), alphas)
                    for ks, alphas in PINNED_INDICES]
CERTIFIED_CHAINS.append(integrals._chain((("const", 3), ("cusp", 2)), (2, 1))[:-1])
DEEP_CHAIN = integrals._chain((("cusp", 2), ("cusp", 2), ("cusp", 3)), (1, 1, 2))


@pytest.mark.parametrize("chain,n", [(chain, 40) for chain in CERTIFIED_CHAINS]
                         + [(DEEP_CHAIN, 400)])
def test_fixed_point_rows_within_their_certified_deficit(chain, n):
    # |rho 2^B - R| <= c_d n^P for the deficit bound (P, c, h) of every table of
    # the chain, at every (n, d), rho from the exact ring; B is the engine's at
    # tau = i and 40 digits
    bits = _fold_bits(chain, mpc(0, 1))
    fixed, exact = _rows(chain, bits), _rows(chain, None)
    fixed.grow(n)
    exact.grow(n)
    realized = []
    while fixed is not None:
        power, c, _ = _majorants(_chain_of(fixed))[1]
        assert len(fixed.cols) == len(exact.cols) == len(c)
        for col, ref, bound in zip(fixed.cols, exact.cols, c):
            for m in range(1, n + 1):
                d = abs(ref[m] * 2**bits - col[m])
                assert d <= bound * m**power, (_chain_of(fixed), m)
                realized.append(d)
        fixed, exact = fixed.inner, exact.inner
    assert any(realized)  # the floors did round


def _exppoly_fold(chain, n) -> ExpPoly:
    """The fold of `chain` up to frequency n by ExpPoly's own algebra: the
    sieve's series, `__mul__` truncated at n, and `tail_integral`."""
    def series(k):
        sig = sigma_table(2 * k - 1, n)
        return ExpPoly.from_qseries({m: sig[m] for m in range(1, n + 1)})

    fold = series(chain[0][1])
    for op, arg in chain[1:]:
        if op == integrals.PRODUCT:
            fold = (series(arg) * fold).truncated(n)
        else:
            fold = fold.tail_integral(arg)
    return fold


@pytest.mark.parametrize("chain", CERTIFIED_CHAINS + [DEEP_CHAIN])
def test_exact_rows_are_the_exppoly_fold(chain):
    # c_{n,d} = (2 pi i)^{d-h} rho_{n,d} of the exact rows equals the mpc fold of
    # the same chain at 30 more digits within 10^-(dps + 25) of each frequency's
    # largest coefficient: a slip of sign or of a power of 2 pi i in the rows,
    # which the rings share, shows here
    n = 24
    exact = _rows(chain, None)
    exact.grow(n)
    dps = mp.dps
    with mp.workdps(dps + 30):
        fold = _exppoly_fold(chain, n)
        two_pi_i = 2 * mp.pi * mpc(0, 1)
        assert set(fold.terms) == {m for m in range(1, n + 1) if any(col[m] for col in exact.cols)}
        for m, poly in fold.terms.items():
            rows = [two_pi_i ** (d - exact.h) * mpf(col[m].numerator) / col[m].denominator
                    for d, col in enumerate(exact.cols)]
            assert len(poly) == len(rows)
            top = max(abs(c) for c in poly)
            assert max(abs(a - b) for a, b in zip(poly, rows)) <= mpf(10) ** -(dps + 25) * top
