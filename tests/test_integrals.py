import hashlib
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from eistau import clear_caches, integrals, mmv
from eistau.algebra import make_index
from eistau.config import BudgetError, TruncationBudget
from eistau.eisenstein import eis_constant, eis_cusp_eval
from eistau.exppoly import _peval
from eistau.integrals import int_eval, int_exppoly
from eistau.lseries import l_eval
from eistau.mmv import MonomialCoefficientRequest, r_iter, s_coeff

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


# -- the fold cache: one fold per (index, precision), reused across tau --------

FOLD_INDEX = make_index([3, 2, 2], [2, 1, 3])
FOLD_WORD = tuple(("cusp", k) for k in FOLD_INDEX.ks)
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
    # the kept fold is the one at the largest n_cut seen
    with mp.extradps(15):  # the precision int_eval folds at
        n_cut = max(integrals.freq_cutoff(FOLD_WORD, FOLD_INDEX.alphas, tau, BUDGET)
                    for tau in taus)
        assert integrals._folds[(FOLD_WORD, FOLD_INDEX.alphas, mp.prec)][0] == n_cut


def test_fold_cache_holds_int_eval_words_only():
    # int_eval keeps its word's fold from the first call on; the base-point
    # words of mmv are memoized by value there and fold without the cache
    clear_caches()
    int_eval(FOLD_INDEX, FOLD_TAUS[0], BUDGET)
    assert [key[:2] for key in integrals._folds] == [(FOLD_WORD, FOLD_INDEX.alphas)]
    clear_caches()
    r_iter([("const", 3), ("cusp", 2)], (2, 1), BUDGET)
    s_coeff(MonomialCoefficientRequest((2, 3), (1, 2)), budget=BUDGET)
    assert not integrals._folds and mmv._memo


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
    assert len(integrals._folds) == 2
    assert len({prec for _, _, prec in integrals._folds}) == 2


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


# -- the fold majorant: it dominates every realized frequency, and is sharp -----


def _einf_product(word):
    out = mpf(1)
    for kind, k in word:
        if kind == "const":
            c = abs(eis_constant(k))
            out *= mpf(c.numerator) / c.denominator
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


def test_fold_majorant_dominates_realized_frequencies():
    for word, alphas, tau in _majorant_words():
        with mp.extradps(15):
            power, c, h = integrals.fold_majorant(word, alphas)
            u = 2 * mp.pi * abs(tau)
            scale = sum(mpf(x.numerator) / x.denominator * u**d for d, x in enumerate(c))
            scale /= (2 * mp.pi) ** h
            n_cut = integrals.freq_cutoff(word, alphas, tau, BUDGET)
            fold = integrals._fold(word, alphas, 2 * n_cut)
            assert fold.max_freq() > n_cut
            einf = _einf_product(word)
            for n, poly in fold.terms.items():
                realized = abs(_peval(poly, tau)) * einf
                assert realized <= scale * mpf(n) ** power, (word, alphas, tau, n)


def test_fold_majorant_stage_constants():
    # cusp-cusp: zeta(3) <= 3/2 per series, sum_{n1+n2=n} n1^3 n2^2 <= K n^6 with
    # K = B(4, 3) + 3^3 2^2 / 5^5, and one 1/(2 pi n) per alpha = 1 stage
    k32 = Fraction(1, 60) + Fraction(108, 3125)
    word = (("cusp", 2), ("cusp", 2))
    assert integrals.fold_majorant(word, (1, 1)) == (5, (Fraction(9, 4) * k32,), 2)
    # const-cusp: |P_n(t)| <= |Einf_3| (3/2) n^2/(2 pi) (|t|/(2 pi n) + 1/(2 pi n)^2)
    #   <= n (2 pi)^{-3} (1 + 2 pi |t|) / 336, as |Einf_3| = 1/504
    word = (("const", 3), ("cusp", 2))
    assert integrals.fold_majorant(word, (2, 1)) == (1, (Fraction(1, 336),) * 2, 3)


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
            got = tuple(integrals.freq_cutoff(word, alphas, mpc("0.3", y), BUDGET)
                        for y in ("0.7", "1", "2"))
        assert got == certified
        assert all(n <= 1.5 * m for n, m in zip(got, needed))
