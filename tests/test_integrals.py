import hashlib

import pytest
from mpmath import mp, mpc, mpf

from eistau import clear_caches, integrals
from eistau.algebra import make_index
from eistau.config import BudgetError, TruncationBudget
from eistau.eisenstein import eis_cusp_eval
from eistau.integrals import int_eval, int_exppoly
from eistau.lseries import l_eval
from eistau.mmv import r_iter

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
PINNED_FOLD_SHA256 = "c12809ece1f62f79ec167c14f5627631bb73de6dd198225ff43c71f5026d1e8e"


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


def test_fold_cache_admits_on_second_sight():
    clear_caches()
    int_eval(FOLD_INDEX, FOLD_TAUS[0], BUDGET)
    assert not integrals._folds and len(integrals._fold_seen) == 1
    int_eval(FOLD_INDEX, FOLD_TAUS[1], BUDGET)
    assert len(integrals._folds) == 1


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
EXPPOLY_DUMP_SHA256 = "9e424861efce96c453d06d1cfdb9026edeb3b66b3402c08ab234cc6f0256c405"


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
