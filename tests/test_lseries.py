import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from eistau.algebra import make_index
from eistau.config import TruncationBudget
from eistau import clear_caches
from eistau.eisenstein import convolution_majorant, divisor_sigma, sigma_majorant
from eistau.lseries import _table, l_coeffs_bruteforce, l_coeffs_dp, l_eval

BUDGET = TruncationBudget(1e-30, 100_000)


def test_dp_depth1_examples():
    coeffs = l_coeffs_dp(make_index([2], [1]), 3)
    assert list(coeffs.coeffs) == [Fraction(1), Fraction(9, 2), Fraction(28, 3)]


def test_l_coefficients_iterate_and_count_from_one():
    coeffs = l_coeffs_dp(make_index([2], [1]), 3)
    assert list(coeffs) == [Fraction(1), Fraction(9, 2), Fraction(28, 3)]
    assert len(coeffs) == 3
    assert Fraction(1) in coeffs and Fraction(0) not in coeffs
    assert coeffs[1] == Fraction(1)


def test_dp_depth2_single_composition():
    coeffs = l_coeffs_dp(make_index([2, 2], [1, 1]), 2)
    assert coeffs[2] == Fraction(1, 2)
    assert coeffs[1] == 0


def test_bruteforce_depth2_hand_enumeration():
    coeffs = l_coeffs_bruteforce(make_index([2, 2], [1, 1]), 3)
    # compositions of 3 into 2 parts: (1,2) and (2,1)
    assert coeffs[3] == Fraction(9, 6) + Fraction(9, 3)
    assert coeffs[1] == 0


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        l_coeffs_bruteforce(make_index([2] * 5, [1] * 5), 10)
    with pytest.raises(ValueError):
        l_coeffs_bruteforce(make_index([2], [1]), 1000)


def test_dp_equals_bruteforce_on_grid():
    indices = [
        ((2,), (1,)),
        ((4,), (3,)),
        ((2, 3), (2, 1)),
        ((3, 2), (1, 3)),
        ((2, 2, 4), (1, 3, 2)),
        ((3, 3, 2), (2, 2, 1)),
    ]
    for ks, alphas in indices:
        idx = make_index(ks, alphas)
        assert l_coeffs_dp(idx, 50).coeffs == l_coeffs_bruteforce(idx, 50).coeffs


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(2, 4), st.integers(1, 3)), min_size=1, max_size=3),
    st.integers(5, 25),
)
def test_dp_equals_bruteforce_random(pairs, n):
    idx = make_index([k for k, _ in pairs], [a for _, a in pairs])
    assert l_coeffs_dp(idx, n).coeffs == l_coeffs_bruteforce(idx, n).coeffs


def test_positivity_from_depth_onward():
    for ks, alphas in (((2, 3), (1, 2)), ((2, 2, 2), (1, 1, 1))):
        idx = make_index(ks, alphas)
        coeffs = l_coeffs_dp(idx, 30)
        r = idx.depth
        assert all(coeffs[m] == 0 for m in range(1, r))
        assert all(coeffs[m] > 0 for m in range(r, 31))


def test_l_eval_depth0():
    assert l_eval(make_index([], []), mpc(0, 1), BUDGET) == mpc(1)


def test_l_eval_depth1_value():
    tau = mpc(0, 2)
    val = l_eval(make_index([2], [1]), tau, BUDGET)
    q = mp.exp(-4 * mp.pi)
    ref = sum(divisor_sigma(3, n) * q**n / n for n in range(1, 30)) / (2 * mp.pi * mpc(0, 1))
    assert abs(val - ref) < mpf("1e-30")
    assert abs(abs(val) - mpf("3.4875e-6") / (2 * mp.pi)) < mpf("1e-10")


def test_l_eval_tau_power_scaling():
    tau = mpc(0, 2)
    base = l_eval(make_index([2], [1], 0), tau, BUDGET)
    assert abs(l_eval(make_index([2], [1], 3), tau, BUDGET) - tau**3 * base) < mpf("1e-35")


def test_l_eval_matches_coefficient_sum_depth2():
    tau = mpc("0.25", "1.0")
    idx = make_index([2, 3], [2, 1])
    val = l_eval(idx, tau, BUDGET)
    coeffs = l_coeffs_dp(idx, 60)
    q = mp.expjpi(2 * tau)
    acc = mpc(0)
    for m in range(60, 0, -1):
        c = coeffs[m]
        acc += mpf(c.numerator) / c.denominator * q**m
    ref = (2 * mp.pi * mpc(0, 1)) ** (-3) * acc
    assert abs(val - ref) < mpf("1e-28")


MAJORANT_INDICES = [((2,), (1,)), ((11,), (1,)), ((11, 11), (1, 1)), ((3, 4), (6, 1)),
                    ((2, 2, 2), (1, 1, 1)), ((5, 3, 2), (1, 4, 2))]


@pytest.mark.parametrize("ks,alphas", MAJORANT_INDICES)
def test_coeff_majorant_dominates_exact_coefficients(ks, alphas):
    idx = make_index(ks, alphas)
    power, c = _table(ks, alphas).majorant
    coeffs = l_coeffs_dp(idx, 200)
    assert all(coeffs[m] <= c * m**power for m in range(1, 201))


def test_coeff_majorant_layer_constants():
    # c(m) = sum_{u} sigma_3(u) sigma_3(m-u) / ((m-u) m) with sigma_3(n) <= 3/2 n^3:
    # the inner layer is 3/2 n^2, the convolution K(3, 2) m^6 = (B(4, 3) + 3^3 2^2 / 5^5) m^6
    k32 = Fraction(1, 60) + Fraction(108, 3125)
    assert _table((2, 2), (1, 1)).majorant == (5, Fraction(9, 4) * k32)


def _coeff_majorant_loop(ks, alphas):
    """The index-by-index majorant loop: the reference for the majorants the
    tables carry."""
    power, c = None, Fraction(1)
    for k, alpha in zip(reversed(ks), reversed(alphas)):
        c *= sigma_majorant(k)
        if power is None:
            power = 2 * k - 1
        else:
            c *= convolution_majorant(2 * k - 1, power)
            power += 2 * k
        power = max(power - alpha, 0)
    return power, c


def test_table_majorants_equal_the_index_loop():
    clear_caches()
    for ks, alphas in MAJORANT_INDICES + PINNED_L_INDICES:
        assert _table(ks, alphas).majorant == _coeff_majorant_loop(ks, alphas), (ks, alphas)


def test_l_eval_cutoff_certified_at_exact_im_tau():
    # N comes from tail_start at Im tau itself: rounding Im tau down to a
    # multiple of 1/8 gave tables of 22 and 13 for the same budget
    idx = make_index([3, 4], [2, 3])
    for tau, n in ((mpc("0.3", "0.74"), 18), (mpc("0.3", "1.1"), 12)):
        clear_caches()
        l_eval(idx, tau, BUDGET)
        assert _table(idx.ks, idx.alphas).n == n


def test_l_coeffs_dp_grows_the_kept_table():
    # l_coeffs_dp and l_eval share one table per index: no second chain
    idx = make_index([2, 3], [1, 2])
    clear_caches()
    l_eval(idx, mpc("0.1", "1.9"), BUDGET)
    table = _table(idx.ks, idx.alphas)
    rows, n0 = table.rows, table.n
    assert n0 < 30
    coeffs = l_coeffs_dp(idx, 30).coeffs
    assert _table(idx.ks, idx.alphas) is table and table.rows is rows
    assert table.n == 30 and table.inner is _table((3,), (2,))
    assert _table.cache_info().currsize == 2
    assert l_coeffs_dp(idx, n0).coeffs == coeffs[:n0] and table.n == 30


def test_l_table_grows_in_place_and_converts_once():
    # a larger N extends the kept rows of the table and of its suffix tables,
    # which are the cache's own, rather than rebuilding them; the rows equal
    # the enumeration oracle and their mpf values a fresh conversion
    idx = make_index([2, 3, 2], [1, 2, 2])
    keys = [(idx.ks[j:], idx.alphas[j:]) for j in range(3)]
    clear_caches()
    l_eval(make_index([3, 2], [2, 2]), mpc("0.1", "1.9"), BUDGET)  # the suffix first
    l_eval(idx, mpc("0.1", "1.9"), BUDGET)
    assert _table.cache_info().currsize == 3  # the table and its two suffix tables
    tables = [_table(*key) for key in keys]
    assert _table.cache_info().currsize == 3  # each a hit
    assert [t.inner for t in tables] == tables[1:] + [None]
    n0, kept = tables[0].n, [list(t.rows) for t in tables]
    values0 = dict(tables[0].values.terms)
    l_eval(idx, mpc("0.1", "0.7"), BUDGET)
    assert [_table(*key) for key in keys] == tables and tables[0].n > n0
    assert all(t.rows[m] is old[m] for t, old in zip(tables, kept) for m in range(n0 + 1))
    assert all(tables[0].values.terms[m] is p for m, p in values0.items())
    for key, t in zip(keys, tables):
        assert tuple(t.rows[1:]) == l_coeffs_bruteforce(make_index(*key), t.n).coeffs
    with mp.extradps(10):  # the precision l_eval converts at
        assert tables[0].prec == mp.prec
        assert {m: p[0]._mpc_ for m, p in tables[0].values.terms.items()} == {
            m: mpc(mpf(c.numerator) / c.denominator)._mpc_
            for m, c in enumerate(tables[0].rows) if c}
    with mp.workdps(50):  # another precision converts afresh
        l_eval(idx, mpc("0.1", "1.9"), BUDGET)
        with mp.extradps(10):
            assert tables[0].prec == mp.prec and tables[0].n_values == tables[0].n
            assert max(tables[0].values.terms) == tables[0].n
    clear_caches()
    assert _table.cache_info().currsize == 0


def test_l_table_read_below_its_kept_n_gives_cold_bits():
    # a lower Im tau grows the table past what a higher one needs; the higher
    # one then reads the kept series up to its own N only
    idx = make_index([3, 2], [2, 1], 1)
    taus = [mpc("0.2", "0.7"), mpc("-0.3", "1.6"), mpc(0, 2)]
    cold = []
    for tau in taus:
        clear_caches()
        cold.append(l_eval(idx, tau, BUDGET)._mpc_)
    n_last = _table(idx.ks, idx.alphas).n
    clear_caches()
    assert [l_eval(idx, tau, BUDGET)._mpc_ for tau in taus] == cold
    assert _table(idx.ks, idx.alphas).n > n_last


def _mpc_digest(values) -> str:
    """sha256 of the raw (sign, mantissa, exponent, bitcount) parts of mpc values."""
    h = hashlib.sha256()
    for v in values:
        for part in v._mpc_:
            h.update((",".join(str(int(x)) for x in part) + ";").encode())
    return h.hexdigest()


# L values at depth 1-3 with t = 0..2, on and off the imaginary axis, at 40
# and 70 digits; every bit is pinned
PINNED_L_INDICES = [((2,), (1,)), ((4,), (3,)), ((3, 2), (2, 1)), ((2, 3), (3, 2)),
                    ((2, 2, 3), (1, 2, 1)), ((3, 2, 4), (2, 1, 3))]
PINNED_L_TAUS = [("0", "1"), ("0.3", "0.8"), ("-0.45", "0.7")]  # parsed at the test's precision
PINNED_L_SHA256 = "39698f8827bc79d9840c0fc2cbc6b79713adffc54b0c4a7de49b6435d9b56931"


def test_l_values_bit_identical():
    vals = []
    for dps in (40, 70):
        with mp.workdps(dps):
            vals += [l_eval(make_index(ks, al, t), mpc(*tau)) for ks, al in PINNED_L_INDICES
                     for t in range(3) for tau in PINNED_L_TAUS]
    assert _mpc_digest(vals) == PINNED_L_SHA256
