import hashlib
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

from eistau.algebra import make_index
from eistau.config import TruncationBudget
from eistau import clear_caches, exppoly
from eistau.eisenstein import convolution_majorant, divisor_sigma, sigma_majorant, sigma_table
from eistau.exppoly import _block, _majorants, _powers, _rows, _two_pi_power
from eistau.lseries import _chain, _l_read, l_coeffs_bruteforce, l_coeffs_dp, l_eval

BUDGET = TruncationBudget(1e-30, 100_000)


def _bounds(ks, alphas) -> tuple:
    """(majorant, deficit) of the rows of (ks; alphas) as pairs (P, C): the
    bounds of its chain (`exppoly._majorants`), degree 0 only."""
    (power, (c,), _), (d_power, (d,), _) = _majorants(_chain(ks, alphas))
    return (power, c), (d_power, d)


def _table(ks, alphas, bits):
    """The kept row table of (ks; alphas) in the ring bits: its chain's last, an L layer."""
    return _rows(_chain(ks, alphas), bits)


def _suffix(table):
    """The table of the index's suffix after its first entry: below the layer
    and the product of that entry (None at depth 1)."""
    return table.inner.inner


def _index_of(table) -> tuple:
    """(ks, alphas) of an L table, read back through its inner tables."""
    ks, alphas = [], []
    while table is not None:
        ks.append(table.inner.arg)
        alphas.append(table.arg)
        table = _suffix(table)
    return ks, alphas


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
    power, c = _bounds(ks, alphas)[0]
    coeffs = l_coeffs_dp(idx, 200)
    assert all(coeffs[m] <= c * m**power for m in range(1, 201))


def test_coeff_majorant_layer_constants():
    # c(m) = sum_{u} sigma_3(u) sigma_3(m-u) / ((m-u) m) with sigma_3(n) <= 3/2 n^3:
    # the inner layer is 3/2 n^2, the convolution K(3, 2) m^6 = (B(4, 3) + 3^3 2^2 / 5^5) m^6
    k32 = Fraction(1, 60) + Fraction(108, 3125)
    assert _bounds((2, 2), (1, 1))[0] == (5, Fraction(9, 4) * k32)


def _coeff_majorant_loop(ks, alphas):
    """The index-by-index majorant loop: the reference for the majorants the
    tables are read with."""
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
        assert _bounds(ks, alphas)[0] == _coeff_majorant_loop(ks, alphas), (ks, alphas)


def test_table_deficits_equal_the_index_loop():
    # the deficit majorant is the coefficient majorant's loop seeded at (0, 1)
    # at depth 1, plus 1 per layer: (2, 2; 1, 1) has C = 3/2 K(3, 0) + 1
    clear_caches()
    assert _bounds((2, 2), (1, 1))[1] == (3, Fraction(3, 2) * (Fraction(1, 4) + 1) + 1)
    for ks, alphas in MAJORANT_INDICES + PINNED_L_INDICES:
        power, c = 0, Fraction(1)
        for k, alpha in zip(reversed(ks[:-1]), reversed(alphas[:-1])):
            c = c * sigma_majorant(k) * convolution_majorant(2 * k - 1, power) + 1
            power = max(power + 2 * k - alpha, 0)
        assert _bounds(ks, alphas)[1] == (power, c), (ks, alphas)


def _read(idx, tau, budget=BUDGET):
    """(fixed-point table, N) of l_eval's read at tau, at the
    precision l_eval reads at."""
    with mp.extradps(10):
        return _l_read(idx, mpc(tau), budget)


def test_l_eval_cutoff_certified_at_exact_im_tau():
    # N comes from tail_start at Im tau itself: rounding Im tau down to a
    # multiple of 1/8 gave tables of 22 and 13 for the same budget
    idx = make_index([3, 4], [2, 3])
    for tau, n in ((mpc("0.3", "0.74"), 18), (mpc("0.3", "1.1"), 12)):
        clear_caches()
        l_eval(idx, tau, BUDGET)
        table, n_read = _read(idx, tau)
        assert n_read == n and table.n == n


def test_l_coeffs_dp_grows_the_kept_table():
    # l_eval grows fixed-point tables only, with the majorants of their chain;
    # l_coeffs_dp grows the kept exact table in place, with its suffix table,
    # and leaves the fixed-point ones as they are; each index entry is two
    # tables, a product and an L layer
    idx = make_index([2, 3], [1, 2])
    clear_caches()
    l_eval(idx, mpc("0.1", "1.9"), BUDGET)
    fixed, n0 = _read(idx, mpc("0.1", "1.9"))
    assert fixed.n == n0 < 30 and _suffix(fixed) is _table((3,), (2,), fixed.bits)
    assert _rows.cache_info().currsize == 4  # the table and its suffix's, no exact one
    coeffs = l_coeffs_dp(idx, n0).coeffs
    table = _table(idx.ks, idx.alphas, None)
    rows = table.cols[0]
    assert table.n == n0 and _suffix(table) is _table((3,), (2,), None)
    assert _rows.cache_info().currsize == 8
    assert l_coeffs_dp(idx, 30).coeffs[:n0] == coeffs
    assert _table(idx.ks, idx.alphas, None) is table and table.cols[0] is rows
    assert table.n == 30 and _suffix(table).n == 30 and fixed.n == n0
    assert _rows.cache_info().currsize == 8


def _deficits(table, n):
    """d(m) = c(m) 2^B - R(m) for m = 1..n of a fixed-point table, from the
    exact rows of the same index."""
    exact = l_coeffs_dp(make_index(*_index_of(table)), n).coeffs
    return [0] + [c * 2**table.bits - r for c, r in zip(exact, table.cols[0][1:n + 1])]


def test_l_table_grows_in_place_and_converts_once():
    # a larger N extends the kept fixed-point rows of the table and of its
    # suffix tables, which are the cache's own, rather than rebuilding them;
    # the rows lie at most their deficit majorant below the exact rows of the
    # enumeration oracle, and a read is the exact dot of the rows with the
    # power chain of q, each part rounded once; an index whose suffix was
    # read first as an index of its own grows on that suffix's tables
    idx = make_index([2, 3, 2], [1, 2, 2])
    clear_caches()
    l_eval(make_index([3, 2], [2, 2]), mpc("0.1", "1.9"), BUDGET)  # the suffix first
    l_eval(idx, mpc("0.1", "1.9"), BUDGET)
    assert _rows.cache_info().currsize == 6  # the table and its two suffix tables, two each
    table, n0 = _read(idx, mpc("0.1", "1.9"))
    keys = [(idx.ks[j:], idx.alphas[j:], table.bits) for j in range(3)]
    tables = [_table(*key) for key in keys]
    assert _rows.cache_info().currsize == 6  # each a hit
    assert tables[0] is table and [_suffix(t) for t in tables] == tables[1:] + [None]
    kept = [list(t.cols[0]) for t in tables]
    tau = mpc("0.1", "0.7")
    l_eval(idx, tau, BUDGET)
    again, n1 = _read(idx, tau)
    assert again is table and n1 > n0 and all(t.n == n1 for t in tables)
    assert all(t.cols[0][m] is old[m] for t, old in zip(tables, kept) for m in range(n0 + 1))
    for (ks, alphas, _), t in zip(keys, tables):
        exact = l_coeffs_bruteforce(make_index(ks, alphas), t.n).coeffs
        power, c = _bounds(ks, alphas)[1]
        assert all(0 <= e * 2**t.bits - r <= c * m**power
                   for m, (e, r) in enumerate(zip(exact, t.cols[0][1:]), 1))
    with mp.extradps(10):  # the precision l_eval reads at
        prec, rnd = mp._prec_rounding
        q_pows = list(islice(_powers(_block(mp.expjpi(2 * tau)._mpc_), prec), 1, n0 + 1))
        sums = [sum(Fraction(r * q[j]) * Fraction(2) ** q[2]
                    for r, q in zip(table.cols[0][1:], q_pows))
                for j in (0, 1)]
        # times (2 pi i)^{-h} 2^-B: i^{-h} exactly, (2 pi)^{-h} = m 2^x at prec + 8 bits
        for _ in range(table.h % 4):
            sums = [sums[1], -sums[0]]
        m, x = _two_pi_power(table.h, prec)
        sums = [v * m * Fraction(2) ** (x - table.bits) for v in sums]
        assert table.read(tau._mpc_, n0) == tuple(
            from_man_exp(v.numerator, 1 - v.denominator.bit_length(), prec, rnd) for v in sums)
    with mp.workdps(50):  # another precision reads a table of more bits
        l_eval(idx, mpc("0.1", "1.9"), BUDGET)
        wider, _ = _read(idx, mpc("0.1", "1.9"))
    assert wider.bits > table.bits and table.n == n1
    clear_caches()
    assert _rows.cache_info().currsize == 0


SHARED_SUFFIX_INDICES = [((2,), (2,)), ((3, 2), (2, 2)), ((2, 3, 2), (1, 2, 2)),
                         ((4, 3, 2), (3, 2, 2)), ((5, 2), (1, 2)), ((2, 2, 5, 2), (4, 1, 1, 2))]


@pytest.mark.parametrize("step", [None, 1])
def test_indices_at_one_precision_share_their_suffix_tables(monkeypatch, step):
    # B is the working precision plus a multiple of _BITS_STEP, so indices
    # whose needs differ read at one B, and each chain, a suffix of several
    # indices included, has one fixed-point table; negative control: at a
    # step of 1 bit the needs differ, and shared suffixes are kept per B
    if step is not None:
        monkeypatch.setattr(exppoly, "_BITS_STEP", step)
    tau = mpc("0.25", "0.9")
    clear_caches()
    for ks, alphas in SHARED_SUFFIX_INDICES:
        l_eval(make_index(ks, alphas), tau, BUDGET)
    bits = {_read(make_index(ks, alphas), tau)[0].bits for ks, alphas in SHARED_SUFFIX_INDICES}
    chains = {_chain(ks, alphas)[:j] for ks, alphas in SHARED_SUFFIX_INDICES
              for j in range(1, 2 * len(ks) + 1)}
    shared = _rows.cache_info().currsize == len(chains)
    if step is None:
        with mp.extradps(10):
            assert len(bits) == 1 and (bits.pop() - mp.prec) % exppoly._BITS_STEP == 0
        assert shared
    else:
        assert len(bits) > 2 and not shared


def test_l_table_read_below_its_kept_n_gives_cold_bits():
    # a lower Im tau grows the table past what a higher one needs; the higher
    # one then reads the kept series up to its own N only
    idx = make_index([3, 2], [2, 1], 1)
    taus = [mpc("0.2", "0.7"), mpc("-0.3", "1.6"), mpc(0, 2)]
    cold = []
    for tau in taus:
        clear_caches()
        cold.append(l_eval(idx, tau, BUDGET)._mpc_)
    n_last = _read(idx, taus[-1])[1]
    clear_caches()
    assert [l_eval(idx, tau, BUDGET)._mpc_ for tau in taus] == cold
    table = _read(idx, taus[-1])[0]
    assert table is _read(idx, taus[0])[0] and table.n > n_last


def _seeded_indices(seed, depths):
    """Indices of the given depths with k in 2..4 and alpha in 1..4, drawn from
    a seeded generator."""
    rng = random.Random(seed)
    return [tuple(zip(*[(rng.randint(2, 4), rng.randint(1, 4)) for _ in range(r)]))
            for r in depths]


DEFICIT_INDICES = _seeded_indices(2404, (1, 1, 2, 2, 3))


def _layer_excess(table, deficits):
    """d(m) - sum_u sigma(u) d_inner(m-u) / m^alpha for m = 1..n, the realized
    deficit of one layer over its share from the inner layer (none at depth
    1).  The sum is 2^B c(m) - S(m) / m^alpha for the exact row c(m) and
    S(m) = sum_u sigma(u) R_inner(m-u) over the inner fixed-point rows."""
    n = len(deficits) - 1
    sig = sigma_table(2 * table.inner.arg - 1, n)
    out = []
    for m in range(1, n + 1):
        share = 0
        if _suffix(table) is not None:
            inner = _suffix(table).cols[0]
            exact = deficits[m] + table.cols[0][m]  # c(m) 2^B
            share = exact - Fraction(sum(sig[u] * inner[m - u] for u in range(1, m)),
                                     m**table.arg)
        out.append(deficits[m] - share)
    return out


@pytest.mark.parametrize("ks,alphas", DEFICIT_INDICES)
def test_fixed_point_rows_within_their_certified_deficit(ks, alphas):
    # 0 <= c(m) 2^B - R(m) <= C m^P for the deficit majorant (P, C), and each
    # layer's deficit obeys d(m) < 1 + sum_u sigma(u) d_inner(m-u) / m^alpha;
    # negative controls: without the 1 that recursion fails, and a row raised
    # by one unit breaks 0 <= d
    n = 400
    table = _table(ks, alphas, 200)
    table.grow(n)
    d = _deficits(table, n)
    power, c = _bounds(ks, alphas)[1]
    assert all(0 <= d[m] <= c * m**power for m in range(1, n + 1))
    layer = table
    while layer is not None:
        dl = _deficits(layer, n)
        excess = _layer_excess(layer, dl)
        assert all(x < 1 for x in excess)
        assert any(x > 0 for x in excess)  # the 1 of each layer is needed
        layer = _suffix(layer)
    low, m = min((d[j], j) for j in range(1, n + 1) if table.cols[0][j])
    assert low < 1
    raised = list(table.cols[0])
    raised[m] += 1
    exact = l_coeffs_dp(make_index(ks, alphas), n).coeffs
    assert not all(0 <= e * 2**table.bits - r for e, r in zip(exact, raised[1:]))


@pytest.mark.parametrize("ks,alphas,t,tau,eps", [
    (ks, alphas, t, tau, eps) for (ks, alphas), t, tau, eps in zip(
        _seeded_indices(2405, (1, 2, 3, 3, 2)), (2, 0, 1, 0, 1),
        (("0.3", "0.1"), ("-0.45", "0.7"), ("0.2", "0.3"), ("0", "1"), ("0.1", "0.4")),
        (1e-30, 1e-30, 1e-30, 1e-30, 1e-70))])
def test_fixed_point_read_within_its_certified_term(ks, alphas, t, tau, eps):
    # the read of the fixed-point rows and that of the exact rows, both at 70
    # more digits than l_eval reads at (enough to resolve the difference,
    # which lies below its precision), differ by at most the deficit term
    # 2^-B sum_{m <= N} C m^P |q|^m, which times the prefactor is at most
    # eps 2^-24 (at eps 1e-70, below the 40 digits, that bound sets the bits
    # B is rounded up from); the value l_eval returns is within eps of the
    # exact read, or within its own rounding where that is larger
    idx, budget = make_index(ks, alphas, t), TruncationBudget(eps, BUDGET.n_max)
    clear_caches()
    value = l_eval(idx, mpc(*tau), budget)
    table, n = _read(idx, mpc(*tau), budget)
    scale = (2 * mp.pi) ** -sum(alphas) * abs(mpc(*tau)) ** t
    power, c = _bounds(ks, alphas)[1]
    exact = l_coeffs_dp(idx, n).coeffs
    with mp.extradps(70):
        q = mp.expjpi(2 * mpc(*tau))
        unit = mpf(2) ** -table.bits
        fixed = mp.fsum(table.cols[0][m] * unit * q**m for m in range(1, n + 1))
        ref = mp.fsum(mpf(e.numerator) / e.denominator * q**m for m, e in enumerate(exact, 1))
        term = mp.fsum(c.numerator * m**power * unit / c.denominator * abs(q) ** m
                       for m in range(1, n + 1))
        assert 0 < abs(fixed - ref) <= term
        assert scale * term <= eps * mpf(2) ** -24
        ref *= (2 * mp.pi * mpc(0, 1)) ** -sum(alphas) * mpc(*tau) ** t
    assert abs(value - ref) <= max(eps, abs(ref) * 2 ** (4 - mp.prec))


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
