import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from eistau.config import BudgetError, TruncationBudget
from eistau.eisenstein import (
    bernoulli,
    divisor_sigma,
    eis_constant,
    eis_cusp_eval,
    eis_eval,
    precision_selftest,
    sigma_table,
    tail_start,
)


def naive_bernoulli(m: int) -> Fraction:
    """Oracle: b_m from sum_{j<=n} C(n+1, j) b_j = 0 with b_0 = 1."""
    b = [Fraction(1)]
    for n in range(1, m + 1):
        s = sum(Fraction(comb(n + 1, j)) * b[j] for j in range(n))
        b.append(-s / (n + 1))
    return b[m]


def test_divisor_sigma_examples():
    assert divisor_sigma(3, 4) == 73
    assert divisor_sigma(3, 1) == 1
    assert divisor_sigma(5, 6) == 8052


def test_divisor_sigma_rejects():
    with pytest.raises(ValueError):
        divisor_sigma(2, 4)
    with pytest.raises(ValueError):
        divisor_sigma(3, 0)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 400), st.integers(1, 400), st.sampled_from([3, 5, 7]))
def test_divisor_sigma_multiplicative(m, n, w):
    if gcd(m, n) == 1:
        assert divisor_sigma(w, m * n) == divisor_sigma(w, m) * divisor_sigma(w, n)


def test_sigma_table_matches_direct():
    tab = sigma_table(5, 50)
    for n in range(1, 51):
        assert tab[n] == divisor_sigma(5, n)


@pytest.mark.parametrize("m,expected", [(2, Fraction(1, 6)), (4, Fraction(-1, 30)), (12, Fraction(-691, 2730))])
def test_bernoulli_frozen_values(m, expected):
    assert bernoulli(m) == expected
    assert bernoulli(m) == naive_bernoulli(m)


def test_bernoulli_against_oracle_range():
    for m in range(2, 21, 2):
        assert bernoulli(m) == naive_bernoulli(m)


def test_bernoulli_rejects_odd():
    with pytest.raises(ValueError):
        bernoulli(3)


def test_eis_constant_values():
    assert eis_constant(2) == Fraction(1, 240)
    assert eis_constant(3) == Fraction(-1, 504)
    assert eis_constant(4) == Fraction(1, 480)


def test_eis_cusp_eval_at_i():
    # oracle: direct truncated summation with independent divisor sums
    budget = TruncationBudget(1e-30, 10_000)
    val = eis_cusp_eval(2, mpc(0, 1), budget)
    q = mp.exp(-2 * mp.pi)
    ref = sum(divisor_sigma(3, n) * q**n for n in range(1, 40))
    assert abs(val - ref) < mpf("1e-30")
    assert abs(val - mpf("1.899012e-3")) < mpf("1e-8")


def test_eis_cusp_eval_far_away_is_zero():
    val = eis_cusp_eval(2, mpc(0, 1_000_000), TruncationBudget(1e-30, 100))
    assert abs(val) < mpf("1e-30")


def test_eis_cusp_eval_weight6_small_truncation():
    budget = TruncationBudget(1e-30, 10_000)
    val = eis_cusp_eval(3, mpc(0, 2), budget)
    q = mp.exp(-4 * mp.pi)
    ref = sum(divisor_sigma(5, n) * q**n for n in range(1, 16))
    assert abs(val - ref) < mpf("1e-30")


def test_eis_cusp_eval_budget_exhaustion():
    with pytest.raises(BudgetError):
        eis_cusp_eval(2, mpc(0, "0.001"), TruncationBudget(1e-30, 50))


def test_tail_start_certificate():
    # the certified N really bounds the tail (checked against a long direct sum)
    x = mp.exp(-2 * mp.pi)
    for power in (4, 10):
        n0 = tail_start(power, 1, mpf("1e-25"), 10_000)
        tail = sum(mpf(n) ** power * x**n for n in range(n0 + 1, n0 + 400))
        assert tail < mpf("1e-25")


def test_modular_vanishing_weight6_at_i():
    resid = precision_selftest()
    assert resid < mpf(10) ** (-(mp.dps - 5))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_modular_transformation_off_fixed_point(k):
    budget = TruncationBudget(1e-30, 100_000)
    tau = mpc("0.5", "2")
    lhs = eis_eval(k, -1 / tau, budget)
    rhs = tau ** (2 * k) * eis_eval(k, tau, budget)
    assert abs(lhs - rhs) < 10 * mpf(budget.eps) * max(1, abs(rhs))


def _tail_start_mpf(power, x, eps, n_max):
    """Reference: the step loop of tail_start with both tests in mpf throughout."""
    x, eps = mpf(x), mpf(eps)
    lnx, log_eps = mp.log(x), mp.log(eps)
    n = max(1, int(mp.ceil(power / (-lnx))))
    while n <= n_max:
        rho = (mpf(n + 2) / (n + 1)) ** power * x
        if rho < 1:
            log_tail = power * mp.log(n + 1) + (n + 1) * lnx - mp.log(1 - rho)
            if log_tail < log_eps:
                return n
        n += 1 + n // 16
    raise BudgetError("cap reached")


def _same_outcome(power, y, eps):
    """tail_start on y against the mpf reference loop on x = e^{-2 pi y}; True if both raise."""
    got = want = BudgetError
    try:
        got = tail_start(power, y, eps, 500)
    except BudgetError:
        pass
    try:
        want = _tail_start_mpf(power, mp.exp(-2 * mp.pi * y), eps, 500)
    except BudgetError:
        pass
    assert got == want, (power, y, eps)
    return got is BudgetError


def test_tail_start_screen_matches_mpf_loop():
    # the double-precision screen picks the same N as the mpf tests, BudgetError included
    rng = random.Random(20261018)
    outcomes = []
    for _ in range(3000):
        power = rng.randint(2, 70)
        y = mpf(0.05 * 800 ** rng.random())  # log-uniform on [0.05, 40]
        eps = mpf(10) ** -rng.randint(10, 60)
        outcomes.append(_same_outcome(power, y, eps))
    assert 0 < sum(outcomes) < len(outcomes)


def test_tail_start_certified_near_integer_ratio():
    # power / (2 pi y) at or within a relative 1e-9 of an integer m, where the
    # double start index may differ from the mpf one: whenever an N <= n_max
    # comes back, the geometric bound at N holds in mpf
    rng = random.Random(20261019)
    certified = 0
    for _ in range(400):
        power, m = rng.randint(2, 70), rng.randint(1, 120)
        delta = rng.choice((0, rng.uniform(-1e-9, 1e-9), rng.uniform(-1e-15, 1e-15)))
        y = power / (2 * mp.pi * m * (1 + mpf(delta)))
        eps = mpf(10) ** -rng.randint(10, 60)
        try:
            n = tail_start(power, y, eps, 500)
        except BudgetError:
            continue
        x = mp.exp(-2 * mp.pi * y)
        rho = (mpf(n + 2) / (n + 1)) ** power * x
        assert rho < 1, (power, y, eps)
        log_tail = power * mp.log(n + 1) + (n + 1) * mp.log(x) - mp.log(1 - rho)
        assert log_tail < mp.log(eps), (power, y, eps)
        certified += 1
    assert certified > 150  # 191 of the 400 cases fit in n_max = 500


def test_eis_cusp_eval_cutoff_at_exact_im_tau(monkeypatch):
    from eistau import eisenstein

    seen = []

    def spy(power, y, eps, n_max):
        seen.append(y)
        return tail_start(power, y, eps, n_max)

    monkeypatch.setattr(eisenstein, "tail_start", spy)
    tau = mpc("0.3", "0.74")
    budget = TruncationBudget(1e-30, 10_000)
    eis_cusp_eval(3, tau, budget)
    assert seen == [tau.imag]
