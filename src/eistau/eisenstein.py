"""Hecke-normalized Eisenstein series and their arithmetic ingredients.

Conventions, for weight 2k and q = e^{2 pi i tau}:

    eis_constant(k)      = -b_{2k} / (4k)                      (exact rational)
    cusp part at tau     = sum_{n >= 1} sigma_{2k-1}(n) q^n    (certified truncation)
    full series          = constant + cusp part

with b_m the Bernoulli numbers (b_2 = 1/6, b_4 = -1/30, ...), so e.g. the
weight-4 constant term is +1/240.  Divisor sums are computed by a shared
sieve and stay exact integers until the final float conversion.
The majorant rules and the one rounding of an exact rational to an mpf
(`_as_mpf`) that every certified value rests on are defined here too.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import ceil, expm1, factorial, log, log1p, pi

from mpmath import mp, mpc, mpf
from mpmath.libmp import fone, fzero, mpc_add, mpc_mul, mpc_mul_int, mpc_pos

from .config import DEFAULT_BUDGET, BudgetError, TruncationBudget

# Factor kinds of an integrand word: the cusp part or the constant term.
CUSP = "cusp"
CONST = "const"

_sigma_tables: dict[int, list[int]] = {}
_sigma_lock = threading.Lock()


def divisor_sigma(w: int, n: int) -> int:
    """Exact divisor power sum sum_{d | n} d^w, by direct divisor enumeration."""
    if w < 3 or w % 2 == 0:
        raise ValueError("w must be odd and >= 3")
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**w
            e = n // d
            if e != d:
                total += e**w
        d += 1
    return total


def sigma_table(w: int, n_max: int) -> list[int]:
    """Sieve of sigma_w(1..n_max); shared cache, grown monotonically per w.

    Index 0 of the returned list is unused.  Callers must not mutate the list.
    """
    if w < 3 or w % 2 == 0:
        raise ValueError("w must be odd and >= 3")
    with _sigma_lock:
        tab = _sigma_tables.get(w)
        if tab is None or len(tab) <= n_max:
            size = max(n_max, 64, 2 * (len(tab) - 1) if tab else 0)
            new = [0] * (size + 1)
            for d in range(1, size + 1):
                dw = d**w
                for m in range(d, size + 1, d):
                    new[m] += dw
            _sigma_tables[w] = new
            tab = new
        return tab


def bernoulli(m: int) -> Fraction:
    """Bernoulli number b_m for even m >= 2, exact (b_2 = 1/6, b_4 = -1/30, ...)."""
    if m < 2 or m % 2:
        raise ValueError("m must be even and >= 2")
    return Fraction(*mp.bernfrac(m))


def eis_constant(k: int) -> Fraction:
    """Constant term -b_{2k}/(4k) of the weight-2k series, exact."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return -bernoulli(2 * k) / (4 * k)


def _constant_mpf(k: int) -> mpf:
    """eis_constant(k) as an mpf at the caller's working precision."""
    return _constant_at(k, mp.prec)


@lru_cache(maxsize=256)
def _constant_at(k: int, prec: int) -> mpf:
    """eis_constant(k) rounded once at precision `prec`, for _constant_mpf."""
    c = eis_constant(k)
    with mp.workprec(prec):
        return _as_mpf(c)


def _as_mpf(x: Fraction) -> mpf:
    """The exact rational x as mpf(numerator) / denominator at the working
    precision.  A numerator wider than the precision is rounded twice, one ulp
    from the correctly rounded x at worst; the pinned values rest on this."""
    return mpf(x.numerator) / x.denominator


def sigma_majorant(k: int) -> Fraction:
    """C with sigma_{2k-1}(n) <= C n^{2k-1} for all n >= 1: zeta(2k-1) <= (2k-1)/(2k-2)."""
    return Fraction(2 * k - 1, 2 * k - 2)


def convolution_majorant(a: int, b: int) -> Fraction:
    """K with sum_{n1+n2=n; n1,n2>=1} n1^a n2^b <= K n^{a+b+1} for all n >= 1, a, b >= 0.

    f(x) = x^a (n-x)^b is unimodal on [0, n], so the sum over the integers is
    at most its integral B(a+1, b+1) n^{a+b+1} plus its peak
    a^a b^b / (a+b)^{a+b} n^{a+b}.  The peak term is needed at small n: for
    a = b = 10 and n = 2 the sum is 1 and the integral 0.54.
    """
    beta = Fraction(factorial(a) * factorial(b), factorial(a + b + 1))
    return beta + Fraction(a**a * b**b, (a + b) ** (a + b))


@lru_cache(maxsize=1024)
def _product_majorant(k: int, power: int) -> tuple[int, Fraction]:
    """(P + 2k, s) for one sigma-product step: |f_n| <= C n^P for all n >= 1 gives
    |sum_{n1+n2=n} sigma_{2k-1}(n1) f_{n2}| <= s C n^{P+2k}, with
    s = sigma_majorant(k) convolution_majorant(2k-1, P)."""
    return power + 2 * k, sigma_majorant(k) * convolution_majorant(2 * k - 1, power)


@lru_cache(maxsize=64)
def _eps_logs(eps) -> tuple[float, int]:
    """(log eps, mp.mag(eps)) for a budget's eps > 0, the one place either is
    taken: the log in doubles, in mpf at a fixed 64 bits below 1e-300."""
    eps_f = float(eps)
    with mp.workprec(64):
        return (log(eps_f) if eps_f > 1e-300 else float(mp.log(eps))), mp.mag(eps)


def tail_start(power: int, y, log_eps: float, n_max: int) -> int:
    """An N certified to satisfy sum_{n > N} n^power x^n < e^log_eps for x = e^{-2 pi y}, y > 0.

    Bound: once rho = ((N+2)/(N+1))^power * x < 1 the terms decay at least
    geometrically past N, so the tail is at most t(N+1) / (1 - rho).

    The step loop starts past the peak of n^power x^n and runs in double
    precision with ln x = -2 pi y, on the log of the bound (`_eps_logs` for a
    budget's eps).  N is accepted when log rho < -1e-6 and the log tail is
    below log_eps by the margin 1e-6 (1 + |log eps|).  The doubles certify the
    bound: the rounding error of the log tail, that of float(y) included, is
    about 1e-12 at n <= n_max, and that of a caller's log_eps is bounded
    (`exppoly.LOG_ULPS`; 4.9e-11 at Int(2;400)), over four orders below the
    margin, and an n that the margin leaves undecided steps on.
    """
    lnx = -2 * pi * float(y)
    if not lnx < 0:
        raise ValueError("y must be positive")
    cut = log_eps - 1e-6 * (1 + abs(log_eps))
    n = max(1, ceil(power / -lnx))
    while n <= n_max:
        log_rho = power * log1p(1 / (n + 1)) + lnx
        if log_rho < -1e-6 and power * log(n + 1) + (n + 1) * lnx - log(-expm1(log_rho)) < cut:
            return n
        n += 1 + n // 16
    raise BudgetError(
        f"truncation index cap {n_max} reached before certified tail < e^{log_eps:.6g}; "
        "Im tau is too small for this budget"
    )


def eis_cusp_eval(k: int, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Cusp part sum_{n=1}^N sigma_{2k-1}(n) q^n with certified tail below budget.eps.

    The tail certificate uses sigma_{2k-1}(n) <= n^{2k}, with N from tail_start
    at Im tau itself.  Raises BudgetError if Im tau is too small for the
    requested eps within budget.n_max terms.

    The sum runs on raw mpf parts (`_cusp_at`) and is remembered per
    (k, tau, budget, mp.prec), so a repeated sample, such as the quadrature
    oracles take at shared nodes, costs one lookup.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    tau = mpc(tau)
    if not tau.imag > 0:
        raise ValueError("Im tau must be positive")
    return mp.make_mpc(_cusp_at(k, tau._mpc_, budget, mp.prec))


@lru_cache(maxsize=4096)
def _cusp_at(k: int, tau: tuple, budget: TruncationBudget, prec: int) -> tuple:
    """Raw parts of eis_cusp_eval(k, tau, budget) at precision `prec`.

    The mpc loop `qn *= q; acc += sig[n] * qn` at 10 extra digits, as
    `mpc_mul`, `mpc_mul_int` and `mpc_add` round it, then rounded to `prec`:
    the same operations in the same order, bit for bit.
    """
    with mp.extradps(10):
        tau = mp.make_mpc(tau)
        n_trunc = tail_start(2 * k, tau.imag, _eps_logs(budget.eps)[0], budget.n_max)
        sig = sigma_table(2 * k - 1, n_trunc)
        q = mp.expjpi(2 * tau)._mpc_
        wprec, rnd = mp._prec_rounding
        qn, acc = (fone, fzero), (fzero, fzero)
        for n in range(1, n_trunc + 1):
            qn = mpc_mul(qn, q, wprec, rnd)
            acc = mpc_add(acc, mpc_mul_int(qn, sig[n], wprec, rnd), wprec, rnd)
    return mpc_pos(acc, prec, rnd)


def eis_eval(k: int, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Full weight-2k series: constant term plus cusp part."""
    with mp.extradps(10):
        val = _constant_mpf(k) + eis_cusp_eval(k, tau, budget)
    return +val


def precision_selftest() -> mpf:
    """Built-in precision check: the weight-6 series vanishes at tau = i.

    Returns |E_6(i)| and raises if it exceeds 10^-(P-5) at working precision P.
    """
    budget = TruncationBudget(eps=mpf(10) ** (-(mp.dps + 5)), n_max=DEFAULT_BUDGET.n_max)
    resid = abs(eis_eval(3, mpc(0, 1), budget))
    if not resid < mpf(10) ** (5 - mp.dps):
        raise AssertionError(
            f"precision self-test failed: |E_6(i)| = {mp.nstr(resid, 8)} "
            f"at {mp.dps} working digits"
        )
    return resid
