"""Multiple Eisenstein L-series: exact q-expansion coefficients and evaluation.

For an index (k_1..k_r; alpha_1..alpha_r; t) the series is

    (2 pi i)^{-(alpha_1+...+alpha_r)} tau^t sum_{m >= 1} c(m) q^m,

    c(m) = sum over n_1 + ... + n_r = m, n_i >= 1, of
           prod_i sigma_{2k_i-1}(n_i) / prod_i (n_i + ... + n_r)^{alpha_i}.

Coefficients c(m) are exact rationals; l_coeffs_dp computes them by a backward
recursion in O(r N^2) exact operations, l_coeffs_bruteforce enumerates the
compositions literally and exists as an oracle.  Evaluation converts to
floating point only at the end, with a certified tail bound.  `l_coeffs_dp`
and `l_eval` share one kept table of c per (ks, alphas) and extend it when a
call needs more rows, so no row is computed twice; `l_eval` converts each row
to mpf once per working precision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .algebra import CompositeIndex
from .config import DEFAULT_BUDGET, TruncationBudget
from .eisenstein import convolution_majorant, sigma_majorant, sigma_table, tail_start

BRUTEFORCE_MAX_DEPTH = 4
BRUTEFORCE_MAX_N = 200


@dataclass(frozen=True)
class LCoefficients:
    """Exact coefficients c(1..N) of the q-expansion (without the prefactor)."""

    index: CompositeIndex
    coeffs: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, m: int) -> Fraction:
        if not 1 <= m <= self.n:
            raise IndexError(f"coefficient index {m} outside 1..{self.n}")
        return self.coeffs[m - 1]

    def csv_rows(self):
        for m, c in enumerate(self.coeffs, start=1):
            yield (m, f"{c.numerator}/{c.denominator}")


def l_coeffs_dp(index: CompositeIndex, n: int) -> LCoefficients:
    """c(1..n) by the backward recursion over the chain of partial sums.

    S_r(m) = sigma_{2k_r-1}(m) / m^{alpha_r};
    S_j(m) = m^{-alpha_j} sum_{u=1}^{m-1} sigma_{2k_j-1}(u) S_{j+1}(m-u);
    c(m) = S_1(m).
    """
    if index.depth < 1:
        raise ValueError("depth must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    table = _table(index.ks, index.alphas)
    table.grow(n)
    return LCoefficients(index, tuple(table.rows[1:n + 1]))


class _LTable:
    """c(0..n) of one index (k, ...; alpha, ...), kept and grown (c(0) = 0
    unused), and c(1..n) converted to mpf at one working precision (None for
    c = 0).

    In the recursion of `l_coeffs_dp`, S_j is c of the suffix (k_j, ..., k_r;
    alpha_j, ..., alpha_r), so a table holds its first k and alpha and the
    table of the suffix after them, `inner`, None at depth 1."""

    __slots__ = ("k", "alpha", "inner", "rows", "prec", "values")

    def __init__(self, k: int, alpha: int, inner: "_LTable | None"):
        self.k, self.alpha, self.inner = k, alpha, inner
        self.rows = [Fraction(0)]
        self.prec, self.values = None, []

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    def grow(self, n: int) -> None:
        """Extend the rows from the kept n to n, the inner table first: row m
        needs the inner rows below m only."""
        n0 = self.n
        if n <= n0:
            return
        sig = sigma_table(2 * self.k - 1, n)
        a = self.alpha
        if self.inner is None:
            self.rows.extend(Fraction(sig[m], m**a) for m in range(n0 + 1, n + 1))
            return
        self.inner.grow(n)
        inner = self.inner.rows
        for m in range(n0 + 1, n + 1):
            acc = Fraction(0)
            for u in range(1, m):
                s = inner[m - u]
                if s:
                    acc += sig[u] * s
            self.rows.append(acc / m**a if acc else Fraction(0))

    def mpf_values(self) -> list:
        """c(1..n) as mpf at the working precision, converted once per row."""
        if self.prec != mp.prec:
            self.prec, self.values = mp.prec, []
        self.values.extend(mpf(c.numerator) / c.denominator if c else None
                           for c in self.rows[len(self.values) + 1:])
        return self.values


def l_coeffs_bruteforce(index: CompositeIndex, n: int) -> LCoefficients:
    """c(1..n) by literal enumeration of all compositions; guarded oracle."""
    if index.depth < 1:
        raise ValueError("depth must be >= 1")
    r = index.depth
    if r > BRUTEFORCE_MAX_DEPTH or n > BRUTEFORCE_MAX_N:
        raise ValueError(
            f"bruteforce guard: depth <= {BRUTEFORCE_MAX_DEPTH} and N <= {BRUTEFORCE_MAX_N}"
        )
    sig = [sigma_table(2 * k - 1, n) for k in index.ks]
    out = [Fraction(0)] * (n + 1)

    def walk(pos: int, remaining: int, parts: list[int]):
        if pos == r - 1:
            parts.append(remaining)
            num = 1
            den = 1
            tail = 0
            for j in range(r - 1, -1, -1):
                num *= sig[j][parts[j]]
                tail += parts[j]
                den *= tail ** index.alphas[j]
            out[sum(parts)] += Fraction(num, den)
            parts.pop()
            return
        for v in range(1, remaining - (r - pos - 1) + 1):
            parts.append(v)
            walk(pos + 1, remaining - v, parts)
            parts.pop()

    for m in range(r, n + 1):
        walk(0, m, [])
    return LCoefficients(index, tuple(out[1:]))


def _coeff_majorant(index: CompositeIndex) -> tuple[int, Fraction]:
    """(P, C) with c(m) <= C m^P for every m >= 1.

    Carried innermost out along the recursion of `l_coeffs_dp`:
    sigma_{2k-1}(n) <= sigma_majorant(k) n^{2k-1}; a layer's convolution
    sum_u sigma_{2k_j-1}(u) S_{j+1}(m-u) multiplies C by sigma_majorant(k_j)
    convolution_majorant(2k_j-1, P) and adds 2k_j to P; its denominator
    m^{alpha_j} lowers P by alpha_j, not below 0, as m >= 1.  Unclamped,
    P = sum (2k-1) + r - 1 - sum alpha: the inner denominators lower it below
    the sum (2k-1) + r - 1 - alpha_1 of the leading denominator alone.
    """
    power, c = None, Fraction(1)
    for k, alpha in zip(reversed(index.ks), reversed(index.alphas)):
        c *= sigma_majorant(k)
        if power is None:
            power = 2 * k - 1
        else:
            c *= convolution_majorant(2 * k - 1, power)
            power += 2 * k
        power = max(power - alpha, 0)
    return power, c


_coeff_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], _LTable] = {}


def _table(ks: tuple[int, ...], alphas: tuple[int, ...]) -> _LTable:
    """The kept table of (ks, alphas), whose inner table is the kept one of
    its suffix: a suffix shared by several indices is grown once."""
    key = (ks, alphas)
    table = _coeff_cache.get(key)
    if table is None:
        inner = _table(ks[1:], alphas[1:]) if len(ks) > 1 else None
        table = _coeff_cache[key] = _LTable(ks[0], alphas[0], inner)
    return table


def l_eval(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Series value at tau with certified truncation; depth 0 returns 1.

    N is certified by tail_start at Im tau for the majorant c(m) <= C m^P."""
    if index.depth == 0:
        return mpc(1)
    tau = mpc(tau)
    if not tau.imag > 0:
        raise ValueError("Im tau must be positive")
    if tau.imag < mpf("0.1"):
        warnings.warn(
            f"Im tau = {mp.nstr(tau.imag, 6)} < 0.1: truncation grows like 1/Im tau",
            stacklevel=2,
        )
    with mp.extradps(10):
        alpha_sum = sum(index.alphas)
        prefactor = (2 * mp.pi * mpc(0, 1)) ** (-alpha_sum) * tau**index.t
        power, c = _coeff_majorant(index)
        eps_series = mpf(budget.eps) / ((1 + abs(prefactor)) * (mpf(c.numerator) / c.denominator))
        n_trunc = tail_start(power, tau.imag, eps_series, budget.n_max)
        table = _table(index.ks, index.alphas)
        table.grow(n_trunc)
        coeffs = table.mpf_values()
        q = mp.expjpi(2 * tau)
        qn = mpc(1)
        acc = mpc(0)
        for m in range(1, n_trunc + 1):
            qn *= q
            c = coeffs[m - 1]
            if c is not None:
                acc += c * qn
        val = prefactor * acc
    return +val
