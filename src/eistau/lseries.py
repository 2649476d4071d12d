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
call needs more rows, so no row is computed twice.  A table carries the
majorant of its c, computed once from its suffix table's, and its nonzero
rows as an ExpPoly converted to mpf once per working precision, which
`l_eval` reads by `ExpPoly.__call__` up to its own N, as one exact dot
against the powers of q rounded once, and keeps each value it returns
(`_l_value`).  Tables and values are bounded `lru_cache`s; an evicted table
lives on as the suffix table of a kept one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from mpmath import mp, mpc, mpf

from .algebra import CompositeIndex
from .config import DEFAULT_BUDGET, TruncationBudget
from .eisenstein import _as_mpf, _product_majorant, sigma_majorant, sigma_table, tail_start
from .exppoly import ExpPoly

BRUTEFORCE_MAX_DEPTH = 4
BRUTEFORCE_MAX_N = 200


@dataclass(frozen=True)
class LCoefficients:
    """Exact coefficients c(1..N) of the q-expansion (without the prefactor);
    `[m]` is c(m), 1-based, and iteration runs over c(1), ..., c(N)."""

    index: CompositeIndex
    coeffs: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, m: int) -> Fraction:
        if not 1 <= m <= self.n:
            raise IndexError(f"coefficient index {m} outside 1..{self.n}")
        return self.coeffs[m - 1]

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.coeffs)

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
    unused), and its nonzero rows c(1..n) as the ExpPoly sum_m c(m) q^m,
    `values`, converted to mpf at the last working precision.

    In the recursion of `l_coeffs_dp`, S_j is c of the suffix (k_j, ..., k_r;
    alpha_j, ..., alpha_r), so a table holds its first k and alpha and the
    table of the suffix after them, `inner`, None at depth 1.

    `majorant` is (P, C) with c(m) <= C m^P for every m >= 1, carried from the
    suffix table's: sigma_{2k-1}(n) <= sigma_majorant(k) n^{2k-1}; a layer's
    convolution sum_u sigma_{2k_j-1}(u) S_{j+1}(m-u) is one step of
    `eisenstein._product_majorant`; its denominator m^{alpha_j} lowers P by
    alpha_j, not below 0, as m >= 1.
    Unclamped, P = sum (2k-1) + r - 1 - sum alpha: the inner denominators
    lower it below the sum (2k-1) + r - 1 - alpha_1 of the leading
    denominator alone."""

    __slots__ = ("k", "alpha", "inner", "rows", "majorant", "prec", "n_values", "values")

    def __init__(self, k: int, alpha: int, inner: "_LTable | None"):
        self.k, self.alpha, self.inner = k, alpha, inner
        self.rows = [Fraction(0)]
        power, c = 2 * k - 1, sigma_majorant(k)
        if inner is not None:
            power, s = _product_majorant(k, inner.majorant[0])
            c = inner.majorant[1] * s
        self.majorant = max(power - alpha, 0), c
        self.prec, self.n_values, self.values = None, 0, ExpPoly()

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

    def series(self) -> ExpPoly:
        """`values` at the working precision, each row converted once."""
        if self.prec != mp.prec:
            self.prec, self.n_values, self.values = mp.prec, 0, ExpPoly()
        terms = self.values.terms
        for m in range(self.n_values + 1, self.n + 1):
            c = self.rows[m]
            if c:
                terms[m] = (mpc(_as_mpf(c)),)
        self.n_values = self.n
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
    for m in range(r, n + 1):
        # the parts of m between the cuts 0 < c_1 < ... < c_{r-1} < m; the part
        # after cut c_j (c_0 = 0) heads a tail of m - c_j
        for cuts in combinations(range(1, m), r - 1):
            bounds = (0, *cuts, m)
            num = 1
            den = 1
            for j in range(r):
                num *= sig[j][bounds[j + 1] - bounds[j]]
                den *= (m - bounds[j]) ** index.alphas[j]
            out[m] += Fraction(num, den)
    return LCoefficients(index, tuple(out[1:]))


@lru_cache(maxsize=64)
def _small_im(prec: int) -> mpf:
    """0.1 as `mpf("0.1")` parses it at precision prec: `l_eval` warns below it.
    Kept per precision, as one constant made at import would round 0.1 at 53
    bits, above the working precision's, and warn at Im tau = 0.1."""
    with mp.workprec(prec):
        return mpf("0.1")


@lru_cache(maxsize=1024)
def _table(ks: tuple[int, ...], alphas: tuple[int, ...]) -> _LTable:
    """The kept table of (ks, alphas), whose inner table is the kept one of
    its suffix: a suffix shared by several indices is grown once."""
    return _LTable(ks[0], alphas[0], _table(ks[1:], alphas[1:]) if len(ks) > 1 else None)


def l_eval(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Series value at tau with certified truncation; depth 0 returns 1.

    N is certified by tail_start at Im tau for the table's majorant
    c(m) <= C m^P, and the table's series is read by `ExpPoly.__call__`: the
    rows m <= N against the power chain of q, summed exactly and rounded once.
    q^m does not depend on how far the chain runs, so a table grown further
    for a lower Im tau gives the bits of one grown to N.  A value is kept per
    (index, tau, budget, mp.prec) by `_l_value`; the checks and the warning
    come first on every call."""
    if index.depth == 0:
        return mpc(1)
    tau = mpc(tau)
    im = tau.imag
    if not im > 0:
        raise ValueError("Im tau must be positive")
    if im < _small_im(mp.prec):
        warnings.warn(
            f"Im tau = {mp.nstr(im, 6)} < 0.1: truncation grows like 1/Im tau",
            stacklevel=2,
        )
    return _l_value(index, tau._mpc_, budget, mp.prec)


@lru_cache(maxsize=4096)
def _l_value(index: CompositeIndex, tau: tuple, budget: TruncationBudget, prec: int) -> mpc:
    """The series value at tau (raw parts) at the working precision prec = mp.prec."""
    tau = mp.make_mpc(tau)
    with mp.extradps(10):
        alpha_sum = sum(index.alphas)
        prefactor = (2 * mp.pi * mpc(0, 1)) ** (-alpha_sum) * tau**index.t
        table = _table(index.ks, index.alphas)
        power, c = table.majorant
        eps_series = mpf(budget.eps) / ((1 + abs(prefactor)) * _as_mpf(c))
        n_trunc = tail_start(power, tau.imag, eps_series, budget.n_max)
        table.grow(n_trunc)
        val = prefactor * table.series()(tau, n_max=n_trunc)
    return +val
