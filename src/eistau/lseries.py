"""Multiple Eisenstein L-series: exact q-expansion coefficients and evaluation.

For an index (k_1..k_r; alpha_1..alpha_r; t) the series is

    (2 pi i)^{-(alpha_1+...+alpha_r)} tau^t sum_{m >= 1} c(m) q^m,

    c(m) = sum over n_1 + ... + n_r = m, n_i >= 1, of
           prod_i sigma_{2k_i-1}(n_i) / prod_i (n_i + ... + n_r)^{alpha_i}.

Coefficients c(m) are exact rationals; l_coeffs_dp computes them by a backward
recursion in O(r N^2) exact operations, l_coeffs_bruteforce enumerates the
compositions literally and exists as an oracle.  The recursion is a chain of
the row table of `exppoly` (`_chain`): per index entry from the last, a
product with sigma_{2k-1} (the innermost one the series itself) and an L
layer that divides row m by m^alpha.  It runs in the table's two rings:
exact `Fraction`s for `l_coeffs_dp`, and for `l_eval` certified fixed point,
Python ints R(m) that approximate c(m) 2^B from below by floor division,
whose deficit has the bound of `exppoly._majorants`.  `l_eval` reads the
fixed-point rows up to its N as the table reads every q-expansion, one exact
dot rounded once (`exppoly._Rows.read`), with B chosen by `exppoly._fixed_bits`
so that the deficit moves the value by at most eps 2^-24, inside the
truncation budget, and below the rounding at the working precision.  The
rows, their reads and the rounding budget of the logs are `exppoly`'s.  B is
rounded up to a coarse grid above the working precision, so the indices read
at one precision share a B and with it the tables of their common suffixes.
Tables are kept and extended when a call needs more rows, so no row is
computed twice, and `l_eval` keeps each value it returns (`_l_value`).
Tables and values are bounded `lru_cache`s; an evicted table lives on as the
inner table of a kept one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import exp, log1p

from mpmath import mp, mpc, mpf

from .algebra import CompositeIndex
from .config import DEFAULT_BUDGET, TruncationBudget
from .eisenstein import _eps_logs, sigma_table, tail_start
from .exppoly import LAYER, PRODUCT, _certificate, _fixed_bits, _log_lead, _rows

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
    c(m) = S_1(m).  The exact rows of the kept table of `_chain`.
    """
    if index.depth < 1:
        raise ValueError("depth must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    table = _rows(_chain(index.ks, index.alphas), None)
    table.grow(n)
    return LCoefficients(index, table.coeffs(n))


def _chain(ks: tuple[int, ...], alphas: tuple[int, ...]) -> tuple:
    """The row-table chain of the index (ks; alphas), innermost out: per entry
    from the last, (PRODUCT, k) and (LAYER, alpha).  In the recursion of
    `l_coeffs_dp` the rows after entry j are S_j; a suffix of the index is a
    prefix of the chain, so indices with a common suffix share its rows."""
    return tuple(op for k, alpha in zip(reversed(ks), reversed(alphas))
                 for op in ((PRODUCT, k), (LAYER, alpha)))


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


def _l_read(index: CompositeIndex, tau: mpc, budget: TruncationBudget) -> tuple:
    """(table, N) of the series at tau and the working precision, in doubles
    (`exppoly._certificate`, `_log_lead`): N by tail_start at Im tau for the
    majorant c m^P and the bound eps / ((1 + scale) c), and the kept table
    for `_fixed_bits` on the upper bound of log lead, grown to N."""
    chain = _chain(index.ks, index.alphas)
    cert = _certificate(chain)
    log_scale, upper = _log_lead(cert, index.t, tau)
    log_one_plus = max(log_scale, 0.0) + log1p(exp(-abs(log_scale)))  # log(1 + scale)
    log_eps = _eps_logs(budget.eps)[0] - log_one_plus - cert.log_c
    n = tail_start(cert.power, tau.imag, log_eps, budget.n_max)
    table = _rows(chain, _fixed_bits(cert.d_power, n, cert.spread, upper, budget.eps))
    table.grow(n)
    return table, n


def l_eval(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Series value at tau with certified truncation; depth 0 returns 1.

    The fixed-point table of `_l_read` is read up to N by `exppoly._Rows.read`,
    then multiplied by tau^t.  The truncation tail of the value is below eps
    s / (1 + s) e^-mu, s the prefactor's modulus and mu what the rounding of
    `_l_read`'s logs in doubles (about 1e-12 at most) leaves of tail_start's
    margin 1e-6 in the log, so more than 9e-7 eps for the deficit term of at
    most eps 2^-24 (6e-8 eps).  A value is kept per (index, tau, budget,
    mp.prec) by `_l_value`; the checks and the warning come first on every
    call."""
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
    with mp.extradps(10):
        table, n = _l_read(index, mp.make_mpc(tau), budget)
        val = mp.make_mpc(table.read(tau, n))
        if index.t:
            val *= mp.make_mpc(tau) ** index.t
    return +val
