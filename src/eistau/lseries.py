"""Multiple Eisenstein L-series: exact q-expansion coefficients and evaluation.

For an index (k_1..k_r; alpha_1..alpha_r; t) the series is

    (2 pi i)^{-(alpha_1+...+alpha_r)} tau^t sum_{m >= 1} c(m) q^m,

    c(m) = sum over n_1 + ... + n_r = m, n_i >= 1, of
           prod_i sigma_{2k_i-1}(n_i) / prod_i (n_i + ... + n_r)^{alpha_i}.

Coefficients c(m) are exact rationals; l_coeffs_dp computes them by a backward
recursion in O(r N^2) exact operations, l_coeffs_bruteforce enumerates the
compositions literally and exists as an oracle.  The recursion runs in one
of two rings (`_LTable`): exact `Fraction`s for `l_coeffs_dp`, and for
`l_eval` certified fixed point, Python ints R(m) that approximate c(m) 2^B
from below by floor division, whose deficit c(m) 2^B - R(m) has a majorant of
the table's own shape (`_bounds`).  `l_eval` reads the fixed-point rows up to
its N against the power chain of q that `ExpPoly.__call__` reads folds with,
as one exact dot rounded once by the kernel that reads every q-expansion
(`exppoly._dot`), with B chosen so that the deficit moves the value by at
most eps 2^-24, inside the truncation budget, and below the rounding at the
working precision (`_fixed_bits`).  B is rounded up to a
coarse grid above the working precision, so the indices read at one
precision share a B and with it the tables of their common suffixes.  A
table per (ks, alphas, ring) is kept and extended when a call needs more
rows, so no row is computed twice, and `l_eval` keeps each value it returns
(`_l_value`).  Tables and values are bounded `lru_cache`s; an evicted table
lives on as the suffix table of a kept one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, repeat
from math import prod
from operator import floordiv, mul, truediv

from mpmath import mp, mpc, mpf

from .algebra import CompositeIndex
from .config import DEFAULT_BUDGET, TruncationBudget
from .eisenstein import _as_mpf, _product_majorant, sigma_majorant, sigma_table, tail_start
from .exppoly import GUARD_BITS, _dot, _q_powers, _round

BRUTEFORCE_MAX_DEPTH = 4
BRUTEFORCE_MAX_N = 200
# Every N below 64 takes the bits of 64 (`_fixed_bits`), so reads at moderate Im tau
# (N <= 24 at Im tau >= 0.7 and eps 1e-30) share one table per index and precision.
_MIN_N_BITS = 6
# B is the working precision plus a multiple of this (`_fixed_bits`): the bits an
# index needs above the precision, 16 to 118 on the benchmark's workloads, differ
# between indices, and one step holds them all, so that they share their suffix tables.
_BITS_STEP = 128


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
    table = _table(index.ks, index.alphas, None)
    table.grow(n)
    return LCoefficients(index, tuple(table.rows[1:n + 1]))


class _LTable:
    """Rows c(0..n) of one index (k, ...; alpha, ...) in one ring, kept and
    grown (row 0 unused): exact `Fraction`s for `bits` None, and for an int
    `bits` = B the fixed-point rows R(m) of c(m) 2^B, Python ints built with
    floor division.

    In the recursion of `l_coeffs_dp`, S_j is c of the suffix (k_j, ..., k_r;
    alpha_j, ..., alpha_r), so a table holds its first k and alpha and the
    table of the suffix after them in the same ring, `inner`, None at depth 1.

    The certificate of the fixed-point rows is the deficit majorant of
    `_bounds`: every term of the recursion is >= 0, so a floor only lowers a
    row."""

    __slots__ = ("k", "alpha", "inner", "bits", "rows")

    def __init__(self, k: int, alpha: int, inner: "_LTable | None", bits: int | None):
        self.k, self.alpha, self.inner, self.bits = k, alpha, inner, bits
        self.rows = [Fraction(0) if bits is None else 0]

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    def grow(self, n: int) -> None:
        """Extend the rows from the kept n to n, the inner table first: row m
        needs the inner rows below m only.  Exact rows divide as Fractions,
        fixed-point rows scale by 2^B and floor."""
        n0 = self.n
        if n <= n0:
            return
        sig = sigma_table(2 * self.k - 1, n)
        a = self.alpha
        zero = self.rows[0]  # starts each sum, so that an empty one stays in the ring
        quo, one = (truediv, Fraction(1)) if self.bits is None else (floordiv, 1 << self.bits)
        if self.inner is None:
            self.rows.extend(quo(sig[m] * one, m**a) for m in range(n0 + 1, n + 1))
            return
        self.inner.grow(n)
        inner = self.inner.rows
        for m in range(n0 + 1, n + 1):
            self.rows.append(quo(sum(map(mul, sig[1:m], inner[m - 1:0:-1]), zero), m**a))

    def read(self, tau: mpc, n: int) -> mpc:
        """sum_{m <= n} R(m) 2^-B q^m of a fixed-point table grown to n, at the
        working precision, as `ExpPoly.__call__` reads a q-expansion: q^m from
        the power chain of q (`exppoly._q_powers`), the rows as real blocks
        (R(m), 0, -B), one exact dot (`exppoly._dot`) whose real and imaginary
        sums are each rounded once."""
        prec, rnd = mp._prec_rounding
        rows = zip(islice(self.rows, 1, n + 1), repeat(0), repeat(-self.bits))
        q_pows = islice(_q_powers(tau._mpc_, prec, rnd), 1, n + 1)
        return mp.make_mpc(_round(_dot(rows, q_pows), prec, rnd))


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
def _table(ks: tuple[int, ...], alphas: tuple[int, ...], bits: int | None) -> _LTable:
    """The kept table of (ks, alphas) in the ring `bits` (None for exact
    rows), whose inner table is the kept one of its suffix in the same ring:
    a suffix shared by several indices is grown once."""
    inner = _table(ks[1:], alphas[1:], bits) if len(ks) > 1 else None
    return _LTable(ks[0], alphas[0], inner, bits)


@lru_cache(maxsize=1024)
def _bounds(ks: tuple[int, ...], alphas: tuple[int, ...]) -> tuple:
    """(majorant, deficit) of the rows of (ks, alphas), each a pair (P, C),
    carried from its suffix's as the recursion of `l_coeffs_dp` carries the
    rows.

    The majorant has c(m) <= C m^P for every m >= 1: sigma_{2k-1}(n) <=
    sigma_majorant(k) n^{2k-1}; a layer's convolution sum_u sigma_{2k_j-1}(u)
    S_{j+1}(m-u) is one step of `eisenstein._product_majorant`; its
    denominator m^{alpha_j} lowers P by alpha_j, not below 0, as m >= 1.
    Unclamped, P = sum (2k-1) + r - 1 - sum alpha: the inner denominators
    lower it below the sum (2k-1) + r - 1 - alpha_1 of the leading
    denominator alone.

    The deficit has d(m) = c(m) 2^B - R(m) <= C m^P for the fixed-point rows
    R at any B.  Every term of the recursion is >= 0, so a floor only lowers
    a row: d(m) >= 0, d(m) < 1 at depth 1, and a layer's d(m) < 1 + sum_u
    sigma(u) d_inner(m-u) / m^alpha.  That is the majorant's recursion seeded
    at (0, 1), plus 1 per layer (1 <= m^P)."""
    k, alpha = ks[0], alphas[0]
    if len(ks) == 1:
        return (max(2 * k - 1 - alpha, 0), sigma_majorant(k)), (0, Fraction(1))
    (m_power, m_c), (d_power, d_c) = _bounds(ks[1:], alphas[1:])
    power, s = _product_majorant(k, m_power)
    majorant = max(power - alpha, 0), m_c * s
    power, s = _product_majorant(k, d_power)
    return majorant, (max(power - alpha, 0), d_c * s + 1)


def _fixed_bits(index: CompositeIndex, n: int, scale: mpf, eps) -> int:
    """B for the fixed-point rows of `index` read up to N = n with prefactor
    modulus `scale`, at the working precision.

    The deficit term of the read, scale 2^-B sum_{m <= n} d(m) |q|^m, is at
    most scale 2^-B C n^{P+1} |q|^r for the deficit majorant (P, C), as
    d(m) = 0 below the depth r, and n^{P+1} < 2^{(P+1) b} for b the bit length
    of n, taken at least _MIN_N_BITS.  B makes that at most eps 2^-24
    (certified, with |q|^r <= 1), and at most 2^-(prec + GUARD_BITS) times
    the first term scale c(r) |q|^r, below the rounding of the read at the
    working precision: c(r) = 1 / prod_j (r - j + 1)^{alpha_j} is the first
    nonzero row (every part 1).  B is that rounded up to the working
    precision plus a multiple of _BITS_STEP: it depends only on the index,
    n's bit length, scale, eps and the precision, and indices whose needs
    lie in one step share it."""
    power, c = _bounds(index.ks, index.alphas)[1]
    log2_c = c.numerator.bit_length() - c.denominator.bit_length() + 1  # >= log2 C
    spread = log2_c + (power + 1) * max(n.bit_length(), _MIN_N_BITS)
    r = index.depth
    lead = prod((r - j) ** a for j, a in enumerate(index.alphas)).bit_length()  # log2 1/c(r)
    certified = 24 + mp.mag(scale) + 1 - mp.mag(eps)  # scale / eps < 2^(certified - 24)
    need = spread + max(mp.prec + GUARD_BITS + lead, certified) - mp.prec
    return mp.prec + -(-need // _BITS_STEP) * _BITS_STEP


def _l_read(index: CompositeIndex, tau: mpc, budget: TruncationBudget) -> tuple:
    """(prefactor, table, N) of the series at tau and the working precision:
    N certified by tail_start at Im tau for the majorant c(m) <= C m^P, and
    the kept fixed-point table for `_fixed_bits`, grown to N."""
    prefactor = (2 * mp.pi * mpc(0, 1)) ** (-sum(index.alphas)) * tau**index.t
    power, c = _bounds(index.ks, index.alphas)[0]
    scale = abs(prefactor)
    eps_series = mpf(budget.eps) / ((1 + scale) * _as_mpf(c))
    n = tail_start(power, tau.imag, eps_series, budget.n_max)
    table = _table(index.ks, index.alphas, _fixed_bits(index, n, scale, budget.eps))
    table.grow(n)
    return prefactor, table, n


def l_eval(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Series value at tau with certified truncation; depth 0 returns 1.

    The fixed-point table of `_l_read` is read by `_LTable.read`: the rows
    m <= N against the power chain of q, summed exactly and rounded once.
    The truncation tail of the value is below eps s / (1 + s) e^-mu, s the
    prefactor's modulus and mu >= 1e-6 tail_start's margin in the log, which
    leaves more than 9e-7 eps for the deficit term of at most eps 2^-24
    (6e-8 eps).  q^m does not depend on how far the chain runs, so a table
    grown further for a lower Im tau gives the bits of one grown to N.  A
    value is kept per (index, tau, budget, mp.prec) by `_l_value`; the checks
    and the warning come first on every call."""
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
        prefactor, table, n = _l_read(index, tau, budget)
        val = prefactor * table.read(tau, n)
    return +val
