"""Closed-form evaluation of iterated vertical tail integrals of Eisenstein words.

A word is a tuple of (kind, k) factors, the weight-2k cusp part E0 ("cusp") or
constant term Einf = -b_{2k}/(4k) ("const"), with exponents alpha_j >= 1; its
innermost factor is a cusp part.  At tau on the upper half-plane

    word_eval = int_{tau < t_1 < ... < t_r < i oo}
                f_1(t_1) t_1^{alpha_1 - 1} ... f_r(t_r) t_r^{alpha_r - 1} dt_r ... dt_1

is a fold on frequency-truncated ExpPolys: the innermost cusp series, then,
outward, a cusp stage multiplies by its series (re-truncated) and a const
stage does not, and each stage applies the tail integral.  So every stage
sees frequencies >= 1 only.  The final ExpPoly is evaluated at tau, and the
word's constants multiply that value once.  `int_eval` is the all-cusp word
of a CompositeIndex, with 1 at depth 0.

Frequency truncation: a cusp stage truncates its product at n_cut, and a
product term at frequency n comes from input frequencies below n, so the
truncated fold is the exact fold with its frequencies > n_cut dropped; the
truncation error is the sum of those terms at tau.  `fold_majorant` carries a
bound |P_n(t)| <= C(|t|) n^P through the fold, stage by stage: sigma_{2k-1}(n)
<= zeta(2k-1) n^{2k-1} for a series, B(a+1, b+1) n^{a+b+1} plus a peak term
for a product's convolution, |Einf_k| for a const stage, and 1/(2 pi n) per
derivative for a tail integral, whose polynomial part is bounded at radius |t|.
n_cut is an N that `tail_start` certifies to keep the sum over n > N of
C n^P e^{-2 pi n Im tau} below eps/2 (`freq_cutoff`).

Truncation prefix: the fold's q-expansion does not depend on tau, only n_cut
does, and the frequencies <= N' of the fold truncated at N >= N' are
bit-identical to the fold truncated at N'.  A term at frequency n is built
only from input frequencies below n; `mul_qseries` sums each output frequency
in ascending n1; `tail_integral` works per frequency; and `ExpPoly.__call__`
with n_max runs Horner in q from the highest frequency <= n_max down, a
frequency both folds hold, and never reads one above it.  So one fold per
word, kept at the largest n_cut computed so far, serves every tau, with the
same bits as a fold made for that tau alone.  `int_eval` and `int_exppoly`
keep that fold, keyed on (word, alphas, working precision), from a word's
first evaluation on.  `word_eval` folds afresh and keeps nothing: its callers
are the base-point words of `mmv`, which memoizes their values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from mpmath import mp, mpc, mpf

from .algebra import CompositeIndex
from .config import DEFAULT_BUDGET, TruncationBudget
from .eisenstein import (
    CONST,
    CUSP,
    _constant_mpf,
    convolution_majorant,
    eis_constant,
    sigma_majorant,
    sigma_table,
    tail_start,
)
from .exppoly import ExpPoly, mul_qseries

MAX_DEPTH = 6


def cusp_exppoly(k: int, n_cut: int) -> ExpPoly:
    """Truncated weight-2k cusp series sum_{n<=n_cut} sigma_{2k-1}(n) e^{2 pi i n t}."""
    sig = sigma_table(2 * k - 1, n_cut)
    return ExpPoly.from_qseries({n: sig[n] for n in range(1, n_cut + 1)})


@lru_cache(maxsize=1024)
def fold_majorant(word, alphas) -> tuple[int, tuple[Fraction, ...], int]:
    """(P, c, h) with |P_n(t)| prod |Einf_k| <= n^P (2 pi)^{-h} sum_d c_d (2 pi |t|)^d
    for every frequency n >= 1 of the fold of `word` and every t, c_d >= 0.

    Carried innermost out, stage by stage: the innermost series starts at
    (sigma_majorant(k), 2k-1); a cusp stage convolves with sigma_{2k-1}, which
    multiplies C by sigma_majorant(k) convolution_majorant(2k-1, P) and adds 2k
    to P; a const stage multiplies C by |Einf_k|.  In the tail integral,
    |P_n(s) s^{alpha-1}| <= q(|s|) for a polynomial q with nonnegative
    coefficients, and |s| <= |t| + u on the ray s = t + iu, so the integral's
    frequency-n polynomial is at most int_0^oo e^{-2 pi n u} q(|t| + u) du
    = sum_j q^(j)(|t|) / (2 pi n)^{j+1} <= n^{-1} sum_j q^(j)(|t|) / (2 pi)^{j+1}:
    P drops by one (not below 0, as n >= 1), and every derivative lowers the
    degree in |t| by one and adds a factor 1/(2 pi), so the bound stays
    homogeneous in 2 pi |t|.
    """
    power, c, h = 0, None, 0
    for (kind, k), alpha in zip(reversed(word), reversed(alphas)):
        if c is None:
            power, c = 2 * k - 1, [sigma_majorant(k)]
        elif kind == CUSP:
            s = sigma_majorant(k) * convolution_majorant(2 * k - 1, power)
            power, c = power + 2 * k, [x * s for x in c]
        else:
            e = abs(eis_constant(k))
            c = [x * e for x in c]
        q = [Fraction(0)] * (alpha - 1) + c
        c = [sum(q[d] * (factorial(d) // factorial(e)) for d in range(e, len(q)))
             for e in range(len(q))]
        power, h = max(power - 1, 0), h + alpha
    return power, tuple(c), h


def freq_cutoff(word, alphas, tau: mpc, budget: TruncationBudget) -> int:
    """Certified frequency cutoff of the fold of `word` at tau.

    The truncated fold is the exact fold with its frequencies > n_cut dropped,
    so the truncation error of `word_eval` is sum_{n > n_cut} of the dropped
    terms, each at most C n^P e^{-2 pi n Im tau} (`fold_majorant`, with C
    evaluated at |tau|).  n_cut keeps that sum below eps/2, which leaves the
    other half of eps to rounding.
    """
    if len(word) > MAX_DEPTH:
        raise ValueError(f"depth {len(word)} exceeds the supported cap {MAX_DEPTH}")
    power, c, h = fold_majorant(word, alphas)
    two_pi = 2 * mp.pi
    u = two_pi * abs(tau)
    scale = mpf(0)
    for x in reversed(c):
        scale = scale * u + mpf(x.numerator) / x.denominator
    scale /= two_pi**h
    return tail_start(power, tau.imag, mpf(budget.eps) / (2 * scale), budget.n_max)


# (word, alphas, mp.prec) -> (n_cut, fold truncated at n_cut), the largest n_cut
# computed so far, for the words of `int_eval` and `int_exppoly`.
_folds: dict[tuple, tuple[int, ExpPoly]] = {}


def _fold(word, alphas, n_cut: int) -> ExpPoly:
    """Innermost-out fold of the word at n_cut, its constants left out.

    Works at the caller's precision; callers handle depth 0.
    """
    g: ExpPoly | None = None
    for (kind, k), alpha in zip(reversed(word), reversed(alphas)):
        if g is None:
            g = cusp_exppoly(k, n_cut)
        elif kind == CUSP:
            g = mul_qseries(g, sigma_table(2 * k - 1, n_cut), n_cut)
        g = g.tail_integral(alpha)
    return g


def _kept_fold(index: CompositeIndex, tau: mpc, budget: TruncationBudget) -> tuple[ExpPoly, int]:
    """The n_cut certified at tau for the cusp word of `index` (depth >= 1), and
    the kept fold, whose frequencies <= n_cut are the fold truncated at n_cut;
    it may hold higher ones."""
    word = tuple((CUSP, k) for k in index.ks)
    n_cut = freq_cutoff(word, index.alphas, tau, budget)
    key = (word, index.alphas, mp.prec)
    hit = _folds.get(key)
    if hit is None or hit[0] < n_cut:
        hit = _folds[key] = (n_cut, _fold(word, index.alphas, n_cut))
    return hit[1], n_cut


def word_eval(word, alphas, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Iterated tail integral of a word at tau (see module docstring), from a
    fold made for this call; nothing is kept.

    `word` is a tuple of (kind, k) pairs whose innermost factor is a cusp part,
    and `alphas` a tuple of exponents >= 1 of the same length >= 1.
    """
    tau = mpc(tau)
    if not tau.imag > 0:
        raise ValueError("Im tau must be positive")
    with mp.extradps(15):
        n_cut = freq_cutoff(word, alphas, tau, budget)
        val = _fold(word, alphas, n_cut)(tau, n_max=n_cut)
        for kind, k in word:
            if kind == CONST:
                val = _constant_mpf(k) * val
    return +val


def int_eval(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Iterated tail integral of the cusp parts of `index` at tau, from the kept
    fold; depth 0 gives 1.  Raises ValueError for t != 0."""
    if index.t:
        raise ValueError(f"the tau-integral carries no tau^t factor, got t = {index.t}")
    if index.depth == 0:
        return mpc(1)
    tau = mpc(tau)
    if not tau.imag > 0:
        raise ValueError("Im tau must be positive")
    with mp.extradps(15):
        g, n_cut = _kept_fold(index, tau, budget)
        val = g(tau, n_max=n_cut)
    return +val


def int_exppoly(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> ExpPoly:
    """The ExpPoly representing the iterated integral, with n_cut certified at
    tau.  Raises ValueError for t != 0."""
    if index.t:
        raise ValueError(f"the tau-integral carries no tau^t factor, got t = {index.t}")
    if index.depth == 0:
        return ExpPoly.from_qseries({0: 1})
    tau = mpc(tau)
    if not tau.imag > 0:
        raise ValueError("Im tau must be positive")
    with mp.extradps(15):
        g, n_cut = _kept_fold(index, tau, budget)
        return g.truncated(n_cut)
