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

Frequency truncation: every dropped term has frequency n > n_cut and modulus
at most M(n) e^{-2 pi n Im tau} on the evaluation ray, where M(n) is the crude
coefficient majorant n^{2 sum k + sum alpha + r} (1 + |tau|)^{sum alpha}; n_cut
is chosen so the certified geometric tail of M(n) e^{-2 pi n Im tau} is below
the budget, split across stages.  A const factor enters sum k with the word's
largest cusp weight, and its constant divides the budget (`freq_cutoff`).

Truncation prefix: the fold's q-expansion does not depend on tau, only n_cut
does, and the frequencies <= N' of the fold truncated at N >= N' are
bit-identical to the fold truncated at N'.  A term at frequency n is built
only from input frequencies below n; `mul_qseries` sums each output frequency
in ascending n1; `tail_integral` works per frequency; and `ExpPoly.__call__`
visits the frequencies in descending order.  So one fold per word, kept at
the largest n_cut computed so far, serves every tau, with the same bits as a
fold made for that tau alone.  The fold cache keys on (word, alphas, working
precision) and admits a key on its second sight only; the first sight records
it in a seen-set (the doorkeeper of TinyLFU admission), so a word evaluated
once, such as the base-point words that `mmv` memoizes by value, holds no
fold.  The key holds the const weights too: without them the const words of
`mmv` would meet again across weights, be admitted, and raise peak memory.
"""

from __future__ import annotations

from mpmath import mp, mpc

from .algebra import CompositeIndex
from .config import DEFAULT_BUDGET, TruncationBudget
from .eisenstein import CONST, CUSP, _constant_mpf, sigma_table, tail_start
from .exppoly import ExpPoly, mul_qseries

MAX_DEPTH = 6


def cusp_exppoly(k: int, n_cut: int) -> ExpPoly:
    """Truncated weight-2k cusp series sum_{n<=n_cut} sigma_{2k-1}(n) e^{2 pi i n t}."""
    sig = sigma_table(2 * k - 1, n_cut)
    return ExpPoly.from_qseries({n: sig[n] for n in range(1, n_cut + 1)})


def freq_cutoff(word, alphas, tau: mpc, budget: TruncationBudget) -> int:
    """Certified common frequency cutoff for all stages of the fold of `word` at tau.

    A const factor is majorized as a cusp factor of the word's largest cusp
    weight; for (const k1, cusp k2) that is the cusp weight doubled.  The value
    is the truncated fold times the word's constants, so the budget of the
    truncation is divided by prod max(1, |Einf_k|) over the const factors.
    """
    r = len(word)
    k_max = max(k for kind, k in word if kind == CUSP)
    power = 2 * sum(k if kind == CUSP else k_max for kind, k in word) + sum(alphas) + r
    x = mp.exp(-2 * mp.pi * tau.imag)
    scale = (1 + abs(tau)) ** sum(alphas)
    for kind, k in word:
        if kind == CONST:
            scale *= max(1, abs(_constant_mpf(k)))
    eps_eff = mp.mpf(budget.eps) / (scale * 4 * (r + 1))
    return tail_start(power, x, eps_eff, budget.n_max)


# (word, alphas, mp.prec) -> (n_cut, fold truncated at n_cut), the largest n_cut
# computed so far; a key enters on its second sight (module docstring).
_folds: dict[tuple, tuple[int, ExpPoly]] = {}
_fold_seen: set[tuple] = set()


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


def _cached_fold(word, alphas, at: mpc, budget: TruncationBudget) -> tuple[ExpPoly, int]:
    """The n_cut certified at `at`, and a fold whose frequencies <= n_cut are the
    fold truncated at n_cut; it may hold higher ones."""
    if len(word) > MAX_DEPTH:
        raise ValueError(f"depth {len(word)} exceeds the supported cap {MAX_DEPTH}")
    n_cut = freq_cutoff(word, alphas, at, budget)
    key = (word, alphas, mp.prec)
    hit = _folds.get(key)
    if hit is not None and hit[0] >= n_cut:
        return hit[1], n_cut
    g = _fold(word, alphas, n_cut)
    if hit is not None or key in _fold_seen:
        _folds[key] = (n_cut, g)
    else:
        _fold_seen.add(key)
    return g, n_cut


def word_eval(word, alphas, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Iterated tail integral of a word at tau (see module docstring).

    `word` is a tuple of (kind, k) pairs whose innermost factor is a cusp part,
    and `alphas` a tuple of exponents >= 1 of the same length >= 1.
    """
    tau = mpc(tau)
    if not tau.imag > 0:
        raise ValueError("Im tau must be positive")
    with mp.extradps(15):
        g, n_cut = _cached_fold(word, alphas, tau, budget)
        val = g(tau, n_max=n_cut)
        for kind, k in word:
            if kind == CONST:
                val = _constant_mpf(k) * val
    return +val


def int_eval(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Iterated tail integral of the cusp parts of `index` at tau; depth 0 gives 1."""
    if index.depth == 0:
        return mpc(1)
    return word_eval(tuple((CUSP, k) for k in index.ks), index.alphas, tau, budget)


def int_exppoly(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> ExpPoly:
    """The ExpPoly representing the iterated integral, with n_cut certified at tau."""
    if index.depth == 0:
        return ExpPoly.from_qseries({0: 1})
    tau = mpc(tau)
    if not tau.imag > 0:
        raise ValueError("Im tau must be positive")
    with mp.extradps(15):
        word = tuple((CUSP, k) for k in index.ks)
        g, n_cut = _cached_fold(word, index.alphas, tau, budget)
        return g.truncated(n_cut)
