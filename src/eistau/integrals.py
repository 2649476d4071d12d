"""Closed-form evaluation of iterated vertical tail integrals of cusp parts.

For an index (k_1..k_r; alpha_1..alpha_r) and tau on the upper half-plane,

    int_eval = int_{tau < t_1 < ... < t_r < i oo}
               E0_{2k_1}(t_1) t_1^{alpha_1 - 1} ... E0_{2k_r}(t_r) t_r^{alpha_r - 1}
               dt_r ... dt_1,

computed by building the innermost cusp series as a frequency-truncated
ExpPoly, applying the tail integral, multiplying by the next series (with
re-truncation), and iterating outward; the final ExpPoly is evaluated at tau.
Depth 0 returns 1.

Frequency truncation: every dropped term has frequency n > n_cut and modulus
at most M(n) e^{-2 pi n Im tau} on the evaluation ray, where M(n) is the crude
coefficient majorant n^{2 sum k + sum alpha + r} (1 + |tau|)^{sum alpha}; n_cut
is chosen so the certified geometric tail of M(n) e^{-2 pi n Im tau} is below
the budget, split across stages.

Truncation prefix: the fold's q-expansion does not depend on tau, only n_cut
does, and the frequencies <= N' of the fold truncated at N >= N' are
bit-identical to the fold truncated at N'.  A term at frequency n is built
only from input frequencies below n; `mul_qseries` sums each output frequency
in ascending n1; `tail_integral` works per frequency; and `ExpPoly.__call__`
visits the frequencies in descending order.  So one fold per index, kept at
the largest n_cut computed so far, serves every tau: `int_eval` evaluates
only its frequencies <= the n_cut certified at tau, and gives the same bits
as a fold made for that tau alone.  The fold cache keys on (ks, alphas,
working precision) and admits a key on its second sight only; the first sight
records the key in a seen-set (the doorkeeper of TinyLFU admission), so an
index evaluated once, such as the base-point integrals that `mmv` memoizes by
value, holds no fold.
"""

from __future__ import annotations

from mpmath import mp, mpc

from .algebra import CompositeIndex
from .config import DEFAULT_BUDGET, TruncationBudget
from .eisenstein import sigma_table, tail_start
from .exppoly import ExpPoly, mul_qseries

MAX_DEPTH = 6


def cusp_exppoly(k: int, n_cut: int) -> ExpPoly:
    """Truncated weight-2k cusp series sum_{n<=n_cut} sigma_{2k-1}(n) e^{2 pi i n t}."""
    sig = sigma_table(2 * k - 1, n_cut)
    return ExpPoly.from_qseries({n: sig[n] for n in range(1, n_cut + 1)})


def freq_cutoff(index: CompositeIndex, tau: mpc, budget: TruncationBudget) -> int:
    """Certified common frequency cutoff for all stages of int_eval at tau."""
    r = index.depth
    power = 2 * index.upper_weight + sum(index.alphas) + r
    x = mp.exp(-2 * mp.pi * tau.imag)
    scale = (1 + abs(tau)) ** sum(index.alphas)
    eps_eff = mp.mpf(budget.eps) / (scale * 4 * (r + 1))
    return tail_start(power, x, eps_eff, budget.n_max)


# (ks, alphas, mp.prec) -> (n_cut, fold truncated at n_cut), the largest n_cut
# computed so far; a key enters on its second sight (module docstring).
_folds: dict[tuple, tuple[int, ExpPoly]] = {}
_fold_seen: set[tuple] = set()


def _fold(index: CompositeIndex, n_cut: int) -> ExpPoly:
    """Innermost-out fold of the cusp series, truncated at n_cut.

    Works at the caller's precision; callers handle depth 0.
    """
    g: ExpPoly | None = None
    for k, alpha in zip(reversed(index.ks), reversed(index.alphas)):
        if g is None:
            g = cusp_exppoly(k, n_cut)
        else:
            g = mul_qseries(g, sigma_table(2 * k - 1, n_cut), n_cut)
        g = g.tail_integral(alpha)
    return g


def _cached_fold(index: CompositeIndex, at: mpc, budget: TruncationBudget) -> tuple[ExpPoly, int]:
    """The n_cut certified at `at`, and a fold whose frequencies <= n_cut are the
    fold truncated at n_cut; it may hold higher ones."""
    if index.depth > MAX_DEPTH:
        raise ValueError(f"depth {index.depth} exceeds the supported cap {MAX_DEPTH}")
    n_cut = freq_cutoff(index, at, budget)
    key = (index.ks, index.alphas, mp.prec)
    hit = _folds.get(key)
    if hit is not None and hit[0] >= n_cut:
        return hit[1], n_cut
    g = _fold(index, n_cut)
    if hit is not None or key in _fold_seen:
        _folds[key] = (n_cut, g)
    else:
        _fold_seen.add(key)
    return g, n_cut


def int_eval(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Iterated tail integral at tau (see module docstring); depth 0 gives 1."""
    if index.depth == 0:
        return mpc(1)
    tau = mpc(tau)
    if not tau.imag > 0:
        raise ValueError("Im tau must be positive")
    with mp.extradps(15):
        g, n_cut = _cached_fold(index, tau, budget)
        val = g(tau, n_max=n_cut)
    return +val


def int_exppoly(index: CompositeIndex, y_min, budget: TruncationBudget = DEFAULT_BUDGET) -> ExpPoly:
    """The ExpPoly representing the iterated integral, with n_cut sized at tau = i*y_min.

    Off the imaginary axis the sizing understates the (1 + |tau|)^{sum alpha}
    factor of the frequency majorant, so values at Re tau != 0 are not covered
    by the truncation certificate.
    """
    if index.depth == 0:
        return ExpPoly.from_qseries({0: 1})
    with mp.extradps(15):
        g, n_cut = _cached_fold(index, mpc(0, y_min), budget)
        return g.truncated(n_cut)
