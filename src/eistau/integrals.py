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


def _fold(index: CompositeIndex, at: mpc, budget: TruncationBudget) -> ExpPoly:
    """Innermost-out fold of the cusp series, truncated at the n_cut certified at `at`.

    Works at the caller's precision; callers handle depth 0.
    """
    if index.depth > MAX_DEPTH:
        raise ValueError(f"depth {index.depth} exceeds the supported cap {MAX_DEPTH}")
    n_cut = freq_cutoff(index, at, budget)
    g: ExpPoly | None = None
    for k, alpha in zip(reversed(index.ks), reversed(index.alphas)):
        if g is None:
            g = cusp_exppoly(k, n_cut)
        else:
            g = mul_qseries(g, sigma_table(2 * k - 1, n_cut), n_cut)
        g = g.tail_integral(alpha)
    return g


def int_eval(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Iterated tail integral at tau (see module docstring); depth 0 gives 1."""
    if index.depth == 0:
        return mpc(1)
    tau = mpc(tau)
    if not tau.imag > 0:
        raise ValueError("Im tau must be positive")
    with mp.extradps(15):
        val = _fold(index, tau, budget)(tau)
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
        return _fold(index, mpc(0, y_min), budget)
