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
truncation error is the sum of those terms at tau.  Each stage carries a
bound |P_n(t)| <= C(|t|) n^P on its fold, computed once from its inner
stage's (`_Stage`): sigma_{2k-1}(n) <= zeta(2k-1) n^{2k-1} for a series,
B(a+1, b+1) n^{a+b+1} plus a peak term for a product's convolution, and
1/(2 pi n) per derivative for a tail integral, whose polynomial part is
bounded at radius |t|.  A word's bound is its top stage's times |Einf_k| per
const factor.  n_cut is an N that `tail_start` certifies to keep the sum over
n > N of C n^P e^{-2 pi n Im tau} below eps/2 (`freq_cutoff`).

Truncation prefix: the fold's q-expansion does not depend on tau, only n_cut
does, and the frequencies <= N' of the fold truncated at N >= N' are
bit-identical to the fold truncated at N'.  A term at frequency n is built
only from input frequencies below n; `mul_qseries` sums each output frequency
in ascending n1, whatever its lower bound; `tail_integral` works per
frequency; and `ExpPoly.__call__` with n_max runs Horner in q from the highest
frequency <= n_max down, a frequency both folds hold, and never reads one
above it.  So the fold is kept as a table of stages, each grown in place from
its kept n by its new frequencies only, and read at any n_cut with the same
bits as a fold made for that tau alone.  A stage is keyed on its chain,
innermost out (per factor, the product with sigma_{2k-1} for a cusp factor,
the innermost one's with 1, then a tail integral), and the working
precision; words that share inner integrals share those stages.
`int_eval`, `int_exppoly` and `word_eval` take one path: the top stage sizes
n_cut, is grown to it and read at tau with n_max = n_cut.  `int_eval` and
`int_exppoly` keep every stage of their word, and `int_eval` each value it
returns (`_int_memo`).  `word_eval`'s top is a stage
over its kept inner stage, grown to its own n_cut and never kept: its callers
are the base-point words of `mmv`, which memoizes their values.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from mpmath import mp, mpc, mpf

from .algebra import CompositeIndex
from .config import DEFAULT_BUDGET, SingularParameterError, TruncationBudget, _Memo
from .eisenstein import (
    CONST,
    CUSP,
    _as_mpf,
    _constant_mpf,
    _product_majorant,
    eis_constant,
    sigma_majorant,
    sigma_table,
    tail_start,
)
from .exppoly import ExpPoly, mul_qseries

MAX_DEPTH = 6
PRODUCT, TAIL = "product", "tail"
_ONE = ExpPoly({0: (mpc(1),)})  # the innermost series is its product with 1


def _chain(word, alphas) -> tuple:
    """The fold's stages innermost out: per factor, (PRODUCT, k) for a cusp
    factor, then (TAIL, alpha).  A const factor adds a tail only: its Einf
    multiplies the value at the end."""
    chain = ()
    for (kind, k), alpha in zip(reversed(word), reversed(alphas)):
        chain += ((PRODUCT, k), (TAIL, alpha)) if kind == CUSP else ((TAIL, alpha),)
    return chain


class _Stage:
    """Frequencies 1..n of the fold of a stage chain at one working precision,
    kept and grown; `inner` is the stage of the chain's prefix (None for the series).

    `majorant` is (P, c, h) with |P_n(t)| <= n^P (2 pi)^{-h} sum_d c_d (2 pi |t|)^d
    for every frequency n >= 1 of the fold and every t, c_d >= 0, and `bound`
    holds c_d (2 pi)^{-h} as mpf at the stage's precision, highest d first.
    It is carried from the inner stage's: the series starts at
    (2k-1, (sigma_majorant(k),), 0), and a product is one step of
    `eisenstein._product_majorant`, which gives P and the factor of c.
    In a tail integral, |P_n(s) s^{alpha-1}| <= q(|s|) for a polynomial q
    with nonnegative coefficients, and |s| <= |t| + u on the ray s = t + iu,
    so the integral's frequency-n polynomial is at most
    int_0^oo e^{-2 pi n u} q(|t| + u) du = sum_j q^(j)(|t|) / (2 pi n)^{j+1}
    <= n^{-1} sum_j q^(j)(|t|) / (2 pi)^{j+1}: P drops by one (not below 0, as
    n >= 1), and every derivative lowers the degree in |t| by one and adds a
    factor 1/(2 pi), so the bound stays homogeneous in 2 pi |t|.  A const
    factor's Einf is left out, as it is of the chain: it multiplies the bound
    of the word (`freq_cutoff`).
    """

    __slots__ = ("op", "arg", "inner", "n", "fold", "majorant", "bound")

    def __init__(self, op: str, arg: int, inner: "_Stage | None"):
        self.op, self.arg, self.inner = op, arg, inner
        self.n, self.fold = 0, ExpPoly()
        if inner is None:
            power, c, h = 2 * arg - 1, (sigma_majorant(arg),), 0
        else:
            power, c, h = inner.majorant
            if op == PRODUCT:
                power, s = _product_majorant(arg, power)
                c = tuple(x * s for x in c)
            else:
                q = (Fraction(0),) * (arg - 1) + c
                c = tuple(sum(q[d] * (factorial(d) // factorial(e)) for d in range(e, len(q)))
                          for e in range(len(q)))
                power, h = max(power - 1, 0), h + arg
        self.majorant = power, c, h
        two_pi_h = (2 * mp.pi) ** h
        self.bound = tuple(_as_mpf(x) / two_pi_h for x in reversed(c))

    def grow(self, n: int) -> None:
        """Extend the fold from the kept n to n, the inner stage first; by the
        truncation prefix the new frequencies are those of a fold made at n."""
        n0 = self.n
        if n <= n0:
            return
        if self.inner is not None:
            self.inner.grow(n)
        inner = _ONE if self.inner is None else self.inner.fold
        if self.op == PRODUCT:
            new = mul_qseries(inner, sigma_table(2 * self.arg - 1, n), n, n0)
        else:
            new = ExpPoly({m: p for m, p in inner.terms.items() if n0 < m <= n})
            new = new.tail_integral(self.arg)
        self.fold.terms.update(new.terms)
        self.n = n


# (stage chain, mp.prec) -> its kept stage
_stages: dict[tuple, _Stage] = {}
_int_memo = _Memo()  # int_eval values


def _stage(chain: tuple) -> _Stage:
    """The kept stage of `chain` at the working precision; its inner stage is the
    kept stage of the chain's prefix, shared by every chain that has it."""
    key = (chain, mp.prec)
    stage = _stages.get(key)
    if stage is None:
        inner = _stage(chain[:-1]) if len(chain) > 1 else None
        stage = _stages[key] = _Stage(*chain[-1], inner)
    return stage


def freq_cutoff(stage: _Stage, tau: mpc, budget: TruncationBudget, einf=Fraction(1)) -> int:
    """Certified frequency cutoff of the fold of `stage` at tau, for a word whose
    const factors multiply its value by einf in modulus.

    The truncated fold is the exact fold with its frequencies > n_cut dropped,
    so the truncation error of the word is sum_{n > n_cut} of the dropped
    terms, each at most einf C n^P e^{-2 pi n Im tau} (the stage's majorant,
    with C evaluated at |tau|).  n_cut keeps that sum below eps/2, which leaves
    the other half of eps to rounding.
    """
    scale = mp.polyval(stage.bound, 2 * mp.pi * abs(tau))
    if einf != 1:
        scale *= _as_mpf(einf)
    return tail_start(stage.majorant[0], tau.imag, mpf(budget.eps) / (2 * scale), budget.n_max)


def _check(word, alphas) -> None:
    """Raise for a word that has no fold, before any stage is made."""
    if not 1 <= len(word) == len(alphas) <= MAX_DEPTH:
        raise ValueError(f"need 1 <= len(word) == len(alphas) <= {MAX_DEPTH}: {word}, {alphas}")
    for (kind, k), alpha in zip(word, alphas):
        if kind not in (CUSP, CONST) or k < 2 or alpha < 1:
            raise ValueError(f"factor ({kind!r}, {k}), exponent {alpha}: need cusp or const, "
                             "k >= 2 and alpha >= 1")
    if word[-1][0] != CUSP:
        raise SingularParameterError(f"innermost factor {word[-1]}: the tail integral diverges")


def _top(word, alphas, tau: mpc, budget: TruncationBudget, keep: bool = True) -> tuple[_Stage, int]:
    """The top stage of the fold of `word`, grown to the n_cut certified at tau,
    and n_cut; the kept stage, or without `keep` one over the kept inner stage."""
    _check(word, alphas)
    if not tau.imag > 0:
        raise ValueError("Im tau must be positive")
    chain = _chain(word, alphas)
    stage = _stage(chain) if keep else _Stage(*chain[-1], _stage(chain[:-1]))
    einf = prod((abs(eis_constant(k)) for kind, k in word if kind == CONST), start=Fraction(1))
    n_cut = freq_cutoff(stage, tau, budget, einf)
    stage.grow(n_cut)
    return stage, n_cut


def _value(word, alphas, tau, budget: TruncationBudget, keep: bool) -> mpc:
    """The top stage read at tau up to n_cut, times the word's constants."""
    tau = mpc(tau)
    with mp.extradps(15):
        stage, n_cut = _top(word, alphas, tau, budget, keep)
        val = stage.fold(tau, n_max=n_cut)
        for kind, k in word:
            if kind == CONST:
                val = _constant_mpf(k) * val
    return +val


def word_eval(word, alphas, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Iterated tail integral of a word at tau (see module docstring), from its
    kept inner stages and an outermost stage grown to n_cut, not kept.

    `word` is a tuple of (kind, k) pairs, k >= 2, whose innermost (last)
    factor is a cusp part, and `alphas` a tuple of exponents >= 1 of the same
    length >= 1; other words raise ValueError, or SingularParameterError for
    a const innermost factor.
    """
    return _value(word, alphas, tau, budget, keep=False)


def _cusp_word(index: CompositeIndex) -> tuple:
    if index.t:
        raise ValueError(f"the tau-integral carries no tau^t factor, got t = {index.t}")
    return tuple((CUSP, k) for k in index.ks)


def int_eval(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Iterated tail integral of the cusp parts of `index` at tau, from the kept
    stages of its fold, the outermost included; depth 0 gives 1.  Raises
    ValueError for t != 0.  A value is kept per (word, alphas, tau, budget,
    mp.prec) in `_int_memo`."""
    word = _cusp_word(index)
    if not word:
        return mpc(1)
    tau = mpc(tau)
    alphas = tuple(index.alphas)
    return _int_memo.value((word, alphas, tau._mpc_, budget),
                           _value, word, alphas, tau, budget, True)


def int_exppoly(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> ExpPoly:
    """The ExpPoly representing the iterated integral, with n_cut certified at
    tau.  Raises ValueError for t != 0."""
    word = _cusp_word(index)
    if not word:
        return ExpPoly.from_qseries({0: 1})
    tau = mpc(tau)
    with mp.extradps(15):
        stage, n_cut = _top(word, index.alphas, tau, budget)
        return stage.fold.truncated(n_cut)
