"""Closed-form evaluation of iterated vertical tail integrals of Eisenstein words.

A word is a tuple of (kind, k) factors, the weight-2k cusp part E0 ("cusp") or
constant term Einf = -b_{2k}/(4k) ("const"), with exponents alpha_j >= 1; its
innermost factor is a cusp part.  At tau on the upper half-plane

    word_eval = int_{tau < t_1 < ... < t_r < i oo}
                f_1(t_1) t_1^{alpha_1 - 1} ... f_r(t_r) t_r^{alpha_r - 1} dt_r ... dt_1

is a fold on frequency-truncated ExpPolys: the innermost cusp series, read
from the divisor-sum sieve, then, outward, a cusp stage multiplies by its
series (re-truncated) and a const stage does not, and each stage applies the
tail integral.  So every stage sees frequencies >= 1 only.  The final
ExpPoly is evaluated at tau (or, in `word_eval`, the last tail integral is
evaluated there directly), and the word's constants multiply that value
once.  `int_eval` is the all-cusp word of a CompositeIndex, with 1 at
depth 0.

Frequency truncation: a cusp stage truncates its product at n_cut, and a
product term at frequency n comes from input frequencies below n, so the
truncated fold is the exact fold with its frequencies > n_cut dropped; the
truncation error is the sum of those terms at tau.  Each stage carries a
bound |P_n(t)| <= C(|t|) n^P on its fold, computed once from its inner
stage's (`_majorant`): sigma_{2k-1}(n) <= zeta(2k-1) n^{2k-1} for a series,
B(a+1, b+1) n^{a+b+1} plus a peak term for a product's convolution, and
1/(2 pi n) per derivative for a tail integral, whose polynomial part is
bounded at radius |t|.  A word's bound is that of its outermost tail
integral times |Einf_k| per const factor.  n_cut is an N that `tail_start`
certifies to keep the sum over n > N of C n^P e^{-2 pi n Im tau} below
eps/2 (`freq_cutoff`).

Truncation prefix: the fold's q-expansion does not depend on tau, only n_cut
does, and the frequencies <= N' of the fold truncated at N >= N' are
bit-identical to the fold truncated at N'.  A term at frequency n is built
only from input frequencies below n; `mul_qseries` sums each output part
exactly and rounds it once, whatever its lower bound; `tail_integral` works per
frequency; and `ExpPoly.__call__` with n_max reads the frequencies <= n_max
only, each against a power q^n that does not depend on how far the fold has
grown.  So the fold is kept as a table of stages, each grown in place from
its kept n by its new frequencies only, and read at any n_cut with the same
bits as a fold made for that tau alone.  A stage is keyed on its chain,
innermost out (per factor, the product with sigma_{2k-1} for a cusp factor,
the innermost one sigma_{2k-1} itself, then a tail integral), and the working
precision (`_stage`, a bounded `lru_cache`); words that share inner
integrals share those stages.  An evicted stage lives on as the inner stage
of a kept one, and a rebuilt one has the same bits by the truncation prefix.
`int_eval` and `int_exppoly` keep every stage of their word: the top stage
sizes n_cut, is grown to it and read at tau with n_max = n_cut, and
`int_eval` keeps each value it returns (`_int_value`).  Its top is read again
at every new tau, so it is kept.

`word_eval`'s callers are the base-point words of `mmv`, which keeps their
values, so a word's top stage would be read once.  It builds none: the
majorant of its outermost tail integral (`_majorant`) sizes n_cut, its kept
inner stage g is grown to n_cut, and the value is

    int_tau^{i oo} g(s) s^{alpha-1} ds = sum_{n <= n_cut} sum_m g_{n,m} J_{n,m+alpha-1}(tau),
    J_{n,e}(tau) = int_tau^{i oo} e^{2 pi i n s} s^e ds,

one exact dot rounded once at the fold's precision (`_tail_dot`, by the
kernel that reads every q-expansion, `exppoly._dot`).  J comes from a table
kept per tau and working precision and grown in place (`_Tails`): at tau = i
every R word of `mmv` at one precision reads the same table.  This dot and a
read of a materialized top stage (by `ExpPoly.__call__`, or by Horner in q
as the tests keep it) differ only in their roundings at the fold's
precision, 15 digits above the returned one; on the tests' seeded words, at
30, 40 and 50 digits, the returned values are equal to the last bit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod

from mpmath import mp, mpc, mpf
from mpmath.libmp import mpf_add, mpf_div, mpf_mul_int, mpf_neg

from .algebra import CompositeIndex
from .config import DEFAULT_BUDGET, SingularParameterError, TruncationBudget
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
from .exppoly import ExpPoly, _block, _dot, _powers, _q_powers, _round, mul_qseries

MAX_DEPTH = 6
PRODUCT, TAIL = "product", "tail"


def _chain(word, alphas) -> tuple:
    """The fold's stages innermost out: per factor, (PRODUCT, k) for a cusp
    factor, then (TAIL, alpha); the innermost (PRODUCT, k) is the series
    sigma_{2k-1} itself.  A const factor adds a tail only: its Einf
    multiplies the value at the end."""
    chain = ()
    for (kind, k), alpha in zip(reversed(word), reversed(alphas)):
        chain += ((PRODUCT, k), (TAIL, alpha)) if kind == CUSP else ((TAIL, alpha),)
    return chain


def _majorant(op: str, arg: int, inner: tuple | None) -> tuple:
    """The majorant (P, c, h) of the stage (op, arg) over a stage whose
    majorant is `inner` (None for the series); see `_Stage`.

    The series starts at (2k-1, (sigma_majorant(k),), 0), and a product is one
    step of `eisenstein._product_majorant`, which gives P and the factor of c.
    In a tail integral, |P_n(s) s^{alpha-1}| <= q(|s|) for a polynomial q
    with nonnegative coefficients, and |s| <= |t| + u on the ray s = t + iu,
    so the integral's frequency-n polynomial is at most
    int_0^oo e^{-2 pi n u} q(|t| + u) du = sum_j q^(j)(|t|) / (2 pi n)^{j+1}
    <= n^{-1} sum_j q^(j)(|t|) / (2 pi)^{j+1}: P drops by one (not below 0, as
    n >= 1), and every derivative lowers the degree in |t| by one and adds a
    factor 1/(2 pi), so the bound stays homogeneous in 2 pi |t|.  Its
    coefficients c_e = sum_{d >= e} q_d d!/e! follow from the top one down,
    c_e = q_e + (e+1) c_{e+1}.  A const factor's Einf is left out, as it is
    of the chain: it multiplies the bound of the word (`freq_cutoff`).
    """
    if inner is None:
        return 2 * arg - 1, (sigma_majorant(arg),), 0
    power, c, h = inner
    if op == PRODUCT:
        power, s = _product_majorant(arg, power)
        return power, tuple(x * s for x in c), h
    q = (Fraction(0),) * (arg - 1) + c
    out = [q[-1]]
    for e in range(len(q) - 2, -1, -1):
        out.append(q[e] + (e + 1) * out[-1])
    return max(power - 1, 0), tuple(reversed(out)), h + arg


def _bound(majorant: tuple) -> tuple:
    """c_d (2 pi)^{-h} of a majorant (P, c, h) as mpf at the working precision,
    highest d first."""
    _, c, h = majorant
    two_pi_h = (2 * mp.pi) ** h
    return tuple(_as_mpf(x) / two_pi_h for x in reversed(c))


class _Stage:
    """Frequencies 1..n of the fold of a stage chain at one working precision,
    kept and grown; `inner` is the stage of the chain's prefix (None for the series).

    `majorant` is (P, c, h) with |P_n(t)| <= n^P (2 pi)^{-h} sum_d c_d (2 pi |t|)^d
    for every frequency n >= 1 of the fold and every t, c_d >= 0, carried
    from the inner stage's (`_majorant`), and `bound` holds it as mpf at the
    stage's precision (`_bound`).
    """

    __slots__ = ("op", "arg", "inner", "n", "fold", "majorant", "bound")

    def __init__(self, op: str, arg: int, inner: "_Stage | None"):
        self.op, self.arg, self.inner = op, arg, inner
        self.n, self.fold = 0, ExpPoly()
        self.majorant = _majorant(op, arg, None if inner is None else inner.majorant)
        self.bound = _bound(self.majorant)

    def grow(self, n: int) -> None:
        """Extend the fold from the kept n to n, the inner stage first; by the
        truncation prefix the new frequencies are those of a fold made at n."""
        n0 = self.n
        if n <= n0:
            return
        if self.inner is None:  # the series: each sigma_{2k-1}(m) rounded once
            sig = sigma_table(2 * self.arg - 1, n)
            new = ExpPoly.from_qseries({m: sig[m] for m in range(n0 + 1, n + 1)})
        else:
            self.inner.grow(n)
            inner = self.inner.fold
            if self.op == PRODUCT:
                new = mul_qseries(inner, sigma_table(2 * self.arg - 1, n), n, n0)
            else:
                new = ExpPoly({m: p for m, p in inner.terms.items() if n0 < m <= n})
                new = new.tail_integral(self.arg)
        self.fold.terms.update(new.terms)
        self.n = n


@lru_cache(maxsize=1024)
def _stage(chain: tuple, prec: int) -> _Stage:
    """The kept stage of `chain` at the working precision prec = mp.prec; its
    inner stage is the kept stage of the chain's prefix, shared by every chain
    that has it."""
    return _Stage(*chain[-1], _stage(chain[:-1], prec) if len(chain) > 1 else None)


def freq_cutoff(majorant: tuple, bound: tuple, tau: mpc, budget: TruncationBudget,
                einf=Fraction(1)) -> int:
    """Certified frequency cutoff at tau of a fold with this majorant (P, c, h)
    and its `bound`, for a word whose const factors multiply its value by
    einf in modulus.

    The truncated fold is the exact fold with its frequencies > n_cut dropped,
    so the truncation error of the word is sum_{n > n_cut} of the dropped
    terms, each at most einf C n^P e^{-2 pi n Im tau} (the majorant, with C
    evaluated at |tau|).  n_cut keeps that sum below eps/2, which leaves the
    other half of eps to rounding.
    """
    scale = mp.polyval(bound, 2 * mp.pi * abs(tau))
    if einf != 1:
        scale *= _as_mpf(einf)
    return tail_start(majorant[0], tau.imag, mpf(budget.eps) / (2 * scale), budget.n_max)


class _Tails:
    """J_{n,e}(tau) = int_tau^{i oo} e^{2 pi i n s} s^e ds at one tau and working
    precision, as raw parts: rows[n][e] for 1 <= n < len(rows), grown in place.

    By parts, J_{n,0} = -q^n / c_n and J_{n,e} = -(q^n tau^e + e J_{n,e-1}) / c_n
    with c_n = 2 pi i n = i b_n, so a division by c_n is two real divisions,
    as in `ExpPoly.tail_integral`.  q^n and tau^e come from the power chains
    of `ExpPoly.__call__` (`exppoly._q_powers`, `_powers`), and q^n tau^e is
    their exact product (`exppoly._dot`), rounded once (`exppoly._round`).
    """

    __slots__ = ("q_chain", "tau_chain", "q_pows", "tau_pows", "rows")

    def __init__(self, tau: mpc, prec: int):
        self.q_chain = _q_powers(tau._mpc_, prec, mp._prec_rounding[1])
        self.tau_chain = _powers(tau._mpc_, prec)
        self.q_pows, self.tau_pows = [next(self.q_chain)], [next(self.tau_chain)]
        self.rows = [None]

    def grow(self, n: int, e: int) -> None:
        """Rows 1..n, each with J_{m,0..e} at least."""
        prec, rnd = mp._prec_rounding
        q_pows, tau_pows, rows = self.q_pows, self.tau_pows, self.rows
        while len(tau_pows) <= e:
            tau_pows.append(next(self.tau_chain))
        while len(rows) <= n:
            q_pows.append(next(self.q_chain))
            rows.append([])
        two_pi = (2 * mp.pi)._mpf_
        for m in range(1, n + 1):
            row, q = rows[m], q_pows[m]
            if len(row) > e:
                continue
            b = mpf_mul_int(two_pi, m, prec, rnd)
            for j in range(len(row), e + 1):
                # w = q^m tau^j + j J_{m,j-1}, the product exact and rounded once
                wx, wy = _round(_dot((q,), (tau_pows[j],)), prec, rnd)
                if j:
                    x, y = row[-1]
                    wx = mpf_add(wx, mpf_mul_int(x, j, prec, rnd), prec, rnd)
                    wy = mpf_add(wy, mpf_mul_int(y, j, prec, rnd), prec, rnd)
                # J = -w / (i b) = (-Im w + i Re w) / b
                row.append((mpf_div(mpf_neg(wy), b, prec, rnd), mpf_div(wx, b, prec, rnd)))


@lru_cache(maxsize=8)
def _tails(tau: tuple, prec: int) -> _Tails:
    """The J table at tau (raw parts) and working precision prec, shared by
    every word read there and grown in place."""
    return _Tails(mp.make_mpc(tau), prec)


def _tail_dot(fold: ExpPoly, alpha: int, tau: mpc, n_cut: int) -> mpc:
    """int_tau^{i oo} g(s) s^{alpha-1} ds for g the frequencies <= n_cut of
    `fold`: sum_n sum_m g_{n,m} J_{n,m+alpha-1}(tau), one exact dot (`_dot`)
    whose real and imaginary sums are each rounded once."""
    terms = [(n, p) for n, p in fold.terms.items() if n <= n_cut]
    if not terms:
        return mpc(0)
    prec, rnd = mp._prec_rounding
    table = _tails(tau._mpc_, prec)
    table.grow(max(n for n, _ in terms), max(len(p) for _, p in terms) + alpha - 2)
    rows = table.rows
    gs = (_block(z._mpc_) for _, p in terms for z in p)
    js = (_block(j) for n, p in terms for j in rows[n][alpha - 1:alpha - 1 + len(p)])
    return mp.make_mpc(_round(_dot(gs, js), prec, rnd))


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


def _checked_chain(word, alphas, tau: mpc) -> tuple:
    """The stage chain of a word with a fold, at tau on the upper half-plane."""
    _check(word, alphas)
    if not tau.imag > 0:
        raise ValueError("Im tau must be positive")
    return _chain(word, alphas)


def _top(word, alphas, tau: mpc, budget: TruncationBudget) -> tuple[_Stage, int]:
    """The kept top stage of the fold of the all-cusp `word`, grown to the n_cut
    certified at tau, and n_cut."""
    stage = _stage(_checked_chain(word, alphas, tau), mp.prec)
    n_cut = freq_cutoff(stage.majorant, stage.bound, tau, budget)
    stage.grow(n_cut)
    return stage, n_cut


def word_eval(word, alphas, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Iterated tail integral of a word at tau (see module docstring): the
    outermost tail integral of its kept inner stage, grown to n_cut, as one
    dot against the J table at tau (`_tail_dot`), times the word's constants.

    `word` is a tuple of (kind, k) pairs, k >= 2, whose innermost (last)
    factor is a cusp part, and `alphas` a tuple of exponents >= 1 of the same
    length >= 1; other words raise ValueError, or SingularParameterError for
    a const innermost factor.
    """
    tau = mpc(tau)
    chain = _checked_chain(word, alphas, tau)
    einf = prod((abs(eis_constant(k)) for kind, k in word if kind == CONST), start=Fraction(1))
    op, alpha = chain[-1]
    with mp.extradps(15):
        inner = _stage(chain[:-1], mp.prec)
        top = _majorant(op, alpha, inner.majorant)
        n_cut = freq_cutoff(top, _bound(top), tau, budget, einf)
        inner.grow(n_cut)
        val = _tail_dot(inner.fold, alpha, tau, n_cut)
        for kind, k in word:
            if kind == CONST:
                val = _constant_mpf(k) * val
    return +val


def _cusp_word(index: CompositeIndex) -> tuple:
    if index.t:
        raise ValueError(f"the tau-integral carries no tau^t factor, got t = {index.t}")
    return tuple((CUSP, k) for k in index.ks)


@lru_cache(maxsize=4096)
def _int_value(word, alphas, tau: tuple, budget: TruncationBudget, prec: int) -> mpc:
    """The kept top stage read at tau (raw parts) up to n_cut, at the working
    precision prec = mp.prec."""
    tau = mp.make_mpc(tau)
    with mp.extradps(15):
        stage, n_cut = _top(word, alphas, tau, budget)
        val = stage.fold(tau, n_max=n_cut)
    return +val


def int_eval(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Iterated tail integral of the cusp parts of `index` at tau, from the kept
    stages of its fold, the outermost included; depth 0 gives 1.  Raises
    ValueError for t != 0.  A value is kept per (word, alphas, tau, budget,
    mp.prec) by `_int_value`."""
    word = _cusp_word(index)
    if not word:
        return mpc(1)
    return _int_value(word, tuple(index.alphas), mpc(tau)._mpc_, budget, mp.prec)


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
