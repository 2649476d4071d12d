"""Closed-form evaluation of iterated vertical tail integrals of Eisenstein words.

A word is a tuple of (kind, k) factors, the weight-2k cusp part E0 ("cusp") or
constant term Einf = -b_{2k}/(4k) ("const"), with exponents alpha_j >= 1; its
innermost factor is a cusp part.  At tau on the upper half-plane

    word_eval = int_{tau < t_1 < ... < t_r < i oo}
                f_1(t_1) t_1^{alpha_1 - 1} ... f_r(t_r) t_r^{alpha_r - 1} dt_r ... dt_1

is a fold on the row table of `exppoly`, a chain innermost out (`_chain`):
the innermost cusp series, then per factor outward a product with its series
for a cusp factor (none for a const one) and a tail integral.  So every tail
integral sees frequencies >= 1 only.  The fold at t is

    (2 pi i)^{-h} sum_n e^{2 pi i n t} sum_d rho_{n,d} (2 pi i t)^d,

h the sum of the exponents, with rational rows rho, which the engine keeps in
certified fixed point, R = rho 2^B (`exppoly._Rows`), and the word's
constants multiply its value once.  `int_eval` is the all-cusp word of a
CompositeIndex, with 1 at depth 0.

Frequency truncation: a product term at frequency n comes from input
frequencies below n, so the fold truncated at n_cut is the exact fold with
its frequencies > n_cut dropped, and the truncation error is the sum of those
terms at tau.  The majorant of the chain (`exppoly._majorants`) bounds them:
|rho_{n,d}| <= c_d n^P, so each dropped term is at most
C n^P e^{-2 pi n Im tau} with C = (2 pi)^{-h} sum_d c_d (2 pi |tau|)^d, times
|Einf_k| per const factor.  n_cut is an N that `tail_start` certifies to
keep the sum over n > N below eps/2 (`freq_cutoff`), on log C in doubles
(`_log_majorant`).  B comes from the deficit bound of the chain
(`exppoly._fixed_bits`), so the fixed-point rows move the value by at most
eps 2^-24, and the read rounds once at the fold's precision, 15 digits above
the returned one.

Truncation prefix: the rows do not depend on tau, only n_cut does, and a row n
is built from rows up to n only.  So a chain's rows are kept per (chain, B)
(`exppoly._rows`) and grown in place, and words that share inner integrals
share those rows.  `int_eval` and `int_exppoly` grow the rows of their whole
chain to n_cut and read them at tau up to n_cut (`_top`), and `int_eval`
keeps each value it returns (`_int_value`).

`word_eval`'s callers are the base-point words of `mmv`, which keeps their
values, so the rows of a word's own chain would be read once.  It grows the
rows of its chain's prefix g only, to the n_cut of the whole chain, and
forms the outermost tail integral as

    int_tau^{i oo} g(s) s^{alpha-1} ds
        = (2 pi i)^{-h-alpha} 2^-B sum_{n <= n_cut} sum_m R_{n,m} J'_{n,m+alpha-1}(tau),
    J'_{n,e}(tau) = (2 pi i)^{e+1} int_tau^{i oo} e^{2 pi i n s} s^e ds,

one exact dot rounded once at the fold's precision (`_tail_dot`).  J' comes
from a table kept per tau and working precision and grown in place
(`_Tails`): at tau = i every R word of `mmv` at one precision reads the same
table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import exp, log, prod

from mpmath import mp, mpc

from .algebra import CompositeIndex
from .config import DEFAULT_BUDGET, SingularParameterError, TruncationBudget
from .eisenstein import CONST, CUSP, _constant_mpf, _eps_logs, eis_constant, tail_start
from .exppoly import (
    GUARD_BITS,
    LOG_2,
    LOG_2PI,
    LOG_ULPS,
    PRODUCT,
    TAIL,
    ExpPoly,
    _Cert,
    _certificate,
    _dot,
    _fixed_bits,
    _log_abs,
    _powers,
    _q_powers,
    _rows,
    _Rows,
    _scaled,
    _w,
)

MAX_DEPTH = 6


def _chain(word, alphas) -> tuple:
    """The fold's operations innermost out: per factor, (PRODUCT, k) for a cusp
    factor, then (TAIL, alpha); the innermost (PRODUCT, k) is the series
    sigma_{2k-1} itself.  A const factor adds a tail only: its Einf
    multiplies the value at the end."""
    chain = ()
    for (kind, k), alpha in zip(reversed(word), reversed(alphas)):
        chain += ((PRODUCT, k), (TAIL, alpha)) if kind == CUSP else ((TAIL, alpha),)
    return chain


def freq_cutoff(power: int, log_scale: float, tau: mpc, budget: TruncationBudget) -> int:
    """Certified frequency cutoff at tau of a fold whose frequency-n term is
    at most e^log_scale n^power e^{-2 pi n Im tau} in modulus (`_cutoff_bits`):
    the N of `tail_start` that keeps the sum of the terms over n > N, the
    truncation error, below eps/2.  The rest of the error is stated: the
    fixed-point rows move the value by at most eps 2^-24 (`exppoly._fixed_bits`),
    and the read is one exact dot rounded once at the fold's precision."""
    return tail_start(power, tau.imag, _eps_logs(budget.eps)[0] - LOG_2 - log_scale, budget.n_max)


def _log_majorant(cert: _Cert, tau: mpc, einf: Fraction) -> tuple:
    """(log (einf C), an upper bound on it) in doubles, for the majorant C of
    the certificate record `cert` and einf = p/q: m + log sum_d e^(a_d - m)
    over a_d = l_d + d x, x = log(2 pi |tau|), m the largest a_d (Blanchard,
    Higham and Higham, IMA J. Numer. Anal. 41, 2021), plus log p - log q.
    The bound adds beta = LOG_ULPS (1 + size + D (1 + |x|) + |log p| + |log q|
    + |log C|), D the top degree: to first order the roundings sum to less
    than 2^-53 (8 (1 + size) + 23 D (1 + |x|) + 5 (|log p| + |log q|) +
    2 |log C|), and a term that the double exp drops is below 2^-1074."""
    x = LOG_2PI + _log_abs(tau)
    terms = [ell + d * x for d, ell in enumerate(cert.logs)]
    top = max(terms)
    log_c = top + log(sum(exp(a - top) for a in terms))
    size = cert.size + (len(terms) - 1) * (1 + abs(x))
    if einf != 1:
        p, q = log(einf.numerator), log(einf.denominator)
        log_c, size = log_c + p - q, size + abs(p) + abs(q)
    return log_c, log_c + LOG_ULPS * (1 + size + abs(log_c))


def _cutoff_bits(chain: tuple, tau: mpc, budget: TruncationBudget, einf=Fraction(1)) -> tuple:
    """(n_cut, B) at tau of the fold of `chain`, for a word whose const
    factors multiply its value by einf in modulus: `freq_cutoff` for a term
    at most einf C n^P e^{-2 pi n Im tau} on log (einf C) as it is, inside the
    margin of `tail_start`, and B from the deficit bound on its upper bound
    (`_log_majorant`, `exppoly._certificate`, `exppoly._fixed_bits`)."""
    cert = _certificate(chain)
    log_c, upper = _log_majorant(cert, tau, einf)
    n_cut = freq_cutoff(cert.power, log_c, tau, budget)
    return n_cut, _fixed_bits(cert.d_power, n_cut, cert.spread, upper, budget.eps)


def _quo(z: tuple, d: int, keep: int) -> tuple:
    """The block z divided by the int d > 0, floored to keep bits at least."""
    a, b, e = z
    s = max(keep + d.bit_length() - max(a.bit_length(), b.bit_length()), 0)
    return (a << s) // d, (b << s) // d, e - s


class _Tails:
    """J'_{n,e}(tau) = (2 pi i)^{e+1} int_tau^{i oo} e^{2 pi i n s} s^e ds at one
    tau and working precision, as blocks rows[n][e] for 1 <= n < len(rows),
    grown in place.

    By parts, J'_{n,e} = -(q^n w^e + e J'_{n,e-1}) / n with w = 2 pi i tau, so
    K_{n,e} = n^{e+1} J'_{n,e} = -(n^e q^n w^e + e K_{n,e-1}) is summed exactly
    over the power chains of q, rounded at prec + GUARD_BITS bits, and of w
    (`exppoly._q_powers`, `_powers`, `_w`), and each J' is K / n^{e+1} floored
    to prec + GUARD_BITS bits (`_quo`): no pi enters the recurrence, and no
    rounding accumulates along it."""

    __slots__ = ("q_chain", "w_chain", "q_pows", "w_pows", "rows", "ks")

    def __init__(self, tau: tuple, prec: int):
        self.q_chain = _q_powers(tau, prec + GUARD_BITS, mp._prec_rounding[1])
        self.w_chain = _powers(_w(tau, prec), prec)
        self.q_pows, self.w_pows = [next(self.q_chain)], [next(self.w_chain)]
        self.rows, self.ks = [None], [None]

    def grow(self, n: int, e: int) -> None:
        """Rows 1..n, each with J'_{m,0..e} at least."""
        keep = mp.prec + GUARD_BITS
        q_pows, w_pows, rows, ks = self.q_pows, self.w_pows, self.rows, self.ks
        while len(w_pows) <= e:
            w_pows.append(next(self.w_chain))
        while len(rows) <= n:
            q_pows.append(next(self.q_chain))
            rows.append([])
            ks.append(None)
        for m in range(1, n + 1):
            row, k = rows[m], ks[m]
            for j in range(len(row), e + 1):
                qw = _dot((q_pows[m],), (w_pows[j],))
                k = _dot(((-m**j, 0, 0), (-j, 0, 0)), (qw, k)) if j else (-qw[0], -qw[1], qw[2])
                row.append(_quo(k, m ** (j + 1), keep))
            ks[m] = k


@lru_cache(maxsize=8)
def _tails(tau: tuple, prec: int) -> _Tails:
    """The J' table at tau (raw parts) and working precision prec, shared by
    every word read there and grown in place."""
    return _Tails(tau, prec)


def _tail_dot(rows: _Rows, alpha: int, tau: mpc, n_cut: int) -> tuple:
    """int_tau^{i oo} g(s) s^{alpha-1} ds as raw mpc parts, for g the
    frequencies <= n_cut of the fixed-point rows: (2 pi i)^{-h-alpha} 2^-B
    sum_n sum_m R_{n,m} J'_{n,m+alpha-1}(tau), one exact dot (`_dot`) scaled
    and rounded once (`_scaled`)."""
    prec, rnd = mp._prec_rounding
    table = _tails(tau._mpc_, prec)
    cols = rows.cols
    table.grow(n_cut, len(cols) + alpha - 2)
    js = table.rows
    zs = ((col[n], 0, 0) for col in cols for n in range(1, n_cut + 1))
    ws = (js[n][m + alpha - 1] for m in range(len(cols)) for n in range(1, n_cut + 1))
    return _scaled(_dot(zs, ws), rows.h + alpha, rows.bits, prec, rnd)


def _check(word, alphas) -> None:
    """Raise for a word that has no fold, before any rows are made."""
    if not 1 <= len(word) == len(alphas) <= MAX_DEPTH:
        raise ValueError(f"need 1 <= len(word) == len(alphas) <= {MAX_DEPTH}: {word}, {alphas}")
    for (kind, k), alpha in zip(word, alphas):
        if kind not in (CUSP, CONST) or k < 2 or alpha < 1:
            raise ValueError(f"factor ({kind!r}, {k}), exponent {alpha}: need cusp or const, "
                             "k >= 2 and alpha >= 1")
    if word[-1][0] != CUSP:
        raise SingularParameterError(f"innermost factor {word[-1]}: the tail integral diverges")


def _checked_chain(word, alphas, tau: mpc) -> tuple:
    """The chain of a word with a fold, at tau on the upper half-plane."""
    _check(word, alphas)
    if not tau.imag > 0:
        raise ValueError("Im tau must be positive")
    return _chain(word, alphas)


def _top(word, alphas, tau: mpc, budget: TruncationBudget) -> tuple[_Rows, int]:
    """The kept fixed-point rows of the whole chain of the all-cusp `word`,
    grown to the n_cut certified at tau, and n_cut."""
    chain = _checked_chain(word, alphas, tau)
    n_cut, bits = _cutoff_bits(chain, tau, budget)
    rows = _rows(chain, bits)
    rows.grow(n_cut)
    return rows, n_cut


def word_eval(word, alphas, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Iterated tail integral of a word at tau (see module docstring): the
    outermost tail integral of the kept rows of its chain's prefix, grown to
    n_cut, as one dot against the J' table at tau (`_tail_dot`), times the
    word's constants.

    `word` is a tuple of (kind, k) pairs, k >= 2, whose innermost (last)
    factor is a cusp part, and `alphas` a tuple of exponents >= 1 of the same
    length >= 1; other words raise ValueError, or SingularParameterError for
    a const innermost factor.
    """
    tau = mpc(tau)
    chain = _checked_chain(word, alphas, tau)
    einf = prod((abs(eis_constant(k)) for kind, k in word if kind == CONST), start=Fraction(1))
    with mp.extradps(15):
        n_cut, bits = _cutoff_bits(chain, tau, budget, einf)
        inner = _rows(chain[:-1], bits)
        inner.grow(n_cut)
        val = mp.make_mpc(_tail_dot(inner, chain[-1][1], tau, n_cut))
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
    """The kept rows of the word's chain read at tau (raw parts) up to n_cut,
    at the working precision prec = mp.prec."""
    with mp.extradps(15):
        rows, n_cut = _top(word, alphas, mp.make_mpc(tau), budget)
        val = mp.make_mpc(rows.read(tau, n_cut))
    return +val


def int_eval(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Iterated tail integral of the cusp parts of `index` at tau, from the kept
    rows of its fold; depth 0 gives 1.  Raises ValueError for t != 0.  A value
    is kept per (word, alphas, tau, budget, mp.prec) by `_int_value`."""
    word = _cusp_word(index)
    if not word:
        return mpc(1)
    return _int_value(word, tuple(index.alphas), mpc(tau)._mpc_, budget, mp.prec)


def int_exppoly(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> ExpPoly:
    """The ExpPoly representing the iterated integral, with n_cut certified at
    tau: c_{n,d} = (2 pi i)^{d-h} R_{n,d} 2^-B, each part rounded once at the
    fold's precision.  Raises ValueError for t != 0."""
    word = _cusp_word(index)
    if not word:
        return ExpPoly.from_qseries({0: 1})
    with mp.extradps(15):
        rows, n_cut = _top(word, index.alphas, mpc(tau), budget)
        prec, rnd = mp._prec_rounding
        h, bits = rows.h, rows.bits
        return ExpPoly({n: tuple(mp.make_mpc(_scaled((col[n], 0, 0), h - d, bits, prec, rnd))
                                 for d, col in enumerate(rows.cols))
                        for n in range(1, n_cut + 1)})
