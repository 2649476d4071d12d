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
(`exppoly._log_majorant`).  B comes from the deficit bound of the chain
(`exppoly._fixed_bits`), so the fixed-point rows move the value by at most
eps 2^-24, and the read rounds once at the fold's precision, 15 digits above
the returned one.

Truncation prefix: the rows do not depend on tau, only n_cut does, and a row n
is built from rows up to n only.  So a chain's rows are kept per (chain, B)
(`exppoly._rows`) and grown in place, and words that share inner integrals
share those rows.  `int_eval` grows the rows of its whole chain to n_cut and
reads them at tau up to n_cut (`_top`), and keeps each value it returns
(`_int_value`); `int_dump` prints the same rows, with h and B, as ints.

`word_eval`'s callers are the base-point words of `mmv`, which keeps their
values, so the rows of a word's own chain would be read once.  It grows the
rows of its chain's prefix only, to the n_cut of the whole chain, and reads
the outermost tail integral off them as one exact dot against a table of
elementary tail integrals at tau (`exppoly._Rows.tail_read`), rounded once
at the fold's precision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod

from mpmath import mp, mpc

from .algebra import CompositeIndex
from .config import DEFAULT_BUDGET, SingularParameterError, TruncationBudget
from .eisenstein import CONST, CUSP, _constant_mpf, _eps_logs, eis_constant, tail_start
from .exppoly import LOG_2, PRODUCT, TAIL, _certificate, _fixed_bits, _log_majorant, _rows

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


def _cutoff_bits(chain: tuple, tau: mpc, budget: TruncationBudget, einf=Fraction(1)) -> tuple:
    """(n_cut, B) at tau of the fold of `chain`, for a word whose const
    factors multiply its value by einf in modulus: `freq_cutoff` for a term
    at most einf C n^P e^{-2 pi n Im tau} on log (einf C) as it is, inside the
    margin of `tail_start`, and B from the deficit bound on its upper bound
    (`exppoly._certificate`, `_log_majorant`, `_fixed_bits`)."""
    cert = _certificate(chain)
    log_c, upper = _log_majorant(cert, tau, einf)
    n_cut = freq_cutoff(cert.power, log_c, tau, budget)
    return n_cut, _fixed_bits(cert.d_power, n_cut, cert.spread, upper, budget.eps)


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


def _top(word, alphas, tau: mpc, budget: TruncationBudget) -> tuple:
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
    n_cut (`exppoly._Rows.tail_read`), times the word's constants.

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
        val = mp.make_mpc(inner.tail_read(chain[-1][1], tau._mpc_, n_cut))
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


def int_dump(index: CompositeIndex, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> str:
    """The kept fixed-point rows that `int_eval` reads at tau, grown to n_cut,
    as text (`exppoly._Rows.dump`); depth 0 gives 'h = 0, B = 0' and '0; 1'.
    Raises ValueError for t != 0."""
    word = _cusp_word(index)
    if not word:
        return "h = 0, B = 0\n0; 1"
    tau = mpc(tau)  # at the working precision, as int_eval takes it
    with mp.extradps(15):
        rows, n_cut = _top(word, index.alphas, tau, budget)
    return rows.dump(n_cut)
