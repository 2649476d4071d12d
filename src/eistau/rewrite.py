"""Exact-rational algebra maps between integral and L-series symbols.

Conventions implemented (fixed by the numeric faithfulness and round-trip
suites; every formula below is checked against direct evaluation):

* integral -> series.  With A_j = alpha_j + ... + alpha_r - i_{j+1} - ... - i_r,

    tau^p Int(k; alpha_1..alpha_r)
      = sum over 1 <= i_j <= A_j of
        (-1)^{i_1+...+i_r} prod_j [(A_j - 1)! / (A_j - i_j)!]
        L^{(p + sum alpha - sum i)}(k; i_1..i_r).

  The factorial ratios come from repeated integration by parts of
  int e^{c s} s^{A-1} ds; each ratio is an exact integer.

* series -> integral.  Expanding (z_j - z_{j-1})^{alpha_j - 1} binomially
  (z_0 = tau) in the difference-kernel integral representation,

    L^{(t)}(k; alpha_1..alpha_r)
      = [(-1)^{sum alpha} / prod_j (alpha_j - 1)!]
        sum over 0 <= i_j <= alpha_j - 1 of
        (-1)^{i_1+...+i_r} prod_j C(alpha_j - 1, i_j)
        tau^{t + i_1} Int(k; ..., alpha_j - i_j + i_{j+1}, ...),  i_{r+1} = 0,

  whose emitted exponents alpha_j - i_j + i_{j+1} are >= 1 by construction.

* stuffle.  Products of series symbols (t = 0) expand through the partial
  fraction  1/(M^a N^b) = sum_{c+d=a+b, c,d>=1} [ C(c-1, a-1) / ((M+N)^c N^d)
  + C(c-1, b-1) / ((M+N)^c M^d) ]  applied recursively to the outermost
  partial sums of the two chains.

The two conversions are mutually inverse on formal sums (exactly, over Q),
and depend only on the exponent data, never on the weights.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, lcm

from mpmath import mpc

from .algebra import (
    LSERIES,
    TAU_INTEGRAL,
    FormalSum,
    Generator,
    lseries_gen,
    tau_integral_gen,
)
from .config import DEFAULT_BUDGET, TruncationBudget
from .integrals import int_eval
from .lseries import l_eval

Letter = tuple[int, int]  # (k, alpha)


def shuffle_words(u: tuple[Letter, ...], v: tuple[Letter, ...]):
    """All interleavings of u and v preserving both internal orders, with repeats."""
    r, s = len(u), len(v)
    for positions in combinations(range(r + s), r):
        word: list[Letter] = [None] * (r + s)  # type: ignore[list-item]
        ui = iter(u)
        vi = iter(v)
        pos = set(positions)
        for idx in range(r + s):
            word[idx] = next(ui) if idx in pos else next(vi)
        yield tuple(word)


def shuffle_product(u, v) -> FormalSum:
    """Formal sum of all (|u|,|v|)-shuffles, multiplicities accumulated."""
    u = tuple((int(k), int(a)) for k, a in u)
    v = tuple((int(k), int(a)) for k, a in v)
    return FormalSum._accumulate(
        (tau_integral_gen([k for k, _ in word], [a for _, a in word], 0), 1)
        for word in shuffle_words(u, v)
    )


@lru_cache(maxsize=None)
def _int_to_l_table(alphas: tuple[int, ...]):
    """(1, ((i_vec, t_delta, integer coefficient), ...)): the integral -> series map."""
    out = []

    def rec(j: int, carry: int, ivec_rev: list[int], coeff: int):
        if j < 0:
            out.append((tuple(reversed(ivec_rev)), carry, coeff))
            return
        a = alphas[j] + carry
        ratio = 1  # (a-1)! / (a-i)!
        for i in range(1, a + 1):
            ivec_rev.append(i)
            rec(j - 1, a - i, ivec_rev, coeff * ratio * (-1) ** i)
            ivec_rev.pop()
            ratio *= a - i

    rec(len(alphas) - 1, 0, [], 1)
    return 1, tuple(out)


@lru_cache(maxsize=None)
def _l_to_int_table(alphas: tuple[int, ...]):
    """(D, ((new_alphas, i_1, numerator), ...)): the series -> integral map over
    D = prod_j (alpha_j - 1)!, each coefficient being numerator / D."""
    denom = 1
    for a in alphas:
        denom *= factorial(a - 1)
    out = []

    def rec(j: int, i_next: int, rev_alphas: list[int], coeff: int):
        if j < 0:
            out.append((tuple(reversed(rev_alphas)), i_next, coeff))
            return
        a = alphas[j]
        for i in range(a):
            rev_alphas.append(a - i + i_next)
            rec(j - 1, i, rev_alphas, coeff * comb(a - 1, i) * (-1) ** i)
            rev_alphas.pop()

    rec(len(alphas) - 1, 0, [], (-1) ** sum(alphas))
    return denom, tuple(out)


# direction -> (input kind, output kind, message for an input of the wrong kind, table)
_DIRECTIONS = {
    "int2l": (TAU_INTEGRAL, LSERIES, "int_to_l expects a tau-integral generator", _int_to_l_table),
    "l2int": (LSERIES, TAU_INTEGRAL, "l_to_int expects an L-series generator", _l_to_int_table),
}


def _convert(pairs, direction: str) -> FormalSum:
    """Apply one conversion map to (generator, rational coefficient) pairs.

    Works per exponent shape on the direction's integer table, over the common
    denominator of all terms; the weights ks ride through unchanged.  Each
    output generator is built directly: table exponents are >= 1 and ks comes
    from a validated generator.
    """
    in_kind, out_kind, kind_msg, table = _DIRECTIONS[direction]
    terms = []
    common = 1
    for g, c in pairs:
        if g.kind != in_kind:
            raise ValueError(kind_msg)
        if g.depth < 1:
            raise ValueError("depth must be >= 1")
        denom, entries = table(g.alphas)
        terms.append((g, c, denom, entries))
        common = lcm(common, c.denominator * denom)
    acc: dict[tuple, int] = {}
    for g, c, denom, entries in terms:
        scale = c.numerator * (common // (c.denominator * denom))
        ks, power = g.ks, g.power
        for new_alphas, shift, num in entries:
            key = (ks, new_alphas, power + shift)
            acc[key] = acc.get(key, 0) + scale * num
    return FormalSum._from_nonzero(
        {Generator(out_kind, ks, al, p): Fraction(v, common) for (ks, al, p), v in acc.items() if v}
    )


def int_to_l(gen: Generator) -> FormalSum:
    """Expand tau^p Int(k; alphas) as a formal sum of L-series generators."""
    return _convert(((gen, 1),), "int2l")


def l_to_int(gen: Generator) -> FormalSum:
    """Expand L^{(t)}(k; alphas) as a formal sum of tau-integral generators."""
    return _convert(((gen, 1),), "l2int")


def convert_sum(fs: FormalSum, direction: str) -> FormalSum:
    """Linear extension of the conversion maps; direction 'int2l' or 'l2int'."""
    if direction not in _DIRECTIONS:
        raise ValueError("direction must be 'int2l' or 'l2int'")
    return _convert(fs.terms.items(), direction)


Chain = tuple[Letter, ...]


def _stuffle_chains(left: Chain, right: Chain) -> dict[Chain, int]:
    if not left:
        return {right: 1}
    if not right:
        return {left: 1}
    (k1, a), *lrest = left
    (k2, b), *rrest = right
    out: dict[Chain, int] = {}
    for c in range(1, a + b):
        d = a + b - c
        w1 = comb(c - 1, a - 1)
        if w1:
            for word, m in _stuffle_chains(tuple(lrest), ((k2, d),) + tuple(rrest)).items():
                key = ((k1, c),) + word
                out[key] = out.get(key, 0) + w1 * m
        w2 = comb(c - 1, b - 1)
        if w2:
            for word, m in _stuffle_chains(((k1, d),) + tuple(lrest), tuple(rrest)).items():
                key = ((k2, c),) + word
                out[key] = out.get(key, 0) + w2 * m
    return out


def stuffle_product(g1: Generator, g2: Generator) -> FormalSum:
    """Series product of two t = 0 L-series generators as a formal sum (t = 0)."""
    for g in (g1, g2):
        if g.kind != LSERIES:
            raise ValueError("stuffle_product expects L-series generators")
        if g.power != 0:
            raise ValueError("stuffle_product expects t = 0 generators")
        if g.depth < 1:
            raise ValueError("depths must be >= 1")
    left = tuple(zip(g1.ks, g1.alphas))
    right = tuple(zip(g2.ks, g2.alphas))
    return FormalSum._accumulate(
        (lseries_gen([k for k, _ in word], [a for _, a in word], 0), mult)
        for word, mult in _stuffle_chains(left, right).items()
    )


def round_trips(gen: Generator) -> bool:
    """Whether converting `gen` to the other family and back gives `gen`, exactly."""
    there, back = ("int2l", "l2int") if gen.kind == TAU_INTEGRAL else ("l2int", "int2l")
    return convert_sum(_convert(((gen, 1),), there), back) == FormalSum.single(gen)


def numeric_value(fs: FormalSum, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Evaluate a formal sum at tau: L-generators by series summation,
    integral generators by tau^p times the iterated integral."""
    tau = mpc(tau)
    acc = mpc(0)
    for g, c in fs:
        scale = mpc(c.numerator) / c.denominator
        if g.kind == LSERIES:
            acc += scale * l_eval(g.index(), tau, budget)
        else:
            acc += scale * tau**g.power * int_eval(g.index(), tau, budget)
    return acc
