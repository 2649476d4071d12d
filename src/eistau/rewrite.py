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

Both maps run through one shape-level core, `_convert_shape`: it takes
(alphas, power, integer numerator) triples over a caller's denominator and
returns the image on the same form over that denominator times its own D.
`_convert` groups its generators by ks and calls it once per group.  A round
trip is composed once per exponent shape, there and back from
((alphas, 0, 1),), and kept; `round_trips` builds that image at the
generator's ks and tau-power.  This is exact: the table entries never read
ks, and the tau-power only shifts each output's power by the input's, so the
image of tau^t G is the image at t = 0 with every power raised by t.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, gcd, lcm

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
from .eisenstein import _as_mpf
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


@lru_cache(maxsize=1024)
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


@lru_cache(maxsize=1024)
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


def _convert_shape(shape, direction: str):
    """(D, image): one conversion map on ((alphas, power, numerator), ...) over a
    caller's denominator, the image on the same form over that denominator times D.

    D is the lcm of the table denominators of the shape's exponents; the image
    keeps no zero numerator.
    """
    *_, table = _DIRECTIONS[direction]
    rows = []
    common = 1
    for alphas, power, num in shape:
        if not alphas:
            raise ValueError("depth must be >= 1")
        denom, entries = table(alphas)
        rows.append((power, num, denom, entries))
        common = lcm(common, denom)
    acc: dict[tuple, int] = {}
    for power, num, denom, entries in rows:
        scale = num * (common // denom)
        for new_alphas, shift, c in entries:
            key = (new_alphas, power + shift)
            acc[key] = acc.get(key, 0) + scale * c
    return common, tuple((al, p, v) for (al, p), v in acc.items() if v)


def _generators(kind: str, ks, image, denom: int, power: int = 0) -> dict[Generator, Fraction]:
    """The generators of an image of `_convert_shape` at weights ks, each power
    raised by `power`, with their coefficients numerator / denom.  Each is built
    directly: table exponents are >= 1 and ks comes from a validated generator."""
    return {Generator(kind, ks, al, power + p): Fraction(v, denom) for al, p, v in image}


def _convert(pairs, direction: str) -> FormalSum:
    """Apply one conversion map to (generator, rational coefficient) pairs.

    Groups the pairs by ks, which the maps carry through unchanged, puts each
    group's coefficients on integer numerators over their common denominator,
    and runs the group through `_convert_shape`, which also rejects depth 0.
    """
    in_kind, out_kind, kind_msg, _ = _DIRECTIONS[direction]
    groups: dict[tuple, list] = {}
    for g, c in pairs:
        if g.kind != in_kind:
            raise ValueError(kind_msg)
        groups.setdefault(g.ks, []).append((g.alphas, g.power, c))
    terms: dict[Generator, Fraction] = {}
    for ks, group in groups.items():
        den = lcm(*(c.denominator for _, _, c in group))
        shape = tuple((al, p, c.numerator * (den // c.denominator)) for al, p, c in group)
        denom, image = _convert_shape(shape, direction)
        terms.update(_generators(out_kind, ks, image, den * denom))
    return FormalSum._from_nonzero(terms)


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


@lru_cache(maxsize=1024)
def _round_trip(kind: str, alphas: tuple[int, ...]):
    """(D, image): a generator of this kind and exponents, at power 0, converted
    to the other family and back on the integer core, in lowest terms."""
    there, back = ("int2l", "l2int") if kind == TAU_INTEGRAL else ("l2int", "int2l")
    d_there, image = _convert_shape(((alphas, 0, 1),), there)
    d_back, image = _convert_shape(image, back)
    denom = d_there * d_back
    div = gcd(denom, *(v for _, _, v in image))
    return denom // div, tuple((al, p, v // div) for al, p, v in image)


def _round_trip_sum(gen: Generator) -> FormalSum:
    """The round trip of `gen` as a formal sum, from its exponent shape's kept image."""
    denom, image = _round_trip(gen.kind, gen.alphas)
    return FormalSum._from_nonzero(_generators(gen.kind, gen.ks, image, denom, gen.power))


def round_trips(gen: Generator) -> bool:
    """Whether converting `gen` to the other family and back gives `gen`, exactly.

    The composition runs once per (kind, alphas) on the integer core and is
    kept; it is exact for every ks and tau-power (module docstring).  No
    generator of the other family is built.
    """
    return _round_trip_sum(gen) == FormalSum.single(gen)


def numeric_value(fs: FormalSum, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Evaluate a formal sum at tau: L-generators by series summation,
    integral generators by tau^p times the iterated integral."""
    tau = mpc(tau)
    acc = mpc(0)
    for g, c in fs:
        scale = _as_mpf(c)
        if g.kind == LSERIES:
            acc += scale * l_eval(g.index(), tau, budget)
        else:
            acc += scale * tau**g.power * int_eval(g.index(), tau, budget)
    return acc
