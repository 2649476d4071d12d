"""Exact index bookkeeping and rational-linear combinations of symbols.

Every series or integral in the engine is addressed by a CompositeIndex
(half-weights k_i >= 2, exponents alpha_i >= 1, and a tau-power t >= 0 for
series symbols).  A Generator is either an L-series symbol or a tau-integral
symbol (the latter with an explicit power of tau in front), and a FormalSum
is a finite rational-linear combination of generators.

Textual syntax, used by the CLI and by reports:

    L{ks=[2,3];alphas=[1,2];t=0}     I{ks=[2,3];alphas=[1,2];taupow=1}

with rational coefficients serialized as "p/q".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator

LSERIES = "L"
TAU_INTEGRAL = "I"


@dataclass(frozen=True)
class CompositeIndex:
    """Index (k_1..k_r; alpha_1..alpha_r; t) with every k >= 2, alpha >= 1 and
    t >= 0, or ValueError; depth 0 (empty tuples) is the unit symbol."""

    ks: tuple[int, ...]
    alphas: tuple[int, ...]
    t: int = 0

    def __post_init__(self):
        if len(self.ks) != len(self.alphas):
            raise ValueError("ks and alphas must have equal length")
        if self.ks and min(self.ks) < 2:
            raise ValueError("every k must be >= 2")
        if self.alphas and min(self.alphas) < 1:
            raise ValueError("every alpha must be >= 1")
        if self.t < 0:
            raise ValueError("t must be >= 0")

    @property
    def depth(self) -> int:
        return len(self.ks)

    @property
    def upper_weight(self) -> int:
        return sum(self.ks)

    @property
    def lower_weight(self) -> int:
        return self.t + sum(self.alphas)


def make_index(ks, alphas, t: int = 0) -> CompositeIndex:
    """CompositeIndex from any iterables of integers, validated by the type."""
    return CompositeIndex(tuple(int(k) for k in ks), tuple(int(a) for a in alphas), int(t))


@dataclass(frozen=True)
class Generator:
    """L-series or tau-integral symbol; `power` is t or the tau-power respectively."""

    kind: str
    ks: tuple[int, ...]
    alphas: tuple[int, ...]
    power: int = 0

    def sort_key(self):
        return (self.kind, self.ks, self.alphas, self.power)

    @property
    def depth(self) -> int:
        return len(self.ks)

    @property
    def upper_weight(self) -> int:
        return sum(self.ks)

    @property
    def lower_weight(self) -> int:
        return self.power + sum(self.alphas)

    def index(self) -> CompositeIndex:
        t = self.power if self.kind == LSERIES else 0
        return CompositeIndex(self.ks, self.alphas, t)

    def __str__(self):
        ks = ",".join(map(str, self.ks))
        al = ",".join(map(str, self.alphas))
        if self.kind == LSERIES:
            return f"L{{ks=[{ks}];alphas=[{al}];t={self.power}}}"
        return f"I{{ks=[{ks}];alphas=[{al}];taupow={self.power}}}"


def lseries_gen(ks, alphas, t: int = 0) -> Generator:
    idx = make_index(ks, alphas, t)
    return Generator(LSERIES, idx.ks, idx.alphas, idx.t)


def tau_integral_gen(ks, alphas, tau_power: int = 0) -> Generator:
    idx = make_index(ks, alphas, 0)
    if tau_power < 0:
        raise ValueError("tau_power must be >= 0")
    return Generator(TAU_INTEGRAL, idx.ks, idx.alphas, int(tau_power))


_GEN_RE = re.compile(
    r"([LI])\{ks=\[([0-9,]*)\];alphas=\[([0-9,]*)\];(t|taupow)=([0-9]+)\}"
)


def parse_generator(text: str) -> Generator:
    m = _GEN_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"cannot parse generator: {text!r}")
    kind, ks_s, al_s, pname, pval = m.groups()
    if (kind == LSERIES) != (pname == "t"):
        raise ValueError(f"mismatched power field in {text!r}")
    ks = [int(x) for x in ks_s.split(",") if x]
    alphas = [int(x) for x in al_s.split(",") if x]
    if kind == LSERIES:
        return lseries_gen(ks, alphas, int(pval))
    return tau_integral_gen(ks, alphas, int(pval))


def format_rational(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


class FormalSum:
    """Finite map Generator -> Fraction with zero coefficients pruned."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Generator, Fraction] | None = None):
        self.terms: dict[Generator, Fraction] = {}
        if terms:
            for g, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[g] = c

    @classmethod
    def single(cls, g: Generator, c=1) -> "FormalSum":
        return cls({g: Fraction(c)})

    @classmethod
    def _accumulate(cls, pairs) -> "FormalSum":
        """Sum (generator, coefficient) pairs into one dict, then build once."""
        terms: dict[Generator, Fraction] = {}
        for g, c in pairs:
            terms[g] = terms.get(g, 0) + c
        return cls(terms)

    @classmethod
    def _from_nonzero(cls, terms: dict[Generator, Fraction]) -> "FormalSum":
        """Wrap a dict whose coefficients are already nonzero Fractions, without copying."""
        fs = cls()
        fs.terms = terms
        return fs

    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self) -> Iterator[tuple[Generator, Fraction]]:
        return iter(sorted(self.terms.items(), key=lambda gc: gc[0].sort_key()))

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, g: Generator) -> Fraction:
        return self.terms.get(g, Fraction(0))

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum._accumulate(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def scale(self, c) -> "FormalSum":
        c = Fraction(c)
        if not c:
            return FormalSum()
        return FormalSum({g: x * c for g, x in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def filtration_degrees(self) -> tuple[int, int, int]:
        """(length, upper weight, lower weight), each the max over stored terms."""
        if not self.terms:
            return (0, 0, 0)
        return (
            max(g.depth for g in self.terms),
            max(g.upper_weight for g in self.terms),
            max(g.lower_weight for g in self.terms),
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [f"{format_rational(c)}*{g}" for g, c in self]
        return " + ".join(parts)

    __repr__ = __str__


def parse_formal_sum(text: str) -> FormalSum:
    """Inverse of str(FormalSum): 'p/q*GEN + p/q*GEN + ...' or '0'."""
    text = text.strip()
    if text == "0":
        return FormalSum()
    pairs = (part.split("*", 1) for part in text.split(" + "))
    return FormalSum._accumulate(
        (parse_generator(gen_s), parse_rational(coef_s)) for coef_s, gen_s in pairs
    )
