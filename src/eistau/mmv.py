"""Base-point-i integral calculus: cocycle coefficients of length <= 2.

Primitives, on the segments (0, i] and [i, i*oo) with the measure du/u and
weight-2k cusp/constant factors (E0 / Einf, Einf = -b_{2k}/(4k)):

    T(f1,..,fr; m1,..,mr) = int_{0<u1<..<ur<i}  f1(u1) u1^{m1-1} .. dur .. du1
    R(f1,..,fr; m1,..,mr) = int_{i<u1<..<ur<ioo} likewise.

Every R word with exponents >= 1, const factors included, is the fold of
`integrals.word_eval` at tau = i; the one R route local to this module is the
gammainc sum for a single cusp factor with m <= 0.  The module memoizes these
values, keyed on the budget and the working precision `mp.prec`, and
assembles the formulas below from them.  `word_eval` keeps no fold, so this
memo is the only cache of an R word.

Closed forms and regularized values (every formula below is pinned by the
verification suites; "regularized" means the analytic extension fixed by
int_0^u s^{b-1} ds := u^b / b and int_u^{ioo} s^{b-1} ds := -u^b / b):

    T(Einf; b)            = Einf i^b / b                                (b != 0)
    T(Einf, Einf; b1, b2) = Einf Einf' i^{b1+b2} / (b1 (b1+b2))
    T(E0; m)              = (-1)^m [R(E0; 2k-m) - T(Einf; 2k-m)] - T(Einf; m)
                                                        (m not in {0, 2k})
    T(E0, Einf; a, b)     = (Einf/b) [i^b T(E0; a) - T(E0; a+b)]
    T(Einf, E0; b, a)     = (Einf/b) T(E0; a+b)

    R(Einf_{2k1}, E0_{2k2}; a1, a2)
        = (-1)^{a1+a2} [ T(E0_{2k2}, Einf_{2k1}; 2k2-a2, -a1)
                         + T(Einf_{2k2}, Einf_{2k1}; 2k2-a2, -a1)
                         - T(Einf_{2k2}, Einf_{2k1}; -a2, -a1) ].

Length-1 and length-2 coefficients of the iterated integral generating
series at base point i, extracted at the monomial X^{2k-a-1} Y^{a-1}:

    I(2k; a)   = (-1)^a (2 pi i)^{2k-1} C(2k-2, a-1) [R(E0; a) - T(Einf; a)]
    I(2k1,2k2; a1,a2)
               = (-1)^{a1+a2} (2 pi i)^{2k1+2k2-2} C(2k1-2,a1-1) C(2k2-2,a2-1)
                 [ R(E0_1, E0_2; a1, a2) + R(Einf_1, E0_2; a1, a2)
                   - R(Einf_2, E0_1; a2, a1) - R(E0_1; a1) T(Einf_2; a2)
                   + T(Einf_2, Einf_1; a2, a1) ]

and the modular-inversion cocycle coefficients

    S(2k; a)       = I(2k; a) - (-1)^{a-1} I(2k; 2k-a)
    S(2k1,2k2; a1,a2) = I(a1,a2) - (-1)^{a1+a2} I(2k1-a1, 2k2-a2)
                        - (-1)^{a1-1} I(2k1; 2k1-a1) S(2k2; a2).

Regularized values at the lower endpoint (depth 1 and 2):

    Int0(k; m)          = R(E0; m) + T(E0; m)
    Int0(k1,k2; a1,a2)  = R(E0_1,E0_2; a1,a2)
                          + (-1)^{a1+a2} R(E0_2,E0_1; 2k2-a2, 2k1-a1)
                          - A0 - A' - Ainf,
    A0   = -T(E0_1; a1) R(E0_2; a2)
    A'   = -T(E0_1, Einf_2; a1, [a2-2k2 | a2]) - T(Einf_1, E0_2; [a1-2k1 | a1], a2)
    Ainf = T(Einf_1, Einf_2; [a1-2k1 | a1], [a2-2k2 | a2])

with [x | y] meaning value-at-x minus value-at-y, expanded bilinearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from mpmath import mp, mpc, mpf

from .algebra import CompositeIndex
from .config import DEFAULT_BUDGET, SingularParameterError, TruncationBudget
from .eisenstein import CONST, CUSP, bernoulli, sigma_majorant, sigma_table, tail_start
from .eisenstein import _constant_mpf as _einf
# int_eval is unused here, but bench/test_bench.py checks that the benchmark's
# tracer restores this binding.
from .integrals import int_eval, word_eval  # noqa: F401

_BASE = mpc(0, 1)  # all integrals in this module are anchored at tau = i


_IPOW = (mpc(1), mpc(0, 1), mpc(-1), mpc(0, -1))  # exact at every precision


def _ipow(n: int) -> mpc:
    return _IPOW[n % 4]


# R words by value, keyed on the budget and mp.prec
_memo: dict[tuple, mpc] = {}


# -- T/R primitives -------------------------------------------------------------


def t_const_closed(k: int, alpha: int) -> mpc:
    """T(Einf_{2k}; alpha) = Einf i^alpha / alpha; alpha = 0 is log-divergent."""
    if alpha == 0:
        raise SingularParameterError("T(const; 0) diverges logarithmically")
    return _einf(k) * _ipow(alpha) / alpha


def t_const_const(k1: int, k2: int, b1: int, b2: int) -> mpc:
    """T(Einf_{2k1}, Einf_{2k2}; b1, b2) = Einf Einf' i^{b1+b2} / (b1 (b1+b2))."""
    if b1 == 0 or b2 == 0 or b1 + b2 == 0:
        raise SingularParameterError(f"singular const-const exponents ({b1}, {b2})")
    return _einf(k1) * _einf(k2) * _ipow(b1 + b2) / (b1 * (b1 + b2))


def _gammainc_majorant(k: int) -> tuple[int, mpf]:
    """(P, C) with |sigma_{2k-1}(n) (i / 2 pi n)^alpha Gamma(alpha, 2 pi n)| <= C n^P e^{-2 pi n}
    for alpha <= 1, where Gamma(alpha, x) <= x^{alpha-1} e^{-x}; sigma by sigma_majorant(k)."""
    c = sigma_majorant(k)
    return 2 * k - 2, mpf(c.numerator) / c.denominator / (2 * mp.pi)


def _r(word: tuple, alphas: tuple, budget: TruncationBudget) -> mpc:
    """R(word; alphas), memoized by value: the `integrals` fold of the word, or
    for one cusp factor with alpha <= 0 (convergent too) the gammainc sum."""
    if len(word) > 1 and min(alphas) < 1:
        error = SingularParameterError if word[0][0] == CONST else ValueError
        raise error(f"R words of depth 2 require positive exponents, got {alphas}")

    def compute():
        if alphas[0] >= 1:
            return word_eval(word, alphas, _BASE, budget)
        # sum_n sigma(n) (i / 2 pi n)^alpha Gamma(alpha, 2 pi n)
        ((_, k),), (alpha,) = word, alphas
        with mp.extradps(10):
            power, c = _gammainc_majorant(k)
            n_trunc = tail_start(power, 1, mpf(budget.eps) / c, budget.n_max)
            sig = sigma_table(2 * k - 1, n_trunc)
            acc = mpc(0)
            for n in range(1, n_trunc + 1):
                acc += (
                    sig[n]
                    * (mpc(0, 1) / (2 * mp.pi * n)) ** alpha
                    * mp.gammainc(alpha, 2 * mp.pi * n)
                )
        return +acc

    key = (word, alphas, budget, mp.prec)
    val = _memo.get(key)
    if val is None:
        val = _memo[key] = compute()
    return val


def r_iter(factors, alphas, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """R-integral over [i, i*oo) for a depth <= 2 word of cusp/const factors.

    The integration must be exponentially damped at every stage, i.e. the
    innermost factor must be a cusp part, and a depth-2 (cusp, const) word is
    rejected as structurally divergent.  Depth-2 words need exponents >= 1.
    """
    factors = tuple((str(kind), int(k)) for kind, k in factors)
    alphas = tuple(int(a) for a in alphas)
    if len(factors) != len(alphas) or not 1 <= len(factors) <= 2:
        raise ValueError("r_iter supports depth 1 and 2 with matching alphas")
    for kind, k in factors:
        if kind not in (CUSP, CONST):
            raise ValueError(f"unknown factor kind {kind!r}")
        if k < 2:
            raise ValueError("k must be >= 2")
    if factors[-1][0] != CUSP:
        raise SingularParameterError(
            "structurally divergent: innermost factor must be a cusp part"
        )
    return _r(factors, alphas, budget)


def t_cusp_reg(k: int, m: int, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Regularized T(E0_{2k}; m) via the modular inversion; m not in {0, 2k}.

    For m > 2k the defining integral converges and the regularized value
    agrees with direct quadrature (checked in the acceptance suite).
    """
    if m in (0, 2 * k):
        raise SingularParameterError(f"T(E0; m) is singular at m = {m} for weight {2 * k}")
    return (
        (-1) ** m * (_r(((CUSP, k),), (2 * k - m,), budget) - t_const_closed(k, 2 * k - m))
        - t_const_closed(k, m)
    )


CUSP_THEN_CONST = "cusp-then-const"
CONST_THEN_CUSP = "const-then-cusp"


def t_mixed_reduce(kind: str, k_cusp: int, k_const: int, alpha: int, beta: int,
                   budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Regularized mixed double T-integral, reduced to single regularized T's.

    cusp-then-const: T(E0, Einf; alpha, beta) = (Einf/beta)[i^beta T(E0; alpha)
    - T(E0; alpha+beta)]; const-then-cusp: T(Einf, E0; beta, alpha)
    = (Einf/beta) T(E0; alpha+beta).
    """
    if beta == 0:
        raise SingularParameterError("beta = 0 makes the constant layer divergent")
    einf = _einf(k_const)
    if kind == CUSP_THEN_CONST:
        for m in (alpha, alpha + beta):
            if m in (0, 2 * k_cusp):
                raise SingularParameterError(
                    f"reduction hits the singular exponent {m} for weight {2 * k_cusp}"
                )
        return (
            einf
            / beta
            * (_ipow(beta) * t_cusp_reg(k_cusp, alpha, budget) - t_cusp_reg(k_cusp, alpha + beta, budget))
        )
    if kind == CONST_THEN_CUSP:
        if alpha + beta in (0, 2 * k_cusp):
            raise SingularParameterError(
                f"reduction hits the singular exponent {alpha + beta} for weight {2 * k_cusp}"
            )
        return einf / beta * t_cusp_reg(k_cusp, alpha + beta, budget)
    raise ValueError(f"unknown reduction kind {kind!r}")


def r_const_cusp_identity(k1: int, k2: int, a1: int, a2: int,
                          budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """RHS of the inversion identity for R(Einf_1, E0_2; a1, a2) (see module doc).

    Assembled purely from regularized T-values; the verification suite compares
    it against the directly convergent r_iter value.
    """
    if a1 + a2 == 2 * k2:
        raise SingularParameterError("a1 + a2 = 2 k2 is singular for this identity")
    sgn = (-1) ** (a1 + a2)
    return sgn * (
        t_mixed_reduce(CUSP_THEN_CONST, k2, k1, 2 * k2 - a2, -a1, budget)
        + t_const_const(k2, k1, 2 * k2 - a2, -a1)
        - t_const_const(k2, k1, -a2, -a1)
    )


# -- Eichler coefficients -------------------------------------------------------


@dataclass(frozen=True)
class MonomialCoefficientRequest:
    """Selects the coefficient of prod_j X_j^{2k_j - a_j - 1} Y_j^{a_j - 1}."""

    ks: tuple[int, ...]
    alphas: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= len(self.ks) <= 2 or len(self.ks) != len(self.alphas):
            raise ValueError("requests carry one or two (k, alpha) pairs")
        for k, a in zip(self.ks, self.alphas):
            if k < 2:
                raise ValueError("k must be >= 2")
            if not 1 <= a <= 2 * k - 1:
                raise ValueError(f"alpha = {a} outside 1..{2 * k - 1} for weight {2 * k}")


def _as_request(ks, alphas) -> MonomialCoefficientRequest:
    if isinstance(ks, MonomialCoefficientRequest):
        return ks
    return MonomialCoefficientRequest(tuple(int(k) for k in ks), tuple(int(a) for a in alphas))


def i_coeff(ks, alphas=None, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Length-1 or length-2 coefficient of the base-point-i iterated integral."""
    req = _as_request(ks, alphas)
    if len(req.ks) == 1:
        (k,), (a,) = req.ks, req.alphas
        body = _r(((CUSP, k),), (a,), budget) - t_const_closed(k, a)
        return (-1) ** a * (2 * mp.pi * mpc(0, 1)) ** (2 * k - 1) * comb(2 * k - 2, a - 1) * body
    k1, k2 = req.ks
    a1, a2 = req.alphas
    c1, c2, e1, e2 = (CUSP, k1), (CUSP, k2), (CONST, k1), (CONST, k2)
    body = (
        _r((c1, c2), (a1, a2), budget)
        + _r((e1, c2), (a1, a2), budget)
        - _r((e2, c1), (a2, a1), budget)
        - _r((c1,), (a1,), budget) * t_const_closed(k2, a2)
        + t_const_const(k2, k1, a2, a1)
    )
    sgn = (-1) ** (a1 + a2) * comb(2 * k1 - 2, a1 - 1) * comb(2 * k2 - 2, a2 - 1)
    return sgn * (2 * mp.pi * mpc(0, 1)) ** (2 * k1 + 2 * k2 - 2) * body


def s_coeff(ks, alphas=None, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Cocycle coefficient at the inversion, lengths 1 and 2."""
    req = _as_request(ks, alphas)
    if len(req.ks) == 1:
        (k,), (a,) = req.ks, req.alphas
        return i_coeff(req, budget=budget) - (-1) ** (a - 1) * i_coeff(
            MonomialCoefficientRequest((k,), (2 * k - a,)), budget=budget
        )
    k1, k2 = req.ks
    a1, a2 = req.alphas
    return (
        i_coeff(req, budget=budget)
        - (-1) ** (a1 + a2)
        * i_coeff(MonomialCoefficientRequest((k1, k2), (2 * k1 - a1, 2 * k2 - a2)), budget=budget)
        - (-1) ** (a1 - 1)
        * i_coeff(MonomialCoefficientRequest((k1,), (2 * k1 - a1,)), budget=budget)
        * s_coeff(MonomialCoefficientRequest((k2,), (a2,)), budget=budget)
    )


# -- regularized values at the lower endpoint ------------------------------------


def int0_reg(index: CompositeIndex, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Regularized iterated-integral value at tau = 0, depth 1 or 2."""
    if index.t:
        raise ValueError(f"int0_reg takes no tau^t factor, got t = {index.t}")
    if index.depth == 1:
        k, m = index.ks[0], index.alphas[0]
        if m in (0, 2 * k):
            raise SingularParameterError(f"exponent {m} is singular for weight {2 * k}")
        return _r(((CUSP, k),), (m,), budget) + t_cusp_reg(k, m, budget)
    if index.depth != 2:
        raise ValueError("int0_reg supports depth 1 and 2 only")
    k1, k2 = index.ks
    a1, a2 = index.alphas
    for k, a in zip(index.ks, index.alphas):
        if not 1 <= a <= 2 * k - 1:
            raise SingularParameterError(f"alpha = {a} outside 1..{2 * k - 1} for weight {2 * k}")
    w = a1 + a2
    if w in (2 * k1, 2 * k2):
        raise SingularParameterError(f"alpha_1 + alpha_2 = {w} is singular for weights "
                                     f"({2 * k1}, {2 * k2})")
    a_zero, a_prime, a_inf = _a_terms(index, budget)
    return (
        _r(((CUSP, k1), (CUSP, k2)), (a1, a2), budget)
        + (-1) ** w * _r(((CUSP, k2), (CUSP, k1)), (2 * k2 - a2, 2 * k1 - a1), budget)
        - a_zero
        - a_prime
        - a_inf
    )


def _a_terms(index: CompositeIndex, budget: TruncationBudget) -> tuple[mpc, mpc, mpc]:
    """(A0, A', Ainf) of the depth-2 Int0 assembly (see module docstring)."""
    k1, k2 = index.ks
    a1, a2 = index.alphas
    a_zero = -t_cusp_reg(k1, a1, budget) * _r(((CUSP, k2),), (a2,), budget)
    a_prime = -(
        t_mixed_reduce(CUSP_THEN_CONST, k1, k2, a1, a2 - 2 * k2, budget)
        - t_mixed_reduce(CUSP_THEN_CONST, k1, k2, a1, a2, budget)
    ) - (
        t_mixed_reduce(CONST_THEN_CUSP, k2, k1, a2, a1 - 2 * k1, budget)
        - t_mixed_reduce(CONST_THEN_CUSP, k2, k1, a2, a1, budget)
    )
    a_inf = (
        t_const_const(k1, k2, a1 - 2 * k1, a2 - 2 * k2)
        - t_const_const(k1, k2, a1 - 2 * k1, a2)
        - t_const_const(k1, k2, a1, a2 - 2 * k2)
        + t_const_const(k1, k2, a1, a2)
    )
    return a_zero, a_prime, a_inf


# -- rational cocycle polynomial and zeta ----------------------------------------


@dataclass(frozen=True)
class BiPolynomial:
    """Homogeneous polynomial in X, Y; coeffs[j] multiplies X^(degree-j) Y^j."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count must equal degree + 1")

    def coefficient(self, x_pow: int, y_pow: int) -> Fraction:
        if x_pow + y_pow != self.degree or x_pow < 0 or y_pow < 0:
            raise ValueError(f"monomial X^{x_pow} Y^{y_pow} not of degree {self.degree}")
        return self.coeffs[y_pow]


def e0_cocycle_S(k: int) -> BiPolynomial:
    """Bernoulli cocycle polynomial of weight 2k at the inversion, exact:

    (2k-2)!/2 * sum_{i=1}^{k-1} [b_{2i}/(2i)!] [b_{2k-2i}/(2k-2i)!] X^{2i-1} Y^{2k-2i-1}.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    deg = 2 * k - 2
    coeffs = [Fraction(0)] * (deg + 1)
    lead = Fraction(factorial(2 * k - 2), 2)
    for i in range(1, k):
        c = lead * bernoulli(2 * i) / factorial(2 * i) * bernoulli(2 * k - 2 * i) / factorial(2 * k - 2 * i)
        coeffs[2 * k - 2 * i - 1] += c  # Y-power of the X^{2i-1} Y^{2k-2i-1} monomial
    return BiPolynomial(deg, tuple(coeffs))


def zeta_odd(s: int, budget: TruncationBudget = DEFAULT_BUDGET) -> mpf:
    """zeta(s) for odd s >= 3 within budget.eps, rounded to the working precision.

    mpmath's zeta (Borwein's algorithm, or an Euler product for large s) runs
    10 digits above both the working precision and the digits eps needs.
    mpmath caches integer zeta values itself, at the highest precision asked
    so far; `clear_caches` does not reach that cache, and the guard digits
    absorb the difference between a cached and a fresh value.
    """
    if s < 3 or s % 2 == 0:
        raise ValueError("s must be odd and >= 3")
    with mp.workdps(max(mp.dps, int(mp.ceil(-mp.log10(budget.eps)))) + 10):
        z = mp.zeta(s)
    return +z


def haberland_rhs(k: int, alpha: int, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Closed form for S(2k; alpha): Bernoulli cocycle plus the odd zeta term."""
    if not 1 <= alpha <= 2 * k - 1:
        raise ValueError("alpha out of range")
    poly = e0_cocycle_S(k)
    c = poly.coefficient(2 * k - alpha - 1, alpha - 1)
    val = (2 * mp.pi * mpc(0, 1)) ** (2 * k - 1) * mpf(c.numerator) / c.denominator
    delta = (1 if alpha == 1 else 0) - (1 if alpha == 2 * k - 1 else 0)
    if delta:
        frac = Fraction(factorial(2 * k - 2), 2) * delta
        val += mpf(frac.numerator) / frac.denominator * zeta_odd(2 * k - 1, budget)
    return val


# -- assembled theorem sides, used by the verification suites --------------------


def symmetry_defect(k1: int, k2: int, a1: int, a2: int,
                    budget: TruncationBudget = DEFAULT_BUDGET) -> tuple[mpc, mpc]:
    """(lhs, rhs) of S(2k1,2k2;a1,a2) = (-1)^{a1+a2} S(2k2,2k1;2k2-a2,2k1-a1)."""
    lhs = s_coeff((k1, k2), (a1, a2), budget)
    rhs = (-1) ** (a1 + a2) * s_coeff((k2, k1), (2 * k2 - a2, 2 * k1 - a1), budget)
    return lhs, rhs


def first_difference_sides(k1: int, k2: int, a1: int, a2: int,
                           budget: TruncationBudget = DEFAULT_BUDGET) -> tuple[mpc, mpc]:
    """(lhs, rhs) of the first-difference identity

    S(2k1,2k2;a1,a2) - S(2k2,2k1;a2,a1)
      = (-1)^{a1+a2} (2 pi i)^{2k1+2k2-2} C(2k1-2,a1-1) C(2k2-2,a2-1)
        { Int0(k1,k2;a1,a2) - Int0(k2,k1;a2,a1)
          + (b_{2k2}/(2 k2 a2)) Int0(k1; a1+a2)
          - (b_{2k1}/(2 k1 a1)) Int0(k2; a1+a2) }

    with no additive constant.  The Int0 coefficients carry the signs forced
    by the constant term -b_{2k}/(4k); the sign-flipped variant with an extra
    Bernoulli constant fails numerically (see the verification report notes).
    """
    w = a1 + a2
    if w in (2 * k1, 2 * k2):
        raise SingularParameterError(f"alpha_1 + alpha_2 = {w} is singular")
    lhs = s_coeff((k1, k2), (a1, a2), budget) - s_coeff((k2, k1), (a2, a1), budget)
    b1 = bernoulli(2 * k1)
    b2 = bernoulli(2 * k2)
    braces = (
        int0_reg(CompositeIndex((k1, k2), (a1, a2)), budget)
        - int0_reg(CompositeIndex((k2, k1), (a2, a1)), budget)
        + mpf(b2.numerator) / b2.denominator / (2 * k2 * a2)
        * int0_reg(CompositeIndex((k1,), (w,)), budget)
        - mpf(b1.numerator) / b1.denominator / (2 * k1 * a1)
        * int0_reg(CompositeIndex((k2,), (w,)), budget)
    )
    pref = (
        (-1) ** w
        * (2 * mp.pi * mpc(0, 1)) ** (2 * k1 + 2 * k2 - 2)
        * comb(2 * k1 - 2, a1 - 1)
        * comb(2 * k2 - 2, a2 - 1)
    )
    return lhs, pref * braces


def fund_first_sides(k: int, alpha: int,
                     budget: TruncationBudget = DEFAULT_BUDGET) -> tuple[mpc, mpc]:
    """(lhs, rhs) of R(E0;a) = (-1)^a [T(E0;2k-a) + T(Einf;2k-a)] + T(Einf;a)."""
    lhs = _r(((CUSP, k),), (alpha,), budget)
    rhs = (-1) ** alpha * (
        t_cusp_reg(k, 2 * k - alpha, budget) + t_const_closed(k, 2 * k - alpha)
    ) + t_const_closed(k, alpha)
    return lhs, rhs


def fund_second_sides(k1: int, k2: int, a1: int, a2: int,
                      budget: TruncationBudget = DEFAULT_BUDGET) -> tuple[mpc, mpc]:
    """(lhs, rhs) of the inversion identity for R(Einf_1, E0_2; a1, a2)."""
    lhs = _r(((CONST, k1), (CUSP, k2)), (a1, a2), budget)
    rhs = r_const_cusp_identity(k1, k2, a1, a2, budget)
    return lhs, rhs
