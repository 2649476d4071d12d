import ast
import pathlib
import random
from fractions import Fraction
from itertools import islice
from math import floor, perm

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

from eistau import clear_caches, integrals, lseries, make_index
from eistau.cli import main
from eistau.eisenstein import sigma_table
from eistau.exppoly import (
    GUARD_BITS,
    ExpPoly,
    _block,
    _dot,
    _powers,
    _round,
    elem_exp_tail,
)
from eistau.integrals import int_eval
from eistau.lseries import l_eval
from eistau.mmv import int0_reg, r_iter, s_coeff
from eistau.verify import SUITES, run_suite

I = mpc(0, 1)


def cusp_exppoly(k: int, n_cut: int) -> ExpPoly:
    """Truncated weight-2k cusp series sum_{n<=n_cut} sigma_{2k-1}(n) e^{2 pi i n t}."""
    sig = sigma_table(2 * k - 1, n_cut)
    return ExpPoly.from_qseries({n: sig[n] for n in range(1, n_cut + 1)})


def test_elem_exp_tail_alpha1():
    assert abs(elem_exp_tail(1, 1, I) - (-mp.exp(-2 * mp.pi) / (2 * mp.pi * I))) < mpf("1e-38")
    assert abs(elem_exp_tail(2, 1, I) - (-mp.exp(-4 * mp.pi) / (4 * mp.pi * I))) < mpf("1e-38")


def test_elem_exp_tail_matches_quadrature():
    # independent check: adaptive quadrature on the truncated vertical ray
    val = elem_exp_tail(1, 3, I)
    f = lambda u: mp.expjpi(2 * (I + I * u)) * (I + I * u) ** 2
    ref = mp.quad(f, [0, 1, 4, 30], method="gauss-legendre") * I
    assert abs(val - ref) < mpf("1e-25")


def test_elem_exp_tail_rejects():
    with pytest.raises(ValueError):
        elem_exp_tail(0, 1, I)
    with pytest.raises(ValueError):
        elem_exp_tail(1, 0, I)
    with pytest.raises(ValueError):
        elem_exp_tail(1, 1, mpc(0, -1))


def _elem_exp_tail_closed_form(n: int, alpha: int, a) -> mpc:
    """-e^{2 pi i n a} sum_j (-1)^j [(alpha-1)!/(alpha-1-j)!] a^{alpha-1-j} / (2 pi i n)^{j+1}."""
    c = 2 * mp.pi * I * n
    return -mp.expjpi(2 * n * a) * sum((-1) ** j * perm(alpha - 1, j) * a ** (alpha - 1 - j)
                                       / c ** (j + 1) for j in range(alpha))


@pytest.mark.parametrize("dps", [20, 40, 60])
def test_elem_exp_tail_within_an_ulp_of_closed_form(dps):
    # one entry of the J' table, scaled and rounded once, is within 2^-prec of
    # the closed form at 30 more digits, relatively (measured worst: 0.99, at
    # tau = i, n = 1, alpha = 4 and 40 digits; ExpPoly.tail_integral of the one
    # term, evaluated at tau, lost up to 8.1)
    with mp.workdps(dps):
        taus = [I, mpc("0.3", "0.8"), mpc("-0.45", "1.7")]
        ulp = mpf(2) ** -mp.prec
    for tau in taus:
        for n in (1, 2, 5, 13):
            for alpha in (1, 2, 4, 9):
                with mp.workdps(dps):
                    got = elem_exp_tail(n, alpha, tau)
                with mp.workdps(dps + 30):
                    ref = _elem_exp_tail_closed_form(n, alpha, tau)
                    assert abs(got - ref) <= ulp * abs(ref), (tau, n, alpha)


def test_from_qseries_eval():
    f = ExpPoly.from_qseries({1: 2, 3: -1})
    tau = mpc("0.3", "1.1")
    expect = 2 * mp.expjpi(2 * tau) - mp.expjpi(6 * tau)
    assert abs(f(tau) - expect) < mpf("1e-38")


def test_tail_integral_single_term():
    f = ExpPoly.from_qseries({1: 1})
    g = f.tail_integral(1)
    tau = mpc(0, "1.5")
    expect = -mp.expjpi(2 * tau) / (2 * mp.pi * I)
    assert abs(g(tau) - expect) < mpf("1e-38")


def test_tail_integral_zero_and_linearity():
    assert ExpPoly().tail_integral(2).is_zero()
    f = ExpPoly.from_qseries({1: 3, 2: 5})
    g = (f + f.scale(-1)).tail_integral(3)
    assert g.is_zero()


def test_tail_integral_rejects_zero_frequency():
    f = ExpPoly.from_qseries({0: 1, 1: 1})
    with pytest.raises(ValueError):
        f.tail_integral(1)


def _derivative(f: ExpPoly) -> ExpPoly:
    """d/dt, termwise: P_n' + 2 pi i n P_n per frequency."""
    out = {}
    for n, p in f.terms.items():
        c = 2 * mp.pi * I * n
        out[n] = tuple(c * p[j] + (j + 1) * (p[j + 1] if j + 1 < len(p) else 0)
                       for j in range(len(p)))
    return ExpPoly(out)


def test_tail_integral_inverts_derivative_symbolically():
    # d/dt g = -f(t) t^{alpha-1} on the representation itself
    f = ExpPoly({1: (mpc(2), mpc(1)), 4: (mpc(0, 3),)})
    for alpha in (1, 2, 4):
        g = f.tail_integral(alpha)
        # d/dt g + f t^{alpha-1}
        diff = _derivative(g) + f * ExpPoly({0: (mpc(0),) * (alpha - 1) + (mpc(1),)})
        worst = max(
            (abs(c) for p in diff.terms.values() for c in p),
            default=mpf(0),
        )
        assert worst < mpf("1e-36")


def test_tail_integral_of_cusp_series_matches_quadrature():
    from eistau.quadrature import default_path, quad_vertical

    g = cusp_exppoly(2, 30).tail_integral(2)
    ref = quad_vertical([("cusp", 2)], [2], default_path(I, 1e-28, 2), tol=1e-26)
    assert abs(g(I) - ref) < mpf("1e-25")


def test_product_matches_pointwise():
    a = ExpPoly({1: (mpc(1), mpc(2)), 2: (mpc(-1),)})
    b = ExpPoly({1: (mpc(0, 1),), 3: (mpc(2), mpc(0), mpc(1))})
    tau = mpc("0.2", "0.9")
    assert abs((a * b)(tau) - a(tau) * b(tau)) < mpf("1e-36")


def test_truncated_drops_high_frequencies():
    a = ExpPoly.from_qseries({1: 1, 5: 2, 9: 3})
    assert a.truncated(5).max_freq() == 5
    assert a.truncated(0).is_zero()


# -- the fold kernel is bit-identical to the mpc-level formulas --------------------


def _parts(e: ExpPoly) -> dict:
    return {n: tuple(z._mpc_ for z in p) for n, p in e.terms.items()}


def _tail_integral_reference(f: ExpPoly, alpha: int) -> ExpPoly:
    """The per-derivative formula on mpc values, one operation at a time."""
    out = {}
    for n, p in f.terms.items():
        c = 2 * mp.pi * mpc(0, 1) * n
        q = [mpc(0)] * (alpha - 1) + list(p)
        acc = []
        sign, cpow = -1, c
        while q:
            s = sign / cpow
            scaled = [x * s for x in q]
            acc = scaled if not acc else [a + b for a, b in zip(acc, scaled)] + acc[len(scaled):]
            q = [(i + 1) * q[i + 1] for i in range(len(q) - 1)]
            sign = -sign
            cpow *= c
        out[n] = tuple(acc)
    return ExpPoly(out)


def _mixed_exppoly() -> ExpPoly:
    # several degrees, a zero coefficient inside a polynomial, gaps in frequency
    return ExpPoly({
        1: (mpc("0.5", "-1.25"), mpc(0), mpc(3, "0.1")),
        2: (mpc(0, 1),),
        5: (mpc("-2.5"), mpc("1e-7", 4)),
        6: (mpc(0), mpc(0), mpc("0.3", "0.7")),
    })


def _tail_integral_recurrence(f: ExpPoly, alpha: int) -> ExpPoly:
    """The recurrence on mpc values: R = sum_j (-1)^j Q^(j) / c^{j+1} solves
    cR + R' = Q, so r_D = q_D / c and r_m = (q_m - (m+1) r_{m+1}) / c from the
    top down, and the tail integral is -R.  c = i b, and w / (i b) is
    (Im w - i Re w) / b: two real divisions."""
    out = {}
    for n, p in f.terms.items():
        b = (2 * mp.pi * mpc(0, 1) * n).imag
        q = [mpc(0)] * (alpha - 1) + list(p)
        r = [None] * len(q)
        for m in range(len(q) - 1, -1, -1):
            w = q[m] if m == len(q) - 1 else q[m] - (m + 1) * r[m + 1]
            r[m] = mpc(w.imag / b, -(w.real / b))
        out[n] = tuple(-x for x in r)
    return ExpPoly(out)


def _tail_inputs(dps):
    with mp.workdps(dps + 30):
        wide = _mixed_exppoly()  # coefficients wider than the working precision
        # wide parts below a coefficient whose r has a zero part: the subtraction
        # still rounds them first, as mpc subtraction does (the values are ones
        # whose quotient by 2 pi n then rounds differently, at 40 and 70 digits)
        wide_zero_above = ExpPoly({3: (mpc("2.9", "0.7"), mpc(1)),
                                   4: (mpc("0.3", "1.3"), mpc(0, 1))})
    with mp.workdps(dps):
        return [_mixed_exppoly(), cusp_exppoly(4, 12).tail_integral(3), wide, wide_zero_above]


@pytest.mark.parametrize("dps", [40, 70])
@pytest.mark.parametrize("alpha", [1, 2, 4])
def test_tail_integral_is_the_recurrence_bit_for_bit(dps, alpha):
    for f in _tail_inputs(dps):
        with mp.workdps(dps):
            got, ref = f.tail_integral(alpha), _tail_integral_recurrence(f, alpha)
            assert _parts(got) == _parts(ref)


@pytest.mark.parametrize("dps", [40, 70])
@pytest.mark.parametrize("alpha", [1, 2, 4])
def test_tail_integral_matches_per_derivative_formula(dps, alpha):
    # the per-derivative sum at 30 more digits; each output coefficient within
    # 2^(4 - prec) of the largest coefficient at its frequency (measured worst: 1.7)
    for f in _tail_inputs(dps):
        with mp.workdps(dps):
            got = f.tail_integral(alpha)
            bound = mpf(2) ** (4 - mp.prec)
        with mp.workdps(dps + 30):
            ref = _tail_integral_reference(f, alpha)
            assert set(got.terms) == set(ref.terms)
            for n, p in ref.terms.items():
                scale = max(abs(c) for c in p)
                g = got.terms[n] + (mpc(0),) * (len(p) - len(got.terms[n]))
                assert max(abs(a - c) for a, c in zip(g, p)) <= bound * scale


def _peval(a, t) -> mpc:
    acc = mpc(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


def _call_reference(f: ExpPoly, t, n_max=None) -> mpc:
    """The value as a sum over frequencies, one e^{2 pi i n t} each."""
    return sum((_peval(p, t) * mp.expjpi(2 * n * t) for n, p in sorted(f.terms.items())
                if n_max is None or n <= n_max), mpc(0))


@pytest.mark.parametrize("dps", [40, 70])
def test_call_horner_matches_per_frequency_sum(dps):
    # gaps in frequency (3-4, 7-9), a constant term, partial sums cut inside the
    # gaps; the per-frequency sum at 30 more digits, within Horner's error bound
    # (2 top + 2 deg + 8) 2^-prec sum_n |q|^n sum_j |c_nj| |t|^j, kept for the dot
    # read (measured worst |error| / (2^-prec sum ...): 2.5 by Horner, 0.94 by the dot)
    with mp.workdps(dps):
        f = _mixed_exppoly() + ExpPoly({0: (mpc("0.25"),), 10: (mpc(1), mpc(0, -2))})
        for tau in (mpc(40, "0.15"), mpc(-40, "0.15"), mpc("0.3", "1.1")):
            for n_max in (None, 8, 6, 4, 1):
                sub = f if n_max is None else f.truncated(n_max)
                got = sub(tau)
                top = sub.max_freq()
                deg = max(len(p) for p in sub.terms.values()) - 1
                size = sum(abs(mp.expjpi(2 * tau)) ** n * sum(abs(c) * abs(tau) ** j
                                                           for j, c in enumerate(p))
                           for n, p in sub.terms.items())
                bound = (2 * top + 2 * deg + 8) * mpf(2) ** -mp.prec * size
                with mp.workdps(dps + 30):
                    assert abs(got - _call_reference(f, tau, n_max)) <= bound


def _call_mpc_horner(f: ExpPoly, t) -> mpc:
    """Horner in q on mpc values, from the highest frequency down."""
    t = mpc(t)
    if f.is_zero():
        return mpc(0)
    top = f.max_freq()
    q = mp.expjpi(2 * t)
    acc = _peval(f.terms[top], t)
    for n in range(top - 1, -1, -1):
        acc *= q
        if n in f.terms:
            acc += _peval(f.terms[n], t)
    return acc


def _fraction(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man) * Fraction(2) ** exp


def _block_fraction(z: tuple) -> tuple:
    """A complex block float (a, b, e) as the Fractions (a 2^e, b 2^e)."""
    a, b, e = z
    scale = Fraction(2) ** e
    return a * scale, b * scale


def _round_fraction(x: Fraction, prec: int, rnd: str) -> tuple:
    """x, whose denominator is a power of 2, rounded once to prec bits."""
    return from_man_exp(x.numerator, 1 - x.denominator.bit_length(), prec, rnd)


def _dot_fractions(f: ExpPoly, t, n_max=None) -> tuple:
    """sum_{n <= n_max} q^n sum_d c_{n,d} t^d over the power chains of q and t,
    as the exact Fractions (real part, imaginary part)."""
    t = mpc(t)
    terms = {n: p for n, p in f.terms.items() if n_max is None or n <= n_max}
    re = im = Fraction(0)
    if not terms:
        return re, im
    q_pows = [_block_fraction(z) for z in
              islice(_powers(_block(mp.expjpi(2 * t)._mpc_), mp.prec), max(terms) + 1)]
    t_pows = [_block_fraction(z) for z in
              islice(_powers(_block(t._mpc_), mp.prec), max(len(p) for p in terms.values()))]
    for n, p in terms.items():
        qa, qb = q_pows[n]
        for c, (ta, tb) in zip(p, t_pows):
            ca, cb = _fraction(c.real), _fraction(c.imag)
            wa, wb = qa * ta - qb * tb, qa * tb + qb * ta
            re += ca * wa - cb * wb
            im += ca * wb + cb * wa
    return re, im


def _call_dot_reference(f: ExpPoly, t, n_max=None) -> mpc:
    """The exact dot over the power chains, each part rounded once."""
    prec, rnd = mp._prec_rounding
    re, im = _dot_fractions(f, t, n_max)
    return mp.make_mpc((_round_fraction(re, prec, rnd), _round_fraction(im, prec, rnd)))


@pytest.mark.parametrize("dps", [40, 70])
def test_call_is_the_exact_dot_rounded_once(dps):
    # t = i is exactly imaginary and q exactly real at i and at +-40 + 0.15i, so
    # half the products are exact zeros; 0.3 + 1.1i has none; partial sums cut
    # inside the gaps (3-4, 7-9); wide coefficients enter the dot unrounded
    with mp.workdps(dps + 30):
        wide = _mixed_exppoly()
    with mp.workdps(dps):
        extra = ExpPoly({0: (mpc("0.25"),), 10: (mpc(1), mpc(0, -2))})
        fs = [_mixed_exppoly() + extra, wide, cusp_exppoly(3, 12).tail_integral(4)]
        for f in fs:
            for tau in (mpc(0, 1), mpc(40, "0.15"), mpc(-40, "0.15"), mpc("0.3", "1.1")):
                for n_max in (None, 8, 6, 4, 1, 0):
                    sub = f if n_max is None else f.truncated(n_max)
                    assert sub(tau)._mpc_ == _call_dot_reference(f, tau, n_max)._mpc_


@pytest.mark.parametrize("dps", [40, 70])
def test_call_within_its_own_bound(dps):
    # against the sum at 30 more digits over the q rounded at the working
    # precision: q^n and t^d are within n and d times 2^-(prec + 7.5) of their
    # exact powers, relatively, so the exact dot over them is within
    # sum_n sum_d |c_nd| |q|^n |t|^d (n + d) 2^-(prec + 7) (measured worst: 0.09 of
    # it), and the read, that dot rounded once, within that plus 2^-prec |value|
    # (measured worst: 0.96, where the final rounding is the whole error)
    with mp.workdps(dps):
        f = _mixed_exppoly() + ExpPoly({0: (mpc("0.25"),), 10: (mpc(1), mpc(0, -2))})
        for tau in (mpc(0, 1), mpc(40, "0.15"), mpc(-40, "0.15"), mpc("0.3", "1.1")):
            q = mp.expjpi(2 * tau)
            for n_max in (None, 8, 6, 4, 1):
                sub = f if n_max is None else f.truncated(n_max)
                got = sub(tau)
                exact = _dot_fractions(f, tau, n_max)
                terms = sub.terms.items()
                size = sum(abs(q) ** n * abs(c) * abs(tau) ** d * (n + d)
                           for n, p in terms for d, c in enumerate(p))
                ulp = mpf(2) ** -mp.prec
                with mp.workdps(dps + 30):
                    ref = sum((c * q**n * tau**d for n, p in terms for d, c in enumerate(p)),
                              mpc(0))
                    dot = mpc(*(mpf(x.numerator) / x.denominator for x in exact))
                    assert abs(dot - ref) <= size * ulp / 2**7
                    assert abs(got - ref) <= size * ulp / 2**7 + abs(ref) * ulp


def _dot_cases() -> list:
    """(zs, ws) pairs of complex block floats: mixed signs, exponents and widths,
    real and imaginary z and w, zero terms, a partial sum that cancels to
    exactly 0 before a term of higher exponent, and no terms."""
    rng = random.Random(2501)

    def block():
        a, b = rng.getrandbits(rng.choice((1, 9, 80, 300))), rng.getrandbits(90)
        kind = rng.randrange(4)  # both parts, real only, imaginary only, both again
        return (0 if kind == 2 else rng.choice((1, -1)) * a,
                0 if kind == 1 else rng.choice((1, -1)) * b, rng.randint(-400, 60))

    mixed = [block() for _ in range(40)], [block() for _ in range(40)]
    zeros = [(0, 0, 0), (3, -5, -7), (0, 0, -900), (0, 0, 50)], [(1, 1, 2)] * 4
    cancel = [(5, 3, -40), (-5, -3, -40), (7, -2, 30), (1, 0, -100)], [(1, 0, 0)] * 4
    cancel_then_high = [(1, 0, -10), (-1, 0, -10), (3, 5, 20)], [(2, 0, 1)] * 3
    return [mixed, zeros, cancel, cancel_then_high, ([], []), ([(0, 0, 0)], [(9, 9, 9)])]


def _dot_fraction(zs, ws) -> tuple:
    """sum_j z_j w_j summed in Fractions: (real part, imaginary part)."""
    re = im = Fraction(0)
    for z, w in zip(zs, ws):
        (za, zb), (wa, wb) = _block_fraction(z), _block_fraction(w)
        re += za * wa - zb * wb
        im += za * wb + zb * wa
    return re, im


@pytest.mark.parametrize("dps", [15, 40, 70])
def test_dot_is_the_exact_sum_rounded_once(dps):
    # the kernel of every q-expansion read: the block it returns is the exact
    # sum, and `_round` rounds each part of it once, bit for bit against the
    # Fraction sum rounded once
    with mp.workdps(dps):
        prec, rnd = mp._prec_rounding
        for zs, ws in _dot_cases():
            got = _dot(iter(zs), iter(ws))
            re, im = _dot_fraction(zs, ws)
            assert _block_fraction(got) == (re, im)
            assert _round(got, prec, rnd) == (_round_fraction(re, prec, rnd),
                                              _round_fraction(im, prec, rnd))
        assert _dot([], []) == (0, 0, 0)


def _cut_reference(xa: Fraction, xb: Fraction, keep: int) -> tuple:
    """xa + i xb with both parts rounded half up to a multiple of 2^(f + 1 - keep),
    2^f <= max(|xa|, |xb|) < 2^(f + 1): the largest unit that keeps the larger
    part's exact bits when it has at most keep of them."""
    top = max(abs(xa), abs(xb))
    if not top:
        return xa, xb
    f = top.numerator.bit_length() - top.denominator.bit_length()
    if Fraction(2) ** f > top:
        f -= 1
    unit = Fraction(2) ** (f + 1 - keep)
    return (floor(xa / unit + Fraction(1, 2)) * unit, floor(xb / unit + Fraction(1, 2)) * unit)


@pytest.mark.parametrize("dps", [30, 40, 70])
def test_powers_are_cut_back_to_the_guard_bits(dps):
    # z^{j+1} is z^j z cut back to prec + GUARD_BITS bits, round half up, bit for
    # bit; a prefix of any longer chain, no wider than that plus a carry, exact
    # while the product fits (the Gaussian integers), and within
    # j 2^-(prec + GUARD_BITS - 1/2) of z^j relatively (to first order)
    with mp.workdps(dps):
        prec = mp.prec
        keep = prec + GUARD_BITS
        zs = [mpc(0, 1), mpc(1, 1), mpc(2, -3), mpc("0.3", "1.1"), mpc(40, "0.15"),
              mpc("1e-30", 1), mpc(-1, "1e-30"), mp.expjpi(2 * mpc("-0.45", "0.7"))]
        for z in zs:
            pows = list(islice(_powers(_block(z._mpc_), prec), 40))
            assert pows[:7] == list(islice(_powers(_block(z._mpc_), prec), 7))
            za, zb = _fraction(z.real), _fraction(z.imag)
            xa, xb = Fraction(1), Fraction(0)  # z^j exactly
            ra, rb = Fraction(1), Fraction(0)  # z^j by the reference chain
            for j, p in enumerate(pows):
                assert max(p[0].bit_length(), p[1].bit_length()) <= keep + 1
                pa, pb = _block_fraction(p)
                assert (pa, pb) == (ra, rb)
                err2 = (pa - xa) ** 2 + (pb - xb) ** 2
                if za.denominator == zb.denominator == 1:
                    assert err2 == 0
                # (1.01 j 2^-(keep - 1/2))^2 |z^j|^2
                bound2 = Fraction(101, 100) ** 2 * j**2 * 2 / Fraction(4) ** keep
                assert err2 <= bound2 * (xa**2 + xb**2)
                xa, xb = xa * za - xb * zb, xa * zb + xb * za
                ra, rb = _cut_reference(ra * za - rb * zb, ra * zb + rb * za, keep)


# -- one home for the row format: only exppoly reads a chain's rows -------------

# exppoly's private formats: the block float and its dot, the power chains, the
# row table and its certificate record, the guard bits and the rounding budget
# of the cutoff logs
ROW_FORMAT = {"_dot", "_block", "_round", "_powers", "_q_powers", "_w", "_scaled",
              "_two_pi_power", "_Rows", "_Cert", "GUARD_BITS", "LOG_ULPS", "_log_abs"}
ROW_ATTRS = {"cols", "bits", "h"}  # the layout of a `_Rows` table


def _row_format_uses(source: str) -> list:
    """The names of ROW_FORMAT that `source` imports and the ROW_ATTRS
    attributes it reads, in the order the AST walk meets them."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            uses += [alias.name for alias in node.names if alias.name in ROW_FORMAT]
        elif isinstance(node, ast.Attribute) and node.attr in ROW_FORMAT | ROW_ATTRS:
            uses.append(node.attr)
    return uses


@pytest.mark.parametrize("module", [integrals, lseries])
def test_only_exppoly_knows_the_row_format(module):
    source = pathlib.Path(module.__file__).read_text()
    assert _row_format_uses(source) == []
    # planted controls: an import of the dot, and a read of a table's columns
    assert _row_format_uses(source + "\nfrom .exppoly import _dot\n") == ["_dot"]
    assert _row_format_uses(source + "\ndef f(table):\n    return table.cols[0]\n") == ["cols"]


# -- ExpPoly is the tests' reference: no engine path builds or calls one -------

# the arithmetic, evaluation and constructors of ExpPoly
EXPPOLY_ALGEBRA = ("tail_integral", "__mul__", "__add__", "scale", "truncated", "__call__",
                   "__init__")


def test_no_engine_path_calls_the_exppoly_algebra(monkeypatch, capsys):
    # every suite's small grid, the public evaluators from cold caches and the
    # CLI's row dump: none of them builds an ExpPoly or calls a method of
    # EXPPOLY_ALGEBRA, so the class can leave src/eistau once nothing outside
    # the tests wraps it
    calls = []
    for name in EXPPOLY_ALGEBRA:
        def spy(self, *args, _name=name, _method=getattr(ExpPoly, name)):
            calls.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(ExpPoly, name, spy)

    def from_qseries(cls, *args, _method=ExpPoly.from_qseries):
        calls.append("from_qseries")
        return _method(*args)
    monkeypatch.setattr(ExpPoly, "from_qseries", classmethod(from_qseries))
    clear_caches()
    for suite in SUITES:
        run_suite(suite, "small")
    tau = mpc("0.3", "0.8")
    int_eval(make_index([2, 3], [1, 2]), tau)
    l_eval(make_index([2, 3], [1, 2]), tau)
    r_iter([("cusp", 2), ("cusp", 3)], (1, 2))
    s_coeff([2, 3], [1, 2])
    int0_reg(make_index([2, 3], [1, 2]))
    elem_exp_tail(2, 3, tau)
    assert main(["eval-int", "--index", "I{ks=[2,3];alphas=[1,2];taupow=0}", "--tau", "0.3+0.8i",
                 "--dump-exppoly"]) == 0
    dump = capsys.readouterr().out.splitlines()[2:]
    assert dump[:2] == ["h = 3, B = 314", "1; 0, 0"]  # the rows, from frequency 1 up
    assert calls == []
    ExpPoly.from_qseries({1: 1}).truncated(0)  # planted control: the spies record
    assert calls == ["from_qseries", "__init__", "truncated", "__init__"]


def _names(source: str) -> set:
    """Every identifier that `source` names, imports, reads as an attribute or defines."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_only_exppoly_and_the_package_name_exppoly():
    # the class is defined in exppoly and exported by the package; no engine module uses it
    package = pathlib.Path(integrals.__file__).parent
    sources = {path.name: path.read_text() for path in package.glob("*.py")}
    assert sorted(name for name, source in sources.items() if "ExpPoly" in _names(source)) == [
        "__init__.py", "exppoly.py"]
    # planted controls: an import of the class, and a read of it off its module
    assert "ExpPoly" in _names(sources["integrals.py"] + "\nfrom .exppoly import ExpPoly\n")
    assert "ExpPoly" in _names(sources["cli.py"] + "\ndef f():\n    return exppoly.ExpPoly()\n")
