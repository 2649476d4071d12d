import pytest
from mpmath import mp, mpc, mpf

from eistau.eisenstein import sigma_table
from eistau.exppoly import ExpPoly, _peval, elem_exp_tail, mul_qseries
from eistau.integrals import cusp_exppoly

I = mpc(0, 1)


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
    assert ExpPoly.zero().tail_integral(2).is_zero()
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
        diff = _derivative(g) + f.mul_tpow(alpha - 1)  # d/dt g + f t^{alpha-1}
        worst = max(
            (abs(c) for p in diff.terms.values() for c in p),
            default=mpf(0),
        )
        assert worst < mpf("1e-36")


def test_tail_integral_of_cusp_series_matches_quadrature():
    from eistau.integrals import cusp_exppoly
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


def test_dump_format():
    a = ExpPoly({2: (mpc(1), mpc(0, -1))})
    line = a.dump()
    assert line.startswith("2; ")
    assert line.count("\n") == 0


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


@pytest.mark.parametrize("dps", [40, 70])
def test_mul_qseries_matches_product_then_truncation(dps):
    with mp.workdps(dps + 30):
        wide = _mixed_exppoly()  # coefficients wider than the working precision
    with mp.workdps(dps):
        for k, n_cut, g in [(3, 17, cusp_exppoly(2, 17).tail_integral(2)),
                            (5, 9, _mixed_exppoly()),
                            (2, 4, _mixed_exppoly()),
                            (3, 7, wide)]:
            ref = (cusp_exppoly(k, n_cut) * g).truncated(n_cut)
            got = mul_qseries(g, sigma_table(2 * k - 1, n_cut), n_cut)
            assert _parts(got) == _parts(ref)


def test_mul_qseries_rounds_wide_integer_coefficients_as_mpc_does():
    coeffs = [0, 3**90 + 1, 0, 7, 2**200 - 1]  # wider than 53 bits, and a zero
    g = _mixed_exppoly()
    with mp.workdps(15):
        ref = ExpPoly.from_qseries({n: coeffs[n] for n in range(1, 5)}) * g
        got = mul_qseries(g, coeffs, 4)
        assert _parts(got) == _parts(ref.truncated(4))


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


def _call_reference(f: ExpPoly, t, n_max=None) -> mpc:
    """The value as a sum over frequencies, one e^{2 pi i n t} each."""
    return sum((_peval(p, t) * mp.expjpi(2 * n * t) for n, p in sorted(f.terms.items())
                if n_max is None or n <= n_max), mpc(0))


@pytest.mark.parametrize("dps", [40, 70])
def test_call_horner_matches_per_frequency_sum(dps):
    # gaps in frequency (3-4, 7-9), a constant term, n_max inside the gaps; the
    # per-frequency sum at 30 more digits, within Horner's error bound
    # (2 top + 2 deg + 8) 2^-prec sum_n |q|^n sum_j |c_nj| |t|^j (measured worst: 2.5)
    with mp.workdps(dps):
        f = _mixed_exppoly() + ExpPoly({0: (mpc("0.25"),), 10: (mpc(1), mpc(0, -2))})
        for tau in (mpc(40, "0.15"), mpc(-40, "0.15"), mpc("0.3", "1.1")):
            for n_max in (None, 8, 6, 4, 1):
                got = f(tau, n_max)
                sub = f.truncated(10 if n_max is None else n_max)
                assert got._mpc_ == sub(tau)._mpc_
                top = sub.max_freq()
                deg = max(len(p) for p in sub.terms.values()) - 1
                size = sum(abs(mp.expjpi(2 * tau)) ** n * sum(abs(c) * abs(tau) ** j
                                                           for j, c in enumerate(p))
                           for n, p in sub.terms.items())
                bound = (2 * top + 2 * deg + 8) * mpf(2) ** -mp.prec * size
                with mp.workdps(dps + 30):
                    assert abs(got - _call_reference(f, tau, n_max)) <= bound
