import pytest
from mpmath import mp, mpc, mpf

from eistau.eisenstein import sigma_table
from eistau.exppoly import ExpPoly, elem_exp_tail, mul_qseries
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
        lhs = _derivative(g)
        rhs = f.mul_tpow(alpha - 1).scale(-1)
        diff = lhs - rhs
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


@pytest.mark.parametrize("dps", [40, 70])
@pytest.mark.parametrize("alpha", [1, 2, 4])
def test_tail_integral_matches_per_derivative_formula(dps, alpha):
    with mp.workdps(dps + 30):
        wide = _mixed_exppoly()  # coefficients wider than the working precision
    with mp.workdps(dps):
        for f in (_mixed_exppoly(), cusp_exppoly(4, 12).tail_integral(3), wide):
            assert _parts(f.tail_integral(alpha)) == _parts(_tail_integral_reference(f, alpha))
