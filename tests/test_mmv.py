import hashlib
import importlib
import pkgutil
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

import eistau
from eistau.algebra import CompositeIndex, make_index
from eistau.config import SingularParameterError, TruncationBudget
from eistau.mmv import (
    BiPolynomial,
    CUSP_THEN_CONST,
    CONST_THEN_CUSP,
    MonomialCoefficientRequest,
    e0_cocycle_S,
    i_coeff,
    _a_terms,
    int0_reg,
    r_iter,
    s_coeff,
    t_const_closed,
    t_const_const,
    t_cusp_reg,
    t_mixed_reduce,
    zeta_odd,
)
from eistau.eisenstein import divisor_sigma

BUDGET = TruncationBudget(1e-32, 200_000)
ZETA_BUDGET = TruncationBudget(1e-16, 400_000)
I = mpc(0, 1)


# -- closed forms ------------------------------------------------------------------


def test_t_const_examples():
    assert abs(t_const_closed(2, 1) - I / 240) < mpf("1e-40")
    assert abs(t_const_closed(2, 2) + mpf(1) / 480) < mpf("1e-40")
    assert abs(t_const_closed(2, -1) - I / 240) < mpf("1e-40")


def test_t_const_singular():
    with pytest.raises(SingularParameterError):
        t_const_closed(2, 0)


def test_t_const_const_against_monomial_quadrature():
    # independent check of the re-derived closed form on a convergent case
    b1, b2 = 3, 2
    inner = lambda u1: (I**b2 - u1**b2) / b2
    f = lambda y: (I * y) ** (b1 - 1) * inner(I * y)
    direct = mp.quad(f, [0, 1], method="gauss-legendre") * I
    closed = t_const_const(2, 3, b1, b2) / (
        mpf(1) / 240 * mpf(-1) / 504
    )  # strip the two constant factors
    assert abs(direct - closed) < mpf("1e-30")


def test_t_const_const_symmetric_in_weights():
    assert t_const_const(2, 3, 2, 1) / (_einf(2) * _einf(3)) == t_const_const(3, 2, 2, 1) / (
        _einf(3) * _einf(2)
    )


def _einf(k):
    from eistau.eisenstein import eis_constant

    c = eis_constant(k)
    return mpf(c.numerator) / c.denominator


# -- R primitives -------------------------------------------------------------------


def test_r_iter_depth1_series():
    val = r_iter([("cusp", 2)], [1], BUDGET)
    ref = sum(
        divisor_sigma(3, n) * (-mp.exp(-2 * mp.pi * n) / (2 * mp.pi * I * n)) for n in range(1, 40)
    )
    assert abs(val - ref) < mpf("1e-30")


def test_r_iter_structural_rejections():
    with pytest.raises(SingularParameterError):
        r_iter([("const", 2)], [1], BUDGET)
    with pytest.raises(SingularParameterError):
        r_iter([("cusp", 2), ("const", 2)], [1, 1], BUDGET)
    with pytest.raises(ValueError):
        r_iter([("cusp", 2)], [1, 2], BUDGET)


@pytest.mark.parametrize("factors,alphas", [([("const", 10), ("cusp", 2)], (1, 1)),
                                            ([("const", 11), ("cusp", 3)], (2, 1))])
def test_r_iter_const_word_certificate_covers_its_constant(factors, alphas):
    # |Einf| is 13.2 at k = 10 and 140.7 at k = 11: the value is Einf times the
    # truncated fold, so the fold's truncation must be certified at eps / |Einf|
    eps = mpf("1e-30")
    val = r_iter(factors, alphas, TruncationBudget(eps, 200_000))
    with mp.extradps(20):
        ref = r_iter(factors, alphas, TruncationBudget(eps * mpf("1e-10"), 200_000))
    assert abs(val - ref) <= eps


def test_r_iter_negative_exponent_matches_quadrature():
    # gammainc route vs direct quadrature on the truncated ray
    from eistau.eisenstein import eis_cusp_eval

    val = r_iter([("cusp", 2)], [-2], BUDGET)
    f = lambda u: eis_cusp_eval(2, I + I * u, BUDGET) * (I + I * u) ** (-3)
    ref = mp.quad(f, [0, 1, 4, 12, 30], method="gauss-legendre") * I
    assert abs(val - ref) < mpf("1e-27")


def _mpc_digest(values) -> str:
    """sha256 of the raw (sign, mantissa, exponent, bitcount) parts of mpc values."""
    h = hashlib.sha256()
    for v in values:
        for part in v._mpc_:
            h.update((",".join(str(int(x)) for x in part) + ";").encode())
    return h.hexdigest()


# One word per R route: depth 1 with alpha <= 0 (the gammainc sum) and alpha >= 1,
# cusp-cusp, and const-cusp with the constant's weight below and above the
# cusp's; then one length-2 S coefficient assembled from all of them.
R_WORDS = [([("cusp", 2)], (-2,)), ([("cusp", 3)], (1,)), ([("cusp", 4)], (5,)),
           ([("cusp", 2), ("cusp", 3)], (2, 1)), ([("const", 3), ("cusp", 2)], (2, 1)),
           ([("const", 2), ("cusp", 4)], (1, 3)), ([("const", 4), ("cusp", 2)], (3, 2))]
R_WORDS_SHA256 = "1f0ba93eec4c036449fa2d6e6a6935517af377b89980f4a132d1d88a992197a9"


def test_r_words_bit_identical():
    from eistau import clear_caches

    vals = []
    for factors, alphas in R_WORDS:
        clear_caches()
        vals.append(r_iter(factors, alphas, BUDGET))
    clear_caches()
    vals.append(s_coeff((3, 2), (2, 3), BUDGET))
    assert _mpc_digest(vals) == R_WORDS_SHA256


# -- regularized values ---------------------------------------------------------------


def test_t_cusp_reg_singular_guards():
    for m in (0, 4):
        with pytest.raises(SingularParameterError):
            t_cusp_reg(2, m, BUDGET)


def test_t_cusp_reg_inverse_of_defining_relation():
    # from T = (-1)^m [R - T_e(2k-m)] - T_e(m):  R = (-1)^m [T + T_e(m)] + T_e(2k-m)
    k, m = 2, 1
    treg = t_cusp_reg(k, m, BUDGET)
    r3 = r_iter([("cusp", k)], [2 * k - m], BUDGET)
    r_back = (-1) ** m * (treg + t_const_closed(k, m)) + t_const_closed(k, 2 * k - m)
    assert abs(r_back - r3) < mpf("1e-35")


def test_t_mixed_beta_consistency():
    # const-then-cusp reduction implies beta * T(e,c;beta,alpha) / Einf = T_reg(alpha+beta)
    k_i, k_c, alpha = 3, 2, 2
    for beta in (1, -1, 3):
        val = t_mixed_reduce(CONST_THEN_CUSP, k_c, k_i, alpha, beta, BUDGET)
        assert abs(beta * val / _einf(k_i) - t_cusp_reg(k_c, alpha + beta, BUDGET)) < mpf("1e-35")


def test_t_mixed_singular_named():
    with pytest.raises(SingularParameterError):
        t_mixed_reduce(CUSP_THEN_CONST, 2, 2, 1, 3, BUDGET)  # alpha + beta = 4 = 2k
    with pytest.raises(SingularParameterError):
        t_mixed_reduce(CONST_THEN_CUSP, 2, 2, 1, 0, BUDGET)


def test_int0_depth1_consistency_with_components():
    idx = make_index([2], [5])
    val = int0_reg(idx, BUDGET)
    parts = r_iter([("cusp", 2)], [5], BUDGET) + t_cusp_reg(2, 5, BUDGET)
    assert abs(val - parts) == 0


def test_int0_depth1_matches_split_quadrature():
    # the full integral over (0, i*oo) is convergent for exponent 5 > 2k = 4:
    # compare against quadrature on each half of the split path
    from eistau.quadrature import default_path, quad_T_cusp, quad_vertical

    val = int0_reg(make_index([2], [5]), BUDGET)
    direct = quad_T_cusp(2, 5, tol=1e-24) + quad_vertical(
        [("cusp", 2)], [5], default_path(I, 1e-28, 5), tol=1e-24
    )
    assert abs(val - direct) < mpf("1e-15")


def int0_reg_swapped_assembly(index, budget):
    """The depth-2 value assembled through the inverted-exponent instance.

    Applying the assembly to (k2, k1; 2k2-a2, 2k1-a1) and solving back for the
    original value exercises a different set of mixed-T reductions; agreement
    with int0_reg is a consistency check on the regularized calculus.
    """
    k1, k2 = index.ks
    a1, a2 = index.alphas
    w = a1 + a2
    swapped = CompositeIndex((k2, k1), (2 * k2 - a2, 2 * k1 - a1))
    other = int0_reg(swapped, budget)
    # from the two assemblies: Int0(idx) + A(idx) = (-1)^w [Int0(swapped) + A(swapped)]
    return (-1) ** w * (other + sum(_a_terms(swapped, budget))) - sum(_a_terms(index, budget))


def test_int0_depth2_two_assembly_orders():
    for ks, alphas in (((2, 2), (1, 2)), ((2, 3), (2, 3)), ((3, 2), (4, 1))):
        idx = make_index(ks, alphas)
        a = int0_reg(idx, BUDGET)
        b = int0_reg_swapped_assembly(idx, BUDGET)
        assert abs(a - b) < mpf("1e-12")


def test_int0_reg_rejects_tau_power():
    with pytest.raises(ValueError, match="t = 1"):
        int0_reg(make_index([2], [3], 1), BUDGET)


def test_memo_keys_on_working_precision():
    # prec 140 and 141 are both 41 digits; each keeps its own R value
    from eistau import clear_caches

    def r():
        return r_iter([("cusp", 2), ("cusp", 3)], (1, 2), BUDGET)._mpc_

    cold = {}
    for prec in (140, 141):
        clear_caches()
        with mp.workprec(prec):
            cold[prec] = r()
    assert cold[140] != cold[141]
    clear_caches()
    for prec in (140, 141, 140, 141):
        with mp.workprec(prec):
            assert r() == cold[prec]


def test_int0_depth2_singular_guard():
    with pytest.raises(SingularParameterError):
        int0_reg(make_index([2, 2], [2, 2]), BUDGET)  # a1 + a2 = 2k1


# -- Eichler coefficients -------------------------------------------------------------


def test_monomial_request_validation():
    with pytest.raises(ValueError):
        MonomialCoefficientRequest((2,), (4,))
    with pytest.raises(ValueError):
        MonomialCoefficientRequest((2, 3), (1,))


def test_i_coeff_depth1_finite():
    for alpha in (1, 2, 3):
        v = i_coeff((2,), (alpha,), BUDGET)
        assert mp.isfinite(v.real) and mp.isfinite(v.imag)


def test_i_coeff_group_like_shuffle():
    # I(a) I(b) = I(a,b) + I(b,a): the depth-1 coefficients embed group-like
    for (k1, a1), (k2, a2) in (((2, 1), (2, 2)), ((2, 3), (3, 2))):
        lhs = i_coeff((k1,), (a1,), BUDGET) * i_coeff((k2,), (a2,), BUDGET)
        rhs = i_coeff((k1, k2), (a1, a2), BUDGET) + i_coeff((k2, k1), (a2, a1), BUDGET)
        assert abs(lhs - rhs) <= mpf("1e-12") * max(abs(lhs), mpf(1))


def test_s_coeff_haberland_anchor():
    z3 = zeta_odd(3, ZETA_BUDGET)
    assert abs(s_coeff((2,), (1,), BUDGET) - z3) < mpf("1e-12")
    assert abs(s_coeff((2,), (3,), BUDGET) + z3) < mpf("1e-12")
    expected_mid = (2 * mp.pi * I) ** 3 / 144
    assert abs(s_coeff((2,), (2,), BUDGET) - expected_mid) < mpf("1e-12") * abs(expected_mid)


# -- cocycle polynomial and zeta -----------------------------------------------------


def test_e0_cocycle_weight4():
    poly = e0_cocycle_S(2)
    assert poly.degree == 2
    assert poly.coefficient(1, 1) == Fraction(1, 144)
    assert poly.coefficient(2, 0) == 0


def test_e0_cocycle_weight6():
    poly = e0_cocycle_S(3)
    assert poly.coefficient(1, 3) == Fraction(-1, 720)
    assert poly.coefficient(3, 1) == Fraction(-1, 720)


def test_e0_cocycle_even_monomials_vanish():
    for k in (2, 3, 4, 5):
        poly = e0_cocycle_S(k)
        for j in range(0, poly.degree + 1, 2):
            assert poly.coeffs[j] == 0


def test_bipolynomial_indexing():
    p = BiPolynomial(2, (Fraction(1), Fraction(2), Fraction(3)))
    assert p.coefficient(2, 0) == 1 and p.coefficient(0, 2) == 3
    with pytest.raises(ValueError):
        p.coefficient(2, 2)


def naive_zeta(s: int, n: int) -> float:
    return sum(j ** (-float(s)) for j in range(n, 0, -1))


def test_zeta_odd_against_naive_sum():
    # N = 10^6 naive float oracle; truncation error ~ N^{1-s}/(s-1) ~ 5e-13 at s=3
    assert abs(float(zeta_odd(3, ZETA_BUDGET)) - naive_zeta(3, 1_000_000)) < 2e-12
    assert abs(float(zeta_odd(5, ZETA_BUDGET)) - naive_zeta(5, 100_000)) < 1e-12
    assert abs(zeta_odd(3, ZETA_BUDGET) - mpf("1.202056903159594")) < mpf("1e-15")
    assert abs(zeta_odd(5, ZETA_BUDGET) - mpf("1.036927755143370")) < mpf("1e-15")


@pytest.mark.parametrize("eps", [1e-18, 1e-30])
def test_zeta_odd_within_eps_of_mpmath(eps):
    for s in range(3, 22, 2):
        z = zeta_odd(s, TruncationBudget(eps))
        with mp.workdps(60):
            assert abs(z - mp.zeta(s)) <= eps, s


def test_zeta_odd_monotone():
    z = {s: zeta_odd(s, ZETA_BUDGET) for s in (5, 7, 9)}
    assert z[9] < z[7] < z[5]
    assert z[9] > 1


def test_zeta_odd_rejects_even():
    with pytest.raises(ValueError):
        zeta_odd(4, ZETA_BUDGET)


def _engine_modules() -> list:
    return [importlib.import_module(f"eistau.{info.name}")
            for info in pkgutil.iter_modules(eistau.__path__)]


def _engine_caches() -> dict:
    """Every cache of the engine, found as an object with `cache_clear` in one
    of its modules, by module and name."""
    return {f"{module.__name__.removeprefix('eistau.')}.{attr}": obj
            for module in _engine_modules()
            for attr, obj in vars(module).items() if hasattr(obj, "cache_clear")}


def test_clear_caches_recomputes_bit_identical_values():
    from eistau import clear_caches, eisenstein
    from eistau.integrals import int_eval
    from eistau.lseries import l_eval

    tau = mpc("0.2", "1.1")

    def values():
        return [s_coeff(MonomialCoefficientRequest((2, 3), (1, 2)), budget=BUDGET),
                r_iter([("const", 3), ("cusp", 2)], (2, 1), BUDGET),
                l_eval(make_index([2, 3], [1, 2]), tau, BUDGET),
                int_eval(make_index([3, 2], [2, 1]), tau, BUDGET),
                eisenstein.eis_cusp_eval(4, tau, BUDGET),
                t_cusp_reg(3, 7, BUDGET)]

    def constants():
        return [eisenstein._constant_mpf(k) for k in (2, 3, 4)]

    # the caches these values reach: every value cache, the row tables of folds
    # and L-series with their bounds and certificate records, the J' tables, the
    # Eisenstein samples and constants, the logs of a budget's eps and the
    # product majorants
    reached = ("mmv._r_value", "mmv._t_cusp_reg", "mmv._i_coeff", "lseries._l_value",
               "integrals._int_value", "exppoly._rows", "exppoly._majorants",
               "exppoly._certificate", "exppoly._two_pi_power", "exppoly._tails",
               "lseries._small_im", "eisenstein._cusp_at", "eisenstein._constant_at",
               "eisenstein._eps_logs", "eisenstein._product_majorant")
    caches = _engine_caches()

    def sizes():
        return {name: caches[name].cache_info().currsize for name in reached}

    before = [v._mpc_ for v in values()]
    constants_before = constants()
    assert all(sizes().values()) and eisenstein._sigma_tables
    clear_caches()
    assert not any(c.cache_info().currsize for c in caches.values())
    assert not eisenstein._sigma_tables
    assert [v._mpc_ for v in values()] == before
    kept_cold, misses = sizes(), {name: c.cache_info().misses for name, c in caches.items()}
    assert all(kept_cold.values())
    assert [v._mpc_ for v in values()] == before  # from the value caches
    assert {name: c.cache_info().misses for name, c in caches.items()} == misses
    assert sizes() == kept_cold
    assert constants() == constants_before


def test_clear_caches_empties_rewrite_tables_and_converts_equal():
    from eistau import clear_caches, rewrite
    from eistau.algebra import FormalSum, lseries_gen, tau_integral_gen

    fs = FormalSum({tau_integral_gen([2, 3, 2], [3, 1, 4], 1): Fraction(-2, 3),
                    tau_integral_gen([3], [4], 0): Fraction(5, 7)})

    def converted():
        to_l = rewrite.convert_sum(fs, "int2l")
        back = rewrite.convert_sum(to_l, "l2int")
        pattern = rewrite.round_trips(lseries_gen([2, 2], [2, 3], 1))
        return to_l, back, pattern, rewrite.l_to_int(lseries_gen([2, 2], [4, 2], 2))

    before = converted()
    tables = (rewrite._int_to_l_table, rewrite._l_to_int_table)
    assert all(t.cache_info().currsize for t in tables)
    clear_caches()
    assert not any(t.cache_info().currsize for t in tables)
    after = converted()
    assert after == before
    assert after[1] == fs and after[2]
    assert all(t.cache_info().currsize for t in tables)


def test_every_cache_is_bounded_and_cleared():
    # every kept value or table is a bounded lru_cache that clear_caches
    # empties; the one other state, the divisor-sum sieve, is the only
    # module-level container that an evaluation grows
    from eistau import clear_caches, eisenstein, rewrite
    from eistau.algebra import lseries_gen, tau_integral_gen
    from eistau.integrals import int_eval
    from eistau.lseries import l_eval
    from eistau.quadrature import quad_segment

    containers = {(module.__name__, attr): obj for module in _engine_modules()
                  for attr, obj in vars(module).items()
                  if not attr.startswith("__") and isinstance(obj, (dict, list, set))}
    clear_caches()
    lengths = {key: len(obj) for key, obj in containers.items()}
    tau = mpc("0.2", "1.1")
    s_coeff(MonomialCoefficientRequest((2, 3), (1, 2)), budget=BUDGET)
    r_iter([("const", 3), ("cusp", 2)], (2, 1), BUDGET)
    t_cusp_reg(3, 7, BUDGET)
    l_eval(make_index([2, 3], [1, 2]), tau, BUDGET)
    int_eval(make_index([3, 2], [2, 1]), tau, BUDGET)
    eisenstein.eis_cusp_eval(4, tau, BUDGET)
    quad_segment(lambda t: t, mpc(0), mpc(1))
    rewrite.l_to_int(lseries_gen([2, 2], [2, 3], 1))
    rewrite.int_to_l(tau_integral_gen([2, 3], [3, 1], 1))
    caches = _engine_caches()
    for name, cache in caches.items():
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize, (name, info)
    grown = {key for key, obj in containers.items() if len(obj) != lengths[key]}
    assert grown == {("eistau.eisenstein", "_sigma_tables")}
    clear_caches()
    for name, cache in caches.items():
        assert cache.cache_info().currsize == 0, name
    assert not eisenstein._sigma_tables


def test_gammainc_majorant_dominates_terms():
    # every term sigma(n) (i / 2 pi n)^alpha Gamma(alpha, 2 pi n) of the alpha <= 0
    # R sum lies below C n^P e^{-2 pi n}, the majorant its cutoff is sized with
    from eistau.eisenstein import sigma_table
    from eistau.mmv import _gammainc_majorant

    worst = 0
    for alpha in range(-6, 1):
        # |(i / 2 pi n)^alpha Gamma(alpha, 2 pi n)| e^{2 pi n}, shared by every k
        g = [(2 * mp.pi * n) ** -alpha * mp.gammainc(alpha, 2 * mp.pi * n) * mp.exp(2 * mp.pi * n)
             for n in range(1, 201)]
        for k in range(2, 8):
            power, log_c = _gammainc_majorant(k)
            c = mp.exp(log_c)
            sig = sigma_table(2 * k - 1, 200)
            worst = max(worst, max(sig[n] * g[n - 1] / (c * mpf(n) ** power)
                                   for n in range(1, 201)))
    assert worst <= 1, worst



# n_trunc of the gammainc sum as sized in mpf before: C = sigma_majorant(k) / 2 pi
# as an mpf at 10 digits above the working precision, its log taken by math.log
GAMMAINC_EPS = [10.0**-e for e in range(10, 120, 10)]
GAMMAINC_DPS = (15, 30, 50, 70, 100, 120)


def _mpf_n_trunc(k, budget):
    from math import log

    from eistau.eisenstein import _as_mpf, _eps_logs, sigma_majorant, tail_start

    with mp.extradps(10):
        c = _as_mpf(sigma_majorant(k)) / (2 * mp.pi)
        return tail_start(2 * k - 2, 1, _eps_logs(budget.eps)[0] - log(c), budget.n_max)


class _Sized(Exception):
    """Carries the N of a stand-in tail_start out of `_r_value`, before its sum."""


def test_gammainc_cutoff_in_doubles_equals_the_mpf_sizing(monkeypatch):
    # the n_trunc that _r_value sizes on log C in doubles is the mpf sizing's,
    # for k 2-15, 11 values of eps and 15-120 digits: 924 cases
    from eistau import mmv
    from eistau.eisenstein import CUSP, tail_start

    def sized(*args):
        raise _Sized(tail_start(*args))

    monkeypatch.setattr(mmv, "tail_start", sized)
    got, want = [], []
    for dps in GAMMAINC_DPS:
        with mp.workdps(dps):
            for eps in GAMMAINC_EPS:
                budget = TruncationBudget(eps, 200_000)
                for k in range(2, 16):
                    with pytest.raises(_Sized) as n_trunc:
                        mmv._r_value(((CUSP, k),), (0,), budget, mp.prec)
                    got.append(n_trunc.value.args[0])
                    want.append(_mpf_n_trunc(k, budget))
    assert len(got) == 924 and got == want
