import ast
import pathlib
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_rational

import eistau
from eistau import quadrature
from eistau.algebra import make_index
from eistau.config import BudgetError, TruncationBudget
from eistau.integrals import int_eval
from eistau.mmv import r_iter
from eistau.quadrature import (
    PathSpec,
    _antiderivative,
    _dots,
    _ints,
    _rule,
    cusp_decay_const,
    default_path,
    eis_cusp_near_zero,
    quad_segment,
    quad_T_cusp,
    quad_T_cusp_const,
    quad_vertical,
)
from eistau.eisenstein import eis_cusp_eval

BUDGET = TruncationBudget(1e-28, 100_000)


def test_segment_constant():
    val = quad_segment(lambda t: mpc(1), mpc(0, 1), mpc(0, 2))
    assert abs(val - mpc(0, 1)) < mpf("1e-30")


def test_path_validation():
    with pytest.raises(ValueError):
        PathSpec(complex(0, -1), 5.0)
    with pytest.raises(ValueError):
        PathSpec(complex(0, 2), 1.0)
    p = default_path(mpc(0, 1), 1e-25, 2)
    assert p.height > 9


def test_cusp_decay_const_bounds_series():
    k = 2
    kc = cusp_decay_const(k, mpf(1))
    for u in (mpf(1), mpf(2), mpf(4)):
        val = abs(eis_cusp_eval(k, mpc(0, u), BUDGET))
        assert val <= kc * mp.exp(-2 * mp.pi * u)


def test_depth1_oracle_vs_closed_form():
    tau = mpc(0, 1)
    idx = make_index([2], [1])
    lhs = int_eval(idx, tau, BUDGET)
    rhs = quad_vertical([("cusp", 2)], [1], default_path(tau, 1e-28, 1), tol=1e-25)
    assert abs(lhs - rhs) < mpf("1e-25")


def test_depth1_oracle_off_axis():
    # the path start must keep its full precision: a float-complex start would
    # perturb tau by ~1e-17 and cap the agreement near 1e-20
    tau = mpc("0.3", "1.2")
    idx = make_index([3], [4])
    lhs = int_eval(idx, tau, BUDGET)
    rhs = quad_vertical([("cusp", 3)], [4], default_path(tau, 1e-28, 4), tol=1e-25)
    assert abs(lhs - rhs) < mpf("1e-24")


def test_oracle_rejects_const_innermost():
    with pytest.raises(Exception):
        quad_vertical([("cusp", 2), ("const", 2)], [1, 1], default_path(mpc(0, 1), 1e-20, 2))


def test_oracle_height_cap_check():
    with pytest.raises(ValueError):
        quad_vertical([("cusp", 2)], [1], PathSpec(complex(0, 1), 2.0), tol=1e-25)


def test_eis_cusp_near_zero_matches_series_at_moderate_height():
    tau = mpc(0, "0.8")
    a = eis_cusp_near_zero(2, tau, BUDGET)
    b = eis_cusp_eval(2, tau, BUDGET)
    assert abs(a - b) < mpf("1e-26")


def test_quad_T_cusp_guard():
    with pytest.raises(ValueError):
        quad_T_cusp(2, 4)


def test_quad_T_cusp_builds_each_constant_term_once_per_precision(monkeypatch):
    # the integrand subtracts Einf at every node; the mpf is built once per precision
    from eistau import eisenstein

    precs = []
    original = eisenstein.eis_constant

    def counting(k):
        precs.append(mp.prec)
        return original(k)

    monkeypatch.setattr(eisenstein, "eis_constant", counting)
    eisenstein._constant_at.cache_clear()
    quad_T_cusp(2, 5)
    assert precs and len(precs) == len(set(precs))


def test_depth2_oracle_sums_each_node_once():
    # both factors of (2,2;1,1) are the weight-4 cusp part at the same node; the path
    # spans 8.5 above 2i: five panels up to 8 pass at 72 nodes, the top one [8, 8.5] at 24
    from eistau.eisenstein import _cusp_at

    _cusp_at.cache_clear()
    quad_vertical([("cusp", 2), ("cusp", 2)], (1, 1), default_path(mpc(0, 2), 1e-26, 2),
                  tol=1e-22)
    info = _cusp_at.cache_info()
    assert (info.misses, info.hits) == (384, 384)


def test_quad_T_cusp_reuses_the_samples_of_a_smaller_power():
    # m enters only as the factor t^(m-1): m = 6 samples the series at nodes m = 5 took
    from eistau.eisenstein import _cusp_at

    _cusp_at.cache_clear()
    quad_T_cusp(2, 5)
    misses = _cusp_at.cache_info().misses
    quad_T_cusp(2, 6)
    assert _cusp_at.cache_info().misses == misses


# -- the Chebyshev panel kernel ------------------------------------------------------


@pytest.mark.parametrize("n", [8, 24, 72])
def test_rule_exact_on_polynomials_below_n(n):
    rule = _rule(n, mp.prec)
    nodes, weights = rule[0], rule[1]
    tol = mpf(10) ** (5 - mp.dps)
    for d in range(n):
        exact = mpf(2) / (d + 1) if d % 2 == 0 else mpf(0)
        assert abs(mp.fdot(weights, [x**d for x in nodes]) - exact) < tol, d
    for d in (0, 1, n // 2, n - 1):
        tails = _antiderivative([mpc(x**d, -x**d) for x in nodes], rule)
        for x, got in zip(nodes, tails):
            exact = (1 - x ** (d + 1)) / (d + 1)
            assert abs(got - mpc(exact, -exact)) < tol, (d, x)


def test_rule_nodes_nest_under_tripling():
    for n in (8, 24, 72):  # 8 -> 24 -> 72 -> 216
        small, big = _rule(n, mp.prec)[0], _rule(3 * n, mp.prec)[0]
        assert small == big[1::3], n


@pytest.mark.parametrize("prec", [53, 136, 200])
@pytest.mark.parametrize("n", [8, 24, 72, 216, 648])
def test_rule_table_is_mirrored_exactly(n, prec):
    # cos[(2nk - m) % 4n] == (-1)^k cos[m] bit for bit, which the folded sums of
    # _antiderivative rely on.  Each entry is +-cospi of m/(2n) or of its mirror, the
    # argument and the cosine each rounded once: within (pi/2 + 1/2) 2^-prec of cos(m pi / 2n)
    mp.prec = prec
    nodes, _, (cos, ec) = _rule(n, mp.prec)
    m4 = 4 * n
    for m in range(m4):
        assert cos[(2 * n - m) % m4] == -cos[m], m
        assert cos[-m % m4] == cos[m], m
    assert all(nodes[n - 1 - j] == -x for j, x in enumerate(nodes))
    assert nodes == [mp.ldexp(cos[2 * j + 1], ec) for j in range(n)]
    table = [mp.ldexp(c, ec) for c in cos]
    with mp.extraprec(64):
        bound = (mp.pi / 2 + mpf(1) / 2) * mpf(2) ** -prec
        assert all(abs(t - mp.cospi(mpf(m) / (2 * n))) <= bound for m, t in enumerate(table))


def test_antiderivative_of_exponential_matches_closed_form():
    # int_x^1 e^{-a s} ds = (e^{-a x} - e^{-a}) / a; spectral accuracy at n = 72
    a = mpf(5)
    rule = _rule(72, mp.prec)
    nodes = rule[0]
    tails = _antiderivative([mp.exp(-a * x) for x in nodes], rule)
    worst = max(abs(g - (mp.exp(-a * x) - mp.exp(-a)) / a) for x, g in zip(nodes, tails))
    assert worst < mpf("1e-35")


# -- the exact-integer dot against the mp.fdot forms it replaced ---------------------


def _fdot_cos_tab(n):
    """cos(m pi / 2n) for 0 <= m < 4n: computed for m <= n, mirrored beyond."""
    quarter = [mp.cospi(mpf(m) / (2 * n)) for m in range(n + 1)]
    half = [quarter[m] if m <= n else -quarter[2 * n - m] for m in range(2 * n + 1)]
    return [half[m] if m <= 2 * n else half[4 * n - m] for m in range(4 * n)]


def _fdot_weights(n):
    """The Fejér weights as mp.fdot sums, the reference for `_rule`."""
    cos_tab = _fdot_cos_tab(n)
    recip = [mpf(1) / (4 * k * k - 1) for k in range(1, n // 2 + 1)]
    first = [
        (1 - 2 * mp.fdot(recip, [cos_tab[(2 * k * (2 * j + 1)) % (4 * n)]
                                 for k in range(1, n // 2 + 1)])) * 2 / n
        for j in range((n + 1) // 2)
    ]
    return first + first[: n // 2][::-1]


def _fdot_antiderivative(vals, n):
    """The spectral antiderivative as mp.fdot sums, the reference for `_antiderivative`."""
    cos_tab = _fdot_cos_tab(n)
    m4 = 4 * n
    c = [mp.fdot(vals, [cos_tab[(k * (2 * j + 1)) % m4] for j in range(n)]) * 2 / n
         for k in range(n)]
    c[0] /= 2
    c += [0, 0]
    big_c = [(2 * c[0] - c[2]) / 2] + [(c[k - 1] - c[k + 1]) / (2 * k) for k in range(2, n + 1)]
    return [mp.fdot(big_c + big_c, [1] * n + [-cos_tab[(k * (2 * j + 1)) % m4]
                                              for k in range(1, n + 1)])
            for j in range(n)]


def _raw(xs):
    return [x._mpc_ if hasattr(x, "_mpc_") else x._mpf_ for x in xs]


def _spread_samples(nodes):
    """Complex samples whose magnitudes spread about 100 bits, with exact zeros."""
    zero = mp.cospi(mpf(1) / 2)
    assert zero == 0
    vals = []
    for j, x in enumerate(nodes):
        scale = mpf(2) ** (-100 * j // len(nodes))
        re, im = scale * mp.exp(3 * x), scale * mp.sin(7 * x + 1)
        vals.append(mpc(zero if j % 5 == 2 else re, zero if j % 7 == 3 else im))
    vals[len(vals) // 2] = mpc(zero, zero)
    return vals


@pytest.mark.parametrize("prec", [136, 200])
@pytest.mark.parametrize("n", [8, 24, 72, 216])
def test_antiderivative_bit_identical_to_fdot(n, prec):
    mp.prec = prec
    rule = _rule(n, mp.prec)
    complex_vals = _spread_samples(rule[0])
    real_vals = [v.real for v in complex_vals]
    for vals in (complex_vals, real_vals):
        got = _antiderivative(vals, rule)
        assert _raw(got) == _raw(_fdot_antiderivative(vals, n))


@pytest.mark.parametrize("prec", [136, 200])
def test_rule_weights_bit_identical_to_fdot(prec):
    mp.prec = prec
    for n in (8, 24, 72, 216, 648):
        assert _raw(_rule(n, mp.prec)[1]) == _raw(_fdot_weights(n)), n


def _fraction(x):
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def test_dots_round_the_exact_sum_once_where_fdot_drops_terms():
    """Terms more than 2^(2 mp.prec) apart: the one place the kernel departs from fdot.

    mp.fdot's mpf_sum drops a term that far from the running sum, so here it
    loses the small terms between the two huge ones; the kernel keeps every
    term and returns the exact sum rounded once.
    """
    mp.prec = 136
    table = [mp.cospi(mpf(m) / 7) for m in range(6)]
    huge = mpf(2) ** (4 * mp.prec)
    vals = [mpc(huge, 1), mpf(1) / 3, mpc(mp.pi, -huge / 5), mpc(mp.e, 2) ** -40, mpc(-huge, huge / 5)]
    rows = [[0, 1, 2, 3, 0], [5, 4, 1, 3, 5]]
    ints, e = _ints([t._mpf_ for t in table])
    got = _dots(vals, ([ints[i] for i in row] for row in rows), e)
    for row, value in zip(rows, got):
        exact = [sum(_fraction(getattr(v, part)) * _fraction(table[i]) for v, i in zip(vals, row))
                 for part in ("real", "imag")]
        want = [from_rational(e.numerator, e.denominator, *mp._prec_rounding) for e in exact]
        assert value._mpc_ == tuple(want)
    # the huge real parts of row 0 cancel; fdot has dropped every term between them
    assert mp.fdot(vals, [table[i] for i in rows[0]]).real == 0
    assert got[0].real > mpf("0.1")


def test_segment_polynomial_exact_and_budget_error_near_pole():
    val = quad_segment(lambda t: t**5 - 3 * t, mpc(0), mpc(2, 1), tol=1e-30)
    z = mpc(2, 1)
    assert abs(val - (z**6 / 6 - 3 * z**2 / 2)) < mpf("1e-30")
    pole = mpc("0.5", "1e-8")  # 1e-8 off the panel: no level of the kernel converges
    with pytest.raises(BudgetError):
        quad_segment(lambda t: 1 / (t - pole), mpc(0), mpc(1), tol=1e-20)


def test_T_oracles_never_evaluate_the_origin(monkeypatch):
    heights = []
    original = quadrature.eis_cusp_near_zero

    def spy(k, tau, budget=BUDGET):
        heights.append(mpc(tau).imag)
        return original(k, tau, budget)

    monkeypatch.setattr(quadrature, "eis_cusp_near_zero", spy)
    quad_T_cusp(2, 5, tol=1e-24)
    quad_T_cusp_const(2, 6, 2, -1, tol=1e-22)
    assert heights and min(heights) > 0


def test_const_cusp_oracle_matches_r_iter():
    budget = TruncationBudget(1e-30, 400_000)
    word = [("const", 2), ("cusp", 2)]
    lhs = r_iter(word, (1, 1), budget)
    rhs = quad_vertical(word, (1, 1), default_path(mpc(0, 1), 1e-26, 2), tol=1e-22, budget=budget)
    assert abs(lhs - rhs) < mpf("1e-18")


def test_quadrature_imports_no_closed_form_module():
    tree = ast.parse(pathlib.Path(quadrature.__file__).read_text())
    closed = {"exppoly", "integrals", "mmv", "lseries", "rewrite"}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert not imported & closed, sorted(imported & closed)


def test_clear_caches_empties_rule_cache():
    quad_segment(lambda t: t, mpc(0), mpc(1))
    assert quadrature._rule.cache_info().currsize
    eistau.clear_caches()
    assert quadrature._rule.cache_info().currsize == 0


@pytest.mark.parametrize("digits", [40, 50])
def test_oracle_cross_paths_need_no_rule_above_72_nodes(monkeypatch, digits):
    # the vertical paths are graded geometrically, so no panel climbs past 72 nodes:
    # the quad_vertical cases (depth 1, depth 2, riter) and the T cases of oracle-cross
    # on the full grid.  elemtail's quad_segment panels are not graded this way.
    from eistau import verify
    from eistau.config import EngineConfig

    sizes, calls, active = [], [], []
    rule = quadrature._rule

    def spy_rule(n, prec):
        if active:
            sizes.append(n)
        return rule(n, prec)

    def watched(name):
        oracle = getattr(verify, name)

        def run(*args, **kwargs):
            calls.append(name)
            active.append(name)
            try:
                return oracle(*args, **kwargs)
            finally:
                active.pop()

        monkeypatch.setattr(verify, name, run)

    monkeypatch.setattr(quadrature, "_rule", spy_rule)
    for name in ("quad_vertical", "quad_T_cusp", "quad_T_cusp_const"):
        watched(name)
    report = verify.run_suite("oracle-cross", "full", EngineConfig(digits=digits))
    assert report.summary["failed"] == 0
    assert sorted(calls) == ["quad_T_cusp"] * 4 + ["quad_T_cusp_const"] * 2 + ["quad_vertical"] * 6
    assert sizes and max(sizes) <= 72, sorted(set(sizes))
