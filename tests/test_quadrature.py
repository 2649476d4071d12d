import ast
import pathlib

import pytest
from mpmath import mp, mpc, mpf

import eistau
from eistau import quadrature
from eistau.algebra import make_index
from eistau.config import BudgetError, TruncationBudget
from eistau.integrals import int_eval
from eistau.mmv import r_iter
from eistau.quadrature import (
    PathSpec,
    _antiderivative,
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


# -- the Chebyshev panel kernel ------------------------------------------------------


@pytest.mark.parametrize("n", [8, 24, 72])
def test_rule_exact_on_polynomials_below_n(n):
    nodes, weights, cos_tab = _rule(n)
    tol = mpf(10) ** (5 - mp.dps)
    for d in range(n):
        exact = mpf(2) / (d + 1) if d % 2 == 0 else mpf(0)
        assert abs(mp.fdot(weights, [x**d for x in nodes]) - exact) < tol, d
    for d in (0, 1, n // 2, n - 1):
        tails = _antiderivative([mpc(x**d, -x**d) for x in nodes], cos_tab, n)
        for x, got in zip(nodes, tails):
            exact = (1 - x ** (d + 1)) / (d + 1)
            assert abs(got - mpc(exact, -exact)) < tol, (d, x)


def test_rule_nodes_nest_under_tripling():
    small, big = _rule(8)[0], _rule(24)[0]
    assert small == big[1::3]


def test_antiderivative_of_exponential_matches_closed_form():
    # int_x^1 e^{-a s} ds = (e^{-a x} - e^{-a}) / a; spectral accuracy at n = 72
    a = mpf(5)
    nodes, _, cos_tab = _rule(72)
    tails = _antiderivative([mp.exp(-a * x) for x in nodes], cos_tab, 72)
    worst = max(abs(g - (mp.exp(-a * x) - mp.exp(-a)) / a) for x, g in zip(nodes, tails))
    assert worst < mpf("1e-35")


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
    assert quadrature._rules
    eistau.clear_caches()
    assert not quadrature._rules
