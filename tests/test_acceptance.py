"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are the stated
ones; oracles are independent of the code paths they check (bruteforce
enumeration, adaptive quadrature, naive summation).
"""

from itertools import product

from mpmath import mp, mpc, mpf

from eistau.algebra import FormalSum, lseries_gen, make_index, tau_integral_gen
from eistau.config import EngineConfig, TruncationBudget
from eistau.eisenstein import eis_cusp_eval
from eistau.integrals import int_eval
from eistau.lseries import l_coeffs_bruteforce, l_coeffs_dp, l_eval
from eistau.mmv import (
    fund_first_sides,
    fund_second_sides,
    haberland_rhs,
    s_coeff,
    t_cusp_reg,
    zeta_odd,
)
from eistau.quadrature import default_path, quad_T_cusp, quad_vertical
from eistau.rewrite import (
    convert_sum,
    int_to_l,
    l_to_int,
    numeric_value,
    round_trips,
    shuffle_product,
    stuffle_product,
)
from eistau.verify import run_suite

BUDGET = TruncationBudget(1e-30, 200_000)
MMV_BUDGET = TruncationBudget(1e-32, 200_000)
TAU_I = mpc(0, 1)
TAU_2I = mpc(0, 2)


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number:2d} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_roundtrip_exactness():
    """int_to_l o l_to_int and l_to_int o int_to_l are the identity, exactly.

    The conversion skeletons act on the exponent data (alphas, t) and carry
    the weight tuple through untouched, so identity on every exponent pattern
    is identity on every generator; the pattern check below is exhaustive for
    r <= 3, alpha_i <= 4, t <= 2.  The generator-level machinery is then
    exercised on the full k-grid (k_i <= 5) for r <= 2 and on mixed-weight
    tuples for every r = 3 pattern.
    """
    for r in (1, 2, 3):
        for alphas in product(range(1, 5), repeat=r):
            for t in range(3):
                assert round_trips(tau_integral_gen((2,) * r, alphas, t)), (alphas, t)
                assert round_trips(lseries_gen((2,) * r, alphas, t)), (alphas, t)
    checked = 0
    for r in (1, 2):
        for alphas in product(range(1, 5), repeat=r):
            for t in range(3):
                for ks in product(range(2, 6), repeat=r):
                    gi = tau_integral_gen(ks, alphas, t)
                    assert convert_sum(int_to_l(gi), "l2int") == FormalSum.single(gi)
                    gl = lseries_gen(ks, alphas, t)
                    assert convert_sum(l_to_int(gl), "int2l") == FormalSum.single(gl)
                    checked += 2
    for alphas in product(range(1, 5), repeat=3):
        for t in range(3):
            gi = tau_integral_gen((2, 3, 5), alphas, t)
            assert convert_sum(int_to_l(gi), "l2int") == FormalSum.single(gi)
            gl = lseries_gen((4, 2, 5), alphas, t)
            assert convert_sum(l_to_int(gl), "int2l") == FormalSum.single(gl)
            checked += 2
    _report(1, "round-trip exactness", True, f"504 patterns + {checked} generators, exact")


_DP_GRID = (
    ((2,), (1,)),
    ((3,), (2,)),
    ((5,), (4,)),
    ((2, 3), (2, 1)),
    ((3, 2), (1, 3)),
    ((4, 4), (2, 2)),
    ((2, 2, 2), (1, 1, 1)),
    ((2, 3, 2), (2, 1, 3)),
    ((3, 2, 4), (1, 2, 1)),
)

_QUAD_GRID = (
    ((2,), (1,), TAU_I),
    ((3,), (2,), TAU_2I),
    ((2,), (3,), TAU_2I),
    ((3,), (4,), mpc("0.3", "1.2")),
    ((2, 2), (1, 1), TAU_2I),
    ((2, 2), (1, 1), TAU_I),
    ((2, 3), (2, 1), TAU_I),
)


def test_criterion_02_oracle_equivalence():
    """l_coeffs_dp = l_coeffs_bruteforce exactly; int_eval = quadrature to 1e-18."""
    for ks, alphas in _DP_GRID:
        idx = make_index(ks, alphas)
        assert l_coeffs_dp(idx, 50).coeffs == l_coeffs_bruteforce(idx, 50).coeffs, (ks, alphas)
    worst = mpf(0)
    for ks, alphas, tau in _QUAD_GRID:
        idx = make_index(ks, alphas)
        lhs = int_eval(idx, tau, BUDGET)
        rhs = quad_vertical(
            [("cusp", k) for k in ks], alphas, default_path(tau, 1e-26, sum(alphas)), tol=1e-22
        )
        worst = max(worst, abs(lhs - rhs))
    _report(2, "oracle equivalence", worst < mpf("1e-18"), f"worst quad diff {mp.nstr(worst, 3)}")


def test_criterion_03_shuffle_identity():
    worst = mpf(0)
    letters = [(k, a) for k in (2, 3) for a in (1, 2)]
    for a, b in product(letters, repeat=2):
        fs = shuffle_product([a], [b])
        for tau in (TAU_I, TAU_2I):
            lhs = int_eval(make_index([a[0]], [a[1]]), tau, BUDGET) * int_eval(
                make_index([b[0]], [b[1]]), tau, BUDGET
            )
            worst = max(worst, abs(lhs - numeric_value(fs, tau, BUDGET)))
    _report(3, "shuffle identity", worst < mpf("1e-15"), f"worst {mp.nstr(worst, 3)}")


def test_criterion_04_stuffle_identity():
    worst = mpf(0)
    cases = []
    for ka, kb in product((2, 3), repeat=2):
        for aa, ab in product(range(1, 5), repeat=2):
            if aa + ab <= 5:
                cases.append(((ka,), (aa,), (kb,), (ab,)))
    for ka, kb, kc in product((2, 3), repeat=3):
        for aa, ab, ac in product((1, 2, 3), repeat=3):
            if aa + ab + ac <= 5:
                cases.append(((ka,), (aa,), (kb, kc), (ab, ac)))
    for ks1, al1, ks2, al2 in cases:
        g1, g2 = lseries_gen(ks1, al1, 0), lseries_gen(ks2, al2, 0)
        lhs = l_eval(g1.index(), TAU_I, BUDGET) * l_eval(g2.index(), TAU_I, BUDGET)
        rhs = numeric_value(stuffle_product(g1, g2), TAU_I, BUDGET)
        worst = max(worst, abs(lhs - rhs))
    _report(4, "stuffle identity", worst < mpf("1e-15"),
            f"{len(cases)} cases, worst {mp.nstr(worst, 3)}")


def test_criterion_05_derivative_contracts():
    tau = TAU_2I
    h = mpf("1e-12")
    worst = mpf(0)
    for ks, alphas in (((2,), (2,)), ((2, 3), (2, 1)), ((2, 2, 3), (1, 2, 1))):
        idx = make_index(ks, alphas)
        rest = make_index(ks[1:], alphas[1:])
        lhs = (int_eval(idx, tau + h, BUDGET) - int_eval(idx, tau - h, BUDGET)) / (2 * h)
        rhs = -eis_cusp_eval(ks[0], tau, BUDGET) * tau ** (alphas[0] - 1) * int_eval(rest, tau, BUDGET)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    for ks, alphas, t in (((2,), (2,), 1), ((3, 2), (3, 1), 2), ((2, 2, 3), (2, 1, 2), 1)):
        idx0 = make_index(ks, alphas, 0)
        l0 = l_eval(idx0, tau, BUDGET)
        d_l0 = (l_eval(idx0, tau + h, BUDGET) - l_eval(idx0, tau - h, BUDGET)) / (2 * h)
        lhs = t * tau ** (t - 1) * l0 + tau**t * d_l0
        rhs = t * l_eval(make_index(ks, alphas, t - 1), tau, BUDGET) + l_eval(
            make_index(ks, (alphas[0] - 1,) + tuple(alphas[1:]), t), tau, BUDGET
        )
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    _report(5, "derivative contracts", worst < mpf("1e-8"), f"worst rel {mp.nstr(worst, 3)}")


def test_criterion_06_lemma_fund():
    worst = mpf(0)
    for k in (2, 3, 4):
        for alpha in range(1, 2 * k):
            lhs, rhs = fund_first_sides(k, alpha, MMV_BUDGET)
            worst = max(worst, abs(lhs - rhs))
    for k1, k2 in product((2, 3, 4), repeat=2):
        for a1 in range(1, 2 * k1):
            for a2 in range(1, 2 * k2):
                if a1 + a2 == 2 * k2:
                    continue
                lhs, rhs = fund_second_sides(k1, k2, a1, a2, MMV_BUDGET)
                worst = max(worst, abs(lhs - rhs))
    _report(6, "inversion lemma", worst < mpf("1e-15"), f"worst {mp.nstr(worst, 3)}")


def test_criterion_07_haberland():
    z3 = zeta_odd(3, TruncationBudget(1e-16, 400_000))
    anchor = abs(s_coeff((2,), (1,), MMV_BUDGET) - z3)
    ok_anchor = anchor < mpf("1e-12") and abs(z3 - mpf("1.202056903159594")) < mpf("1e-15")
    worst = mpf(0)
    for k in (2, 3, 4):
        for alpha in range(1, 2 * k):
            lhs = s_coeff((k,), (alpha,), MMV_BUDGET)
            rhs = haberland_rhs(k, alpha, MMV_BUDGET)
            # rhs vanishes identically at odd alpha away from the ends
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), mpf(1)))
    _report(7, "Haberland anchor + grid", ok_anchor and worst < mpf("1e-12"),
            f"anchor {mp.nstr(anchor, 3)}, worst rel {mp.nstr(worst, 3)}")


def test_criterion_08_symmetry():
    worst_scaled = mpf(0)
    for k1, k2 in product((2, 3), repeat=2):
        scale = (2 * mp.pi) ** (2 * k1 + 2 * k2 - 2)
        for a1 in range(1, 2 * k1):
            for a2 in range(1, 2 * k2):
                lhs = s_coeff((k1, k2), (a1, a2), MMV_BUDGET)
                rhs = (-1) ** (a1 + a2) * s_coeff((k2, k1), (2 * k2 - a2, 2 * k1 - a1), MMV_BUDGET)
                worst_scaled = max(worst_scaled, abs(lhs - rhs) / scale)
    _report(8, "symmetry theorem", worst_scaled < mpf("1e-10"),
            f"worst scaled {mp.nstr(worst_scaled, 3)}")


def test_criterion_09_first_difference():
    report = run_suite("firstdiff", "full", EngineConfig(digits=40, eps=1e-30, n_max=200_000))
    evaluated = [c for c in report.cases if not c.skipped]
    skipped = [c for c in report.cases if c.skipped]
    diagonal = [c for c in evaluated if (c.parameters["2k1"], c.parameters["a1"])
                == (c.parameters["2k2"], c.parameters["a2"])]
    ok = report.failed == 0 and len(evaluated) > 0 and len(skipped) > 0
    # arbitration outcome must be recorded in the report
    noted = all("no additive constant" in c.notes for c in evaluated)
    assert all(mpf(c.abs_err) < mpf("1e-25") for c in diagonal), "diagonal must vanish identically"
    _report(9, "first-difference theorem", ok and noted,
            f"{len(evaluated)} evaluated, {len(skipped)} singular-skipped, arbitration noted")


def test_criterion_10_regularization_consistency():
    worst = mpf(0)
    for k in (2, 3):
        for m in (2 * k + 1, 2 * k + 2):
            lhs = t_cusp_reg(k, m, MMV_BUDGET)
            rhs = quad_T_cusp(k, m, tol=1e-24, budget=MMV_BUDGET)
            worst = max(worst, abs(lhs - rhs))
    _report(10, "regularization consistency", worst < mpf("1e-15"), f"worst {mp.nstr(worst, 3)}")
