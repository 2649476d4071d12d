"""Verification suites: one case generator per identity family, run into reports.

Each suite runs a deterministic parameter grid (sizes "small" and "full"),
yields one case per tuple, marks singular tuples as skipped, and compares at
the tolerance stated in the acceptance criteria; `run_suite` records each case
in the report as it is yielded.  Suites only combine public operations of the
other modules; every oracle stays independent of the closed form it checks.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from mpmath import mp, mpc, mpf

from . import __version__
from .algebra import FormalSum, lseries_gen, make_index, tau_integral_gen
from .config import EngineConfig, TruncationBudget, configure
from .eisenstein import eis_cusp_eval
from .exppoly import elem_exp_tail
from .integrals import int_eval
from .lseries import l_coeffs_bruteforce, l_coeffs_dp, l_eval
from .mmv import (
    CUSP_THEN_CONST,
    first_difference_sides,
    fund_first_sides,
    fund_second_sides,
    haberland_rhs,
    r_iter,
    s_coeff,
    symmetry_defect,
    t_cusp_reg,
    t_mixed_reduce,
)
from .quadrature import (
    default_path,
    quad_segment,
    quad_T_cusp,
    quad_T_cusp_const,
    quad_vertical,
)
from .report import CaseResult, VerificationReport
from .rewrite import convert_sum, int_to_l, l_to_int, numeric_value, shuffle_product, stuffle_product

_TAU_I = mpc(0, 1)
_TAU_2I = mpc(0, 2)


def _tau_label(tau) -> str:
    return f"{mp.nstr(mpc(tau).real, 6)}+{mp.nstr(mpc(tau).imag, 6)}i"


# -- roundtrip -------------------------------------------------------------------


def _roundtrip_cases(grid: str):
    if grid == "small":
        alpha_max, r_max, t_max = 2, 2, 1
    else:
        alpha_max, r_max, t_max = 4, 3, 2
    ks_for = {1: (2,), 2: (2, 3), 3: (2, 3, 2)}
    for r in range(1, r_max + 1):
        for alphas in product(range(1, alpha_max + 1), repeat=r):
            for t in range(t_max + 1):
                yield ks_for[r], alphas, t


def suite_roundtrip(grid: str, config: EngineConfig) -> Iterator[CaseResult]:
    for ks, alphas, t in _roundtrip_cases(grid):
        gen_i = tau_integral_gen(ks, alphas, t)
        back_i = convert_sum(int_to_l(gen_i), "l2int")
        ok_i = back_i == FormalSum.single(gen_i)
        gen_l = lseries_gen(ks, alphas, t)
        back_l = convert_sum(l_to_int(gen_l), "int2l")
        ok_l = back_l == FormalSum.single(gen_l)
        label = f"alphas={list(alphas)};t={t};ks={list(ks)}"
        yield CaseResult.evaluated(
            f"roundtrip;{label}",
            {"ks": list(ks), "alphas": list(alphas), "t": t},
            lhs=0,
            rhs=0,
            tol=0,
            err=0 if (ok_i and ok_l) else 1,
            notes="exact rational identity both directions",
        )


# -- shuffle ---------------------------------------------------------------------


def suite_shuffle(grid: str, config: EngineConfig) -> Iterator[CaseResult]:
    budget = config.budget()
    letters = [(k, a) for k in (2, 3) for a in (1, 2)]
    taus = (_TAU_I, _TAU_2I) if grid != "small" else (_TAU_I,)
    for a, b in product(letters, repeat=2):
        fs = shuffle_product([a], [b])
        for tau in taus:
            lhs = int_eval(make_index([a[0]], [a[1]]), tau, budget) * int_eval(
                make_index([b[0]], [b[1]]), tau, budget
            )
            rhs = numeric_value(fs, tau, budget)
            yield CaseResult.evaluated(
                f"shuffle;a={a};b={b};tau={_tau_label(tau)}",
                {"a": list(a), "b": list(b), "tau": _tau_label(tau)},
                lhs,
                rhs,
                tol=1e-15,
            )


# -- stuffle ---------------------------------------------------------------------


def _stuffle_cases(grid: str):
    for ka, kb in product((2, 3), repeat=2):
        for aa in range(1, 5):
            for ab in range(1, 5):
                if aa + ab <= 5:
                    yield (ka,), (aa,), (kb,), (ab,)
    if grid == "small":
        return
    for ka, kb, kc in product((2, 3), repeat=3):
        for aa, ab, ac in product((1, 2, 3), repeat=3):
            if aa + ab + ac <= 5:
                yield (ka,), (aa,), (kb, kc), (ab, ac)


def suite_stuffle(grid: str, config: EngineConfig) -> Iterator[CaseResult]:
    budget = config.budget()
    for ks1, al1, ks2, al2 in _stuffle_cases(grid):
        g1 = lseries_gen(ks1, al1, 0)
        g2 = lseries_gen(ks2, al2, 0)
        fs = stuffle_product(g1, g2)
        lhs = l_eval(g1.index(), _TAU_I, budget) * l_eval(g2.index(), _TAU_I, budget)
        rhs = numeric_value(fs, _TAU_I, budget)
        yield CaseResult.evaluated(
            f"stuffle;g1={g1};g2={g2}",
            {"left": str(g1), "right": str(g2), "tau": "0+1i"},
            lhs,
            rhs,
            tol=1e-15,
        )


# -- derivative contracts --------------------------------------------------------


_DERIV_INT_INDICES = (
    ((2,), (1,)),
    ((3,), (3,)),
    ((2, 3), (2, 1)),
    ((2, 2), (1, 2)),
    ((2, 2, 3), (1, 2, 1)),
)

_DERIV_L_INDICES = (
    ((2,), (2,), 0),
    ((3,), (3,), 2),
    ((2, 3), (2, 1), 1),
    ((2, 2), (3, 2), 0),
    ((2, 2, 3), (2, 1, 2), 1),
)


def _central_diff(f, tau, h):
    return (f(tau + h) - f(tau - h)) / (2 * h)


def suite_deriv(grid: str, config: EngineConfig) -> Iterator[CaseResult]:
    budget = config.budget()
    tau = _TAU_2I
    h = mpf("1e-12")
    n = 3 if grid == "small" else len(_DERIV_INT_INDICES)
    for ks, alphas in _DERIV_INT_INDICES[:n]:
        idx = make_index(ks, alphas)
        rest = make_index(ks[1:], alphas[1:])
        lhs = _central_diff(lambda t: int_eval(idx, t, budget), tau, h)
        rhs = (
            -eis_cusp_eval(ks[0], tau, budget)
            * tau ** (alphas[0] - 1)
            * int_eval(rest, tau, budget)
        )
        scale = max(abs(lhs), abs(rhs), mpf(1))
        yield CaseResult.evaluated(
            f"deriv-int;ks={list(ks)};alphas={list(alphas)}",
            {"ks": list(ks), "alphas": list(alphas), "tau": _tau_label(tau)},
            lhs,
            rhs,
            tol=1e-8 * scale,
            notes="relative 1e-8 via central differences",
        )
    for ks, alphas, t in _DERIV_L_INDICES[:n]:
        idx0 = make_index(ks, alphas, 0)
        # analytic tau^t factor, finite differences on the q-series part
        l0 = l_eval(idx0, tau, budget)
        d_l0 = _central_diff(lambda s: l_eval(idx0, s, budget), tau, h)
        lhs = t * tau ** (t - 1) * l0 + tau**t * d_l0 if t else d_l0
        rhs = mpc(0)
        if t:
            rhs += t * l_eval(make_index(ks, alphas, t - 1), tau, budget)
        lowered = (alphas[0] - 1,) + tuple(alphas[1:])
        rhs += l_eval(make_index(ks, lowered, t), tau, budget)
        scale = max(abs(lhs), abs(rhs), mpf(1))
        yield CaseResult.evaluated(
            f"deriv-l;ks={list(ks)};alphas={list(alphas)};t={t}",
            {"ks": list(ks), "alphas": list(alphas), "t": t, "tau": _tau_label(tau)},
            lhs,
            rhs,
            tol=1e-8 * scale,
            notes="relative 1e-8; tau^t factor differentiated analytically",
        )


# -- inversion identities (base point i) ------------------------------------------


def _fund_weights(grid: str):
    return (2, 3) if grid == "small" else (2, 3, 4)


def suite_fund(grid: str, config: EngineConfig) -> Iterator[CaseResult]:
    budget = _tight_budget(config)
    for k in _fund_weights(grid):
        for alpha in range(1, 2 * k):
            lhs, rhs = fund_first_sides(k, alpha, budget)
            yield CaseResult.evaluated(
                f"fund1;2k={2 * k};alpha={alpha}",
                {"2k": 2 * k, "alpha": alpha},
                lhs,
                rhs,
                tol=1e-15,
            )
    for k1 in _fund_weights(grid):
        for k2 in _fund_weights(grid):
            alphas1 = range(1, 2 * k1) if grid != "small" else (1, 2)
            alphas2 = range(1, 2 * k2) if grid != "small" else (1, 2)
            for a1 in alphas1:
                for a2 in alphas2:
                    case_id = f"fund2;2k1={2 * k1};2k2={2 * k2};a1={a1};a2={a2}"
                    params = {"2k1": 2 * k1, "2k2": 2 * k2, "a1": a1, "a2": a2}
                    if a1 + a2 == 2 * k2:
                        yield CaseResult.singular(case_id, params, "a1 + a2 = 2k2")
                        continue
                    lhs, rhs = fund_second_sides(k1, k2, a1, a2, budget)
                    yield CaseResult.evaluated(case_id, params, lhs, rhs, tol=1e-15)


def _tight_budget(config: EngineConfig) -> TruncationBudget:
    return TruncationBudget(min(config.eps, 1e-30), config.n_max)


def suite_haberland(grid: str, config: EngineConfig) -> Iterator[CaseResult]:
    budget = _tight_budget(config)
    weights = (2, 3) if grid == "small" else (2, 3, 4)
    for k in weights:
        for alpha in range(1, 2 * k):
            lhs = s_coeff((k,), (alpha,), budget)
            rhs = haberland_rhs(k, alpha, budget)
            scale = max(abs(rhs), mpf(1))
            yield CaseResult.evaluated(
                f"haberland;2k={2 * k};alpha={alpha}",
                {"2k": 2 * k, "alpha": alpha},
                lhs,
                rhs,
                tol=1e-12 * scale,
                notes="relative 1e-12 against Bernoulli cocycle + odd zeta",
            )


def _pair_grid(grid: str):
    ks = (2,) if grid == "small" else (2, 3)
    for k1 in ks:
        for k2 in ks:
            for a1 in range(1, 2 * k1):
                for a2 in range(1, 2 * k2):
                    yield k1, k2, a1, a2


def suite_symmetry(grid: str, config: EngineConfig) -> Iterator[CaseResult]:
    budget = _tight_budget(config)
    for k1, k2, a1, a2 in _pair_grid(grid):
        lhs, rhs = symmetry_defect(k1, k2, a1, a2, budget)
        tol = mpf("1e-10") * (2 * mp.pi) ** (2 * k1 + 2 * k2 - 2)
        yield CaseResult.evaluated(
            f"symmetry;2k1={2 * k1};2k2={2 * k2};a1={a1};a2={a2}",
            {"2k1": 2 * k1, "2k2": 2 * k2, "a1": a1, "a2": a2},
            lhs,
            rhs,
            tol=tol,
        )


_FIRSTDIFF_NOTE = (
    "RHS uses Int0 coefficients +b_{2k2}/(2 k2 a2), -b_{2k1}/(2 k1 a1) and no "
    "additive constant, as forced numerically by the constant term -b_{2k}/(4k)"
)


def suite_firstdiff(grid: str, config: EngineConfig) -> Iterator[CaseResult]:
    budget = _tight_budget(config)
    for k1, k2, a1, a2 in _pair_grid(grid):
        case_id = f"firstdiff;2k1={2 * k1};2k2={2 * k2};a1={a1};a2={a2}"
        params = {"2k1": 2 * k1, "2k2": 2 * k2, "a1": a1, "a2": a2}
        w = a1 + a2
        if w in (2 * k1, 2 * k2):
            yield CaseResult.singular(case_id, params, f"a1 + a2 = {w} in {{2k1, 2k2}}")
            continue
        diagonal = (k1, a1) == (k2, a2)
        lhs, rhs = first_difference_sides(k1, k2, a1, a2, budget)
        tol = mpf("1e-10") * (2 * mp.pi) ** (2 * k1 + 2 * k2 - 2)
        note = _FIRSTDIFF_NOTE if not diagonal else "diagonal case: 0 = 0 " + _FIRSTDIFF_NOTE
        yield CaseResult.evaluated(case_id, params, lhs, rhs, tol=tol, notes=note)


# -- oracle cross-checks -----------------------------------------------------------


_DP_INDICES = (
    ((2,), (1,)),
    ((3,), (2,)),
    ((4,), (3,)),
    ((2, 2), (1, 1)),
    ((2, 3), (2, 1)),
    ((3, 2), (1, 3)),
    ((2, 2, 2), (1, 1, 1)),
    ((2, 3, 2), (2, 1, 3)),
    ((4, 2, 3), (3, 2, 1)),
)

_QUAD_CASES_D1 = (((2,), (1,), _TAU_I), ((3,), (2,), _TAU_2I))
_QUAD_CASES_D2 = (((2, 2), (1, 1), _TAU_2I), ((2, 3), (2, 1), _TAU_I))
_ELEMTAIL_PANELS = (0, 1, 2, 4, 8, 16, 30)  # offsets above i, graded like the decay


def suite_oracle_cross(grid: str, config: EngineConfig) -> Iterator[CaseResult]:
    budget = _tight_budget(config)
    n_coeff = 30 if grid == "small" else 50
    for ks, alphas in _DP_INDICES:
        idx = make_index(ks, alphas)
        dp = l_coeffs_dp(idx, n_coeff)
        bf = l_coeffs_bruteforce(idx, n_coeff)
        exact = dp.coeffs == bf.coeffs
        yield CaseResult.evaluated(
            f"coeffs;ks={list(ks)};alphas={list(alphas)};N={n_coeff}",
            {"ks": list(ks), "alphas": list(alphas), "N": n_coeff},
            lhs=0,
            rhs=0,
            tol=0,
            err=0 if exact else 1,
            notes="exact rational equality of dp and bruteforce coefficients",
        )
    quad_cases = _QUAD_CASES_D1 + (_QUAD_CASES_D2 if grid != "small" else _QUAD_CASES_D2[:1])
    for ks, alphas, tau in quad_cases:
        idx = make_index(ks, alphas)
        lhs = int_eval(idx, tau, budget)
        path = default_path(tau, 1e-26, sum(alphas))
        rhs = quad_vertical([("cusp", k) for k in ks], alphas, path, tol=1e-22, budget=budget)
        yield CaseResult.evaluated(
            f"quad;ks={list(ks)};alphas={list(alphas)};tau={_tau_label(tau)}",
            {"ks": list(ks), "alphas": list(alphas), "tau": _tau_label(tau)},
            lhs,
            rhs,
            tol=1e-18,
        )
    # elementary tail integral against direct quadrature on the ray from i, truncated at 31i
    for n, alpha in ((1, 3), (2, 1)):
        lhs = elem_exp_tail(n, alpha, _TAU_I)
        ends = [_TAU_I * (1 + u) for u in _ELEMTAIL_PANELS]
        rhs = sum(
            quad_segment(lambda t: mp.expjpi(2 * n * t) * t ** (alpha - 1), a, b, tol=1e-30)
            for a, b in zip(ends, ends[1:])
        )
        yield CaseResult.evaluated(
            f"elemtail;n={n};alpha={alpha}",
            {"n": n, "alpha": alpha},
            lhs,
            rhs,
            tol=1e-25,
        )
    # regularized single integrals extend the convergent ones
    for k in (2, 3):
        for m in (2 * k + 1, 2 * k + 2):
            lhs = t_cusp_reg(k, m, budget)
            rhs = quad_T_cusp(k, m, tol=1e-24, budget=budget)
            yield CaseResult.evaluated(
                f"treg;2k={2 * k};m={m}",
                {"2k": 2 * k, "m": m},
                lhs,
                rhs,
                tol=1e-15,
                notes="regularization agrees with the directly convergent integral",
            )
    # mixed double integral against direct double quadrature
    for k_c, a, k_i, b in ((2, 6, 2, -1), (2, 7, 3, 2)):
        lhs = t_mixed_reduce(CUSP_THEN_CONST, k_c, k_i, a, b, budget)
        rhs = quad_T_cusp_const(k_c, a, k_i, b, tol=1e-22, budget=budget)
        yield CaseResult.evaluated(
            f"tmixed;2kc={2 * k_c};a={a};2ki={2 * k_i};b={b}",
            {"2k_cusp": 2 * k_c, "alpha": a, "2k_const": 2 * k_i, "beta": b},
            lhs,
            rhs,
            tol=1e-15,
        )
    # R-side: const-then-cusp word against the vertical oracle
    for k1, k2, a1, a2 in ((2, 2, 1, 1), (3, 2, 2, 1)):
        lhs = r_iter([("const", k1), ("cusp", k2)], (a1, a2), budget)
        path = default_path(_TAU_I, 1e-26, a1 + a2)
        rhs = quad_vertical([("const", k1), ("cusp", k2)], (a1, a2), path, tol=1e-22, budget=budget)
        yield CaseResult.evaluated(
            f"riter;2k1={2 * k1};2k2={2 * k2};a1={a1};a2={a2}",
            {"2k1": 2 * k1, "2k2": 2 * k2, "a1": a1, "a2": a2},
            lhs,
            rhs,
            tol=1e-18,
        )


_SUITE_FUNCS = {
    "roundtrip": suite_roundtrip,
    "shuffle": suite_shuffle,
    "stuffle": suite_stuffle,
    "deriv": suite_deriv,
    "fund": suite_fund,
    "haberland": suite_haberland,
    "symmetry": suite_symmetry,
    "firstdiff": suite_firstdiff,
    "oracle-cross": suite_oracle_cross,
}

SUITES = tuple(_SUITE_FUNCS)


def run_suite(name: str, grid: str = "small",
              config: EngineConfig | None = None) -> VerificationReport:
    """Execute one verification suite on the requested grid size.

    The suite runs at ``config.digits``; the caller's ``mp.dps`` is restored.
    """
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if grid not in ("small", "full"):
        raise ValueError("grid must be 'small' or 'full'")
    config = config or EngineConfig()
    engine = {"digits": config.digits, "eps": config.eps, "nmax": config.n_max,
              "version": __version__}
    rep = VerificationReport(suite=name, engine=engine)
    with mp.workdps(config.digits):  # the caller's precision comes back on exit
        configure(config)
        for case in _SUITE_FUNCS[name](grid, config):
            rep.add(case)
    return rep.finalize()
