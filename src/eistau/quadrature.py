"""Adaptive Gauss-Legendre oracles, independent of the ExpPoly machinery.

Integrands are evaluated strictly from truncated q-series (module eisenstein);
paths are truncated vertical rays or the segment (0, i], and every truncation
is covered by a crude certified tail bound.  These routines exist to check the
closed forms and are tuned for reliability, not speed.

Near the origin the cusp part is evaluated through the weight-2k inversion
E(tau) = tau^{-2k} E(-1/tau), which keeps the series argument high on the
upper half-plane.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .config import DEFAULT_BUDGET, TruncationBudget
from .eisenstein import CONST, CUSP, _constant_mpf, eis_cusp_eval, eis_eval


@dataclass(frozen=True)
class PathSpec:
    """Truncated vertical path start -> start + i*(height - Im start).

    `panels` holds the subdivision offsets (relative to the start height) at
    which the quadrature splits the path; offsets beyond the truncated span
    are ignored.  The default grades panels geometrically toward the start,
    where the integrand is largest.  `start` may be an mpc and is used at its
    full precision (a float complex would silently perturb off-axis paths).
    """

    start: complex | mpc
    height: float
    panels: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)

    def __post_init__(self):
        if not mpc(self.start).imag > 0:
            raise ValueError("path start must have positive imaginary part")
        if not self.height > mpc(self.start).imag:
            raise ValueError("height cap must exceed Im(start)")
        if any(p <= 0 for p in self.panels) or list(self.panels) != sorted(set(self.panels)):
            raise ValueError("panel offsets must be positive and strictly increasing")

    def offsets(self):
        """Panel boundaries in the path parameter u, ending at the truncated span."""
        span = mpf(self.height) - mpc(self.start).imag
        return [mpf(0)] + [mpf(p) for p in self.panels if p < span] + [span]


def default_path(start, eps, alpha_total: int = 0) -> PathSpec:
    """Height H with e^{-2 pi H} (1+H)^{alpha_total} below eps (crudely certified)."""
    start = mpc(start)
    h = max(float(start.imag) + 1.0, 2.0)
    while not mp.exp(-2 * mp.pi * h) * (1 + h) ** alpha_total < mpf(eps):
        h += 0.5
    return PathSpec(start, h)


def _tolerance_dps(tol) -> int:
    return max(mp.dps, int(-mp.log10(mpf(tol))) + 12)


def quad_segment(f, a, b, tol=1e-30) -> mpc:
    """mp.quad of f along the straight segment [a, b], at tolerance-driven precision."""
    with mp.workdps(_tolerance_dps(tol)):
        val = mp.quad(f, [mpc(a), mpc(b)], method="gauss-legendre")
    return +val


def cusp_decay_const(k: int, y) -> mpf:
    """K with |cusp part at x+iu| <= K e^{-2 pi u} for all u >= y (uses sigma(n) <= n^{2k})."""
    y = mpf(y)
    if not y > 0:
        raise ValueError("y must be positive")
    x = mp.exp(-2 * mp.pi * y)
    acc = mpf(0)
    n = 1
    while True:
        term = mpf(n) ** (2 * k) * x ** (n - 1)
        acc += term
        ratio = (mpf(n + 2) / (n + 1)) ** (2 * k) * x
        if ratio < 1:
            nxt = mpf(n + 1) ** (2 * k) * x**n
            if nxt / (1 - ratio) < acc * mpf("1e-6") + mpf("1e-60"):
                return acc + nxt / (1 - ratio)
        n += 1


def _poly_exp_tail(c, m: int, h) -> mpf:
    """int_h^oo e^{-2 pi u} (c + u)^m du, exact via the incomplete gamma (m >= 0)."""
    two_pi = 2 * mp.pi
    return mp.exp(two_pi * c) * two_pi ** (-(m + 1)) * mp.gammainc(m + 1, two_pi * (c + h))


def _ray_tail_bound(k: int, alpha: int, x0_abs, y0, h) -> mpf:
    """Bound on |int over u >= h of (cusp part) tau^{alpha-1} du| along the ray."""
    kconst = cusp_decay_const(k, y0 + h)
    if alpha >= 1:
        c = x0_abs + y0
        return kconst * mp.exp(-2 * mp.pi * y0) * _poly_exp_tail(c, alpha - 1, h)
    # negative powers only shrink along the ray
    return (
        kconst
        * mp.exp(-2 * mp.pi * y0)
        * (y0 + h) ** (alpha - 1)
        * mp.exp(-2 * mp.pi * h)
        / (2 * mp.pi)
    )


def quad_vertical(factors, alphas, path: PathSpec, tol=1e-25,
                  budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Nested quadrature of the ordered integrand over the truncated vertical simplex.

    factors: sequence of ("cusp", k) / ("const", k), position 1 nearest the start;
    the exponent alpha_j applies as tau^{alpha_j - 1}.  Depth <= 2.  The innermost
    factor must be a cusp part (otherwise the tail integral diverges or the
    configuration is out of oracle scope), and the truncation-height tail is
    checked against tol.
    """
    factors = tuple(factors)
    alphas = tuple(int(a) for a in alphas)
    if len(factors) != len(alphas) or not 1 <= len(factors) <= 2:
        raise ValueError("oracle supports depth 1 and 2 with matching alphas")
    if factors[-1][0] != CUSP:
        raise ValueError("innermost factor must be a cusp part")
    start = mpc(path.start)
    y0 = start.imag
    x0_abs = abs(start.real)
    span = mpf(path.height) - y0
    dps = _tolerance_dps(tol)
    with mp.workdps(dps):
        series_budget = TruncationBudget(eps=float(mpf(tol) / 100), n_max=budget.n_max)

        def factor_fn(spec):
            kind, k = spec
            if kind == CUSP:
                return lambda t: eis_cusp_eval(k, t, series_budget)
            cv = _constant_mpf(k)
            return lambda t: cv

        pts = path.offsets()

        if len(factors) == 1:
            f1 = factor_fn(factors[0])
            a1 = alphas[0]

            def g(u):
                t = start + mpc(0, 1) * u
                return f1(t) * t ** (a1 - 1)

            val = mp.quad(g, pts, method="gauss-legendre") * mpc(0, 1)
            bound = _ray_tail_bound(factors[0][1], a1, x0_abs, y0, span)
            if not bound < mpf(tol):
                raise ValueError("height cap too low for requested tolerance")
            return +val

        f1, f2 = factor_fn(factors[0]), factor_fn(factors[1])
        a1, a2 = alphas
        k2 = factors[1][1]
        inner_tail = _ray_tail_bound(k2, a2, x0_abs, y0, span)

        def g2(u):
            t = start + mpc(0, 1) * u
            return f2(t) * t ** (a2 - 1)

        # tabulate the inner antiderivative on panel boundaries: suffix sums of
        # per-panel integrals, so each outer node only integrates within its panel
        panel = [
            mp.quad(g2, [pts[j], pts[j + 1]], method="gauss-legendre")
            for j in range(len(pts) - 1)
        ]
        suffix = [mpc(0)] * (len(pts))
        for j in range(len(pts) - 2, -1, -1):
            suffix[j] = suffix[j + 1] + panel[j]

        def inner(u):
            j = len(pts) - 2
            while j > 0 and pts[j] > u:
                j -= 1
            piece = mp.quad(g2, [u, pts[j + 1]], method="gauss-legendre")
            return (piece + suffix[j + 1]) * mpc(0, 1)

        def g1(u):
            t = start + mpc(0, 1) * u
            return f1(t) * t ** (a1 - 1) * inner(u)

        val = mp.quad(g1, pts, method="gauss-legendre") * mpc(0, 1)
        # crude: |outer factor| integrates to O(1); demand the inner tail alone is tiny
        if not inner_tail * (1 + span + x0_abs) ** max(a1, 1) < mpf(tol):
            raise ValueError("height cap too low for requested tolerance")
        return +val


def eis_cusp_near_zero(k: int, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Cusp part evaluated stably for small Im tau via the weight-2k inversion."""
    tau = mpc(tau)
    if tau.imag >= 1:
        return eis_cusp_eval(k, tau, budget)
    return tau ** (-2 * k) * eis_eval(k, -1 / tau, budget) - _constant_mpf(k)


def quad_T_cusp(k: int, m: int, tol=1e-25, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Direct quadrature of int_0^i (cusp part) tau^{m-1} d tau, convergent for m > 2k.

    The integrand behaves like tau^{m-1-2k} toward 0; panels are graded toward
    the origin and the series is evaluated through the inversion there.
    """
    if m <= 2 * k:
        raise ValueError("direct T quadrature requires m > 2k")
    dps = _tolerance_dps(tol)
    with mp.workdps(dps):
        series_budget = TruncationBudget(eps=float(mpf(tol) / 100), n_max=budget.n_max)

        def f(y):
            t = mpc(0, 1) * y
            return eis_cusp_near_zero(k, t, series_budget) * t ** (m - 1)

        pts = [mpf(0), mpf("1e-4"), mpf("1e-2"), mpf("0.1"), mpf("0.3"), mpf("0.6"), mpf(1)]
        val = mp.quad(f, pts, method="gauss-legendre") * mpc(0, 1)
    return +val


def quad_T_cusp_const(k_cusp: int, a: int, k_const: int, b: int, tol=1e-25,
                      budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Direct double quadrature of T(cusp, const; a, b), convergent for a > 2k and a+b > 2k.

    T(f, g; a, b) = int_{0<u1<u2<i} f(u1) u1^{a-1} g u2^{b-1} du2 du1 with f the
    weight-2k_cusp cusp part and g the weight-2k_const constant term; the inner
    constant integral is elementary, leaving a single graded quadrature.
    """
    if a <= 2 * k_cusp or a + b <= 2 * k_cusp:
        raise ValueError("direct quadrature requires a > 2k and a + b > 2k")
    if b == 0:
        raise ValueError("b must be nonzero")
    dps = _tolerance_dps(tol)
    with mp.workdps(dps):
        cv = _constant_mpf(k_const)
        series_budget = TruncationBudget(eps=float(mpf(tol) / 100), n_max=budget.n_max)
        ipow = mpc(0, 1) ** b

        def f(y):
            t = mpc(0, 1) * y
            inner = (ipow - t**b) / b  # int_t^i u^{b-1} du
            return eis_cusp_near_zero(k_cusp, t, series_budget) * t ** (a - 1) * inner

        pts = [mpf(0), mpf("1e-4"), mpf("1e-2"), mpf("0.1"), mpf("0.3"), mpf("0.6"), mpf(1)]
        val = cv * mp.quad(f, pts, method="gauss-legendre") * mpc(0, 1)
    return +val
