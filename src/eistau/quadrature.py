"""Chebyshev panel oracles, independent of the ExpPoly machinery.

Integrands are evaluated strictly from truncated q-series (module eisenstein);
paths are truncated vertical rays or the segment (0, i], and every truncation
is covered by a crude certified tail bound.  These routines exist to check the
closed forms; they share no code with them.  Every series sample goes through
`eis_cusp_eval`, which sums it on raw mpf parts and remembers it per
(k, tau, budget, mp.prec): the two cusp factors of a depth-2 word at one node,
and the nodes that checks of one weight share, are summed once.

Every integral is a sum of panel integrals computed by one kernel (`_panel`).
On each panel the integrand is sampled at n first-kind Chebyshev nodes and
integrated with Fejér's first rule, for n = 8, 24, 72, ...: the n-node set is
a subset of the 3n-node set, so each level reuses the samples of the last.
The 3n value is accepted once it agrees with the n value to tol/(4 panels);
past 648 nodes the kernel raises `BudgetError`.  The nodes are interior, so a
path that starts at 0 is never evaluated there.  A vertical path is cut at
0.5, 1, 2, 4, 8 and 16 above its start, so on a span up to 32 no panel is more
than twice as wide as the one below it; every panel of oracle-cross's
`quad_vertical` checks passes by 72 nodes.  At depth 2 the inner integral
from every outer node to the top of its panel comes from the same samples,
through the Chebyshev coefficients of the interpolant (spectral integration),
and panels are processed from the top of the path down so the inner integral
above a panel is a running sum.

The O(n^2) sums (the Fejér weights, and the cosine transform and the
antiderivative sum of the spectral integration) are exact integer sums: each
vector becomes Python ints on one shared exponent, the least of its nonzero
parts (`_parts`), the products are summed exactly and the sum is rounded once
at `mp._prec_rounding` (`_rounded`).  That is the correctly rounded dot
product; `mp.fdot` gives the same bits whenever its `mpf_sum` keeps every
term, i.e. unless terms lie more than 2^(2 mp.prec) apart.  The rule keeps
the table cos(m pi / 2n), 0 <= m < 4n, in that integer form.  It computes the
entries m <= n and mirrors the rest, so the table is exactly symmetric and
the two spectral sums fold over the node pairs j, n-1-j with half the
multiplies.  The 1 of the antiderivative's 1 - T_k(x) is the table's cos 0.

Near the origin the cusp part is evaluated through the weight-2k inversion
E(tau) = tau^{-2k} E(-1/tau), which keeps the series argument high on the
upper half-plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpc, mpf
from mpmath.libmp import fzero, from_man_exp

from .config import DEFAULT_BUDGET, BudgetError, TruncationBudget
from .eisenstein import CUSP, _constant_mpf, eis_cusp_eval, eis_eval

_N0 = 8  # nodes of the first level on every panel
_N_CAP = 648  # _N0 * 3^4: the last level tried before BudgetError


def _ints(parts) -> tuple[list[int], int]:
    """Finite raw mpf parts as signed ints on their least nonzero exponent e: (ints, e)."""
    e = min((x for _, m, x, _ in parts if m), default=0)
    return [((-m if s else m) << (x - e)) if m else 0 for s, m, x, _ in parts], e


def _parts(vals) -> tuple:
    """The real parts of vals (mpf or mpc), and the imaginary ones if any val is
    complex, each as `_ints` (ints, exponent)."""
    if any(hasattr(v, "_mpc_") for v in vals):
        raw = [v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_, fzero) for v in vals]
        return _ints([r for r, _ in raw]), _ints([i for _, i in raw])
    return (_ints([v._mpf_ for v in vals]),)


def _rounded(sums):
    """The mpf (one part) or mpc (two) of exact sums [(int, exponent), ...], each
    rounded once at `mp._prec_rounding`."""
    prec, rnd = mp._prec_rounding
    parts = [from_man_exp(m, e, prec, rnd) for m, e in sums]
    return mp.make_mpc(tuple(parts)) if len(parts) == 2 else mp.make_mpf(parts[0])


def _dots(vals, rows, exponent: int) -> list:
    """[sum_i vals_i row_i 2^exponent for each int row], each correctly rounded once.

    vals are mpf or mpc; each row is as long as vals.  The real and imaginary
    parts are exact integer sums rounded once at `mp._prec_rounding`: bit for
    bit `mp.fdot`, unless its `mpf_sum` drops a term more than 2^(2 mp.prec)
    from the rest.
    """
    parts = _parts(vals)
    return [_rounded([(sum(map(int.__mul__, a, row)), e + exponent) for a, e in parts])
            for row in rows]


@lru_cache(maxsize=64)
def _rule(n: int, prec: int) -> tuple[list, list, tuple]:
    """First-kind Chebyshev nodes x_j = cos((2j+1) pi / 2n) and Fejér weights at
    the working precision prec = mp.prec, and the table cos(m pi / 2n) for
    0 <= m < 4n as (ints, exponent) from `_ints`; n is even.

    Only cos(m pi / 2n) for 0 <= m <= n is computed, from the rational m/(2n)
    rounded once; the rest of the table is mirrored through cos(pi - t) = -cos t
    and cos(2 pi - t) = cos t.  So cos[(2nk - m) % 4n] == (-1)^k cos[m] bit for
    bit, the nodes are exactly odd (x_{n-1-j} = -x_j), and x_j of the n-node
    rule equals x_{3j+1} of the 3n-node rule bit for bit (the same rational,
    mirrored the same way).  The weight
    w_j = (1 - 2 sum_k cos(2k (2j+1) pi / 2n) / (4k^2 - 1)) 2/n rounds its sum
    once (`_dots`), so it equals the `mp.fdot` form bit for bit: for n <= 648
    the nonzero terms lie between 2^-28 and 1, far within 2^(2 mp.prec).
    """
    m4 = 4 * n
    quarter = [mp.cospi(mpf(m) / (2 * n)) for m in range(n + 1)]
    half = quarter + [-c for c in quarter[n - 1::-1]]  # 0 <= m <= 2n
    cos_tab = half + half[2 * n - 1:0:-1]
    nodes = [cos_tab[2 * j + 1] for j in range(n)]
    cos, ec = _ints([c._mpf_ for c in cos_tab])
    recip = [mpf(1) / (4 * k * k - 1) for k in range(1, n // 2 + 1)]
    sums = _dots(recip, ([cos[(2 * k * (2 * j + 1)) % m4] for k in range(1, n // 2 + 1)]
                         for j in range(n // 2)), ec)
    first = [(1 - 2 * s) * 2 / n for s in sums]
    return nodes, first + first[::-1], (cos, ec)  # w_j = w_{n-1-j}


def _antiderivative(vals, rule) -> list:
    """int_{x_j}^1 of the degree-(n-1) interpolant of vals, at the n nodes x_j of rule.

    With the interpolant sum_k c_k T_k, its antiderivative has coefficients
    C_k = (c_{k-1} - c_{k+1}) / (2k) (c_0 doubled at k = 1), and
    int_x^1 = sum_k C_k (1 - T_k(x)); T_k(x_j) = cos(k (2j+1) pi / 2n).  Both
    O(n^2) sums are folded over the node pairs j, n-1-j, where the mirrored
    table gives T_k(x_{n-1-j}) = (-1)^k T_k(x_j) bit for bit:
    c_k sums (v_j + v_{n-1-j}) (k even) or (v_j - v_{n-1-j}) (k odd) over
    j < n/2, and the pair of results is sum_k C_k - E_j -+ O_j, with E_j and
    O_j the sums of C_k T_k(x_j) over even and odd k.  Every sum is exact in
    integers and rounded once, so the result equals the `mp.fdot` forms over
    the mirrored table (the second as fdot(C + C, [1]*n + [-T_k(x_j)])) bit for
    bit unless the terms of one sum lie more than 2^(2 mp.prec) apart.
    rule must be `_rule(n, mp.prec)`.
    """
    n = len(vals)
    m4, h = 4 * n, n // 2
    cos, ec = rule[2]
    folds = []  # per part: (v_j + v_{n-1-j}, v_j - v_{n-1-j}) for j < n/2, and the exponent
    for a, e in _parts(vals):
        top, bottom = a[:h], a[:h - 1:-1]
        folds.append(((list(map(int.__add__, top, bottom)), list(map(int.__sub__, top, bottom))), e))
    c = []
    for k in range(n):
        row = [cos[(k * (2 * j + 1)) % m4] for j in range(h)]
        c.append(_rounded([(sum(map(int.__mul__, f[k % 2], row)), e + ec) for f, e in folds])
                 * 2 / n)
    c[0] /= 2
    c += [0, 0]
    big_c = [(2 * c[0] - c[2]) / 2] + [(c[k - 1] - c[k + 1]) / (2 * k) for k in range(2, n + 1)]
    # per part: C_k for odd k, for even k, and sum_k C_k times cos[0] (1 on the table's exponent)
    parts = [(a[0::2], a[1::2], sum(a) * cos[0], e + ec) for a, e in _parts(big_c)]
    low, high = [], []
    for j in range(h):
        row = [cos[(k * (2 * j + 1)) % m4] for k in range(1, n + 1)]
        sums = [(total - sum(map(int.__mul__, even, row[1::2])),
                 sum(map(int.__mul__, odd, row[0::2])), e) for odd, even, total, e in parts]
        low.append(_rounded([(s - o, e) for s, o, e in sums]))
        high.append(_rounded([(s + o, e) for s, o, e in sums]))
    return low + high[::-1]  # nodes j < n/2, then n/2 <= n-1-j < n


def _panel(sample, reduce, lo, hi, tol) -> tuple:
    """Certified values of one panel [lo, hi] (real or complex end points).

    sample(u) is taken at the mapped nodes u_j = mid + half x_j;
    reduce(half, rule, samples) turns the samples into a tuple of panel values.
    The 3n-node tuple is returned once every entry is within tol of the n-node one.
    """
    mid, half = (hi + lo) / 2, (hi - lo) / 2
    n, vals, prev = _N0, [], None
    while n <= _N_CAP:
        rule = _rule(n, mp.prec)
        old, vals = vals, [None] * n
        if old:
            vals[1::3] = old  # the n/3 nodes of the previous level
        for j, x in enumerate(rule[0]):
            if vals[j] is None:
                vals[j] = sample(mid + half * x)
        cur = reduce(half, rule, vals)
        if prev is not None and all(abs(a - b) <= tol for a, b in zip(cur, prev)):
            return cur
        prev, n = cur, 3 * n
    raise BudgetError(
        f"panel [{mp.nstr(lo, 6)}, {mp.nstr(hi, 6)}] not certified to {mp.nstr(tol, 3)} "
        f"with {_N_CAP} Chebyshev nodes"
    )


def _fejer(half, rule, vals) -> tuple:
    return (half * mp.fdot(rule[1], vals),)


def _panels_sum(f, pts, tol) -> mpc:
    """Sum of certified panel integrals of f over consecutive pts, each to tol/(4 panels)."""
    ptol = mpf(tol) / (4 * (len(pts) - 1))
    acc = mpc(0)
    for lo, hi in zip(pts, pts[1:]):
        acc += _panel(f, _fejer, lo, hi, ptol)[0]
    return acc


@dataclass(frozen=True)
class PathSpec:
    """Truncated vertical path start -> start + i*(height - Im start).

    The quadrature splits the path at the offsets `_PATH_PANELS` above the
    start height that fall inside the truncated span.  `start` may be an mpc
    and is used at its full precision (a float complex would silently perturb
    off-axis paths).
    """

    start: complex | mpc
    height: float

    def __post_init__(self):
        if not mpc(self.start).imag > 0:
            raise ValueError("path start must have positive imaginary part")
        if not self.height > mpc(self.start).imag:
            raise ValueError("height cap must exceed Im(start)")

    def offsets(self):
        """Panel boundaries in the path parameter u, ending at the truncated span."""
        span = mpf(self.height) - mpc(self.start).imag
        return [mpf(0)] + [mpf(p) for p in _PATH_PANELS if p < span] + [span]


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
    """Integral of f along the straight segment [a, b], one panel certified to tol/4."""
    with mp.workdps(_tolerance_dps(tol)):
        val = _panels_sum(f, [mpc(a), mpc(b)], tol)
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
    """Panel quadrature of the ordered integrand over the truncated vertical simplex.

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

        def term(spec, alpha):
            kind, k = spec
            if kind == CUSP:
                return lambda t: eis_cusp_eval(k, t, series_budget) * t ** (alpha - 1)
            cv = _constant_mpf(k)
            return lambda t: cv * t ** (alpha - 1)

        pts = path.offsets()
        I = mpc(0, 1)

        if len(factors) == 1:
            bound = _ray_tail_bound(factors[0][1], alphas[0], x0_abs, y0, span)
            if not bound < mpf(tol):
                raise ValueError("height cap too low for requested tolerance")
            g = term(factors[0], alphas[0])
            val = _panels_sum(lambda u: g(start + I * u), pts, tol) * I
            return +val

        inner_tail = _ray_tail_bound(factors[1][1], alphas[1], x0_abs, y0, span)
        # crude: |outer factor| integrates to O(1); demand the inner tail alone is tiny
        if not inner_tail * (1 + span + x0_abs) ** max(alphas[0], 1) < mpf(tol):
            raise ValueError("height cap too low for requested tolerance")
        g1, g2 = term(factors[0], alphas[0]), term(factors[1], alphas[1])

        def sample(u):
            t = start + I * u
            return g1(t), g2(t)

        above = mpc(0)  # int of the inner integrand from the top of the panel to the span

        def reduce(half, rule, vals):
            weights = rule[1]
            outer = [v[0] for v in vals]
            inner = [v[1] for v in vals]
            tails = _antiderivative(inner, rule)
            inner_at = [(half * s + above) * I for s in tails]  # i int_u^span at each node
            return (half * mp.fdot(weights, inner),
                    half * mp.fdot(weights, [o * s for o, s in zip(outer, inner_at)]))

        ptol = mpf(tol) / (4 * (len(pts) - 1))
        val = mpc(0)
        for lo, hi in reversed(list(zip(pts, pts[1:]))):
            inner_panel, outer_panel = _panel(sample, reduce, lo, hi, ptol)
            above += inner_panel
            val += outer_panel
        return +(val * I)


def eis_cusp_near_zero(k: int, tau, budget: TruncationBudget = DEFAULT_BUDGET) -> mpc:
    """Cusp part evaluated stably for small Im tau via the weight-2k inversion."""
    tau = mpc(tau)
    if tau.imag >= 1:
        return eis_cusp_eval(k, tau, budget)
    return tau ** (-2 * k) * eis_eval(k, -1 / tau, budget) - _constant_mpf(k)


# Panel offsets above the start of a vertical path, graded geometrically from the
# start, where the integrand is largest: on a span up to 32 no panel is more than
# twice as wide as the one below it.  Panel ends on (0, i], graded toward the origin.
_PATH_PANELS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
_T_PANELS = ("0", "1e-4", "1e-2", "0.1", "0.3", "0.6", "1")


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

        val = _panels_sum(f, [mpf(p) for p in _T_PANELS], tol) * mpc(0, 1)
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

        val = cv * _panels_sum(f, [mpf(p) for p in _T_PANELS], tol) * mpc(0, 1)
    return +val
