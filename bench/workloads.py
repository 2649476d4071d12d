"""The three benchmark workloads and their correctness gates.

Each workload is a class with `prepare()` (inputs, built before timing),
`run(clock)` (the timed calls into eistau) and `check()` (the untimed gate).
`run` reads time from `clock` (`perf_counter`, or the calibrated clock of
calib.py, which leaves out the reference slices), fills `ops` with the
(start, end) time of each operation and returns the times of the first call
into eistau and of the last result.  Every workload resolves
eistau names through module attributes at call time, so the tracer's wrappers
are seen when it is installed.

* verify-closed: the eight closed-form suites on the `full` grid, through
  `run_suite`, in the order a user of `eistau verify` would run them.  An
  operation is one verification case that is not a suite-declared singular
  skip; its latency runs from the previous case (or the start of the suite)
  to the moment the case is recorded.
* oracle: the independent quadrature oracles against their closed forms, at
  the tolerances of the `oracle-cross` suite.  An operation is one check.
* eval-stream: a closed loop of one client over a seeded request list of point
  values L(tau), Int(tau) and S(...).  An operation is one request.
"""

from __future__ import annotations

import hashlib
import json
import random
from mpmath import mp, mpc, mpf

CLOSED_SUITES = ("roundtrip", "shuffle", "stuffle", "deriv", "fund", "haberland",
                 "symmetry", "firstdiff")

# Case totals (total, skipped-singular) of the suites at the seed of this benchmark.
EXPECTED_TOTALS = {
    "full": {"roundtrip": (252, 0), "shuffle": (32, 0), "stuffle": (120, 0), "deriv": (10, 0),
             "fund": (240, 37), "haberland": (15, 0), "symmetry": (64, 0),
             "firstdiff": (64, 20)},
    "small": {"roundtrip": (12, 0), "shuffle": (16, 0), "stuffle": (40, 0), "deriv": (6, 0),
              "fund": (24, 2), "haberland": (8, 0), "symmetry": (9, 0), "firstdiff": (9, 3)},
}


class VerifyClosed:
    name = "verify-closed"

    def __init__(self, E, seed: int, smoke: bool):
        self.E = E
        self.grid = "small" if smoke else "full"
        self.ops: list[tuple[float, float]] = []
        self.reports: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}

    def prepare(self):
        pass

    def run(self, clock) -> tuple[float, float]:
        report_cls = self.E.report.VerificationReport
        original_add = report_cls.add
        ops = self.ops
        last = [0.0]

        def stamped_add(rep, case):
            original_add(rep, case)
            now = clock()
            if not case.skipped:
                ops.append((last[0], now))
            last[0] = now

        report_cls.add = stamped_add
        try:
            t_start = clock()
            for suite in CLOSED_SUITES:
                last[0] = clock()
                rep = self.E.run_suite(suite, self.grid, self.E.EngineConfig())
                self.reports[suite] = rep.to_json()
            t_end = clock()
        finally:
            report_cls.add = original_add
        return t_start, t_end

    def check(self):
        expected = EXPECTED_TOTALS[self.grid]
        digests, problems = {}, []
        for suite, text in self.reports.items():
            summary = json.loads(text)["summary"]
            digests[suite] = hashlib.sha256(text.encode()).hexdigest()
            self.attempted += summary["total"] - summary["skipped-singular"]
            self.failed += summary["failed"]
            got = (summary["total"], summary["skipped-singular"])
            if got != expected[suite]:
                problems.append(f"{suite}: (total, skipped) {got} != {expected[suite]}")
                self.failed += max(1, abs(summary["total"] - expected[suite][0]))
            if summary["failed"]:
                problems.append(f"{suite}: {summary['failed']} failed cases")
        self.info = {"grid": self.grid, "report_sha256": digests, "problems": problems}


class Oracle:
    """Quadrature oracles against closed forms, at the oracle-cross tolerances.

    The seven short checks (0.1-0.5 s each) are spread between the three long
    ones (4-14 s) rather than run back to back, so that the median check
    samples the host across the whole repetition instead of one two-second
    window.  Its p50 and p99 rest on ten checks: p99 is the slowest check.
    """

    name = "oracle"

    def __init__(self, E, seed: int, smoke: bool):
        self.E = E
        self.smoke = smoke
        self.ops: list[tuple[float, float]] = []
        self.results: list[tuple[str, object, object, object]] = []
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}

    def prepare(self):
        E = self.E
        Q = E.quadrature
        mmv = E.mmv
        budget = E.verify._tight_budget(E.EngineConfig())  # the suites' identity budget
        i, two_i = mpc(0, 1), mpc(0, 2)

        def vertical(factors, alphas, tau):
            return lambda: Q.quad_vertical(factors, alphas,
                                           Q.default_path(tau, 1e-26, sum(alphas)),
                                           tol=1e-22, budget=budget)

        checks = []
        for ks, alphas, tau in (((2,), (1,), i), ((3,), (2,), two_i), ((2, 2), (1, 1), two_i)):
            idx = E.make_index(ks, alphas)
            checks.append((f"quad;ks={list(ks)};alphas={list(alphas)}",
                           (lambda idx=idx, tau=tau: E.int_eval(idx, tau, budget)),
                           vertical([("cusp", k) for k in ks], alphas, tau), 1e-18))
        factors = [("const", 3), ("cusp", 2)]
        checks.append(("riter;2k1=6;2k2=4;a1=2;a2=1",
                       lambda: E.r_iter(factors, (2, 1), budget),
                       vertical(factors, (2, 1), i), 1e-18))
        for k in (2, 3):
            for m in (2 * k + 1, 2 * k + 2):
                checks.append((f"treg;2k={2 * k};m={m}",
                               (lambda k=k, m=m: E.t_cusp_reg(k, m, budget)),
                               (lambda k=k, m=m: Q.quad_T_cusp(k, m, tol=1e-24, budget=budget)),
                               1e-15))
        for k_c, a, k_i, b in ((2, 6, 2, -1), (2, 7, 3, 2)):
            checks.append((f"tmixed;2kc={2 * k_c};a={a};2ki={2 * k_i};b={b}",
                           (lambda k_c=k_c, a=a, k_i=k_i, b=b: E.t_mixed_reduce(
                               mmv.CUSP_THEN_CONST, k_c, k_i, a, b, budget)),
                           (lambda k_c=k_c, a=a, k_i=k_i, b=b: Q.quad_T_cusp_const(
                               k_c, a, k_i, b, tol=1e-22, budget=budget)),
                           1e-15))
        # checks: quad d1 x2, quad d2, riter, treg x4, tmixed x2; smoke runs the two d1 checks
        order = (0, 4, 8, 2, 5, 1, 6, 3, 9, 7)
        self.checks = checks[:2] if self.smoke else [checks[j] for j in order]

    def run(self, clock) -> tuple[float, float]:
        t_start = clock()
        for name, closed, oracle, tol in self.checks:
            t0 = clock()
            lhs = closed()
            rhs = oracle()
            self.ops.append((t0, clock()))
            self.results.append((name, lhs, rhs, tol))
        return t_start, clock()

    def check(self):
        E = self.E
        problems = []
        for name, lhs, rhs, tol in self.results:
            self.attempted += 1
            err = abs(mpc(lhs) - mpc(rhs))
            if not err <= mpf(tol):
                self.failed += 1
                problems.append(f"{name}: |lhs - rhs| = {mp.nstr(err, 5)} > {tol}")
        self.info = {"checks": {r[0]: round(1e3 * (t1 - t0), 1)
                                for r, (t0, t1) in zip(self.results, self.ops)},
                     "problems": problems}


# -- eval-stream ------------------------------------------------------------------

STREAM_LEN = 1000
SMOKE_STREAM_LEN = 40
L_PER_DEPTH = 1  # L values cross-checked per depth
INT_SHARE = 8  # one Int value in INT_SHARE is cross-checked
Y_MIN, Y_MAX = 0.7, 2.0
# The index pool is drawn once from this fixed seed, for every --seed: which
# indices pair up decides much of a stream's cost (with a pool drawn per seed,
# seeds 1 and 2 differed by 13 % in wall_s).  --seed draws tau, order and S.
POOL_SEED = "eval-stream-pool"


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n points of [0, 1), one in each of n equal strata, in random order."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [(s + rng.random()) / n for s in strata]


def make_pool(rng: random.Random) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """24 distinct indices, 8 per depth 1..3.  At every position of each depth the
    eight k's are 2..5 twice over and the eight alphas 1..4 twice over, so `rng`
    chooses how they pair up but not the mix; t is 0..2, eight times each."""
    ts = [0, 1, 2] * 8
    rng.shuffle(ts)
    pool = []
    for depth in (1, 2, 3):
        while True:
            ks_cols = [rng.sample([2, 3, 4, 5] * 2, 8) for _ in range(depth)]
            al_cols = [rng.sample([1, 2, 3, 4] * 2, 8) for _ in range(depth)]
            rows = [(tuple(c[j] for c in ks_cols), tuple(c[j] for c in al_cols))
                    for j in range(8)]
            if len(set(rows)) == 8:
                break
        pool.extend(rows)
    return [(ks, alphas, t) for (ks, alphas), t in zip(pool, ts)]


def make_requests(seed: int, n: int) -> list[tuple]:
    """Seeded request list: 40 % l_eval, 40 % int_eval, 20 % s_coeff, shuffled.

    Each kind of L/Int request uses every index of the pool of POOL_SEED equally
    often, at tau = x + iy with x uniform on [-1/2, 1/2] and y log-uniform on
    [0.7, 2], both stratified over the requests of that index: the cost of a
    request grows steeply as y falls, so every index gets the same spread of y
    and the seed moves the stream's cost little.  s_coeff requests are half
    length 1, half length 2, with k in 2..4 and each alpha uniform on 1..2k-1.
    """
    pool = make_pool(random.Random(POOL_SEED))
    rng = random.Random(seed)
    n_l = n_int = (2 * n) // 5
    n_s = n - n_l - n_int
    requests = []
    for kind, count in (("L", n_l), ("Int", n_int)):
        for j, (ks, alphas, t) in enumerate(pool):
            uses = count // len(pool) + (j < count % len(pool))
            for ux, uy in zip(_stratified(rng, uses), _stratified(rng, uses)):
                tau = (ux - 0.5, Y_MIN * (Y_MAX / Y_MIN) ** uy)
                requests.append((kind, ks, alphas, t, tau))
    for j in range(n_s):
        length = 1 if j < n_s // 2 else 2
        ks = tuple(rng.choice((2, 3, 4)) for _ in range(length))
        alphas = tuple(rng.randint(1, 2 * k - 1) for k in ks)
        requests.append(("S", ks, alphas, 0, None))
    rng.shuffle(requests)
    return requests


class EvalStream:
    """Closed loop, one client: each request is sent when the previous one returns."""

    name = "eval-stream"

    def __init__(self, E, seed: int, smoke: bool):
        self.E = E
        self.seed = seed
        self.n = SMOKE_STREAM_LEN if smoke else STREAM_LEN
        self.ops: list[tuple[float, float]] = []
        self.values: list = []
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}

    def prepare(self):
        E = self.E
        self.budget = E.EngineConfig().budget()
        self.requests = make_requests(self.seed, self.n)
        calls = []
        for kind, ks, alphas, t, tau in self.requests:
            if kind == "S":
                calls.append((kind, E.MonomialCoefficientRequest(ks, alphas), None, 0))
            else:
                idx = E.make_index(ks, alphas, t if kind == "L" else 0)
                calls.append((kind, idx, mpc(*tau), t))
        self.calls = calls
        self.info = {
            "requests": self.n,
            "requests_sha256": hashlib.sha256(repr(self.requests).encode()).hexdigest(),
        }

    def run(self, clock) -> tuple[float, float]:
        E, budget = self.E, self.budget
        out, ops = self.values, self.ops
        t_start = clock()
        for kind, idx, tau, power in self.calls:
            t0 = clock()
            if kind == "L":
                v = E.l_eval(idx, tau, budget)
            elif kind == "Int":
                v = tau**power * E.int_eval(idx, tau, budget)
            else:
                v = E.s_coeff(idx, budget=budget)
            ops.append((t0, clock()))
            out.append(v)
        return t_start, clock()

    def check(self):
        """Cross-check values through an independent path (untimed).

        L and Int values go through the exact conversion map into the other
        family and `numeric_value`, at the shuffle/stuffle tolerance 1e-15; S
        values of length 1 against `haberland_rhs` (relative 1e-12), of length 2
        against the symmetry partner from `symmetry_defect` (the symmetry
        suite's tolerance).  Every S value is checked, a seeded eighth of the
        Int values and one seeded L value per depth: one L check expands into
        up to 64 iterated integrals and costs about 0.5 s, so checking all 400
        would take minutes, and the check counts against each run's time.
        An exception counts as a mismatch.
        """
        E, budget = self.E, self.budget
        problems, checked = [], 0
        for pos in check_selection(self.requests, self.seed):
            kind, ks, alphas, t, _ = self.requests[pos]
            tau, v = self.calls[pos][2], self.values[pos]
            try:
                if kind == "L":
                    ref = E.rewrite.numeric_value(E.l_to_int(E.lseries_gen(ks, alphas, t)),
                                                  tau, budget)
                    tol = mpf("1e-15")
                elif kind == "Int":
                    ref = E.rewrite.numeric_value(E.int_to_l(E.tau_integral_gen(ks, alphas, t)),
                                                  tau, budget)
                    tol = mpf("1e-15")
                elif len(ks) == 1:
                    ref = E.mmv.haberland_rhs(ks[0], alphas[0], budget)
                    tol = mpf("1e-12") * max(abs(ref), 1)
                else:
                    (k1, k2), (a1, a2) = ks, alphas
                    _, ref = E.mmv.symmetry_defect(k1, k2, a1, a2, budget)
                    tol = mpf("1e-10") * (2 * mp.pi) ** (2 * k1 + 2 * k2 - 2)
                ok = abs(v - ref) <= tol
            except Exception as exc:  # any exception in the cross-check is a failed op
                ok = False
                ref = repr(exc)
            checked += 1
            if not ok:
                self.failed += 1
                problems.append(f"{kind} ks={ks} alphas={alphas} t={t}: {ref!s:.80}")
        self.attempted = len(self.requests)
        self.info.update({"checked": checked, "problems": problems[:20]})


def check_selection(requests, seed: int) -> list[int]:
    """Positions to cross-check: all S, 1/INT_SHARE of Int, L_PER_DEPTH L's per depth."""
    rng = random.Random(f"check-{seed}")
    picked = [j for j, r in enumerate(requests) if r[0] == "S"]
    ints = [j for j, r in enumerate(requests) if r[0] == "Int"]
    picked += rng.sample(ints, len(ints) // INT_SHARE)
    for depth in (1, 2, 3):
        ls = [j for j, r in enumerate(requests) if r[0] == "L" and len(r[1]) == depth]
        picked += rng.sample(ls, min(L_PER_DEPTH, len(ls)))
    return sorted(picked)


WORKLOADS = {cls.name: cls for cls in (VerifyClosed, Oracle, EvalStream)}
