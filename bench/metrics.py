"""Metric definitions: end-to-end metrics per run, per-layer metrics per traced run.

`END_TO_END` and `PER_LAYER` list every metric with its unit; BENCHMARK.json
at the repository root declares the same names (checked by test_bench.py).
"""

from __future__ import annotations

import math

from tracer import LAYERS, Tracer
from workloads import CLOSED_SUITES

END_TO_END = {
    "setup_s": "s",  # fresh process to `import eistau` + `configure(EngineConfig())`
    "wall_s": "s",  # first call into eistau to last result
    "evals_per_s": "1/s",  # operations completed per second of wall_s
    "eval_p50_ms": "ms",  # median per-operation latency
    "eval_p99_ms": "ms",  # 99th-percentile per-operation latency (nearest rank)
    "peak_rss_mb": "MB",  # peak resident set of the workload process
}

# Work counts that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = (
    "quadrature.integrand_evals",
    "algebra.formal_sum_constructions",
    "integrals.n_cut_sum",
    "lseries.l_coeffs_dp.n_sum",
    "mmv.int_eval.calls",
)

_CALLS_SELF = {
    "eisenstein": ("eis_cusp_eval", "sigma_table", "tail_start"),
    "exppoly": ("mul", "tail_integral"),
    "integrals": ("int_eval",),
    "lseries": ("l_eval", "l_coeffs_dp"),
    "rewrite": ("convert_sum", "shuffle_product", "stuffle_product", "numeric_value"),
    "mmv": ("s_coeff", "int0_reg", "t_cusp_reg", "r_iter", "zeta_odd"),
}

def _per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for layer, fns in _CALLS_SELF.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    units.update({
        "quadrature.integrand_evals": "count",
        "quadrature.mp_quad.calls": "count",
        "quadrature.mp_quad.self_s": "s",
        "exppoly.eval.self_s": "s",
        "integrals.n_cut_sum": "count",
        "integrals.int_eval.repeat_index_frac": "1",
        "lseries.l_coeffs_dp.n_sum": "count",
        "lseries.dp_recompute_ratio": "1",
        "lseries.l_eval.grow_frac": "1",
        "algebra.formal_sum_constructions": "count",
        "mmv.int_eval.calls": "count",
        "mmv.int_eval.distinct_frac": "1",
        "report.to_json.self_s": "s",
    })
    units.update({f"verify.{s}.wall_s": "s" for s in CLOSED_SUITES})
    units.update({
        "trace.wall_s": "s",  # wall_s of the traced run
        "trace.overhead_s": "s",  # traced minus untraced wall_s
        "trace.overhead_frac": "1",
        "trace.spans": "count",  # spans recorded in the traced run
        "trace.coverage": "1",  # sum of all self times / traced wall_s
        "trace.counts_repeat": "1",  # 1 if two traced runs gave identical counts
    })
    return units


PER_LAYER = _per_layer_units()


def median(xs) -> float:
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q % of samples <= it."""
    s = sorted(xs)
    return s[max(1, math.ceil(q / 100 * len(s))) - 1]


def latency_stats(latencies: list[float]) -> dict:
    p99 = percentile(latencies, 99)
    return {"n": len(latencies), "p50_ms": 1e3 * median(latencies), "p99_ms": 1e3 * p99,
            "beyond_p99": sum(1 for x in latencies if x > p99)}


def layer_metrics(tr: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (without the trace.* comparisons)."""
    summary = tr.summary()

    def stat(span: str, key: str):
        return summary.get(span, {}).get(key, 0)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(row["self_s"] for name, row in summary.items()
                                   if name.split(".", 1)[0] == layer)
    for layer, fns in _CALLS_SELF.items():
        for fn in fns:
            m[f"{layer}.{fn}.calls"] = stat(f"{layer}.{fn}", "calls")
            m[f"{layer}.{fn}.self_s"] = stat(f"{layer}.{fn}", "self_s")
    m["quadrature.integrand_evals"] = (tr.calls_from("quadrature", "eisenstein.eis_cusp_eval")
                                       + tr.calls_from("quadrature", "eisenstein.eis_eval"))
    m["quadrature.mp_quad.calls"] = stat("quadrature.mp_quad", "calls")
    m["quadrature.mp_quad.self_s"] = stat("quadrature.mp_quad", "self_s")
    m["exppoly.eval.self_s"] = stat("exppoly.eval", "self_s")
    m["algebra.formal_sum_constructions"] = stat("algebra.FormalSum.init", "calls")
    m["report.to_json.self_s"] = stat("report.to_json", "self_s")
    for suite in CLOSED_SUITES:
        m[f"verify.{suite}.wall_s"] = 0.0

    n_cut_sum, int_keys, mmv_keys, dp_n, dp_final = 0, [], [], 0, {}
    for span, site, args, result, idx in tr.observations:
        if span == "verify.run_suite":
            m[f"verify.{args[0]}.wall_s"] += tr.duration(idx)
        elif span == "integrals.freq_cutoff":
            n_cut_sum += result
        elif span == "integrals.int_eval":
            index, tau = args[0], args[1]
            int_keys.append((index.ks, index.alphas))
            if site == "mmv":
                mmv_keys.append((index.ks, index.alphas, tau))
        elif span == "lseries.l_coeffs_dp":
            index, n = args[0], args[1]
            dp_n += n
            dp_final[(index.ks, index.alphas)] = n
    seen, repeats = set(), 0
    for key in int_keys:
        repeats += key in seen
        seen.add(key)
    m["integrals.n_cut_sum"] = n_cut_sum
    m["integrals.int_eval.repeat_index_frac"] = repeats / len(int_keys) if int_keys else 0.0
    m["lseries.l_coeffs_dp.n_sum"] = dp_n
    m["lseries.dp_recompute_ratio"] = dp_n / sum(dp_final.values()) if dp_final else 0.0
    l_evals = stat("lseries.l_eval", "calls")
    m["lseries.l_eval.grow_frac"] = (
        tr.ancestors_with("lseries.l_coeffs_dp", "lseries.l_eval") / l_evals if l_evals else 0.0)
    m["mmv.int_eval.calls"] = tr.calls_from("mmv", "integrals.int_eval")
    m["mmv.int_eval.distinct_frac"] = len(set(mmv_keys)) / len(mmv_keys) if mmv_keys else 0.0
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = len(tr.span_name)
    m["trace.coverage"] = sum(row["self_s"] for row in summary.values()) / wall_s
    return m
