"""eistau benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload verify-closed --seed 1 --seconds 20 --trace 0

Every repetition of a workload runs single-threaded in a fresh process
(bench/worker.py), one process at a time, so each pays what one CLI
invocation pays: cold eistau caches and cold mpmath quadrature nodes.

--trace 0  Repeats the workload in fresh processes until about --seconds of
           workload wall time are measured (at least one repetition), with
           bare set-up probes before and after them, and prints the end-to-end metrics as medians over the
           repetitions (setup_s over the probes).  Times are in reference
           seconds (bench/calib.py): those of the timed region scaled by the
           speed of a fixed reference slice timed all through the same
           interval, setup_s by reference interpreter starts around each
           probe, so that the host's changes of speed cancel out.  The
           measured times are printed beside them as raw.<metric>.
--trace 1  Runs the workload once untraced and twice under the tracer
           (bench/tracer.py), prints the per-layer metrics of the first traced
           run, the tracing overhead against the untraced run, and whether the
           work counts of the two traced runs agree exactly.
--smoke    Tiny inputs and one repetition, for the benchmark's own tests.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when every
correctness check passed, 1 when one failed and 2 when the checkout holds no
eistau sources.  Details of each run (per-repetition numbers, report digests,
environment) go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from calib import REF_START_S, reference_start  # noqa: E402
from metrics import DETERMINISTIC, END_TO_END, PER_LAYER, median  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s
SETUP_PROBES = 12  # bare set-up probes per run, half before and half after the repetitions
CHILD_HASHSEED = "0"


def environment(seed: int) -> dict:
    import mpmath
    import mpmath.libmp

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eistau").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit or "unavailable (not a git checkout)",
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "PYTHONHASHSEED": CHILD_HASHSEED,
        "PYTHONHASHSEED_parent": os.environ.get("PYTHONHASHSEED", "unset"),
    }


class Runner:
    def __init__(self, args):
        self.args = args
        self.t_start = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED=CHILD_HASHSEED)

    def left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t_start)

    def spawn(self, trace=0, setup_only=False, check=True, spans_out=None) -> dict:
        a = self.args
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--trace", str(trace), "--smoke", str(int(a.smoke)),
               "--check", str(int(check))]
        if setup_only:
            cmd.append("--setup-only")
        if spans_out:
            cmd += ["--spans-out", str(spans_out)]
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=self.env,
                              timeout=max(self.left(), 1))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
        return json.loads(lines[-1])

    def setup_times(self, n: int) -> list[tuple[float, float]]:
        """(measured, reference) set-up seconds of n bare probes, each scaled by the
        reference starts right before and right after it (bench/calib.py)."""
        starts = [reference_start(self.env, max(self.left(), 1))]
        out = []
        for _ in range(n):
            measured = self.spawn(setup_only=True)["setup_s"]
            starts.append(reference_start(self.env, max(self.left(), 1)))
            out.append((measured, measured * 2 * REF_START_S / (starts[-2] + starts[-1])))
        return out


def end_to_end(reps: list[dict], setups: list[tuple[float, float]], prefix: str) -> dict:
    """Medians over the repetitions (setup_s over the probes): in reference seconds
    with prefix "ref_", as measured with prefix ""."""
    return {
        "setup_s": median(s[prefix == "ref_"] for s in setups),
        "wall_s": median(r[prefix + "wall_s"] for r in reps),
        "evals_per_s": median(r["ops"] / r[prefix + "wall_s"] for r in reps),
        "eval_p50_ms": median(r[prefix + "latency"]["p50_ms"] for r in reps),
        "eval_p99_ms": median(r[prefix + "latency"]["p99_ms"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }


def timed(runner: Runner, seconds: float) -> tuple[dict, dict, list[dict], list]:
    """Untraced repetitions until `seconds` of wall time are measured, or the next
    one would end past 1.2 x `seconds`; at least one."""
    smoke = runner.args.smoke
    setups = runner.setup_times(1 if smoke else SETUP_PROBES // 2)
    reps: list[dict] = []
    measured = 0.0
    while True:
        # later repetitions are compared with the first through their values digest
        rep = runner.spawn(check=not reps)
        reps.append(rep)
        measured += rep["wall_s"]
        mean = measured / len(reps)
        if runner.left() < 1.5 * mean + 5:
            break
        if measured >= seconds or measured + mean > 1.2 * seconds:
            break
    setups += runner.setup_times(1 if smoke else SETUP_PROBES - SETUP_PROBES // 2)
    return end_to_end(reps, setups, "ref_"), end_to_end(reps, setups, ""), reps, setups


def traced(runner: Runner) -> tuple[dict, list[dict]]:
    """One untraced and two traced repetitions of the same seed."""
    a = runner.args
    OUT.mkdir(exist_ok=True)
    plain = runner.spawn()
    spans = OUT / f"spans-{a.workload}-seed{a.seed}.tsv.gz"
    first = runner.spawn(trace=1, check=False, spans_out=spans)
    second = runner.spawn(trace=1, check=False)
    layers = dict(first["layers"])
    layers["trace.overhead_s"] = first["wall_s"] - plain["wall_s"]
    layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain["wall_s"]
    counts = [k for k in layers if k in DETERMINISTIC or k.endswith(".calls")]
    layers["trace.counts_repeat"] = float(all(first["layers"][k] == second["layers"][k]
                                              for k in counts))
    return layers, [plain, first, second]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "eistau" / "__init__.py").is_file():
        print(f"no eistau sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # set-up is timed as an installed CLI pays it, importing eistau from bytecode; a
    # checkout holds none, and PYTHONDONTWRITEBYTECODE would keep every probe compiling
    compileall.compile_dir(str(ROOT / "src" / "eistau"), quiet=1)
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    runner = Runner(args)
    try:
        if args.trace:
            values, reps = traced(runner)
            units = PER_LAYER
        else:
            values, raw, reps, setups = timed(runner, args.seconds)
            units = END_TO_END
    except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    checked = [r for r in reps if r["attempted"]]
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    # every repetition of one seed must return the same values
    mismatched = len({r["values_digest"] for r in reps}) > 1
    failed += int(mismatched)
    correct = failed == 0 and (not args.trace or values["trace.counts_repeat"] == 1.0)

    for rep in reps:
        if rep["info"].get("problems"):
            print(f"problems: {rep['info']['problems']}")
    info = reps[0]["info"]
    for key, val in info.items():
        if key != "problems":
            print(f"info.{key} {json.dumps(val, sort_keys=True)}")
    if not args.trace:
        lat = reps[0]["latency"]
        print(f"repetitions {len(reps)}; set-up samples {len(setups)}; latency samples per "
              f"repetition {lat['n']} with {lat['beyond_p99']} beyond p99")
        print("reference seconds per measured second: "
              + " ".join(f"{r['ref_wall_s'] / r['wall_s']:.4f}" for r in reps)
              + f" ({sum(len(r['ref_slices']) for r in reps)} reference slices)")
        for name, unit in units.items():
            print(f"raw.{name} {raw[name]:.6g} {unit}")
    if mismatched:
        print("values differ between repetitions of one seed")
    print(f"failed_frac {failed / max(attempted, 1):.6g} 1 ({failed} of {attempted})")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args), "environment": env, "repetitions": reps, "metrics": values}
    if not args.trace:
        record.update(raw_metrics=raw, setups=setups)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, sort_keys=True, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
