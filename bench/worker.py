"""One repetition of one workload in a fresh process; run.py starts it.

Imports eistau from `src/` of the checkout this file lives in, configures the
engine, prepares the workload inputs, runs the timed region (under the tracer with
--trace 1, under the host-speed calibration of calib.py otherwise), runs the
untimed correctness check and prints one JSON object as its last line of
standard output.  With --setup-only it stops after
`configure` and reports the set-up time alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1,
                    help="run the untimed correctness check after the timed region")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", help="write the traced spans here (gzip TSV)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, str(SRC))
    import eistau

    eistau.configure(eistau.EngineConfig())
    setup_s = time.monotonic() - args.spawned_at
    if Path(eistau.__file__).resolve().parent != SRC / "eistau":
        print(f"eistau imported from {eistau.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import metrics
    from calib import Calibrator
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](eistau, args.seed, bool(args.smoke))
    wl.prepare()
    # the tracer's spans would absorb the reference slices, so a traced run is not calibrated
    tracer = Tracer() if args.trace else None
    calib = None if args.trace else Calibrator()
    if tracer is not None:
        tracer.install(eistau)
    else:
        calib.start()
    try:
        t_start, t_end = wl.run(calib.clock if calib else time.perf_counter)
    finally:
        if tracer is not None:
            tracer.uninstall()
        else:
            calib.stop()
    wall_s = t_end - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.check:
        wl.check()
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": len(wl.ops),
        "latency": metrics.latency_stats([t1 - t0 for t0, t1 in wl.ops]),
        "peak_rss_mb": peak_rss_mb,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "info": wl.info,
        "values_digest": _values_digest(wl),
    }
    if calib is not None:
        ref = calib.to_reference()
        out["ref_wall_s"] = ref(t_start, t_end)
        out["ref_latency"] = metrics.latency_stats([ref(t0, t1) for t0, t1 in wl.ops])
        out["ref_slices"] = calib.slices
    if tracer is not None:
        out["layers"] = metrics.layer_metrics(tracer, wall_s)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(out, sort_keys=True))
    return 0


def _values_digest(wl) -> str:
    """Digest of every value the timed region returned, to compare runs."""
    import hashlib

    from mpmath import mp

    h = hashlib.sha256()
    for v in getattr(wl, "values", ()):
        h.update(mp.nstr(v, mp.dps).encode())
    for name, lhs, rhs, _ in getattr(wl, "results", ()):
        h.update(f"{name}{mp.nstr(lhs, mp.dps)}{mp.nstr(rhs, mp.dps)}".encode())
    for text in getattr(wl, "reports", {}).values():
        h.update(text.encode())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
