"""One workload in a fresh interpreter; prints its measurements as one JSON line.

Started by ``run.py``; not meant to be run by hand.  The process imports
wavecheck from the checkout's ``src``, builds the workload's inputs, then
repeats the timed phase (at least once) while another iteration, as long as
the last one, still ends within ``--seconds``.
With ``--setup-only`` it stops when the inputs are built and reports the
moment it was ready, which ``run.py`` turns into the set-up time, and the
time of the calibration kernel right after it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--fault", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import wavecheck
    import_s = time.perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(wavecheck.__file__).resolve().parents:
        raise SystemExit(f"wavecheck imported from {wavecheck.__file__}, not from {src}")

    import layers
    import workloads
    from tracer import Tracer

    _, setup, run, planned = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer(layers.PACKAGE)
        layers.install(tracer)
    state = setup(args.seed, args.scratch, args.fault)
    ready = time.monotonic()
    # How fast the host runs right after set-up, to normalise the set-up time.
    cal_wall_s = workloads.kernel_wall_s()
    if args.setup_only:
        print(json.dumps({"ready": ready, "cal_wall_s": cal_wall_s}))
        return 0

    iterations = []
    loop_start = time.monotonic()
    while True:
        it_start = time.monotonic()
        timer, checks = workloads.Timer(), workloads.Checks()
        if tracer is not None:
            tracer.reset()
        counts, raised = {}, False
        try:
            counts = run(state, timer, checks)
        except Exception:  # a raising check is a failed check, not a crash
            raised = True
            checks.check("raised", False, traceback.format_exc(limit=-3))
            while len(checks.results) < planned:
                checks.check("not-reached", False)
        it = {"wall_s": timer.wall_s, "cpu_s": timer.cpu_s, "units": timer.units,
              "checks": checks.results, "counts": counts}
        if tracer is not None:
            it["trace"] = tracer.snapshot()
        iterations.append(it)
        now = time.monotonic()
        if raised or now + (now - it_start) - loop_start > args.seconds:
            break

    print(json.dumps({
        "ready": ready,
        "cal_wall_s": cal_wall_s,
        "import_s": import_s,
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
