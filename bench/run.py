"""wavecheck benchmark: one workload, all verdicts checked, metrics as JSON.

    python3 bench/run.py --workload catalog --seed 0 --seconds 15 --trace 0

Workloads: ``catalog`` (the full ``wavecheck report``), ``exact-roundoff``
(shadow runs and the convolution reconstruction on growing grids) and
``binary64-order`` (order fits and a large binary64 march).  Each runs in a
fresh interpreter that imports wavecheck from ``src/`` of this checkout.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``cpu_s`` of the
timed phase, ``setup_s`` (interpreter start to the first timed call) and
``peak_rss_mb``.  The timed phase is split into short units, and a run
repeats all of them in turn for ``--seconds``.

The three times are normalised to a reference host speed.  On a shared host
the speed drifts by a fifth or more over minutes, and the best or median of a
run moves with it.  So a fixed calibration kernel
(``workloads.calibration_kernel``) runs right before and after every unit,
and a unit's normalised time is its measured time times
``workloads.CAL_REF_S`` over the kernel's mean time: a change to wavecheck
moves it, the host's load does not.  ``wall_s`` and ``cpu_s``
are the sums over units of each unit's median normalised time; ``setup_s`` is
the median over several fresh processes, each normalised by the kernel run
right before its start and right after its set-up.  The measured times are in the summary on standard
error and in ``.bench_out/``.

``--trace 1`` runs the workload untraced, then traced with spans around
wavecheck's public functions, each for half of ``--seconds``, and reports the per-layer metrics of
``layers.metric_units()`` plus the tracing overhead.  It fails if a traced
function is missing, if a function the workload must call records no call,
if the top-level spans cover less than 90 % of the traced time, or if an
exact count differs between the two runs, between iterations, or from an
earlier run of the same workload and seed in this checkout.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; ``failed / attempted`` is the fail ratio.  Details (every
check, count, iteration and span) go to ``.bench_out/``.  The exit status is
0 when every check passed, 1 when one failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

#: Fresh processes timed for set-up, besides the measuring process itself.
SETUP_SAMPLES = 15
#: Every process of a run must be finished by then.
DEADLINE_S = 175.0
MIN_COVERAGE = 0.9

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def spawn(args, scratch: Path, *, trace: int, setup_only: bool, deadline: float,
          seconds: float):
    """Run one worker process to completion; returns (its JSON, spawn time)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", str(scratch)]
    if args.selftest_inject_fault:
        cmd.append("--fault")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One BLAS thread: the only BLAS call is a 4-point polyfit, and idle BLAS
    # threads would only add noise to cpu_s.
    env["OPENBLAS_NUM_THREADS"] = "1"
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {args.workload} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker for {args.workload} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def normalised_time(iterations: list, which: int) -> float:
    """Sum over units of the unit's median normalised wall (0) or CPU (1) time."""
    units = iterations[0]["units"]
    return workloads.CAL_REF_S * sum(
        statistics.median(it["units"][unit][which] / it["units"][unit][which + 2]
                          for it in iterations)
        for unit in units)


def flatten_checks(result: dict, tag: str) -> list:
    return [[f"{tag}#{n}:{name}", ok, detail]
            for n, it in enumerate(result["iterations"])
            for name, ok, detail in it["checks"]]


def repeat_checks(results: dict, args) -> list:
    """Exact counts must repeat across iterations, processes and runs."""
    checks = []
    runs = {tag: [it["counts"] for it in r["iterations"]] for tag, r in results.items()}
    for tag, counts in runs.items():
        bad = [n for n, c in enumerate(counts) if c != counts[0]]
        checks.append([f"counts-repeat:{tag}-iterations", not bad, bad])
        traced = [it["trace"]["counts"] for it in results[tag]["iterations"]
                  if "trace" in it]
        calls = [layers.calls_by_function(it["trace"]["stats"])
                 for it in results[tag]["iterations"] if "trace" in it]
        if traced:
            ok = all(t == traced[0] for t in traced) and all(c == calls[0] for c in calls)
            checks.append([f"counts-repeat:{tag}-traced-iterations", ok, ""])
            shared = sorted(set(traced[0]) & set(counts[0]))
            diff = [k for k in shared if traced[0][k] != counts[0][k]]
            checks.append([f"counts-agree:{tag}-boundaries-vs-workload", not diff, diff])
    first_tag, first = next((tag, counts[0]) for tag, counts in runs.items())
    for tag, counts in runs.items():
        if tag == first_tag:
            continue
        checks.append([f"counts-repeat:{first_tag}-vs-{tag}", counts[0] == first,
                       sorted(k for k in set(first) | set(counts[0])
                              if first.get(k) != counts[0].get(k))])
    if not args.selftest_inject_fault:
        path = OUT / "counts" / f"{args.workload}-seed{args.seed}.json"
        if path.exists():
            earlier = json.loads(path.read_text())
            diff = sorted(k for k in set(earlier) | set(first)
                          if earlier.get(k) != first.get(k))
            checks.append(["counts-repeat:earlier-run", not diff,
                           f"{diff} differ from {path}; remove it if the program changed"])
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
    return checks


def end_to_end(args, scratch: Path, deadline: float):
    setup, setup_cal = [], []
    for n in range(SETUP_SAMPLES + 1):
        # The kernel runs here right before the spawn and in the worker right
        # after its set-up; their mean is the host's speed during the set-up.
        before = workloads.kernel_wall_s()
        res, spawned = spawn(args, scratch, trace=0, setup_only=n < SETUP_SAMPLES,
                             deadline=deadline, seconds=args.seconds)
        setup.append(res["ready"] - spawned)
        setup_cal.append((before + res["cal_wall_s"]) / 2)
    its = res["iterations"]
    metrics = {
        "wall_s": normalised_time(its, 0),
        "cpu_s": normalised_time(its, 1),
        "setup_s": workloads.CAL_REF_S * statistics.median(
            s / c for s, c in zip(setup, setup_cal)),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    checks = flatten_checks(res, "run") + repeat_checks({"run": res}, args)
    measured = {"wall_s": statistics.median(it["wall_s"] for it in its),
                "cpu_s": statistics.median(it["cpu_s"] for it in its),
                "setup_s": statistics.median(setup)}
    detail = {"measured": measured, "setup_samples_s": setup,
              "setup_kernel_s": setup_cal, "run": res}
    return metrics, END_TO_END_UNITS, checks, detail


def per_layer(args, scratch: Path, deadline: float):
    half = args.seconds / 2
    plain, _ = spawn(args, scratch, trace=0, setup_only=False, deadline=deadline,
                     seconds=half)
    traced, _ = spawn(args, scratch, trace=1, setup_only=False, deadline=deadline,
                      seconds=half)
    checks = flatten_checks(plain, "untraced") + flatten_checks(traced, "traced")
    checks += repeat_checks({"untraced": plain, "traced": traced}, args)

    its = traced["iterations"]
    per_it = [layers.layer_values(it["trace"]["stats"], it["trace"]["counts"]) for it in its]
    units = layers.metric_units()
    metrics = {name: statistics.median(v[name] for v in per_it)
               for name in units if name in per_it[0]}
    layers.add_growth(metrics)
    traced_wall = normalised_time(its, 0)
    coverage = statistics.median(it["trace"]["top_level_s"] / it["wall_s"]
                                 if it["wall_s"] else 0.0 for it in its)
    metrics["wavecheck.import.s"] = traced["import_s"]
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - normalised_time(plain["iterations"], 0)
    metrics["trace.coverage"] = coverage

    calls = layers.calls_by_function(its[-1]["trace"]["stats"])
    for fn in layers.REQUIRED[args.workload]:
        checks.append([f"layer-called:{fn}", calls.get(fn, 0) > 0, calls.get(fn, 0)])
    checks.append(["top-level-coverage", coverage >= MIN_COVERAGE, coverage])
    metrics = {name: metrics[name] for name in units}
    detail = {"untraced": plain, "traced": traced}
    return metrics, units, checks, detail


def summary(args, metrics: dict, units: dict, checks: list) -> str:
    lines = [f"{args.workload} seed={args.seed} trace={args.trace}"]
    for name, value in metrics.items():
        if value or args.trace == 0:
            lines.append(f"  {name:52s} {value:14.6g} {units[name]}")
    failed = [c for c in checks if not c[1]]
    lines.append(f"  checks: {len(checks) - len(failed)}/{len(checks)} passed, "
                 f"fail_ratio {len(failed) / len(checks):.4f}")
    lines += [f"  FAILED {name}: {detail}" for name, _, detail in failed[:20]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest-inject-fault", action="store_true",
                        help="catalog only: corrupt one claim to prove failures count")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.selftest_inject_fault and args.workload != "catalog":
        parser.error("--selftest-inject-fault applies to the catalog workload only")
    if not (ROOT / "src" / "wavecheck" / "__init__.py").is_file():
        print(f"error: no wavecheck package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, units, checks, detail = measure(args, scratch, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(1 for c in checks if not c[1])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"metrics": metrics, "checks": checks, **detail}, indent=1) + "\n")
    print(summary(args, metrics, units, checks), file=sys.stderr)
    if "measured" in detail:
        print("  measured, not normalised: " + ", ".join(
            f"{name} {value:.6g} s" for name, value in detail["measured"].items()),
            file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
