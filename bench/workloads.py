"""The benchmark's workloads: inputs from a seed, timed calls, verdict checks.

Each workload has a ``setup(seed, scratch, fault)`` that builds everything the
timed phase needs, and a ``run(state, timer, checks)`` that makes the timed
calls into wavecheck's public API inside ``with timer(unit):`` blocks, checks
every verdict outside them, and returns counts that are computed from inputs
and outputs (never measured), so they must repeat exactly.

The units are short (a second at most) so that a run repeats each of them
many times; ``run.py`` reports the sum over units of each unit's median
normalised time (see ``Timer``).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json
import statistics
import time
from array import array
from fractions import Fraction
from pathlib import Path

import layers

GOLDENS = Path(__file__).with_name("goldens.json")

#: Report seeds with recorded expected claims.json; the benchmark seed picks one.
CATALOG_SEEDS = tuple(range(20130, 20140))

#: First-datum scales s in u0 = s x (1 - x): |u0| <= 1/4 and u0(0) = u0(1) = 0.
#: Seed 0 gives the package's stock datum x (1 - x).
DATUM_SCALES = tuple(Fraction(n, 8) for n in (8, -8, 7, -7, 6, -6, 5, -5))

#: Claim sizes of the catalog's report, scaled down from the default
#: ClaimConfig so that one report takes about three seconds; every claim keeps
#: its kind of work and its status.
CATALOG_SIZES = {
    "order_chain": (50, 100, 200),
    "random_runs": 20,
    "row_sum_kmax": 100,
    "closed_form_kmax": 16,
    "nonneg_kmax": 50,
    "identity_kmax": 20,
    "zeilberger_kmax": 16,
    "certificate_samples": 200,
    "reconstruction_grids": ((8, 16), (16, 32)),
    "local_bound_grid": (40, 80),
}

LADDER = ((20, 40), (40, 80), (80, 160))
RECON = ((8, 16), (12, 24), (16, 32))
ORDER_CHAIN = (50, 100, 200, 400)
ORDER_CN = 0.5
BIG_IMAX = 1600
SLOPE_BAND = (1.8, 2.2)


#: Nominal time of ``calibration_kernel``.  A unit's normalised time is its
#: measured time times CAL_REF_S over the kernel's time around it, so it reads
#: as seconds on a host where the kernel takes this long.
CAL_REF_S = 0.002


def calibration_kernel():
    """Fixed rational arithmetic, the kind of work wavecheck's exact paths do.

    Of the kernels tried (this one, float loops, big-integer products, and
    this one plus a large float list), this one tracked the host's speed best
    on all three workloads: a list of floats slows down as the process's heap
    ages, which the workloads do not.
    """
    total = Fraction(0)
    for n in range(1, 600):
        total += Fraction(1, n)
    return total


def measure(fn, *args):
    """(wall, cpu) seconds of one call."""
    wall, cpu = time.perf_counter(), time.process_time()
    fn(*args)
    return time.perf_counter() - wall, time.process_time() - cpu


def calibrate():
    """(wall, cpu) seconds of ``calibration_kernel``, with the cyclic collector
    off so that the heap the workload has built does not show in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return measure(calibration_kernel)
    finally:
        if enabled:
            gc.enable()


def kernel_wall_s(samples: int = 5) -> float:
    """Median wall time of a few kernels in a row: the host's speed now."""
    return statistics.median(calibrate()[0] for _ in range(samples))


class Timer:
    """Wall and CPU time of each named unit of one iteration.

    ``calibration_kernel`` runs right before and right after each unit; the
    mean of the two tells how fast the shared host ran meanwhile.  ``units``
    maps a unit to (wall, cpu, kernel wall, kernel cpu).
    """

    def __init__(self):
        self.units = {}

    @contextlib.contextmanager
    def __call__(self, unit: str):
        before = calibrate()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - wall
            after = calibrate()
            w, c, kw, kc = self.units.get(unit, (0.0, 0.0, 0.0, 0.0))
            self.units[unit] = (w + wall, c + cpu, kw + (before[0] + after[0]) / 2,
                                kc + (before[1] + after[1]) / 2)

    @property
    def wall_s(self) -> float:
        return sum(u[0] for u in self.units.values())

    @property
    def cpu_s(self) -> float:
        return sum(u[1] for u in self.units.values())


class Checks:
    """Verdicts of one iteration: (name, passed, detail)."""

    def __init__(self):
        self.results = []

    def check(self, name: str, ok: bool, detail="") -> None:
        self.results.append((name, bool(ok), str(detail)[:300]))


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def masked_claims(claims: dict) -> dict:
    """claims.json without the wall-clock ``seconds`` field of each claim."""
    out = dict(claims)
    out["claims"] = [{k: v for k, v in c.items() if k != "seconds"}
                     for c in claims["claims"]]
    return out


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def field_digest(run) -> str:
    """SHA-256 of the field's IEEE-754 binary64 bytes, column by column."""
    h = hashlib.sha256()
    for k in range(run.grid.k_max + 1):
        h.update(array("d", run.column(k)).tobytes())
    return h.hexdigest()


def catalog_counts(claims: dict) -> dict:
    """Work counts read off the report's evidence (exact, seed-dependent)."""
    ev = {c["id"]: c["evidence"] for c in claims["claims"]}
    counts = {}
    cf = ev.get("closed-form-equivalence", {})
    if "k_max" in cf and "a_values" in cf:
        counts["fundamental.closed_form_entries"] = len(cf["a_values"]) * (cf["k_max"] + 1) ** 2
    if "triples" in ev.get("binomial-identities", {}):
        counts["fundamental.identity_triples"] = ev["binomial-identities"]["triples"]
    tel = ev.get("telescoping-recurrences", {})
    if "recurrence_triples" in tel:
        counts["fundamental.recurrence_triples"] = tel["recurrence_triples"]
        counts["fundamental.certificate_identities"] = tel["certificate_identities_checked"]
    for i_max, k_max in ev.get("global-error-reconstruction", {}).get("grids", []):
        g = layers.grid_name(i_max, k_max, layers.RECON_GRIDS)
        counts[f"roundoff.reconstruct_global_error.{g}.terms"] = \
            layers.convolution_terms(i_max, k_max)
    return counts


# --- catalog -----------------------------------------------------------------


def scale_catalog() -> None:
    """Make ``wavecheck report`` use CATALOG_SIZES (the CLI has no flags for them)."""
    from wavecheck import cli, report

    cli.ClaimConfig = functools.partial(report.ClaimConfig, **CATALOG_SIZES)


def catalog_setup(seed: int, scratch: Path, fault: bool):
    scale_catalog()

    report_seed = CATALOG_SEEDS[seed % len(CATALOG_SEEDS)]
    golden = load_goldens()["catalog"][str(report_seed)]
    out = scratch / "catalog"
    out.mkdir(parents=True, exist_ok=True)
    argv = ["report", "--seed", str(report_seed), "--out", str(out)]
    if fault:
        argv.append("--selftest-inject-fault")
    return {"argv": argv, "out": out, "golden": golden}


def catalog_run(state, timer: Timer, checks: Checks) -> dict:
    """The report claim by claim, each as ``wavecheck report --only <claim>``."""
    from wavecheck import cli

    golden = state["golden"]
    results = []
    for claim_id in layers.CLAIM_IDS:
        with timer(f"claim:{claim_id}"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(state["argv"] + ["--only", claim_id])
        checks.check(f"exit-code:{claim_id}", code == 0, code)
        claims = json.loads((state["out"] / "claims.json").read_text())
        result = next(c for c in masked_claims(claims)["claims"] if c["id"] == claim_id)
        checks.check(f"status:{claim_id}", result["status"] == golden["status"][claim_id],
                     f"{result['status']} != {golden['status'][claim_id]}")
        checks.check(f"claims.json:{claim_id}",
                     digest(result) == golden["claim_sha256"][claim_id],
                     "differs from the recorded output")
        results.append(result)
    return catalog_counts({"claims": results})


# --- exact-roundoff ----------------------------------------------------------


def exact_setup(seed: int, scratch: Path, fault: bool):
    from wavecheck import build_grid
    from wavecheck.problem import Polynomial, WaveProblem

    s = DATUM_SCALES[seed % len(DATUM_SCALES)]
    problem = WaveProblem(c=1, u0=Polynomial((0, s, -s)), u1=None, s=None)
    ladder = [build_grid(0, 1, 1, i, k) for i, k in LADDER]
    recon = [build_grid(0, 1, 1, i, k) for i, k in RECON]
    return {"problem": problem, "ladder": ladder, "recon": recon}


def exact_run(state, timer: Timer, checks: Checks) -> dict:
    from wavecheck import fundamental, roundoff

    counts = {}
    prob = state["problem"]
    for g in state["ladder"]:
        name = f"{g.i_max}x{g.k_max}"
        with timer(f"shadow_solve:{name}"):
            run = roundoff.shadow_solve(prob, g)
        with timer(f"bounds:{name}"):
            worst = roundoff.max_abs_delta(run)
            bound = roundoff.check_global_bound(run)
        with timer(f"local_errors:{name}"):
            local = roundoff.local_errors(run)
        checks.check(f"local-bound:{name}", worst <= roundoff.LOCAL_BOUND, float(worst))
        checks.check(f"global-bound:{name}", bound.ok, bound.violations[:3])
        checks.check(f"norm-level-bound:{name}", bound.norm_level_ok is not False,
                     bound.norm_level_ok)
        checks.check(f"local-errors-recomputed:{name}", local == run.delta)
        counts[f"scheme.solve.exact.{name}.nodes"] = (g.i_max - 1) * g.k_max
        counts[f"roundoff.exact_bits.{name}.bits"] = layers.exact_bits(run)
        del run, local
    for g in state["recon"]:
        name = f"{g.i_max}x{g.k_max}"
        with timer(f"shadow_solve:{name}"):
            run = roundoff.shadow_solve(prob, g)
        with timer(f"reconstruct:{name}"):
            table = fundamental.build_table(run.a_exact, g.k_max)
            rec = roundoff.reconstruct_global_error(run.delta, table, g.i_max)
        mismatch = next(((i, k) for k in range(g.k_max + 1) for i in range(g.i_max + 1)
                         if rec[k][i] != run.global_err[k][i]), None)
        checks.check(f"reconstruction:{name}", mismatch is None, mismatch)
        counts[f"scheme.solve.exact.{name}.nodes"] = (g.i_max - 1) * g.k_max
        counts[f"roundoff.exact_bits.{name}.bits"] = layers.exact_bits(run)
        counts[f"roundoff.reconstruct_global_error.{name}.terms"] = \
            layers.convolution_terms(g.i_max, g.k_max)
        del run, rec
    return counts


# --- binary64-order ----------------------------------------------------------


def order_setup(seed: int, scratch: Path, fault: bool):
    from wavecheck import analysis, standing_wave

    wave = standing_wave(1, 1)
    return {
        "wave": wave,
        "chain": analysis.refinement_chain(ORDER_CHAIN, ORDER_CN, 1.0),
        "big": analysis.refinement_chain([BIG_IMAX], ORDER_CN, 1.0)[0],
        "problem": analysis.problem_for(wave),
        "golden": load_goldens()["binary64-order"],
    }


def order_run(state, timer: Timer, checks: Checks) -> dict:
    from wavecheck import analysis, scheme

    lo, hi = SLOPE_BAND
    for mode in ("convergence", "truncation"):
        with timer(f"order:{mode}"):
            fit = analysis.estimate_order(state["wave"], state["chain"], mode=mode)
        checks.check(f"slope:{mode}", lo <= fit.slope <= hi, fit.slope)
    g = state["big"]
    with timer("solve"):
        run = scheme.solve(state["problem"], g)
    field = field_digest(run)
    del run
    checks.check(f"field-digest:{g.i_max}x{g.k_max}",
                 field == state["golden"]["field_sha256"], field)
    return {f"scheme.solve.binary64.{c.i_max}x{c.k_max}.nodes": (c.i_max - 1) * c.k_max
            for c in state["chain"] + [g]}


#: name -> (why, setup, run, number of checks per iteration)
WORKLOADS = {
    "catalog": (
        "wavecheck report claim by claim, at scaled-down claim sizes; only workload "
        "with the energy claims, identity sweeps, artifact writing and shadow runs "
        "repeated across claims",
        catalog_setup, catalog_run, 3 * len(layers.CLAIM_IDS)),
    "exact-roundoff": (
        "exact march, float-to-rational conversion, local-error table and "
        "convolution on growing grids, where exact operand size drives the cost",
        exact_setup, exact_run, 4 * len(LADDER) + len(RECON)),
    "binary64-order": (
        "float-only order fits on 50..400 and a 1600x3200 binary64 march: no "
        "Fraction, memory-heavy; exact-path changes must not move it",
        order_setup, order_run, 3),
}
