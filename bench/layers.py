"""Which wavecheck functions the traced run wraps, and the per-layer metrics.

Layer names follow ``<module>.<public function>[.<grid>].<unit>``.  Grids are
labelled ``<i_max>x<k_max>``; a grid outside the lists below is reported
under ``other`` so that a new grid in the catalog still shows up.
"""

from __future__ import annotations

import importlib
import inspect

from tracer import Tracer

PACKAGE = "wavecheck"

#: Shadow-run grids: the exact-roundoff ladder and its reconstruction grids,
#: which include the catalog's round-off grids.
RECON_GRIDS = ("8x16", "12x24", "16x32")
SHADOW_LADDER = ("20x40", "40x80", "80x160")
RO_GRIDS = RECON_GRIDS + SHADOW_LADDER
#: binary64 marches: the shadow grids, the order chain 50..400 and the large march.
B64_LADDER = ("50x100", "100x200", "200x400", "400x800")
B64_GRIDS = RO_GRIDS + B64_LADDER + ("1600x3200",)

#: Growth curves: per-step time ratio along each ladder.
RECON_LADDER = RECON_GRIDS

FUNDAMENTAL = ("lambda_via_jacobi", "lambda_closed_form", "check_binomial_identity",
               "check_zeilberger_recurrences", "check_certificate", "build_table")
ANALYSIS = ("convergence_error", "truncation_error", "max_norm_over_time",
            "estimate_order")
ENERGY = ("energy_series", "energy_lower_bound_gap")

CLAIM_IDS = (
    "convergence-order", "truncation-order", "energy-constant", "energy-lower-bound",
    "row-sums-linear", "closed-form-equivalence", "fundamental-nonnegative",
    "binomial-identities", "telescoping-recurrences", "global-error-reconstruction",
    "local-error-bound", "global-error-bound", "total-error-bound",
    "constants-derivation",
)

#: Functions each workload must call; zero calls in a traced run is a failure.
REQUIRED = {
    "catalog": ["cli.main", "report.run_claims"]
    + [f"report.claim.{c}" for c in CLAIM_IDS]
    + [f"fundamental.{f}" for f in FUNDAMENTAL]
    + ["roundoff.shadow_solve", "roundoff.check_global_bound",
       "roundoff.reconstruct_global_error", "roundoff.max_abs_delta", "scheme.solve",
       "problem.reference_eval"]
    + [f"analysis.{f}" for f in ANALYSIS] + [f"energy.{f}" for f in ENERGY],
    "exact-roundoff": ["roundoff.shadow_solve", "roundoff.local_errors",
                       "roundoff.check_global_bound", "roundoff.max_abs_delta",
                       "roundoff.reconstruct_global_error", "fundamental.build_table",
                       "scheme.solve"],
    "binary64-order": [f"analysis.{f}" for f in ANALYSIS]
    + ["scheme.solve", "problem.reference_eval"],
}


def grid_name(i_max: int, k_max: int, known) -> str:
    name = f"{i_max}x{k_max}"
    return name if name in known else "other"


def convolution_terms(i_max: int, k_max: int) -> int:
    """Terms visited by the reconstruction: (i_max+1) * sum_k (k+1)^2."""
    return (i_max + 1) * (k_max + 1) * (k_max + 2) * (2 * k_max + 3) // 6


def exact_bits(run) -> int:
    """Largest numerator or denominator bit length in the exact field, delta and Delta."""
    best = 0
    tables = ([run.exact_run.column(k) for k in range(run.k_max + 1)],
              run.delta, run.global_err)
    for table in tables:
        for col in table:
            for v in col:
                n = max(v.numerator.bit_length(), v.denominator.bit_length())
                if n > best:
                    best = n
    return best


def _binder(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; raises MissingLayerError if one is gone."""
    wc = importlib.import_module(PACKAGE)
    for sub in ("cli", "report", "fundamental", "roundoff", "scheme", "analysis",
                "energy", "problem"):
        importlib.import_module(f"{PACKAGE}.{sub}")
    report, roundoff, scheme, problem = wc.report, wc.roundoff, wc.scheme, wc.problem

    tracer.patch_function("cli", "main", "cli.main")
    tracer.patch_function("report", "run_claims", "report.run_claims")
    found = {}
    for index, entry in enumerate(report.CLAIMS):
        claim_id, statement, fn = entry
        found[claim_id] = index
        wrapped = tracer.wrap(fn, f"report.claim.{claim_id}")
        tracer.patch_item(report.CLAIMS, index, (claim_id, statement, wrapped), entry)
    missing = [c for c in CLAIM_IDS if c not in found]
    if missing:
        raise MissingLayerError(f"claims missing from report.CLAIMS: {missing}")

    for name in FUNDAMENTAL:
        tracer.patch_function("fundamental", name, f"fundamental.{name}",
                              hot=name != "build_table")
    for name in ANALYSIS:
        tracer.patch_function("analysis", name, f"analysis.{name}")
    tracer.patch_function("energy", "energy_series", "energy.energy_series")
    tracer.patch_function("energy", "energy_lower_bound_gap",
                          "energy.energy_lower_bound_gap", hot=True)
    for method in ("value", "partial"):
        tracer.patch_method(problem.StandingWave, method, "problem.reference_eval",
                            hot=True)

    solve_args = _binder(scheme.solve)

    def solve_label(args, kwargs):
        a = solve_args(args, kwargs)
        g = a["g"]
        kind = a["kind"] or g.kind
        known = B64_GRIDS if kind == "binary64" else RO_GRIDS
        return f"scheme.solve.{kind}.{grid_name(g.i_max, g.k_max, known)}"

    def count_nodes(tr, label, args, kwargs, result):
        g = result.grid
        tr.add_count(f"{label}.nodes", (g.i_max - 1) * g.k_max)

    tracer.patch_function("scheme", "solve", solve_label, after=count_nodes)

    def run_label(layer):
        def label(args, kwargs):
            run = args[0] if args else kwargs["run"]
            g = run.grid
            return f"roundoff.{layer}.{grid_name(g.i_max, g.k_max, RO_GRIDS)}"
        return label

    shadow_args = _binder(roundoff.shadow_solve)

    def shadow_label(args, kwargs):
        g = shadow_args(args, kwargs)["g"]
        return f"roundoff.shadow_solve.{grid_name(g.i_max, g.k_max, RO_GRIDS)}"

    def count_bits(tr, label, args, kwargs, result):
        key = label.replace("shadow_solve", "exact_bits") + ".bits"
        tr.counts[key] = max(tr.counts.get(key, 0), exact_bits(result))

    tracer.patch_function("roundoff", "shadow_solve", shadow_label, after=count_bits)
    tracer.patch_function("roundoff", "local_errors", run_label("local_errors"))
    tracer.patch_function("roundoff", "check_global_bound",
                          run_label("check_global_bound"))
    tracer.patch_function("roundoff", "max_abs_delta", "roundoff.max_abs_delta")

    recon_args = _binder(roundoff.reconstruct_global_error)

    def recon_grid(args, kwargs):
        a = recon_args(args, kwargs)
        return a["i_max"], len(a["delta"]) - 1

    def recon_label(args, kwargs):
        i_max, k_max = recon_grid(args, kwargs)
        return f"roundoff.reconstruct_global_error.{grid_name(i_max, k_max, RECON_GRIDS)}"

    def count_terms(tr, label, args, kwargs, result):
        tr.add_count(f"{label}.terms", convolution_terms(*recon_grid(args, kwargs)))

    tracer.patch_function("roundoff", "reconstruct_global_error", recon_label,
                          after=count_terms)


def calls_by_function(stats: dict) -> dict:
    """Calls per function, summed over grids and scalar kinds."""
    out = {}
    for label, (calls, _, _) in stats.items():
        parts = label.split(".")
        key = ".".join(parts[:3]) if parts[0] == "report" else ".".join(parts[:2])
        out[key] = out.get(key, 0) + calls
    return out


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    m = {}
    for f in FUNDAMENTAL:
        m[f"fundamental.{f}.s"] = "s"
        m[f"fundamental.{f}.calls"] = "calls"
    for g in RECON_GRIDS + ("other",):
        m[f"roundoff.reconstruct_global_error.{g}.s"] = "s"
        m[f"roundoff.reconstruct_global_error.{g}.terms"] = "terms"
    for layer in ("shadow_solve", "local_errors", "check_global_bound"):
        for g in RO_GRIDS + ("other",):
            m[f"roundoff.{layer}.{g}.s"] = "s"
    for g in RO_GRIDS + ("other",):
        m[f"roundoff.exact_bits.{g}.bits"] = "bits"
    m["roundoff.max_abs_delta.s"] = "s"
    for g in RO_GRIDS + ("other",):
        m[f"scheme.solve.exact.{g}.s"] = "s"
        m[f"scheme.solve.exact.{g}.nodes"] = "nodes"
    for g in B64_GRIDS + ("other",):
        m[f"scheme.solve.binary64.{g}.s"] = "s"
    for prefix, ladder in _growth_ladders():
        for g in ladder[1:]:
            m[f"{prefix}.{g}.growth"] = "ratio"
    m["problem.reference_eval.s"] = "s"
    m["problem.reference_eval.calls"] = "calls"
    for f in ANALYSIS:
        m[f"analysis.{f}.s"] = "s"
    for f in ENERGY:
        m[f"energy.{f}.s"] = "s"
    for c in CLAIM_IDS:
        m[f"report.claim.{c}.s"] = "s"
    m["cli.artifacts.s"] = "s"
    m["wavecheck.import.s"] = "s"
    m["trace.wall_s"] = "s"
    m["trace.overhead_s"] = "s"
    m["trace.coverage"] = "ratio"
    return m


def _growth_ladders():
    return (("roundoff.shadow_solve", SHADOW_LADDER),
            ("roundoff.reconstruct_global_error", RECON_LADDER),
            ("scheme.solve.binary64", B64_LADDER))


def layer_values(stats: dict, counts: dict) -> dict:
    """Per-layer metric values of one traced iteration (0 for layers not called)."""
    values = {}
    for name, unit in metric_units().items():
        base = name.rsplit(".", 1)[0]
        if unit == "s":
            values[name] = stats.get(base, (0, 0.0, 0.0))[1]
        elif unit == "calls":
            values[name] = stats.get(base, (0, 0.0, 0.0))[0]
        elif unit in ("nodes", "terms", "bits"):
            values[name] = counts.get(name, 0)
    values["cli.artifacts.s"] = (stats.get("cli.main", (0, 0.0))[1]
                                 - stats.get("report.run_claims", (0, 0.0))[1])
    return values


def add_growth(values: dict) -> None:
    """Time ratio of each ladder step to the step before it (0 if either is absent)."""
    for prefix, ladder in _growth_ladders():
        for prev, cur in zip(ladder, ladder[1:]):
            before = values[f"{prefix}.{prev}.s"]
            after = values[f"{prefix}.{cur}.s"]
            values[f"{prefix}.{cur}.growth"] = after / before if before and after else 0.0
