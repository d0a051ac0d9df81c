"""Claims catalog: every quantitative claim the package checks, with status.

Each claim runs a self-contained experiment and returns a status from

* ``verified-exact``        -- zero-tolerance check, passed in exact arithmetic;
* ``verified-within-tolerance`` -- float measurement inside its stated band;
* ``witnessed``             -- universal claim sampled on a finite range,
                               every sample exact (nonnegativity, random runs);
* ``violated``              -- a check failed; evidence names the location;
* ``errored``               -- the check itself raised; evidence names the
                               exception type and the function it came from,
                               and nothing about the claim is decided;
* ``skipped``               -- disabled by configuration.

A report with a violated or errored claim exits nonzero.

The acceptance test suite drives these same functions at the documented
parameters, so the CLI report and the test suite cannot drift apart.  The
CLI subcommands run the same sweeps: a claim stops at the first failure, a
subcommand collects them all.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import analysis, energy, fundamental, roundoff
from .errors import ParameterError
from .grid import build_grid
from .problem import WaveProblem, default_problem, standing_wave
from .scalars import BINARY64, EXACT, sqrt_bounds, to_fraction
from .scheme import DEFAULT_XI, solve

VERIFIED_EXACT = "verified-exact"
VERIFIED_TOL = "verified-within-tolerance"
WITNESSED = "witnessed"
VIOLATED = "violated"
ERRORED = "errored"
SKIPPED = "skipped"


#: Courant number of the order and total-error refinement chains.
ORDER_CN = 0.5
#: Band the fitted log-log order slope must fall in.
SLOPE_BAND = (1.8, 2.2)
#: Grid and end time of the exact zero-source energy run.
ENERGY_IMAX, ENERGY_KMAX, ENERGY_TMAX = 50, 50, Fraction(1, 2)
#: Stiffness coefficients of the row-sum and closed-form sweeps.
A_VALUES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))
#: Coefficients sampled in (0, 1) by the nonnegativity witness.
NONNEG_SAMPLES = 20
#: Largest k of the randomly placed telescoping certificates.
CERTIFICATE_KMAX = 20
#: i_max chain of the total-error claim.
TOTAL_ERROR_CHAIN = (50, 100, 200)
#: Random parameter sets of the constants derivation.
CONSTANTS_SETS = 20


@dataclass
class ClaimConfig:
    """Sizes and seed of the catalog; defaults match the documented acceptance runs."""

    order_chain: tuple = (50, 100, 200, 400)
    random_runs: int = 50
    random_seed: int = 20130
    row_sum_kmax: int = 200
    closed_form_kmax: int = 40
    nonneg_kmax: int = 100
    identity_kmax: int = 30
    zeilberger_kmax: int = 25
    certificate_samples: int = 500
    reconstruction_grids: tuple = ((10, 20), (20, 40))
    local_bound_grid: tuple = (100, 200)
    inject_wrong_a: bool = False  # fault-injection hook for exercising "violated"


@dataclass
class ClaimResult:
    claim_id: str
    statement: str
    status: str
    evidence: dict
    seconds: float


@dataclass
class ClaimsReport:
    results: list

    @property
    def violated(self) -> list:
        return [r for r in self.results if r.status == VIOLATED]

    @property
    def errored(self) -> list:
        return [r for r in self.results if r.status == ERRORED]

    @property
    def exit_code(self) -> int:
        return 1 if self.violated or self.errored else 0

    def to_dict(self) -> dict:
        """Verdicts only: deterministic for a fixed configuration."""
        return {
            "claims": [
                {
                    "id": r.claim_id,
                    "statement": r.statement,
                    "status": r.status,
                    "evidence": r.evidence,
                }
                for r in self.results
            ],
            "violated": len(self.violated),
            "errored": len(self.errored),
        }

    def timings(self) -> dict:
        """Wall-clock seconds per claim, kept apart from the verdicts."""
        return {
            "claims": [{"id": r.claim_id, "seconds": round(r.seconds, 3)}
                       for r in self.results],
            "total_seconds": round(sum(r.seconds for r in self.results), 3),
        }

    def to_text(self) -> str:
        lines = []
        width = max(len(r.claim_id) for r in self.results)
        for r in self.results:
            lines.append(f"{r.claim_id.ljust(width)}  {r.status.upper():27s}  "
                         f"{r.statement}")
        lines.append(f"violated: {len(self.violated)} / {len(self.results)}")
        if self.errored:
            lines.append(f"errored: {len(self.errored)} / {len(self.results)}")
        return "\n".join(lines)


# --- sweeps shared with the CLI ----------------------------------------------
#
# ``fundamental`` functions are looked up on the module at call time, so that
# wrappers installed on the module see every call.


def closed_form_failures(table: fundamental.FundamentalTable):
    """``(form, i, k)`` wherever a table entry differs from the closed form
    (``form == "closed"``) or from the Jacobi representation (``"jacobi"``)."""
    a = table.a
    for k in range(table.K + 1):
        for i in range(-k, k + 1):
            rec = table.entry(i, k)
            if rec != fundamental.lambda_closed_form(a, i, k):
                yield "closed", i, k
            if rec != fundamental.lambda_via_jacobi(a, i, k):
                yield "jacobi", i, k


def row_sum_failures(table: fundamental.FundamentalTable):
    """``(k, row sum)`` wherever the row sum of the fundamental solution is not k."""
    for k in range(table.K + 2):
        total = fundamental.row_sum(table, k)
        if total != k:
            yield k, total


def triple_count(k_max: int) -> int:
    """Number of ordered triples ``0 <= i <= n <= k <= k_max``."""
    return math.comb(k_max + 3, 3)


def identity_failures(check, k_max: int):
    """``(i, n, k)`` of every ordered triple up to ``k_max`` where ``check`` fails."""
    for k in range(k_max + 1):
        for n in range(k + 1):
            for i in range(n + 1):
                if not check(i, n, k):
                    yield i, n, k


def certificate_samples(rng: random.Random, samples: int, k_max: int):
    """Telescoping-certificate results at random ``0 <= i <= p <= n <= k <= k_max``."""
    for _ in range(samples):
        k = rng.randint(0, k_max)
        n = rng.randint(0, k)
        i = rng.randint(0, n)
        p = rng.randint(i, n)
        yield fundamental.check_certificate(i, n, k, p)


def reconstruction_mismatch(run: roundoff.ShadowRun, a):
    """``(i, k, reconstructed, measured)`` at the first node, time step by time
    step, where the convolution with the table for ``a`` misses the measured
    global error; None when they agree everywhere."""
    table = fundamental.build_table(a, run.k_max)
    rec = roundoff.reconstruct_global_error(run.delta, table, run.i_max)
    for k, (rec_col, measured_col) in enumerate(zip(rec, run.global_err)):
        for i, (r, m) in enumerate(zip(rec_col, measured_col)):
            if r != m:
                return i, k, r, m
    return None


def total_error_rows(wave, consts: analysis.ErrorConstants, chain, cn, t_max=1.0):
    """``dx``, ``dt``, measured max-over-time error of ``wave`` and its a-priori
    bound, per grid of the fixed-``cn`` refinement chain over ``chain``."""
    prob = analysis.problem_for(wave)
    for g in analysis.refinement_chain(chain, cn, wave.c, t_max=t_max):
        run = solve(prob, g)
        err = analysis.max_norm_over_time(analysis.convergence_error(wave, run), g)
        bound = analysis.total_error_bound(consts, float(g.dx), float(g.dt))
        yield {"dx": float(g.dx), "dt": float(g.dt), "measured": err, "bound": bound}


# --- individual claims -------------------------------------------------------


def _order_claim(cfg: ClaimConfig, mode: str):
    wave = standing_wave(1, 1)
    grids = analysis.refinement_chain(cfg.order_chain, ORDER_CN, 1.0)
    fit = analysis.estimate_order(wave, grids, mode=mode)
    lo, hi = SLOPE_BAND
    ok = lo <= fit.slope <= hi
    # One (alpha, C) pair witnessing the quadratic growth over the family.
    c_witness = max(err / dx ** 2 for dx, err in fit.points)
    evidence = {
        "slope": fit.slope,
        "band": [lo, hi],
        "points": [[dx, err] for dx, err in fit.points],
        "witnessed_constant": c_witness,
        "witnessed_radius": max(dx for dx, _ in fit.points),
        "note": "uniform quadratic rate witnessed on this family, not proved",
    }
    return (VERIFIED_TOL if ok else VIOLATED), evidence


def claim_convergence_order(cfg: ClaimConfig):
    return _order_claim(cfg, "convergence")


def claim_truncation_order(cfg: ClaimConfig):
    return _order_claim(cfg, "truncation")


def claim_energy_constant(cfg: ClaimConfig):
    g = build_grid(0, 1, ENERGY_TMAX, ENERGY_IMAX, ENERGY_KMAX, EXACT)
    run = solve(default_problem(), g)
    series = energy.energy_series(run)
    drift = series.drift()
    evidence = {
        "grid": [ENERGY_IMAX, ENERGY_KMAX],
        "cn": str(run.cn),
        "energy": str(series.values[0]),
        "max_drift": str(drift),
    }
    return (VERIFIED_EXACT if drift == 0 else VIOLATED), evidence


def _random_exact_run(rng: random.Random, xi) -> object:
    i_max = rng.randint(4, 10)
    k_max = rng.randint(4, 12)
    g = build_grid(0, 1, 1, i_max, k_max, EXACT)
    cn = (1 - to_fraction(xi)) * Fraction(rng.randint(1, 16), 16)
    c = cn * g.dx / g.dt
    if c <= 0:
        c = Fraction(1, 2)

    def rand_vec():
        vec = [Fraction(0)] * (i_max + 1)
        for i in range(1, i_max):
            vec[i] = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        return vec

    source = None
    if rng.random() < 0.5:
        source = [rand_vec() for _ in range(k_max + 1)]
    prob = WaveProblem(c=c, u0=rand_vec(), u1=rand_vec(), s=source)
    return solve(prob, g, xi=xi)


def claim_energy_lower_bound(cfg: ClaimConfig):
    rng = random.Random(cfg.random_seed)
    xis = [Fraction(DEFAULT_XI), Fraction(1, 10), Fraction(1, 2)]
    checked = 0
    min_gap = None
    for j in range(cfg.random_runs):
        xi = xis[j % len(xis)]
        run = _random_exact_run(rng, xi)
        for k in range(run.grid.k_max):
            gap = energy.energy_lower_bound_gap(run, k)
            e = energy.discrete_energy(run, k)
            if gap < 0 or e < 0:
                return VIOLATED, {"run": j, "k": k, "gap": str(gap), "energy": str(e)}
            if min_gap is None or gap < min_gap:
                min_gap = gap
            checked += 1
    evidence = {"runs": cfg.random_runs, "half_steps": checked,
                "min_gap": float(min_gap)}
    return WITNESSED, evidence


def claim_row_sums(cfg: ClaimConfig):
    for a in A_VALUES:
        table = fundamental.build_table(a, cfg.row_sum_kmax)
        failure = next(row_sum_failures(table), None)
        if failure is not None:
            k, total = failure
            return VIOLATED, {"a": str(a), "k": k, "sum": str(total)}
    return VERIFIED_EXACT, {"k_max": cfg.row_sum_kmax,
                            "a_values": [str(a) for a in A_VALUES]}


def claim_closed_form(cfg: ClaimConfig):
    kmax = cfg.closed_form_kmax
    for a in A_VALUES:
        table = fundamental.build_table(a, kmax)
        failure = next(closed_form_failures(table), None)
        if failure is not None:
            form, i, k = failure
            return VIOLATED, {"a": str(a), "i": i, "k": k, "form": form}
    return VERIFIED_EXACT, {"k_max": kmax, "a_values": [str(a) for a in A_VALUES]}


def claim_nonnegativity(cfg: ClaimConfig):
    rng = random.Random(cfg.random_seed + 1)
    samples = [Fraction(j, NONNEG_SAMPLES + 1) for j in range(1, NONNEG_SAMPLES + 1)]
    # Nudge a few sample points off the uniform comb for variety.
    samples[::5] = [Fraction(rng.randint(1, 97), 98) for _ in samples[::5]]
    for a in samples:
        table = fundamental.build_table(a, cfg.nonneg_kmax)
        if not table.all_nonnegative():
            return VIOLATED, {"a": str(a)}
    return WITNESSED, {
        "k_max": cfg.nonneg_kmax,
        "a_samples": [str(a) for a in samples],
        "note": "nonnegativity verified on the tested range only",
    }


def claim_binomial_identities(cfg: ClaimConfig):
    kmax = cfg.identity_kmax
    failure = next(identity_failures(fundamental.check_binomial_identity, kmax), None)
    if failure is not None:
        i, n, k = failure
        return VIOLATED, {"i": i, "n": n, "k": k}
    return VERIFIED_EXACT, {"k_max": kmax, "triples": triple_count(kmax)}


def claim_telescoping(cfg: ClaimConfig):
    kmax = cfg.zeilberger_kmax
    failure = next(identity_failures(fundamental.check_zeilberger_recurrences, kmax), None)
    if failure is not None:
        i, n, k = failure
        return VIOLATED, {"i": i, "n": n, "k": k, "what": "recurrence"}
    rng = random.Random(cfg.random_seed + 2)
    checked = 0
    for res in certificate_samples(rng, cfg.certificate_samples, CERTIFICATE_KMAX):
        if not res.ok:
            return VIOLATED, {"point": res.point, "results": res.results}
        checked += res.checked
    return VERIFIED_EXACT, {
        "recurrence_triples": triple_count(kmax),
        "certificate_samples": cfg.certificate_samples,
        "certificate_identities_checked": checked,
        "certificate_skipped_zero_denominator": 3 * cfg.certificate_samples - checked,
    }


def claim_reconstruction(cfg: ClaimConfig):
    prob = default_problem()
    for i_max, k_max in cfg.reconstruction_grids:
        g = build_grid(0, 1, 1, i_max, k_max, BINARY64)
        run = roundoff.shadow_solve(prob, g)
        a = run.a_exact
        if cfg.inject_wrong_a:
            a = a / 2  # deliberately wrong table: must surface as violated
        mismatch = reconstruction_mismatch(run, a)
        if mismatch is not None:
            i, k, rec, measured = mismatch
            return VIOLATED, {
                "grid": [i_max, k_max], "first_mismatch": [i, k],
                "reconstructed": str(rec), "measured": str(measured),
            }
    return VERIFIED_EXACT, {"grids": [list(gk) for gk in cfg.reconstruction_grids],
                            "tolerance": "zero (rational arithmetic)"}


def claim_local_bound(cfg: ClaimConfig):
    i_max, k_max = cfg.local_bound_grid
    g = build_grid(0, 1, 1, i_max, k_max, BINARY64)
    run = roundoff.shadow_solve(default_problem(), g)
    if not run.a_gap_ok:
        return VIOLATED, {"reason": "stiffness coefficient gap exceeds 2^-49",
                          "a_float": run.a_float, "a_exact": str(run.a_exact)}
    if not run.range_ok:
        return VIOLATED, {"reason": "computed values escape [-2, 2]",
                          "at": run.range_violation}
    worst = roundoff.max_abs_delta(run)
    ok = worst <= roundoff.LOCAL_BOUND
    evidence = {
        "grid": [i_max, k_max],
        "max_abs_delta": float(worst),
        "bound": float(roundoff.LOCAL_BOUND),
        "ratio": float(worst / roundoff.LOCAL_BOUND),
    }
    return (VERIFIED_EXACT if ok else VIOLATED), evidence


def claim_global_bound(cfg: ClaimConfig):
    grids = list(cfg.reconstruction_grids) + [cfg.local_bound_grid]
    worst_ratio = Fraction(0)
    worst_at = None
    for i_max, k_max in grids:
        g = build_grid(0, 1, 1, i_max, k_max, BINARY64)
        run = roundoff.shadow_solve(default_problem(), g)
        rep = roundoff.check_global_bound(run)
        if not rep.ok:
            return VIOLATED, {"grid": [i_max, k_max], "violations": rep.violations[:5]}
        if rep.norm_level_ok is False:
            return VIOLATED, {"grid": [i_max, k_max], "reason": "norm-level bound"}
        if rep.max_ratio_exact > worst_ratio:
            worst_ratio = rep.max_ratio_exact
            worst_at = [i_max, k_max, list(rep.worst_node)]
    return VERIFIED_EXACT, {
        "grids": [list(gk) for gk in grids],
        "max_ratio": float(worst_ratio),
        "worst": worst_at,
        "norm_level": "holds on all runs",
    }


def claim_total_error(cfg: ClaimConfig):
    wave = standing_wave(1, 1)
    tc = wave.taylor_constants()
    consts = analysis.derive_constants(
        analysis.constants_margin(ORDER_CN), tc.C3, tc.C4, tc.alpha3, tc.alpha4,
        1.0, 1.0, 0.0, 1.0
    )
    rows = []
    for row in total_error_rows(wave, consts, TOTAL_ERROR_CHAIN, ORDER_CN):
        rows.append(row)
        if row["measured"] > row["bound"]:
            return VIOLATED, {"at": row}
    return VERIFIED_TOL, {
        "C_e": consts.C_e, "C_Delta": consts.C_Delta,
        "rows": rows,
        "note": "only the inequality direction is asserted; the bound is loose by design",
    }


# Interval arithmetic on positive rationals, for the constants oracle.


def _interval_sqrt(x: Fraction, bits: int = 128):
    return sqrt_bounds(x, bits)


def _interval_mul(a, b):
    return a[0] * b[0], a[1] * b[1]


def _interval_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _interval_inv(a):
    return 1 / a[1], 1 / a[0]


def _constants_oracle(xi, c3, c4, a3, a4, c, t_max, x_min, x_max) -> dict:
    """Recompute the derived constants as rational enclosures."""
    xi, c3, c4 = map(to_fraction, (xi, c3, c4))
    a3, a4, c = map(to_fraction, (a3, a4, c))
    t_max, x_min, x_max = map(to_fraction, (t_max, x_min, x_max))
    span = x_max - x_min
    c2 = _interval_inv(_interval_sqrt(2 * xi * (2 - xi)))
    c_prime = max(Fraction(1), c3 + c * c * c4 + 1)
    c_second = max(c_prime, 2 * (1 + c * c) * c4)
    inv_sqrt2 = _interval_inv(_interval_sqrt(Fraction(2)))
    inner = _interval_add(
        _interval_mul((c_prime, c_prime), inv_sqrt2),
        _interval_mul((2 * (t_max + 1) * c_second,) * 2, c2),
    )
    c_e = _interval_mul(_interval_mul((4 * t_max, 4 * t_max), c2),
                        _interval_mul(_interval_sqrt(span), inner))
    c_delta = _interval_mul(
        (Fraction(234, 2 ** 53) * t_max ** 2,) * 2, _interval_sqrt(span + 1)
    )
    return {
        "C2": c2,
        "C_prime": (c_prime, c_prime),
        "C_second": (c_second, c_second),
        "alpha_e": (min(1, t_max, a3, a4),) * 2,
        "C_e": c_e,
        "alpha_Delta": (min(1, t_max / 2),) * 2,
        "C_Delta": c_delta,
    }


def constants_match_oracle(consts: analysis.ErrorConstants, rel_tol=Fraction(1, 10 ** 14)) -> bool:
    oracle = _constants_oracle(consts.xi, consts.C3, consts.C4, consts.alpha3,
                               consts.alpha4, consts.c, consts.t_max,
                               consts.x_min, consts.x_max)
    for name, (lo, hi) in oracle.items():
        mid = (lo + hi) / 2
        got = to_fraction(getattr(consts, name))
        if abs(got - mid) > rel_tol * abs(mid):
            return False
    return True


def claim_constants(cfg: ClaimConfig):
    rng = random.Random(cfg.random_seed + 3)
    for j in range(CONSTANTS_SETS):
        xi = Fraction(rng.randint(1, 99), 100)
        c3 = Fraction(rng.randint(1, 500), rng.randint(1, 20))
        c4 = Fraction(rng.randint(1, 500), rng.randint(1, 20))
        a3 = Fraction(rng.randint(1, 40), 20)
        a4 = Fraction(rng.randint(1, 40), 20)
        c = Fraction(rng.randint(1, 60), 20)
        t_max = Fraction(rng.randint(1, 60), 20)
        x_min = Fraction(rng.randint(-20, 10), 10)
        x_max = x_min + Fraction(rng.randint(1, 40), 10)
        consts = analysis.derive_constants(
            float(xi), float(c3), float(c4), float(a3), float(a4),
            float(c), float(t_max), float(x_min), float(x_max))
        # The oracle reads back the binary64 inputs the library actually saw.
        if not constants_match_oracle(consts):
            return VIOLATED, {"set": j, "xi": str(xi)}
    return VERIFIED_TOL, {"parameter_sets": CONSTANTS_SETS,
                          "relative_tolerance": 1e-14}


CLAIMS = [
    ("convergence-order", "max-over-time error norm scales as dx^2 along the "
     "fixed-CN refinement chain (slope within [1.8, 2.2])", claim_convergence_order),
    ("truncation-order", "truncation-residual norm scales as dx^2 along the "
     "same chain (slope within [1.8, 2.2])", claim_truncation_order),
    ("energy-constant", "discrete energy at half steps is exactly constant "
     "for a zero-source exact run", claim_energy_constant),
    ("energy-lower-bound", "E^(k+1/2) >= (1-CN^2)/2 * kinetic term, and E >= 0, "
     "on randomized margin-satisfying exact runs", claim_energy_lower_bound),
    ("row-sums-linear", "row sums of the fundamental solution equal the time "
     "index exactly", claim_row_sums),
    ("closed-form-equivalence", "recurrence, alternating binomial closed form, "
     "and Jacobi representation agree exactly on the whole triangle", claim_closed_form),
    ("fundamental-nonnegative", "fundamental-solution entries are nonnegative "
     "for a in (0,1) (finite range witness)", claim_nonnegativity),
    ("binomial-identities", "the single- and double-sum binomial identities "
     "hold exactly for all ordered index triples", claim_binomial_identities),
    ("telescoping-recurrences", "the three first-order shift recurrences and "
     "their per-summand telescoping certificate hold exactly", claim_telescoping),
    ("global-error-reconstruction", "the convolution of local errors with the "
     "fundamental solution reproduces the measured global error exactly",
     claim_reconstruction),
    ("local-error-bound", "per-update round-off stays within 78 * 2^-52 given "
     "the coefficient gap and value range are verified", claim_local_bound),
    ("global-error-bound", "accumulated round-off stays within "
     "78 * 2^-53 (k+1)(k+2) at every node", claim_global_bound),
    ("total-error-bound", "measured distance to the analytic solution stays "
     "under C_e (dx^2 + dt^2) + C_Delta / dt^2", claim_total_error),
    ("constants-derivation", "derived bound constants match an independent "
     "exact-arithmetic recomputation to 1e-14 relative", claim_constants),
]


def _error_evidence(exc: Exception) -> dict:
    """Exception type, message and the function that raised it."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    frame = tb.tb_frame
    return {
        "error_type": type(exc).__name__,
        "error": str(exc),
        "raised_in": f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}",
    }


def run_claims(cfg: ClaimConfig | None = None, only: list | None = None) -> ClaimsReport:
    """Execute the catalog; every claim id appears exactly once in the result.

    ``only`` selects claims by id; an unknown id raises ParameterError, so a
    misspelt selection cannot pass by running nothing.
    """
    cfg = cfg or ClaimConfig()
    if only is not None:
        valid = [claim_id for claim_id, _, _ in CLAIMS]
        unknown = [claim_id for claim_id in only if claim_id not in valid]
        if unknown:
            raise ParameterError(f"unknown claim id(s): {', '.join(map(repr, unknown))}; "
                                 f"valid ids: {', '.join(valid)}")
    results = []
    for claim_id, statement, fn in CLAIMS:
        if only is not None and claim_id not in only:
            results.append(ClaimResult(claim_id, statement, SKIPPED,
                                       {"reason": "not selected"}, 0.0))
            continue
        start = time.perf_counter()
        try:
            status, evidence = fn(cfg)
        except Exception as exc:  # a crash decides nothing, but is never hidden
            status, evidence = ERRORED, _error_evidence(exc)
        results.append(ClaimResult(claim_id, statement, status, evidence,
                                   time.perf_counter() - start))
    return ClaimsReport(results=results)
