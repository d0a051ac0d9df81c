"""Truncation and convergence errors, empirical order fits, a-priori constants.

The order checks are the finite-sample reading of the second-order
convergence and consistency statements: a refinement chain at fixed Courant
number should show the max-over-time interior norm of the error scaling like
``dx^2``, i.e. a log-log slope near 2.  The uniform big-O statements behind
them are witnessed (one constant over the sampled family), not proved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ParameterError
from .grid import Field, Grid, apply_Ah, build_grid, check_count, norm_dx
from .problem import AnalyticSolution, CallableSpace, WaveProblem
from .roundoff import NORM_SCALE
from .scalars import BINARY64, zero
from .scheme import DEFAULT_XI, SchemeRun, solve


def problem_for(ref: AnalyticSolution) -> WaveProblem:
    """Wave problem whose data sample the reference solution at t = 0."""
    if hasattr(ref, "as_problem"):
        return ref.as_problem()
    return WaveProblem(
        c=ref.c,
        u0=CallableSpace(lambda x: ref.value(x, 0.0)),
        u1=CallableSpace(lambda x: ref.partial(0, 1, x, 0.0)),
        s=None,
        reference=ref,
    )


def convergence_error(ref: AnalyticSolution, run: SchemeRun) -> Field:
    """Node-wise ``ref(x_i, t_k) - p_i^k`` over the whole grid."""
    g = run.grid
    cols = [[r - p for r, p in zip(ref_col, run.column(k))]
            for k, ref_col in enumerate(ref.sample(g))]
    return Field(cols, g.kind)


def truncation_error(ref: AnalyticSolution, g: Grid, c) -> Field:
    """Residual of the sampled reference pushed through the discrete operator.

    Row 0 is zero by construction (the sampled datum is the sampled
    solution); row 1 uses the second-order initialization operator minus the
    sampled time derivative; later rows apply the full two-step operator.
    Boundary rows are zero by definition.
    """
    imax, kmax = g.i_max, g.k_max
    dt = g.dt
    samples = list(ref.sample(g))
    z = zero(g.kind)
    cols = [[z] * (imax + 1)]

    p0, p1 = samples[0], samples[1]
    ah0 = apply_Ah(c, g, p0)
    col1 = [z] * (imax + 1)
    for i in range(1, imax):
        u1_i = ref.partial(0, 1, g.x(i), 0)
        col1[i] = (p1[i] - p0[i]) / dt + (dt / 2) * ah0[i] - u1_i
    cols.append(col1)

    dt2 = dt * dt
    for k in range(2, kmax + 1):
        pk, pkm1, pkm2 = samples[k], samples[k - 1], samples[k - 2]
        ah = apply_Ah(c, g, pkm1)
        col = [z] * (imax + 1)
        for i in range(1, imax):
            col[i] = (pk[i] - 2 * pkm1[i] + pkm2[i]) / dt2 + ah[i]
        cols.append(col)
    return Field(cols, g.kind)


def max_norm_over_time(table: Field, g: Grid) -> float:
    """``max_k`` of the interior norm of each time column."""
    return max(norm_dx(table.column(k), g) for k in range(g.k_max + 1))


def refinement_chain(i_maxes, cn, c, t_max=1.0, x_min=0.0, x_max=1.0,
                     kind: str = BINARY64) -> list[Grid]:
    """Grids with dx halving and k_max chosen to hold the Courant number."""
    for name, v in (("c", c), ("cn", cn)):
        if not float(v) > 0:
            raise ParameterError(f"{name} must be positive, got {v}")
    grids = []
    for imax in i_maxes:
        check_count("i_max", imax)
        dx = (float(x_max) - float(x_min)) / imax
        dt = float(cn) * dx / float(c)
        kmax = round(float(t_max) / dt)
        grids.append(build_grid(x_min, x_max, t_max, imax, kmax, kind))
    return grids


@dataclass
class OrderFit:
    slope: float
    points: list  # (dx, error-norm) pairs


def estimate_order(ref: AnalyticSolution, grids: list[Grid], mode: str = "convergence",
                   xi: float = DEFAULT_XI) -> OrderFit:
    """Least-squares slope of log error norm against log dx over a chain."""
    if len(grids) < 3:
        raise ParameterError(f"need at least 3 grids in the chain, got {len(grids)}")
    if mode not in ("convergence", "truncation"):
        raise ParameterError(f"unknown mode {mode!r}")
    dxs = [float(g.dx) for g in grids]
    if len(set(dxs)) < len(dxs):
        raise ParameterError(f"the chain's grids need pairwise distinct dx, got {dxs}")
    points = []
    prob = problem_for(ref)
    for g in grids:
        if mode == "convergence":
            run = solve(prob, g, xi=xi)
            table = convergence_error(ref, run)
        else:
            table = truncation_error(ref, g, prob.c)
        err = max_norm_over_time(table, g)
        if err == 0.0:
            raise DomainError("zero-error family: order slope is undefined")
        points.append((float(g.dx), err))
    import numpy as np  # only the slope fit needs it; importing wavecheck stays light

    xs = np.log([p[0] for p in points])
    ys = np.log([p[1] for p in points])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return OrderFit(slope=slope, points=points)


@dataclass(frozen=True)
class ErrorConstants:
    """Inputs and derived constants of the a-priori total-error bound."""

    xi: float
    alpha3: float
    C3: float
    alpha4: float
    C4: float
    c: float
    t_max: float
    x_min: float
    x_max: float
    C2: float
    C_prime: float
    C_second: float
    alpha_e: float
    C_e: float
    alpha_Delta: float
    C_Delta: float


def constants_margin(cn) -> float:
    """Courant margin xi of the bound constants for runs at Courant number ``cn``.

    It is the largest ``xi <= 1/2`` that the runs respect (``cn <= 1 - xi``);
    a smaller ``xi`` only inflates ``C2``.
    """
    return min(0.5, 1.0 - float(cn))


def derive_constants(xi, C3, C4, alpha3, alpha4, c, t_max, x_min, x_max) -> ErrorConstants:
    """Populate the derived constants of the total-error estimate.

    ``C_e`` collects the stability and regularity constants of the method
    error; ``C_Delta`` is the round-off contribution ``234 * 2^-53 * t_max^2 *
    sqrt(x_max - x_min + 1)``.
    """
    xi, C3, C4 = float(xi), float(C3), float(C4)
    alpha3, alpha4, c = float(alpha3), float(alpha4), float(c)
    t_max, x_min, x_max = float(t_max), float(x_min), float(x_max)
    if not 0 < xi < 1:
        raise ParameterError(f"xi must lie in (0, 1), got {xi}")
    for name, v in (("C3", C3), ("C4", C4), ("alpha3", alpha3), ("alpha4", alpha4),
                    ("c", c), ("t_max", t_max)):
        if not v > 0:
            raise ParameterError(f"{name} must be positive, got {v}")
    if not x_min < x_max:
        raise ParameterError("empty space domain")
    span = x_max - x_min
    c2 = 1.0 / math.sqrt(2.0 * xi * (2.0 - xi))
    c_prime = max(1.0, C3 + c * c * C4 + 1.0)
    c_second = max(c_prime, 2.0 * (1.0 + c * c) * C4)
    alpha_e = min(1.0, t_max, alpha3, alpha4)
    c_e = 4.0 * c2 * t_max * math.sqrt(span) * (
        c_prime / math.sqrt(2.0) + 2.0 * c2 * (t_max + 1.0) * c_second
    )
    alpha_delta = min(1.0, t_max / 2.0)
    c_delta = float(NORM_SCALE) * t_max ** 2 * math.sqrt(span + 1.0)
    return ErrorConstants(
        xi=xi, alpha3=alpha3, C3=C3, alpha4=alpha4, C4=C4, c=c,
        t_max=t_max, x_min=x_min, x_max=x_max,
        C2=c2, C_prime=c_prime, C_second=c_second,
        alpha_e=alpha_e, C_e=c_e, alpha_Delta=alpha_delta, C_Delta=c_delta,
    )


def total_error_bound(k: ErrorConstants, dx: float, dt: float) -> float:
    """``C_e (dx^2 + dt^2) + C_Delta / dt^2`` inside the refinement guard."""
    dx, dt = float(dx), float(dt)
    guard = min(k.alpha_e, k.alpha_Delta)
    if math.hypot(dx, dt) > guard:
        raise ParameterError(
            f"refinement guard violated: hypot(dx, dt) = {math.hypot(dx, dt)} "
            f"> min(alpha_e, alpha_Delta) = {guard}"
        )
    return k.C_e * (dx * dx + dt * dt) + k.C_Delta / (dt * dt)


#: Smallest admissible time step (the run-time precondition on dt).
DT_FLOOR = 2.0 ** -1000


def bound_along_cn(k: ErrorConstants, fixed_cn: float, dt: float) -> float:
    """Total-error bound as a function of dt alone, with dx tied via the CN."""
    factor = 1.0 + (k.c / float(fixed_cn)) ** 2
    return k.C_e * dt * dt * factor + k.C_Delta / (dt * dt)


def optimal_dt(k: ErrorConstants, fixed_cn: float,
               dt_min: float = DT_FLOOR) -> tuple[float, float]:
    """Minimize the bound over dt at fixed Courant number.

    The unconstrained minimizer is ``(C_Delta / (C_e (1 + (c/cn)^2)))^(1/4)``;
    it is clamped into the feasible interval given by the refinement guard
    above and the time-step floor below.
    """
    fixed_cn = float(fixed_cn)
    if not 0 < fixed_cn <= 1 - k.xi:
        raise ParameterError(f"fixed_cn must lie in (0, 1 - xi], got {fixed_cn}")
    factor = 1.0 + (k.c / fixed_cn) ** 2
    dt_hi = min(k.alpha_e, k.alpha_Delta) / math.sqrt(factor)
    if dt_min > dt_hi:
        raise ParameterError(
            f"empty feasible region: dt floor {dt_min} exceeds guard limit {dt_hi}"
        )
    raw = (k.C_Delta / (k.C_e * factor)) ** 0.25 if k.C_Delta > 0 else 0.0
    dt_star = min(max(raw, dt_min), dt_hi)
    return dt_star, bound_along_cn(k, fixed_cn, dt_star)
