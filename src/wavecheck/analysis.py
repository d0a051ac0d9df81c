"""Truncation and convergence errors, empirical order fits, a-priori constants.

The order checks are the finite-sample reading of the second-order
convergence and consistency statements: a refinement chain at fixed Courant
number should show the max-over-time interior norm of the error scaling like
``dx^2``, i.e. a log-log slope near 2.  The uniform big-O statements behind
them are witnessed (one constant over the sampled family), not proved.

An error table here is a one-pass iterator of time columns: the errors are
computed column by column as the max-over-time norm reads them, so a
measurement holds one run and a few columns, never the table.  A caller
that indexes the table or reads it twice takes ``list(...)`` of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from .energy import stability_constants
from .errors import DomainError, ParameterError
from .grid import Grid, apply_Ah, build_grid, check_count, norm_dx
from .problem import AnalyticSolution, WaveProblem
from .roundoff import NORM_SCALE
from .scalars import BINARY64, convert, nan_or, positive, to_fraction, within_margin, zero
from .scheme import DEFAULT_XI, SchemeRun, courant_number, solve


def problem_for(ref: AnalyticSolution) -> WaveProblem:
    """Wave problem whose data sample the reference solution at t = 0."""
    if hasattr(ref, "as_problem"):
        return ref.as_problem()
    return WaveProblem(
        c=ref.c,
        u0=lambda x: ref.value(x, 0.0),
        u1=lambda x: ref.partial(0, 1, x, 0.0),
        s=None,
    )


def convergence_error(ref: AnalyticSolution, run: SchemeRun) -> Iterator[list]:
    """Node-wise ``ref(x_i, t_k) - p_i^k``, yielded one time column at a time."""
    return ([r - p for r, p in zip(ref_col, col)]
            for ref_col, col in zip(ref.sample(run.grid), run.columns))


def truncation_error(ref: AnalyticSolution, g: Grid, c) -> Iterator[list]:
    """Residual of the sampled reference pushed through the discrete operator.

    Row 0 is zero by construction (the sampled datum is the sampled
    solution); row 1 uses the second-order initialization operator minus the
    sampled time derivative; later rows apply the full two-step operator.
    Boundary rows are zero by definition.  Rows 0 and 1 are computed on the
    call, so a reference without a time derivative raises here; the later
    columns are yielded one at a time, each from the sample stream and the
    two columns before it.  After row 1 the space stencil of :func:`apply_Ah`
    is written out inline, which gives the same bits:
    ``t + (-(x / y)) == t - x / y`` in both scalar kinds.  The product
    ``2 * m`` is computed once per node and read by both stencils; it is
    exact in both kinds, so this too keeps every bit.
    """
    dt = g.dt
    dt2 = dt * dt
    c = convert(c, g.kind)
    c2 = c * c
    dx2 = g.dx * g.dx
    two = convert(2, g.kind)
    z = zero(g.kind)
    samples = iter(ref.sample(g))
    pkm2, pkm1 = next(samples), next(samples)
    row1 = [(b - a) / dt + (dt / 2) * h - ref.partial(0, 1, g.x(i), 0)
            for i, a, b, h in zip(range(1, g.i_max), pkm2[1:], pkm1[1:],
                                  apply_Ah(c, g, pkm2)[1:])]

    def later_columns(pkm2, pkm1):
        for pk in samples:
            row = [(r - (t := two * m) + l) / dt2 - (c2 * ((right - t) + left)) / dx2
                   for r, l, left, m, right in zip(pk[1:], pkm2[1:], pkm1, pkm1[1:],
                                                   pkm1[2:])]
            yield [z, *row, z]
            pkm2, pkm1 = pkm1, pk

    return chain(([z] * (g.i_max + 1), [z, *row1, z]), later_columns(pkm2, pkm1))


def max_norm_over_time(columns: Iterable, g: Grid) -> float:
    """``max_k`` of each time column's interior norm, read in one pass; NaN if one is."""
    return nan_or(max, (norm_dx(col, g) for col in columns))


def refinement_chain(i_maxes, cn, c, t_max=1.0, kind: str = BINARY64) -> list[Grid]:
    """Grids on [0, 1] with dx halving and k_max chosen to hold the Courant number.

    ``k_max`` is ``t_max / dt`` rounded to nearest, or one more when that
    grid's Courant number would exceed ``cn``.
    """
    for name, v in (("c", c), ("cn", cn), ("t_max", t_max)):
        positive(name, v)
    grids = []
    for imax in i_maxes:
        check_count("i_max", imax)
        dx = 1.0 / imax
        dt = float(cn) * dx / float(c)
        try:
            kmax = round(float(t_max) / dt)
        except (OverflowError, ZeroDivisionError):
            raise ParameterError(
                f"t_max = {t_max}, cn = {cn} and c = {c} give dt = {dt!r} "
                f"at i_max = {imax} (t_max / dt must be finite)") from None
        if kmax < 2:
            raise ParameterError(
                f"t_max = {t_max}, cn = {cn} and c = {c} give k_max = {kmax} "
                f"at i_max = {imax} (k_max must be greater than one)")
        g = build_grid(0.0, 1.0, t_max, imax, kmax, kind)
        if to_fraction(courant_number(c, g)) > to_fraction(cn):
            g = build_grid(0.0, 1.0, t_max, imax, kmax + 1, kind)
        grids.append(g)
    return grids


@dataclass
class OrderFit:
    slope: float
    points: list  # (dx, error-norm) pairs


def estimate_order(ref: AnalyticSolution, grids: list[Grid], mode: str,
                   xi: float = DEFAULT_XI) -> OrderFit:
    """Least-squares slope of log error norm against log dx over a chain; NaN if a norm is."""
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
        # The run is bound to no name, so it is freed before the next grid marches.
        if mode == "convergence":
            columns = convergence_error(ref, solve(prob, g, xi=xi))
        else:
            columns = truncation_error(ref, g, prob.c)
        err = max_norm_over_time(columns, g)
        if err == 0.0:
            raise DomainError("zero-error family: order slope is undefined")
        points.append((float(g.dx), err))
    if any(err != err for _, err in points):
        return OrderFit(slope=math.nan, points=points)
    import numpy as np  # only the slope fit needs it; importing wavecheck stays light

    xs = np.log([p[0] for p in points])
    ys = np.log([p[1] for p in points])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return OrderFit(slope=slope, points=points)


@dataclass(frozen=True)
class ErrorConstants:
    """Derived constants of the a-priori total-error bound, plus the two
    inputs its consumers read: the margin ``xi`` and the velocity ``c``."""

    xi: float
    c: float
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
    sqrt(x_max - x_min + 1)``.  ``C2`` comes from
    :func:`wavecheck.energy.stability_constants`, which also checks ``xi``.
    """
    _, c2 = stability_constants(xi, 0.0)
    C3, C4, alpha3, alpha4, c, t_max, span = (float(positive(name, v)) for name, v in (
        ("C3", C3), ("C4", C4), ("alpha3", alpha3), ("alpha4", alpha4), ("c", c),
        ("t_max", t_max), ("x_max - x_min", x_max - x_min)))
    c_prime = max(1.0, C3 + c * c * C4 + 1.0)
    c_second = max(c_prime, 2.0 * (1.0 + c * c) * C4)
    alpha_e = min(1.0, t_max, alpha3, alpha4)
    c_e = 4.0 * c2 * t_max * math.sqrt(span) * (
        c_prime / math.sqrt(2.0) + 2.0 * c2 * (t_max + 1.0) * c_second
    )
    alpha_delta = min(1.0, t_max / 2.0)
    c_delta = float(NORM_SCALE) * t_max ** 2 * math.sqrt(span + 1.0)
    return ErrorConstants(
        xi=float(xi), c=c, C2=c2, C_prime=c_prime, C_second=c_second,
        alpha_e=alpha_e, C_e=c_e, alpha_Delta=alpha_delta, C_Delta=c_delta,
    )


def _roundoff_term(k: ErrorConstants, dt: float) -> float:
    """``C_Delta / dt^2``, or 0 without round-off; where ``dt^2`` underflows
    to 0 (``dt <= 2^-537.5``), the quotient rounds to inf."""
    if k.C_Delta == 0:
        return 0.0
    dt2 = dt * dt
    return k.C_Delta / dt2 if dt2 else math.inf


def total_error_bound(k: ErrorConstants, dx: float, dt: float) -> float:
    """``C_e (dx^2 + dt^2) + C_Delta / dt^2`` inside the refinement guard."""
    dx, dt = float(dx), float(dt)
    guard = min(k.alpha_e, k.alpha_Delta)
    if math.hypot(dx, dt) > guard:
        raise ParameterError(
            f"refinement guard violated: hypot(dx, dt) = {math.hypot(dx, dt)} "
            f"> min(alpha_e, alpha_Delta) = {guard}"
        )
    return k.C_e * (dx * dx + dt * dt) + _roundoff_term(k, dt)


#: Smallest admissible time step (the run-time precondition on dt).
DT_FLOOR = 2.0 ** -1000


# optimal_dt evaluates the bound at its minimizer through this function.
def bound_along_cn(k: ErrorConstants, fixed_cn: float, dt: float) -> float:
    """Total-error bound as a function of dt alone, with dx tied via the CN."""
    factor = 1.0 + (k.c / float(fixed_cn)) ** 2
    return k.C_e * dt * dt * factor + _roundoff_term(k, dt)


def optimal_dt(k: ErrorConstants, fixed_cn: float) -> tuple[float, float]:
    """Minimize the bound over dt at fixed Courant number.

    The unconstrained minimizer is ``(C_Delta / (C_e (1 + (c/cn)^2)))^(1/4)``;
    it is clamped into the feasible interval given by the refinement guard
    above and :data:`DT_FLOOR` below.
    """
    fixed_cn = float(positive("fixed_cn", fixed_cn))
    if not within_margin(fixed_cn, k.xi):
        raise ParameterError(f"fixed_cn must lie in (0, 1 - xi], got {fixed_cn}")
    factor = 1.0 + (k.c / fixed_cn) ** 2
    dt_hi = min(k.alpha_e, k.alpha_Delta) / math.sqrt(factor)
    if DT_FLOOR > dt_hi:
        raise ParameterError(
            f"empty feasible region: dt floor {DT_FLOOR} exceeds guard limit {dt_hi}"
        )
    raw = (k.C_Delta / (k.C_e * factor)) ** 0.25 if k.C_Delta > 0 else 0.0
    dt_star = min(max(raw, DT_FLOOR), dt_hi)
    return dt_star, bound_along_cn(k, fixed_cn, dt_star)
