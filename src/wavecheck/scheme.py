"""Second-order centered explicit scheme and its Courant-number guard.

The binary64 path reproduces the reference C loop operation for operation:

    a1 = dt/dx*v;  a = a1*a1;
    dp = p[i+1][k] - 2.*p[i][k] + p[i-1][k];
    p[i][1]   = p[i][0] + 0.5*a*dp;
    p[i][k+1] = 2.*p[i][k] - p[i][k-1] + a*dp;

Each Python expression below mirrors that evaluation order (left to right,
``dp`` materialized, no fused multiply-add), so round-off measurements made
against this solver are measurements of that operation schedule.

Sampling the data, the Courant number and the field storage are one code
path for both scalar kinds.  Only the march itself is chosen by kind: the
exact recurrences run without rounding, where the order is immaterial, so
they run fraction-free, as integers over a common denominator per time step
(``2*D*q**k`` for ``a = p/q``), with one Fraction built per node.  Their
stencil is :func:`wavecheck.fundamental.three_term`, the one integer kernel
the fundamental table and the local-error table also use.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    CflViolationError,
    NonFiniteError,
    ParameterError,
    ShapeError,
)
from .fundamental import three_term
from .grid import Field, Grid, apply_Ah, build_grid, check_vector
from .problem import SpaceFunction, WaveProblem
from .scalars import BINARY64, Scalar, convert, to_fraction, zero

#: Default Courant margin; the reference program is specified down to this value.
DEFAULT_XI = 2.0 ** -50

__all__ = [
    "DEFAULT_XI",
    "CflReport",
    "SchemeRun",
    "apply_Ah",
    "check_cfl",
    "courant_number",
    "solve",
]


@dataclass(frozen=True)
class CflReport:
    cn: Scalar
    xi: float
    satisfied: bool


def courant_number(c, g: Grid) -> Scalar:
    """``c dt / dx`` in the grid's scalar kind, evaluated as ``(dt/dx)*c``."""
    if not float(c) > 0:
        raise ParameterError(f"velocity must be positive, got {c}")
    return (g.dt / g.dx) * convert(c, g.kind)


def check_cfl(c, g: Grid, xi) -> CflReport:
    """Check ``cn <= 1 - xi`` with the comparison done in exact rationals."""
    if not 0 < float(xi) < 1:
        raise ParameterError(f"xi must lie in (0, 1), got {xi}")
    cn = courant_number(c, g)
    satisfied = to_fraction(cn) <= 1 - to_fraction(xi)
    return CflReport(cn=cn, xi=float(xi), satisfied=satisfied)


@dataclass
class SchemeRun:
    """A completed run: the field plus everything needed to audit it."""

    grid: Grid
    problem: WaveProblem
    kind: str
    field: Field
    a: Scalar
    cn: Scalar
    cfl: CflReport
    u0: Sequence
    u1: Optional[Sequence]
    source: Optional[list]

    def value(self, i: int, k: int) -> Scalar:
        return self.field.value(i, k)

    def column(self, k: int) -> Sequence:
        return self.field.column(k)


def _sample_space(data, g: Grid, what: str) -> list:
    """Sample a Cauchy datum on the grid with zero boundary entries."""
    z = zero(g.kind)
    if data is None:
        return [z] * (g.i_max + 1)
    if isinstance(data, SpaceFunction):
        return [z] + [convert(data(g.x(i)), g.kind) for i in range(1, g.i_max)] + [z]
    check_vector(data, g)
    if data[0] != 0 or data[g.i_max] != 0:
        raise ParameterError(f"sampled {what} must vanish on the boundary")
    return [convert(v, g.kind) for v in data]


def _sample_source(s, g: Grid) -> Optional[list]:
    """Full source table as per-time-step columns, or None when absent."""
    if s is None:
        return None
    if callable(s):
        z = zero(g.kind)
        return [[z] + [convert(s(g.x(i), g.t(k)), g.kind) for i in range(1, g.i_max)] + [z]
                for k in range(g.k_max + 1)]
    cols = []
    for k in range(g.k_max + 1):
        row = s[k]
        if len(row) != g.i_max + 1:
            raise ShapeError(f"source column {k} has length {len(row)}")
        cols.append([convert(v, g.kind) for v in row])
    return cols


def solve(p: WaveProblem, g: Grid, kind: str | None = None,
          xi=DEFAULT_XI, enforce_cfl: bool = True) -> SchemeRun:
    """March the explicit scheme over the whole grid.

    The run refuses to start when the Courant margin fails, unless
    ``enforce_cfl=False`` downgrades the refusal to a warning (the stability
    and error bounds all presuppose the margin).  binary64 runs abort on the
    first non-finite value.
    """
    if kind is None:
        kind = g.kind
    if kind != g.kind:
        g = build_grid(g.x_min, g.x_max, g.t_max, g.i_max, g.k_max, kind)
    report = check_cfl(p.c, g, xi)
    if not report.satisfied:
        msg = f"Courant number {report.cn} exceeds 1 - xi = 1 - {xi}"
        if enforce_cfl:
            raise CflViolationError(msg)
        warnings.warn(msg, stacklevel=2)

    u0 = _sample_space(p.u0, g, "u0")
    u1 = _sample_space(p.u1, g, "u1") if p.u1 is not None else None
    source = _sample_source(p.s, g)

    cn = report.cn
    a = cn * cn
    march = _march_binary64 if g.kind == BINARY64 else _march_exact
    field = Field(march(g, a, u0, u1, source), g.kind)
    return SchemeRun(grid=g, problem=p, kind=g.kind, field=field, a=a, cn=cn,
                     cfl=report, u0=u0, u1=u1, source=source)


def _march_binary64(g: Grid, a: float, u0, u1, source) -> list:
    """The C loop column by column, one comprehension per time step.

    ``l, c, r`` are ``p[i-1], p[i], p[i+1]`` of the current column and ``o``
    is ``p[i]`` of the one before, so each node is evaluated in the C
    loop's order: ``dp = (r - 2c) + l``, then ``(2c - o) + a*dp``.
    """
    imax = g.i_max
    dt = g.dt
    ha = 0.5 * a
    dt2 = dt * dt
    prev = list(u0)
    cols = [prev]

    col = [0.0] * (imax + 1)
    if u1 is None:
        col[1:imax] = [c + ha * ((r - 2.0 * c) + l)
                       for l, c, r in zip(prev, prev[1:], prev[2:])]
    else:
        col[1:imax] = [(c + dt * v) + ha * ((r - 2.0 * c) + l)
                       for l, c, r, v in zip(prev, prev[1:], prev[2:], u1[1:])]
    _abort_on_nonfinite(col, 1)
    cols.append(col)

    for k in range(1, g.k_max):
        pk = cols[k]
        pkm1 = cols[k - 1]
        nxt = [0.0] * (imax + 1)
        if source is None:
            nxt[1:imax] = [(2.0 * c - o) + a * ((r - 2.0 * c) + l)
                           for l, c, r, o in zip(pk, pk[1:], pk[2:], pkm1[1:])]
        else:
            nxt[1:imax] = [((2.0 * c - o) + a * ((r - 2.0 * c) + l)) + dt2 * s
                           for l, c, r, o, s in zip(pk, pk[1:], pk[2:], pkm1[1:],
                                                    source[k][1:])]
        _abort_on_nonfinite(nxt, k + 1)
        cols.append(nxt)
    return cols


def _march_exact(g: Grid, a: Fraction, u0, u1, source) -> list:
    """The exact recurrences in integers, one Fraction per node at the end.

    With ``a = p/q`` and ``D`` the lcm of the denominators of ``u0``,
    ``dt*u1`` and ``dt**2*s``, column k is held as integers over
    ``2*D*q**k``.  Each step is then :func:`wavecheck.fundamental.three_term`
    plus the scaled data terms: the first step adds the scaled velocity
    (weight -1), later ones subtract ``q**2`` times the column before.  No
    step pays for a gcd; each column becomes Fractions as soon as it is
    done, and only the last two integer columns are kept.
    """
    imax = g.i_max
    p, q = a.numerator, a.denominator
    dt = g.dt
    vel = [dt * v for v in u1] if u1 is not None else [0] * (imax + 1)
    forcing = ([[dt * dt * v for v in source[k]] for k in range(1, g.k_max)]
               if source is not None else [])
    D = math.lcm(*(v.denominator for v in u0), *(v.denominator for v in vel),
                 *(v.denominator for col in forcing for v in col))
    two_q_minus_p, q2 = 2 * (q - p), q * q

    def scaled(col, factor):
        return [v.numerator * (factor // v.denominator) for v in col]

    u0_d = scaled(u0, D)
    prev = [2 * v for v in u0_d]
    cur = [0, *three_term(u0_d, scaled(vel, 2 * q * D)[1:], p, two_q_minus_p, -1), 0]
    den = 2 * D * q
    cols = [list(u0), [Fraction(n, den) for n in cur]]

    for k in range(1, g.k_max):
        nxt = [0, *three_term(cur, prev[1:], p, two_q_minus_p, q2), 0]
        if forcing:
            f = scaled(forcing[k - 1], den * q)
            for i in range(1, imax):
                nxt[i] += f[i]
        prev, cur = cur, nxt
        den *= q
        cols.append([Fraction(n, den) for n in cur])
    return cols


def _abort_on_nonfinite(col: list, k: int) -> None:
    """Raise at the first non-finite entry of column ``k``.

    A NaN or infinite term makes the sum non-finite, so a finite sum clears
    the column in one pass; only a non-finite sum, which finite terms can
    also reach by overflow, is scanned node by node.
    """
    if math.isfinite(sum(col)):
        return
    for i, v in enumerate(col):
        if not math.isfinite(v):
            raise NonFiniteError(i, k)
