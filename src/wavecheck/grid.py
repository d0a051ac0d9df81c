"""Discretization geometry: uniform grid, index maps, discrete dot products.

The interior dot product ``<q, r> = sum_{i=1}^{i_max-1} q_i r_i dx`` is the
measure every error norm in the package is expressed in.  For vectors that
vanish on the boundary it coincides with the inclusive sum over all nodes,
which is the form some derived bounds are stated in; the test suite pins
that equivalence.

Every function here has one code path for both scalar kinds: Python's
``+ - * /`` act on floats and Fractions alike, and the binary64 evaluation
order (left-to-right accumulation, one final ``dx`` scaling) is also a valid
order for exact arithmetic.  A :class:`Field` is a plain list of per-step
columns in either kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, NumericDomainError, ParameterError, ShapeError
from .scalars import BINARY64, EXACT, Scalar, convert, ensure_kind, zero


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid on ``[x_min, x_max] x [0, t_max]``.

    ``dx`` and ``dt`` carry the grid's scalar kind: binary64 grids hold the
    rounded quotients the reference program would compute (``span/i_max``,
    ``t_max/k_max`` in double precision), exact grids hold the true rationals.
    """

    x_min: Scalar
    x_max: Scalar
    t_max: Scalar
    i_max: int
    k_max: int
    dx: Scalar
    dt: Scalar
    kind: str

    def x(self, i: int) -> Scalar:
        return self.x_min + i * self.dx

    def t(self, k: int) -> Scalar:
        return k * self.dt


def check_count(name: str, n) -> None:
    """Interval counts are integers greater than one."""
    if not isinstance(n, int):
        raise ParameterError(f"{name} must be an integer, got {n!r}")
    if n < 2:
        raise ParameterError(f"{name} too small: {n} (must be greater than one)")


def build_grid(x_min, x_max, t_max, i_max: int, k_max: int, kind: str = BINARY64) -> Grid:
    """Construct a grid, validating the program preconditions.

    Interval counts must be greater than one; the domain must be nonempty.
    """
    ensure_kind(kind)
    check_count("i_max", i_max)
    check_count("k_max", k_max)
    x_min = convert(x_min, kind)
    x_max = convert(x_max, kind)
    t_max = convert(t_max, kind)
    if not x_min < x_max:
        raise ParameterError(f"empty space domain: x_min={x_min} >= x_max={x_max}")
    if not t_max > 0:
        raise ParameterError(f"empty time domain: t_max={t_max}")
    span = x_max - x_min
    dx = span / i_max
    dt = t_max / k_max
    return Grid(x_min, x_max, t_max, i_max, k_max, dx, dt, kind)


def space_index(g: Grid, x) -> int:
    """Floor index of ``x`` on the space axis, clamped into ``[0, i_max]``.

    The clamp makes the right endpoint map to the last index even when the
    binary64 quotient rounds just above it.
    """
    x = convert(x, g.kind)
    if x < g.x_min or x > g.x_max:
        raise DomainError(f"x={x} outside [{g.x_min}, {g.x_max}]")
    idx = math.floor((x - g.x_min) / g.dx)
    return min(max(idx, 0), g.i_max)


def time_index(g: Grid, t) -> int:
    """Floor index of ``t`` on the time axis, clamped into ``[0, k_max]``."""
    t = convert(t, g.kind)
    if t < 0 or t > g.t_max:
        raise DomainError(f"t={t} outside [0, {g.t_max}]")
    idx = math.floor(t / g.dt)
    return min(max(idx, 0), g.k_max)


def check_vector(q: Sequence, g: Grid) -> None:
    if len(q) != g.i_max + 1:
        raise ShapeError(f"vector length {len(q)} != i_max+1 = {g.i_max + 1}")


def dot_dx(q: Sequence, r: Sequence, g: Grid) -> Scalar:
    """Interior dot product ``sum_{i=1}^{i_max-1} q_i r_i dx``.

    The products are accumulated left to right and scaled by ``dx`` once,
    which fixes the rounding of binary64 grids; exact grids are
    order-independent.  The loop is explicit on purpose: the built-in
    ``sum`` compensates float sums on newer interpreters and would change
    the bits.
    """
    check_vector(q, g)
    check_vector(r, g)
    acc = zero(g.kind)
    for i in range(1, g.i_max):
        acc += q[i] * r[i]
    return acc * g.dx


def norm_dx(q: Sequence, g: Grid) -> float:
    """``sqrt(<q, q>)`` as a float; exact pipelines should square via dot_dx."""
    return math.sqrt(float(dot_dx(q, q, g)))


def apply_Ah(c, g: Grid, q: Sequence):
    """Discrete analog of ``-c^2 d^2/dx^2``: second-difference stencil.

    Interior entries are ``-c^2 (q_{i+1} - 2 q_i + q_{i-1}) / dx^2``; the
    boundary entries are set to zero (they are only ever read at interior
    indices).
    """
    check_vector(q, g)
    c = convert(c, g.kind)
    if not c > 0:
        raise ParameterError(f"propagation velocity must be positive, got {c}")
    q = [convert(v, g.kind) for v in q]
    c2 = c * c
    dx2 = g.dx * g.dx
    out = [zero(g.kind)] * (g.i_max + 1)
    for i in range(1, g.i_max):
        d2 = (q[i + 1] - 2 * q[i]) + q[i - 1]
        out[i] = -(c2 * d2) / dx2
    return out


def dot_Ah(q: Sequence, r: Sequence, g: Grid, c) -> Scalar:
    """``<A_h q, r>`` in the interior dot product."""
    return dot_dx(apply_Ah(c, g, q), r, g)


def seminorm_Ah(q: Sequence, g: Grid, c) -> float:
    """``sqrt(<A_h q, q>)``; defined only when the quadratic form is >= 0."""
    v = dot_Ah(q, q, g, c)
    if v < 0:
        if g.kind == EXACT or float(v) < -1e-9:
            raise NumericDomainError(f"A_h quadratic form negative: {v}")
        v = 0.0
    return math.sqrt(float(v))


class Field:
    """Space-time table of scalars, ``(i_max+1) x (k_max+1)``.

    Stored as a list of per-time-step columns (lists of floats or of
    Fractions, per ``kind``), indexed ``columns[k][i]``.  Solver-produced
    fields keep rows 0 and i_max identically zero.
    """

    def __init__(self, columns: list, kind: str):
        self.kind = ensure_kind(kind)
        self._columns = columns
        self.i_max = len(columns[0]) - 1
        self.k_max = len(columns) - 1

    def value(self, i: int, k: int) -> Scalar:
        return self._columns[k][i]

    def column(self, k: int) -> Sequence:
        return self._columns[k]

    def columns(self):
        return iter(self._columns)

    def max_abs(self) -> Scalar:
        return max(abs(v) for col in self._columns for v in col)
