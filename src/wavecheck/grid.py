"""Discretization geometry: uniform grid and discrete dot products.

The interior dot product ``<q, r> = sum_{i=1}^{i_max-1} q_i r_i dx`` is the
measure every error norm in the package is expressed in.  For vectors that
vanish on the boundary it coincides with the inclusive sum over all nodes,
which is the form some derived bounds are stated in; the test suite pins
that equivalence.

Every function here has one code path for both scalar kinds: Python's
``+ - * /`` act on floats and Fractions alike, and the binary64 evaluation
order (left-to-right accumulation, one final ``dx`` scaling) is also a valid
order for exact arithmetic.  Space-time tables are per-step columns: a
run stores them as a list indexed ``columns[k][i]``, and an error table may
be a one-pass iterator that yields them.  The functions here take one
column at a time and only index, slice, zip and iterate it, so it may be a
list in either kind or, as a binary64 run stores it, an ``array('d')``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import ParameterError, ShapeError
from .scalars import BINARY64, Scalar, convert, ensure_kind, positive, zero


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
    A grid whose ``(i_max+1)(k_max+1)`` nodes need more than ``sys.maxsize``
    bytes as binary64 values is refused: no machine can hold its table.
    """
    ensure_kind(kind)
    check_count("i_max", i_max)
    check_count("k_max", k_max)
    nodes = (i_max + 1) * (k_max + 1)
    if nodes * 8 > sys.maxsize:
        raise ParameterError(
            f"i_max = {i_max} and k_max = {k_max} give {nodes} nodes, which need more than "
            f"{sys.maxsize} bytes at 8 bytes a node")
    x_min = convert(x_min, kind)
    x_max = convert(x_max, kind)
    t_max = convert(positive("t_max", t_max), kind)
    span = positive("x_max - x_min", x_max - x_min)
    dx = span / i_max
    dt = t_max / k_max
    return Grid(x_min, x_max, t_max, i_max, k_max, dx, dt, kind)


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
    indices).  The entries of ``q`` must already be in the grid's kind.
    """
    check_vector(q, g)
    c = convert(positive("velocity", c), g.kind)
    c2 = c * c
    dx2 = g.dx * g.dx
    interior = [-(c2 * ((r - 2 * m) + l)) / dx2 for l, m, r in zip(q, q[1:], q[2:])]
    return [zero(g.kind), *interior, zero(g.kind)]
