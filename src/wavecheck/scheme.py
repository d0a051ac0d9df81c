"""Second-order centered explicit scheme and its Courant-number guard.

:func:`solve` returns no run outside the Courant margin ``cn <= 1 - xi``,
so a :class:`SchemeRun` is proof that its margin held; it records both.

The binary64 path reproduces the reference C loop operation for operation:

    a1 = dt/dx*v;  a = a1*a1;
    dp = p[i+1][k] - 2.*p[i][k] + p[i-1][k];
    p[i][1]   = p[i][0] + 0.5*a*dp;
    p[i][k+1] = 2.*p[i][k] - p[i][k-1] + a*dp;

Each Python expression below keeps that grouping (``dp`` materialized, no
fused multiply-add), so round-off measurements made against this solver are
measurements of that operation schedule.  The march computes ``2.*p[i][k]``
once per node, and both of its uses read that value.

Sampling the data and the Courant number are one code path for both
scalar kinds.  Only the march, and with it the column storage, is chosen by
kind.  The binary64 march computes each step as a list of the interior
nodes, which the next step reads directly, and stores each column as
``array('d')`` of exactly ``i_max + 1`` slots, filled by one packing call:
8 bytes a node like the C program's ``double`` field, with every value's
exact bits.  The exact recurrences run without rounding, where the order
is immaterial, so they run fraction-free, as integers over a common
denominator per time step (``2*D*q**k`` for ``a = p/q``), and store a list
of Fractions per column, one built per node.  Their stencil is
:func:`wavecheck.fundamental.three_term`, the one integer kernel the
fundamental table and the local-error table also use.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    CflViolationError,
    NonFiniteError,
    ParameterError,
    ShapeError,
    UnsupportedFeatureError,
)
from .fundamental import three_term
from .grid import Grid, build_grid, check_vector
from .problem import WaveProblem
from .scalars import (
    BINARY64,
    EXACT,
    Scalar,
    check_margin,
    common_column,
    convert,
    is_rational,
    nan_or,
    over_one_denominator,
    positive,
    within_margin,
    zero,
)

#: Default Courant margin; the reference program is specified down to this value.
DEFAULT_XI = 2.0 ** -50

__all__ = [
    "DEFAULT_XI",
    "SchemeRun",
    "check_cfl",
    "courant_number",
    "solve",
]


def courant_number(c, g: Grid) -> Scalar:
    """``c dt / dx`` in the grid's scalar kind, evaluated as ``(dt/dx)*c``."""
    return (g.dt / g.dx) * convert(positive("velocity", c), g.kind)


def check_cfl(c, g: Grid, xi) -> bool:
    """Whether ``cn <= 1 - xi``, in exact rationals; ``xi`` is checked before ``c``."""
    check_margin(xi)
    return within_margin(courant_number(c, g), xi)


@dataclass
class SchemeRun:
    """A completed run: its columns plus everything needed to audit it.

    ``columns[k][i]`` is ``p_i^k``, in the grid's kind; rows 0 and
    ``i_max`` are identically zero.  A binary64 column is an ``array('d')``
    and an exact one a list of Fractions; ``source`` is the sampled source
    as one list per time step.  ``cn`` and ``xi`` are the Courant number
    and margin the run was admitted under, ``xi`` as it was passed and
    checked, so ``cn <= 1 - xi`` holds exactly for the stored values.
    """

    grid: Grid
    problem: WaveProblem
    columns: list
    a: Scalar
    cn: Scalar
    xi: Scalar
    source: Optional[list]

    def value(self, i: int, k: int) -> Scalar:
        return self.columns[k][i]

    def column(self, k: int) -> Sequence:
        return self.columns[k]

    def max_abs(self) -> Scalar:
        """``max |p_i^k|`` over the whole field; NaN if any node is NaN."""
        return nan_or(max, (abs(v) for col in self.columns for v in col))


def _sample_space(data, g: Grid, what: str) -> list:
    """Sample a Cauchy datum on the grid with zero boundary entries.

    An exact grid takes a function's values only if they are ints or Fractions.
    """
    z = zero(g.kind)
    if data is None:
        return [z] * (g.i_max + 1)
    if callable(data):
        values = [data(g.x(i)) for i in range(1, g.i_max)]
        if g.kind == EXACT and not all(map(is_rational, values)):
            raise UnsupportedFeatureError(
                f"{what} has a value at a rational node that is not an int or a Fraction")
        return [z, *(convert(v, g.kind) for v in values), z]
    check_vector(data, g)
    if data[0] != 0 or data[g.i_max] != 0:
        raise ParameterError(f"sampled {what} must vanish on the boundary")
    return [convert(v, g.kind) for v in data]


def _sample_source(s, g: Grid) -> Optional[list]:
    """Full source table as per-time-step columns, or None when absent."""
    if s is None:
        return None
    if len(s) != g.k_max + 1:
        raise ShapeError(f"source has {len(s)} columns != k_max+1 = {g.k_max + 1}")
    cols = []
    for k in range(g.k_max + 1):
        row = s[k]
        if len(row) != g.i_max + 1:
            raise ShapeError(f"source column {k} has length {len(row)}")
        cols.append([convert(v, g.kind) for v in row])
    return cols


def solve(p: WaveProblem, g: Grid, kind: str | None = None, xi=DEFAULT_XI) -> SchemeRun:
    """March the explicit scheme over the whole grid.

    The Courant margin of :func:`check_cfl` is always enforced: a run outside
    it raises :class:`CflViolationError` before sampling any datum, because
    the stability and error bounds all presuppose it.  binary64 runs abort
    on the first non-finite value.
    """
    if kind is None:
        kind = g.kind
    if kind != g.kind:
        g = build_grid(g.x_min, g.x_max, g.t_max, g.i_max, g.k_max, kind)
    if not check_cfl(p.c, g, xi):
        raise CflViolationError(
            f"Courant number {courant_number(p.c, g)} exceeds 1 - xi = 1 - {xi}")

    u0 = _sample_space(p.u0, g, "u0")
    u1 = _sample_space(p.u1, g, "u1") if p.u1 is not None else None
    source = _sample_source(p.s, g)

    cn = courant_number(p.c, g)
    a = cn * cn
    march = _march_binary64 if g.kind == BINARY64 else _march_exact
    return SchemeRun(grid=g, problem=p, columns=march(g, a, u0, u1, source), a=a,
                     cn=cn, xi=xi, source=source)


def _march_binary64(g: Grid, a: float, u0, u1, source) -> list:
    """The C loop column by column, one comprehension per time step.

    ``l, c, r`` are ``p[i-1], p[i], p[i+1]`` of the current column and ``o``
    is ``p[i]`` of the one before, so each node is evaluated with the C
    loop's operations: ``dp = (r - 2c) + l``, then ``(2c - o) + a*dp``.
    ``2c`` is computed once per node, as ``t``, and read by both: the
    grouping of the operations fixes every bit, not the order in which
    independent ones run.  ``march_oracle`` in ``tests/test_scheme.py`` pins
    that grouping.

    Each comprehension yields the interior list ``inner``; the next step
    reads ``c`` and ``o`` straight from the current and previous interior
    lists, and ``l`` and ``r`` from the bounded column, so one slice a step
    is made.  The bounded column is a list of exactly ``i_max + 1`` items:
    ``[0.0, *inner, 0.0]`` over-allocates by an eighth, and those larger
    blocks, freed between the stored columns, raised the peak resident
    memory of a 1600×3200 run by 3.5 MB (CPython 3.11, glibc malloc).

    Each finished column, ``u0`` included, is checked for non-finite values
    and packed in one call into a copy of an all-zero ``array('d')`` of
    exactly ``i_max + 1`` slots: 8 bytes a node as in the C program's
    ``double`` field, with the exact bits of every value.  The columns the
    next step reads stay lists, so the comprehensions never unbox a stored
    value.
    """
    imax = g.i_max
    dt = g.dt
    ha = 0.5 * a
    dt2 = dt * dt
    pack = struct.Struct(f"{imax + 1}d").pack_into
    blank = array("d", [0.0]) * (imax + 1)

    def bounded(inner: list) -> list:
        col = [0.0] * (imax + 1)
        col[1:imax] = inner
        return col

    def stored(col: list) -> array:
        out = blank[:]
        pack(out, 0, *col)
        return out

    _abort_on_nonfinite(u0, 0)
    if u1 is None:
        inner = [c + ha * ((r - 2.0 * c) + l)
                 for l, c, r in zip(u0, u0[1:], u0[2:])]
    else:
        inner = [(c + dt * v) + ha * ((r - 2.0 * c) + l)
                 for l, c, r, v in zip(u0, u0[1:], u0[2:], u1[1:])]
    cur = bounded(inner)
    _abort_on_nonfinite(cur, 1)
    cols = [stored(u0), stored(cur)]
    before = u0[1:imax]

    for k in range(1, g.k_max):
        if source is None:
            nxt = [((t := 2.0 * c) - o) + a * ((r - t) + l)
                   for l, c, r, o in zip(cur, inner, cur[2:], before)]
        else:
            nxt = [(((t := 2.0 * c) - o) + a * ((r - t) + l)) + dt2 * s
                   for l, c, r, o, s in zip(cur, inner, cur[2:], before, source[k][1:])]
        before, inner, cur = inner, nxt, bounded(nxt)
        _abort_on_nonfinite(cur, k + 1)
        cols.append(stored(cur))
    return cols


def _march_exact(g: Grid, a: Fraction, u0, u1, source) -> list:
    """The exact recurrences in integers, one Fraction per node at the end.

    With ``a = p/q`` and ``u0``, ``dt*u1`` and ``dt**2*s`` over the lcm ``D``
    of their denominators (:func:`wavecheck.scalars.over_one_denominator`),
    column k is held as integers over ``2*D*q**k``.  Each step is then
    :func:`wavecheck.fundamental.three_term` plus the scaled data terms: the
    first step adds the scaled velocity (weight -1), later ones subtract
    ``q**2`` times the column before.  No step pays for a gcd; each column
    becomes Fractions when it is done, and two integer columns are kept.
    """
    imax = g.i_max
    p, q = a.numerator, a.denominator
    dt = g.dt
    vel = [dt * v for v in u1] if u1 is not None else [0] * (imax + 1)
    forcing = ([[dt * dt * v for v in source[k]] for k in range(1, g.k_max)]
               if source is not None else [])
    (u0_d, vel_d, *forcing), D = over_one_denominator(*map(common_column, (u0, vel, *forcing)))
    two_q_minus_p, q2 = 2 * (q - p), q * q
    prev = [2 * v for v in u0_d]
    cur = [0, *three_term(u0_d, [2 * q * v for v in vel_d[1:]], p, two_q_minus_p, -1), 0]
    den = 2 * D * q
    cols = [list(u0), [Fraction(n, den) for n in cur]]

    for k in range(1, g.k_max):
        nxt = [0, *three_term(cur, prev[1:], p, two_q_minus_p, q2), 0]
        if forcing:
            f, scale = forcing[k - 1], den * q // D
            for i in range(1, imax):
                nxt[i] += f[i] * scale
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
