"""Problem statement and analytic oracles.

A :class:`WaveProblem` bundles the propagation velocity, the two Cauchy data
and an optional source.  A Cauchy datum is a function of x, a pre-sampled
vector or ``None``.  A function is called at the grid's nodes, Fractions on
an exact grid, and an exact run takes only int or Fraction values: a
:class:`Polynomial` or ``lambda x: x * (1 - x)`` runs in both scalar kinds,
a sine in binary64 only.  A vector entry is taken at its exact value, so a
float ``0.1`` is the binary64 number nearest 1/10.  Analytic solutions are
standalone oracles that the analysis layers compare runs against.

The antisymmetric extension implements image theory: folding any real
coordinate (or any integer index) back into the base interval through
odd reflections, which turns the Dirichlet problem into a free-space one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import ParameterError, UnsupportedFeatureError
from .scalars import BINARY64, EXACT, convert, is_rational, positive, to_fraction


class Polynomial:
    """Polynomial with rational coefficients, lowest degree first.

    A :class:`~fractions.Fraction` argument is evaluated exactly on the
    rational coefficients; any other argument goes through ``float`` and
    Horner's rule on the coefficients rounded once to binary64, one rounding
    per step, which for ``x*(1-x)`` (coefficients ``(0, 1, -1)``) reproduces
    the reference initialization ``x*(1.-x)`` bit for bit.
    """

    def __init__(self, coeffs: Sequence):
        self.coeffs = tuple(to_fraction(c) for c in coeffs) or (Fraction(0),)
        self._float_coeffs = tuple(float(c) for c in self.coeffs)

    def __call__(self, x):
        if isinstance(x, Fraction):
            coeffs = self.coeffs
        else:
            coeffs, x = self._float_coeffs, float(x)
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return acc


SpaceData = Union[Callable, Sequence, None]


@dataclass
class WaveProblem:
    """Velocity, Cauchy data and source.

    ``u1 = None`` and ``s = None`` mean *identically zero by construction*;
    the solver then runs the reduced update of the reference program rather
    than adding explicit zero terms.  A source is a table of ``k_max + 1``
    per-time-step columns of ``i_max + 1`` values.
    """

    c: object
    u0: SpaceData = None
    u1: SpaceData = None
    s: Optional[Sequence] = None

    def __post_init__(self):
        positive("velocity", self.c)


class AnalyticSolution:
    """Space-time reference solution with partial derivatives.

    Subclasses provide :meth:`partial`; ``partial(0, 0)`` is the value, and
    orders up to 2 in each variable are enough for the truncation-error
    checks.
    """

    x_min = 0.0
    x_max = 1.0

    def partial(self, nx: int, nt: int, x, t):
        raise UnsupportedFeatureError(
            f"{type(self).__name__} does not expose derivatives"
        )

    def value(self, x, t):
        return self.partial(0, 0, x, t)

    def sample(self, g):
        """Yield ``value`` on the grid ``g``, one column per time step.

        Columns are built lazily, so a caller that consumes them one at a
        time never holds the whole table.  This generic version evaluates
        node by node; subclasses with a cheaper exact equivalent override it.
        """
        xs = [g.x(i) for i in range(g.i_max + 1)]
        for k in range(g.k_max + 1):
            tk = g.t(k)
            yield [self.value(x, tk) for x in xs]


@dataclass(frozen=True)
class TaylorConstants:
    """Uniform Taylor-remainder constants of degrees 3 and 4."""

    alpha3: float
    C3: float
    alpha4: float
    C4: float


class StandingWave(AnalyticSolution):
    """``sin(m pi x) * cos(m pi c t)`` on the unit interval.

    Solves the homogeneous wave equation with Dirichlet boundaries, is
    bounded by 1, and has closed-form mixed partials of every order, which
    makes it the workhorse manufactured solution.
    """

    def __init__(self, m: int, c: float):
        if not (isinstance(m, int) and m >= 1):
            raise ParameterError(f"mode number must be a positive integer, got {m}")
        self.m = m
        self.c = float(positive("velocity", c))
        self.w = m * math.pi
        self.v = m * math.pi * self.c

    def partial(self, nx: int, nt: int, x, t):
        x = float(x)
        t = float(t)
        return (
            self.w ** nx
            * self.v ** nt
            * math.sin(self.w * x + nx * math.pi / 2)
            * math.cos(self.v * t + nt * math.pi / 2)
        )

    def sample(self, g):
        """Same bits as :meth:`value`, from one sin per space node and one cos per step.

        ``partial(0, 0)`` evaluates ``(1.0 * sin(w x + 0.0)) * cos(v t + 0.0)``
        left to right; the factor 1.0 is exact, and the zero phase is kept
        because it turns a ``-0.0`` argument into ``+0.0``.  So the sine
        column times one cosine per time step rounds as the per-node product.
        """
        sx = [math.sin(self.w * float(g.x(i)) + 0.0) for i in range(g.i_max + 1)]
        for k in range(g.k_max + 1):
            ck = math.cos(self.v * float(g.t(k)) + 0.0)
            yield [s * ck for s in sx]

    def taylor_constants(self) -> TaylorConstants:
        """Lagrange-remainder constants for the degree-3 and degree-4 bounds.

        Every mixed partial of order n+1 is bounded by ``(m pi max(1,c))^(n+1)``,
        and ``|dx|+|dt| <= sqrt(2) ||(dx,dt)||`` turns the remainder into
        ``C_n ||(dx,dt)||^(n+1)`` with ``C_n = (sqrt(2) M)^(n+1) / (n+1)!``,
        valid at any radius (alpha_n fixed to 1).
        """
        big_m = self.m * math.pi * max(1.0, self.c)
        root2 = math.sqrt(2.0)
        c3 = (root2 * big_m) ** 4 / math.factorial(4)
        c4 = (root2 * big_m) ** 5 / math.factorial(5)
        return TaylorConstants(alpha3=1.0, C3=c3, alpha4=1.0, C4=c4)

    def as_problem(self) -> WaveProblem:
        """Wave problem wired for the scheme: sampled u0, u1 and source zero."""
        return WaveProblem(
            c=self.c,
            u0=lambda x: math.sin(self.w * x),
            u1=None,
            s=None,
        )


def standing_wave(m: int, c) -> StandingWave:
    return StandingWave(m, c)


def fold_index(j: int, i_max: int) -> tuple[int, int]:
    """Fold an arbitrary integer index into ``[0, i_max]`` by odd reflections.

    Returns ``(base_index, sign)`` with period ``2*i_max`` and one sign flip
    per reflection.
    """
    two_l = 2 * i_max
    m = j % two_l
    if m <= i_max:
        return m, 1
    return two_l - m, -1


def _require_zero_boundary(values: Sequence) -> None:
    i_max = len(values) - 1
    if values[0] != 0 or values[i_max] != 0:
        raise ParameterError(
            "antisymmetric extension needs zero boundary values, got "
            f"{values[0]} and {values[i_max]}"
        )


def antisym_index(values: Sequence, j: int):
    """Value of the antisymmetric extension of a sampled vector at index j.

    The vector must vanish at both ends, otherwise the extension is not
    well defined at the reflection points.  Kept as the per-index oracle
    ``tests/fraction_reference.py`` builds on; the package folds slices.
    """
    _require_zero_boundary(values)
    base, sign = fold_index(j, len(values) - 1)
    return values[base] if sign > 0 else -values[base]


def antisym_extension(values: Sequence, lo: int, hi: int) -> list:
    """``[antisym_index(values, j) for j in range(lo, hi + 1)]``, folded once.

    The boundary is checked once for the whole slice instead of once per
    index; the error is the same :class:`ParameterError`.
    """
    _require_zero_boundary(values)
    i_max = len(values) - 1
    out = []
    for j in range(lo, hi + 1):
        base, sign = fold_index(j, i_max)
        out.append(values[base] if sign > 0 else -values[base])
    return out


def antisym_value(p0, x_min, x_max, x):
    """Value of the antisymmetric extension of ``p0`` at any coordinate.

    Works in either scalar kind: with rational inputs and a ``p0`` that maps
    rationals to rationals the folding stays in rational arithmetic.
    """
    span = x_max - x_min
    u = (x - x_min) % (2 * span)
    if u <= span:
        return p0(x_min + u)
    return -p0(x_min + (2 * span - u))


class DalembertSolution(AnalyticSolution):
    """Zero-velocity d'Alembert solution on [0, 1] built from an extended initial shape.

    ``value(x, t) = (p~0(x + c t) + p~0(x - c t)) / 2`` where ``p~0`` is the
    antisymmetric extension of the first Cauchy datum.  Only the value is
    available; derivatives would need the datum's derivatives.

    A datum with rational values at rational points must vanish exactly at
    both ends, any other to within 1e-9.
    """

    def __init__(self, p0: Callable, c):
        lo, hi = (p0(to_fraction(x)) for x in (self.x_min, self.x_max))
        tol = 0 if is_rational(lo) and is_rational(hi) else 1e-9
        if abs(lo) > tol or abs(hi) > tol:
            raise ParameterError(
                f"initial shape must vanish at the boundary, got {lo}, {hi}"
            )
        self.p0 = p0
        self.c = c

    def partial(self, nx: int, nt: int, x, t):
        if nx == 0 and nt == 0:
            return self.value(x, t)
        raise UnsupportedFeatureError("d'Alembert reference exposes values only")

    def value(self, x, t):
        kind = EXACT if isinstance(x, Fraction) or isinstance(t, Fraction) else BINARY64
        x, t, c, x_min, x_max = (convert(v, kind)
                                 for v in (x, t, self.c, self.x_min, self.x_max))
        left = antisym_value(self.p0, x_min, x_max, x + c * t)
        right = antisym_value(self.p0, x_min, x_max, x - c * t)
        if kind == EXACT and not (is_rational(left) and is_rational(right)):
            raise UnsupportedFeatureError(
                "exact evaluation needs an initial shape with rational values "
                "at rational points"
            )
        return (left + right) / convert(2, kind)


def dalembert_zero_velocity(p0, c, p1=None) -> DalembertSolution:
    """Analytic solution for Cauchy data ``(p0, 0)``.

    A nonzero second datum would require a quadrature term and is refused.
    Kept, though no layer calls it, as the paper's analytic solution.
    """
    if p1 is not None:
        raise UnsupportedFeatureError(
            "nonzero initial velocity requires quadrature; only p1 = 0 is supported"
        )
    return DalembertSolution(p0, c)


def default_problem() -> WaveProblem:
    """The package's stock test problem: ``u0 = x (1 - x)``, ``u1 = s = 0``, c = 1.

    The datum is a polynomial, so exact rational runs and shadow execution
    are available; its maximum 1/4 keeps the solution inside the unit bound
    the round-off range argument expects.
    """
    return WaveProblem(c=1, u0=Polynomial((0, 1, -1)), u1=None, s=None)
