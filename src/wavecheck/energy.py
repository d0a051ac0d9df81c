"""Discrete energy at half time steps, its lower bound, and the stability estimate.

``E^{k+1/2} = 1/2 ||(p^{k+1}-p^k)/dt||^2 + 1/2 <p^k, p^{k+1}>_{A_h}``

With an inactive source the series is constant -- exactly so in rational
arithmetic, which is what the acceptance suite pins.  The stability estimate
``sqrt(E^{k+1/2}) <= C1 + C2 dt sum_k' ||s^k'||`` is validated with certified
rational square-root comparisons so that "holds" means holds, not "holds up
to float noise".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from operator import mul

from .errors import ParameterError
from .grid import apply_Ah, dot_dx
from .scalars import (EXACT, Scalar, certified_sqrt_leq, check_margin, common_column, convert,
                      nan_or, to_fraction)
from .scheme import SchemeRun


@dataclass
class EnergySeries:
    """Per half step ``k + 1/2``: the kinetic sum and the energy, each evaluated once."""

    kinetic: list
    values: list

    def drift(self) -> Scalar:
        """max_k |E^{k+1/2} - E^{1/2}| through ``scalars.nan_or``: NaN if an energy is
        NaN, 0 for exact zero-source runs."""
        return nan_or(max, (abs(v - self.values[0]) for v in self.values))


def energy_series(run: SchemeRun) -> EnergySeries:
    """The one pass over a run's half steps that every energy check reads.

    Exact runs read each column once as integers over its lcm, so each half
    step's kinetic and potential sums are one integer each.  The scales
    ``dx/dt^2 = kn/kd`` and ``-c^2/dx = pn/pd`` enter as integers too, so a
    half step builds two Fractions: the kinetic term, and the energy over the
    kinetic term's reduced denominator.
    """
    g = run.grid
    kinetic, values = [], []
    if g.kind == EXACT:
        c = convert(run.problem.c, EXACT)
        kinetic_scale, potential_scale = g.dx / (g.dt * g.dt), -c * c / g.dx
        kn, kd = kinetic_scale.numerator, kinetic_scale.denominator
        pn, pd = potential_scale.numerator, potential_scale.denominator
        for (n0, d0), (n1, d1) in pairwise(map(common_column, run.columns)):
            s0, s1 = d0 // (e := math.gcd(d0, d1)), d1 // e  # lcm(d0, d1) = d1 s0
            diff = [b * s0 - a * s1 for a, b in zip(n0[1:-1], n1[1:-1])]
            stencil = sum(((r - 2 * m) + l) * n for l, m, r, n in zip(n0, n0[1:], n0[2:], n1[1:]))
            kin = Fraction(sum(map(mul, diff, diff)) * kn, (d1 * s0) ** 2 * kd)
            pot_den = d0 * d1 * pd
            kinetic.append(kin)
            values.append(Fraction(kin.numerator * pot_den + stencil * pn * kin.denominator,
                                   2 * kin.denominator * pot_den))
    else:
        for pk, pk1 in pairwise(run.columns):
            v = [(b - a) / g.dt for a, b in zip(pk, pk1)]
            kinetic.append(dot_dx(v, v, g))
            # x / 2 == 0.5 * x bit for bit in binary64: halving adds no rounding.
            values.append(kinetic[-1] / 2 + dot_dx(apply_Ah(run.problem.c, g, pk), pk1, g) / 2)
    return EnergySeries(kinetic, values)


def energy_lower_bound_gap(series: EnergySeries, cn, k: int) -> Scalar:
    """``E^{k+1/2} - (1 - CN^2)/2 * ||(p^{k+1}-p^k)/dt||^2``; >= 0 under the margin."""
    return series.values[k] - (1 - cn ** 2) / 2 * series.kinetic[k]


def lower_bound_failures(series: EnergySeries, cn) -> tuple[list, list]:
    """Every half step's gap, and ``(k, E, gap)`` where ``E >= 0 and gap >= 0`` is false."""
    gaps = [energy_lower_bound_gap(series, cn, k) for k in range(len(series.values))]
    return gaps, [(k, e, gap) for k, (e, gap) in enumerate(zip(series.values, gaps))
                  if not (e >= 0 and gap >= 0)]


def stability_constants(xi: float, e_half) -> tuple[float, float]:
    """Constants of the uniform energy estimate.

    ``C1 = sqrt(E^{1/2})`` of the actual run (the estimate's constants may
    depend on the Cauchy data, and that is the concrete reading), and
    ``C2 = 1/sqrt(2 xi (2 - xi))``.
    """
    check_margin(xi)
    if e_half < 0:
        raise ParameterError(f"E^(1/2) must be nonnegative, got {e_half}")
    c1 = math.sqrt(float(e_half))
    c2 = 1.0 / math.sqrt(2.0 * float(xi) * (2.0 - float(xi)))
    return c1, c2


def c2_squared(xi) -> Fraction:
    """Exact ``C2^2 = 1 / (2 xi (2 - xi))`` for rational-arithmetic checks."""
    x = to_fraction(check_margin(xi))
    return 1 / (2 * x * (2 - x))


def check_energy_estimate(run: SchemeRun, series: EnergySeries) -> list:
    """Validate ``sqrt(E^{k+1/2}) <= C1 + C2 dt sum_{k'=1}^{k} ||s^{k'}||`` for all k.

    ``series`` is ``energy_series(run)``, and ``C2`` is taken at the run's
    own margin ``run.xi``.  The result lists the half steps where the
    estimate fails: findings, not exceptions.  A half step whose energy is
    not ``>= 0`` (negative, or NaN) fails before any square root is taken,
    and C1 is taken from ``max(E^{1/2}, 0)``.  Exact runs are decided with
    certified rational square-root enclosures.  Binary64 runs allow a slack
    of ``-1e-12 * max(1, rhs)``: their energy drifts by rounding, so an exact
    decision on the floats would report violations that are not instability.
    On the binary64 standing wave at 100 x 200 (``energy --scalar binary64
    --problem standing``), 171 of the 200 half step energies exceed
    ``E^{1/2}``, by at most 8.9e-15.
    """
    xi = run.xi
    g = run.grid
    e0 = series.values[0]

    source_sq = [None] * (g.k_max + 1)
    if run.source is not None:
        source_sq[1:] = [dot_dx(col, col, g) for col in run.source[1:]]

    violations = []
    if g.kind == EXACT:
        c2sq = c2_squared(xi)
        dt2 = g.dt * g.dt
        terms = [max(to_fraction(e0), 0)]
        for k in range(g.k_max):
            if k >= 1 and source_sq[k] is not None:
                terms.append(c2sq * dt2 * source_sq[k])
            e = series.values[k]
            if not (e >= 0 and certified_sqrt_leq(e, terms)):
                violations.append(k)
        return violations

    c1, c2 = stability_constants(xi, max(float(e0), 0.0))
    acc = 0.0
    for k in range(g.k_max):
        if k >= 1 and source_sq[k] is not None:
            acc += math.sqrt(max(float(source_sq[k]), 0.0))
        rhs = c1 + c2 * float(g.dt) * acc
        e = float(series.values[k])
        if not (e >= 0 and rhs - math.sqrt(e) >= -1e-12 * max(1.0, rhs)):
            violations.append(k)
    return violations
