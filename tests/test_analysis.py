import math
from dataclasses import replace
from fractions import Fraction as Fr

import pytest

from wavecheck import (
    AnalyticSolution,
    ParameterError,
    WaveProblem,
    build_grid,
    convergence_error,
    default_problem,
    derive_constants,
    estimate_order,
    max_norm_over_time,
    optimal_dt,
    refinement_chain,
    solve,
    standing_wave,
    total_error_bound,
    truncation_error,
)
from wavecheck.analysis import bound_along_cn, problem_for
from wavecheck.errors import DomainError
from wavecheck.report import constants_match_oracle


class ZeroSolution(AnalyticSolution):
    c = 1.0

    def partial(self, nx, nt, x, t):
        return 0.0


class AffineSolution(AnalyticSolution):
    """a + b x + c t: every second difference vanishes, exactly in rationals."""

    c = Fr(1, 2)

    def __init__(self, a0=Fr(1, 3), bx=Fr(2, 7), ct=Fr(-3, 5)):
        self.a0, self.bx, self.ct = a0, bx, ct

    def partial(self, nx, nt, x, t):
        if (nx, nt) == (0, 0):
            return self.a0 + self.bx * x + self.ct * t
        if (nx, nt) == (1, 0):
            return self.bx
        if (nx, nt) == (0, 1):
            return self.ct
        return Fr(0)


class SeparableRational(AnalyticSolution):
    """x(1-x)(1 + t + t^2): rational space-time table for exact identities."""

    c = Fr(1, 2)

    def value(self, x, t):
        return x * (1 - x) * (1 + t + t * t)

    def partial(self, nx, nt, x, t):
        if (nx, nt) == (0, 0):
            return self.value(x, t)
        if (nx, nt) == (0, 1):
            return x * (1 - x) * (1 + 2 * t)
        raise NotImplementedError


def test_convergence_error_zero_problem_is_zero():
    g = build_grid(0, 1, 1, 8, 16)
    run = solve(WaveProblem(c=1, u0=None), g)
    table = convergence_error(ZeroSolution(), run)
    assert all(table.value(i, k) == 0.0 for i in range(9) for k in range(17))


def test_convergence_error_boundary_nodes_vanish():
    wave = standing_wave(1, 1)
    g = build_grid(0, 1, 1, 20, 40)
    run = solve(problem_for(wave), g)
    table = convergence_error(wave, run)
    for k in range(41):
        assert abs(table.value(0, k)) == 0.0
        assert abs(table.value(20, k)) < 1e-15  # sin(pi * 1.0) in binary64


def test_convergence_error_regression_value():
    # Frozen from the first run of this configuration; deterministic.
    wave = standing_wave(1, 1)
    g = refinement_chain([100], 0.5, 1.0)[0]
    run = solve(problem_for(wave), g)
    err = max_norm_over_time(convergence_error(wave, run), g)
    assert err == pytest.approx(3.968691806691436e-05, rel=1e-9)


def test_truncation_error_vanishes_for_affine_solutions():
    ref = AffineSolution()
    g = build_grid(0, 1, 1, 8, 12, "exact")
    table = truncation_error(ref, g, ref.c)
    for k in range(13):
        for i in range(9):
            assert table.value(i, k) == 0


def test_truncation_error_boundary_rows_zero():
    wave = standing_wave(1, 1)
    g = build_grid(0, 1, 1, 16, 32)
    table = truncation_error(wave, g, 1.0)
    for k in range(33):
        assert table.value(0, k) == 0.0
        assert table.value(16, k) == 0.0


def test_truncation_error_quarters_when_grid_halves():
    wave = standing_wave(1, 1)
    g1, g2 = refinement_chain([50, 100], 0.5, 1.0)
    n1 = max_norm_over_time(truncation_error(wave, g1, 1.0), g1)
    n2 = max_norm_over_time(truncation_error(wave, g2, 1.0), g2)
    assert 3.5 <= n1 / n2 <= 4.5


def test_truncation_error_needs_time_derivative():
    class NoDerivatives(AnalyticSolution):
        def partial(self, nx, nt, x, t):
            if (nx, nt) == (0, 0):
                return 0.0
            raise NotImplementedError("no derivatives")

    g = build_grid(0, 1, 1, 6, 6)
    with pytest.raises(NotImplementedError):
        truncation_error(NoDerivatives(), g, 1.0)


def test_convergence_error_solves_scheme_with_truncation_inputs():
    # Linearity fact used throughout: the error of the sampled reference is
    # itself a scheme solution whose inputs are the truncation residuals.
    # Pure algebra, so it must hold exactly for any smooth-enough table.
    ref = SeparableRational()
    g = build_grid(0, 1, 1, 6, 8, "exact")
    c = ref.c
    eps = truncation_error(ref, g, c)

    samples = [[ref.value(g.x(i), g.t(k)) for i in range(7)] for k in range(9)]
    u1 = [Fr(0)] + [ref.partial(0, 1, g.x(i), Fr(0)) for i in range(1, 6)] + [Fr(0)]
    run = solve(WaveProblem(c=c, u0=samples[0], u1=u1), g)
    e_measured = [[samples[k][i] - run.value(i, k) for i in range(7)] for k in range(9)]

    eps1 = [eps.value(i, 1) for i in range(7)]
    src = [[eps.value(i, k + 1) for i in range(7)] for k in range(8)] + [[Fr(0)] * 7]
    e_run = solve(WaveProblem(c=c, u0=None, u1=eps1, s=src), g)
    for k in range(9):
        for i in range(7):
            assert e_run.value(i, k) == e_measured[k][i]


def test_estimate_order_needs_three_grids():
    wave = standing_wave(1, 1)
    grids = refinement_chain([10, 20], 0.5, 1.0)
    with pytest.raises(ParameterError, match="3 grids"):
        estimate_order(wave, grids)


def test_estimate_order_zero_family_is_undefined():
    grids = refinement_chain([8, 16, 32], 0.5, 1.0)
    with pytest.raises(DomainError):
        estimate_order(ZeroSolution(), grids)


def test_estimate_order_quick_chain():
    wave = standing_wave(1, 1)
    grids = refinement_chain([10, 20, 40], 0.5, 1.0)
    fit = estimate_order(wave, grids)
    assert 1.8 <= fit.slope <= 2.2


def test_derive_constants_worked_examples():
    k = derive_constants(0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    assert k.C_prime == 3.0
    assert k.C_second == 4.0
    assert k.C_Delta == pytest.approx(234 * 2.0 ** -53 * math.sqrt(2), rel=1e-15)

    k2 = derive_constants(0.5, 1.0, 1.0, 2.0, 2.0, 1.0, 0.5, 0.0, 1.0)
    assert k2.alpha_e == 0.5  # min picks t_max


def test_derive_constants_validation():
    with pytest.raises(ParameterError):
        derive_constants(1.5, 1, 1, 1, 1, 1, 1, 0, 1)
    with pytest.raises(ParameterError):
        derive_constants(0.5, -1, 1, 1, 1, 1, 1, 0, 1)


def test_derive_constants_against_interval_oracle():
    k = derive_constants(0.37, 2.5, 7.25, 1.5, 0.75, 2.0, 3.0, -1.0, 2.0)
    assert constants_match_oracle(k)


def test_total_error_bound_guard():
    k = derive_constants(0.5, 1, 1, 1, 1, 1, 1, 0, 1)
    with pytest.raises(ParameterError, match="alpha"):
        total_error_bound(k, 0.5, 0.5)  # hypot 0.707 > alpha_Delta = 0.5
    assert total_error_bound(k, 0.01, 0.005) > 0


def test_total_error_bound_without_roundoff_term_decreases():
    k = derive_constants(0.5, 1, 1, 1, 1, 1, 1, 0, 1)
    k0 = replace(k, C_Delta=0.0)
    values = [total_error_bound(k0, dx, dx / 2) for dx in (0.04, 0.02, 0.01)]
    assert values == sorted(values, reverse=True)


def test_optimal_dt_symmetric_toy_matches_calculus():
    # dB/ddt = 0 gives dt* = (C_Delta / (2 C_e))^(1/4) when c = cn.
    k = derive_constants(0.5, 1, 1, 1, 1, 1, 1, 0, 1)
    k = replace(k, c=0.5, C_e=1.0, C_Delta=1.0, alpha_e=2.0, alpha_Delta=2.0)
    dt_star, bound_star = optimal_dt(k, 0.5)
    assert dt_star == pytest.approx(0.5 ** 0.25, rel=1e-12)
    assert bound_star == pytest.approx(bound_along_cn(k, 0.5, dt_star), rel=1e-12)


def test_optimal_dt_grid_search_oracle():
    k = derive_constants(0.25, 2.0, 3.0, 1.0, 1.0, 1.0, 2.0, 0.0, 1.0)
    cn = 0.5
    dt_star, bound_star = optimal_dt(k, cn)
    factor = math.sqrt(1.0 + (k.c / cn) ** 2)
    hi = min(k.alpha_e, k.alpha_Delta) / factor
    for j in range(1, 101):
        dt = hi * j / 100.0
        assert bound_star <= bound_along_cn(k, cn, dt) * (1 + 1e-12)


def test_optimal_dt_lower_clamp_when_roundoff_free():
    k = derive_constants(0.5, 1, 1, 1, 1, 1, 1, 0, 1)
    k = replace(k, C_Delta=0.0)
    dt_star, _ = optimal_dt(k, 0.5, dt_min=1e-6)
    assert dt_star == 1e-6


def test_optimal_dt_validation():
    k = derive_constants(0.5, 1, 1, 1, 1, 1, 1, 0, 1)
    with pytest.raises(ParameterError):
        optimal_dt(k, 0.9)  # cn > 1 - xi
    with pytest.raises(ParameterError, match="empty feasible region"):
        optimal_dt(k, 0.5, dt_min=10.0)


def test_measured_total_error_within_bound():
    wave = standing_wave(1, 1)
    tc = wave.taylor_constants()
    k = derive_constants(0.5, tc.C3, tc.C4, tc.alpha3, tc.alpha4, 1.0, 1.0, 0.0, 1.0)
    g = refinement_chain([50], 0.5, 1.0)[0]
    run = solve(problem_for(wave), g)
    measured = max_norm_over_time(convergence_error(wave, run), g)
    assert measured <= total_error_bound(k, float(g.dx), float(g.dt))


def test_total_error_bound_monotone_in_constants():
    k = derive_constants(0.5, 1, 1, 1, 1, 1, 1, 0, 1)
    base = total_error_bound(k, 0.01, 0.005)
    assert total_error_bound(replace(k, C_e=2 * k.C_e), 0.01, 0.005) > base
    assert total_error_bound(replace(k, C_Delta=2 * k.C_Delta), 0.01, 0.005) > base


@pytest.mark.parametrize("cn,xi", [(0.5, 0.5), (0.75, 0.25), (0.25, 0.5)])
def test_total_error_claim_margin_follows_its_courant_number(monkeypatch, cn, xi):
    from wavecheck import analysis, report

    margins = []
    derive = analysis.derive_constants

    def recording(margin, *args):
        margins.append(margin)
        return derive(margin, *args)

    monkeypatch.setattr(analysis, "derive_constants", recording)
    monkeypatch.setattr(report, "ORDER_CN", cn)
    monkeypatch.setattr(report, "TOTAL_ERROR_CHAIN", (10, 20))
    report.claim_total_error(report.ClaimConfig())
    assert margins == [xi] == [analysis.constants_margin(cn)]
