import dataclasses
from fractions import Fraction as Fr

import pytest
from fraction_reference import check_global_bound as ref_check_global_bound
from fraction_reference import max_abs_delta as ref_max_abs_delta
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fraction_free import DATUM_SCALES

from wavecheck import (
    ParameterError,
    UnsupportedFeatureError,
    WaveProblem,
    build_grid,
    build_table,
    check_global_bound,
    default_problem,
    local_errors,
    reconstruct_global_error,
    roundoff,
    scheme,
    shadow_solve,
    solve,
)
from wavecheck.problem import Polynomial
from wavecheck.report import VERIFIED_EXACT, VIOLATED, ClaimConfig, claim_global_bound
from wavecheck.scalars import EXACT
from wavecheck.roundoff import A_GAP, GLOBAL_BOUND_SCALE, LOCAL_BOUND, max_abs_delta


@pytest.fixture(scope="module")
def shadow_10x20():
    g = build_grid(0, 1, 1, 10, 20)
    return shadow_solve(default_problem(), g)


def test_zero_problem_all_tables_zero():
    g = build_grid(0, 1, 1, 8, 16)
    run = shadow_solve(WaveProblem(c=1, u0=Polynomial((0,))), g)
    assert all(v == 0 for col in run.delta for v in col)
    assert all(v == 0 for col in run.global_err for v in col)
    assert max_abs_delta(run) == 0 == ref_max_abs_delta(run)
    rep = check_global_bound(run)
    assert rep == ref_check_global_bound(run)
    assert rep.ok and rep.norm_level_ok is True
    assert rep.worst_node is None and rep.max_ratio_exact == 0


def test_representable_samples_make_delta0_vanish():
    # i_max = 8: nodes i/8 and values i(8-i)/64 are all binary64-exact,
    # so the initialization rounds nothing.
    g = build_grid(0, 1, 1, 8, 16)
    run = shadow_solve(default_problem(), g)
    assert run.float_run.a == 0.25 and run.a_exact == Fr(1, 4)
    assert all(v == 0 for v in run.delta[0])


def test_delta0_row_matches_independent_rounding(shadow_10x20):
    run = shadow_10x20
    g = run.grid
    u0 = Polynomial((0, 1, -1))
    dx_float = (1.0 - 0.0) / 10
    for i in range(1, 10):
        computed = u0(i * dx_float)
        expected = u0(g.x(i)) - Fr(computed)
        assert run.delta[0][i] == expected


def test_boundary_rows_of_error_tables_vanish(shadow_10x20):
    run = shadow_10x20
    for k in range(21):
        assert run.delta[k][0] == 0 and run.delta[k][10] == 0
        assert run.global_err[k][0] == 0 and run.global_err[k][10] == 0


def test_global_error_regression_fixture(shadow_10x20):
    # Exact rational frozen from the first run; the schedule is deterministic.
    assert shadow_10x20.global_err[10][3] == Fr(-451, 3602879701896396800)


def test_local_errors_recompute_identically(shadow_10x20):
    assert local_errors(shadow_10x20) == shadow_10x20.delta


def test_local_bound_holds(shadow_10x20):
    run = shadow_10x20
    assert run.a_gap_ok
    assert abs(Fr(run.float_run.a) - run.a_exact) <= A_GAP
    assert max_abs_delta(run) <= LOCAL_BOUND


def test_reconstruction_exact_on_small_grid():
    g = build_grid(0, 1, 1, 6, 12)
    run = shadow_solve(default_problem(), g)
    table = build_table(run.a_exact, 12)
    rec = reconstruct_global_error(run.delta, table, 6)
    assert rec == run.global_err


def test_reconstruction_is_linear_in_local_errors():
    g = build_grid(0, 1, 1, 5, 10)
    run = shadow_solve(default_problem(), g)
    table = build_table(run.a_exact, 10)
    lam = Fr(7, 3)
    scaled = [[lam * v for v in col] for col in run.delta]
    rec = reconstruct_global_error(run.delta, table, 5)
    rec_scaled = reconstruct_global_error(scaled, table, 5)
    assert rec_scaled == [[lam * v for v in col] for col in rec]


def test_reconstruction_needs_deep_enough_table():
    g = build_grid(0, 1, 1, 5, 10)
    run = shadow_solve(default_problem(), g)
    table = build_table(run.a_exact, 5)
    with pytest.raises(ParameterError, match="depth"):
        reconstruct_global_error(run.delta, table, 5)


def test_global_bound_report(shadow_10x20):
    rep = check_global_bound(shadow_10x20)
    assert rep.ok
    assert rep.violations == []
    assert 0 < rep.max_ratio < 1
    assert rep.max_ratio == pytest.approx(0.0020512820512820513, rel=1e-12)
    assert rep.norm_level_ok is True


def with_global_err(run, edit):
    """A copy of ``run`` whose global-error columns ``edit`` has changed in place."""
    cols = [list(col) for col in run.global_err]
    edit(cols)
    return dataclasses.replace(run, global_err=cols)


def node_bound(k):
    return GLOBAL_BOUND_SCALE * (k + 1) * (k + 2)


def test_global_bound_lists_every_violation_of_a_scaled_up_table(shadow_10x20):
    run = dataclasses.replace(shadow_10x20, global_err=[
        [v * 2 ** 10 for v in col] for col in shadow_10x20.global_err])
    rep = check_global_bound(run)
    assert rep == ref_check_global_bound(run)
    nonzero = sum(1 for col in run.global_err for v in col if v)
    assert not rep.ok and 0 < len(rep.violations) < nonzero
    assert rep.max_ratio_exact == 2 ** 10 * check_global_bound(shadow_10x20).max_ratio_exact


def test_global_bound_worst_node_is_the_first_of_tied_nodes(shadow_10x20):
    def tie_in_last_column(cols):
        cols[20] = [Fr(0)] * 11
        cols[20][3], cols[20][6] = node_bound(20) / 2, -node_bound(20) / 2

    run = with_global_err(shadow_10x20, tie_in_last_column)
    rep = check_global_bound(run)
    assert rep == ref_check_global_bound(run)
    assert rep.worst_node == (3, 20) and rep.max_ratio_exact == Fr(1, 2)

    # The same ratio in an earlier column wins over both.
    run.global_err[5][7] = node_bound(5) / 2
    rep = check_global_bound(run)
    assert rep == ref_check_global_bound(run)
    assert rep.worst_node == (7, 5) and rep.ok


def test_global_bound_node_at_the_bound_is_no_violation(shadow_10x20):
    # Node 2 sits exactly on the bound; node 5 exceeds it by one unit of the
    # column's common denominator 2**70.
    def edit(cols):
        cols[4][2] = -node_bound(4)
        cols[4][5] = node_bound(4) + Fr(1, 2 ** 70)

    run = with_global_err(shadow_10x20, edit)
    rep = check_global_bound(run)
    assert rep == ref_check_global_bound(run)
    assert rep.violations == [(5, 4)] and rep.worst_node == (5, 4)


def test_norm_level_check_fails_on_one_column_and_skips_the_boundary(shadow_10x20):
    # The node-wise bound implies the norm-level one, so a column fails the
    # norm-level check only where it also fails node-wise; every other column
    # of this table passes both.
    def blow_up_interior(cols):
        cols[12] = [Fr(0)] + [Fr(1, 2 ** 20)] * 9 + [Fr(0)]

    run = with_global_err(shadow_10x20, blow_up_interior)
    rep = check_global_bound(run)
    assert rep == ref_check_global_bound(run)
    assert rep.norm_level_ok is False
    assert rep.violations == [(i, 12) for i in range(1, 10)]

    # The norm-level form sums the interior only: huge boundary values break
    # the node-wise bound and leave the norm-level one holding.
    def blow_up_boundary(cols):
        cols[12][0] = cols[12][10] = Fr(1, 2 ** 20)

    run = with_global_err(shadow_10x20, blow_up_boundary)
    rep = check_global_bound(run)
    assert rep == ref_check_global_bound(run)
    assert rep.norm_level_ok is True
    assert rep.violations == [(0, 12), (10, 12)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_node_wise_global_bound_implies_the_norm_level_one(data):
    i_max = data.draw(st.integers(2, 24), label="i_max")
    k_max = data.draw(st.integers(2 * i_max, 3 * i_max), label="k_max")  # CN <= 1/2
    s = data.draw(st.sampled_from(DATUM_SCALES), label="s")
    run = shadow_solve(WaveProblem(c=1, u0=Polynomial((0, s, -s))),
                       build_grid(0, 1, 1, i_max, k_max))
    rep = check_global_bound(run)
    if rep.ok:
        assert rep.norm_level_ok is True


@pytest.mark.parametrize("norm_level_ok,status,evidence", [
    (True, VERIFIED_EXACT, {"norm_level": "holds on all runs"}),
    (None, VERIFIED_EXACT,
     {"norm_level": "does not apply on [[8, 16]]; holds on the other runs"}),
    (False, VIOLATED, {"grid": [8, 16]}),
], ids=["holds", "does-not-apply", "fails"])
def test_global_bound_claim_reads_the_norm_level_check(monkeypatch, norm_level_ok, status,
                                                        evidence):
    # Only the 8x16 run's report is changed.  False there while the node-wise
    # bound holds contradicts the implication, so the claim reads violated.
    check = roundoff.check_global_bound

    def patched(run):
        rep = check(run)
        if run.grid.i_max == 8:
            rep = dataclasses.replace(rep, norm_level_ok=norm_level_ok)
        return rep

    monkeypatch.setattr(roundoff, "check_global_bound", patched)
    cfg = ClaimConfig(reconstruction_grids=((8, 16), (10, 20)), local_bound_grid=(12, 24))
    got_status, got = claim_global_bound(cfg)
    assert got_status == status
    assert {key: got[key] for key in evidence} == evidence


def test_computed_values_stay_in_range(shadow_10x20):
    assert shadow_10x20.range_violation is None
    # Discrete dispersion overshoots the datum's 1/4 peak slightly; the
    # claim under test is only the [-2, 2] range.
    assert shadow_10x20.float_run.max_abs() < 0.26


def test_shadow_rejects_second_datum_and_source():
    g = build_grid(0, 1, 1, 6, 12)
    u0 = Polynomial((0, 1, -1))
    with pytest.raises(UnsupportedFeatureError):
        shadow_solve(WaveProblem(c=1, u0=u0, u1=[0.0] * 7), g)
    src = [[0.0] * 7 for _ in range(13)]
    with pytest.raises(UnsupportedFeatureError):
        shadow_solve(WaveProblem(c=1, u0=u0, s=src), g)


def test_shadow_with_sampled_rational_datum():
    # Data given as rationals: the binary64 run rounds them, delta^0 records it.
    g = build_grid(0, 1, 1, 6, 12)
    u0 = [Fr(0), Fr(1, 3), Fr(1, 7), Fr(2, 3), Fr(1, 9), Fr(1, 5), Fr(0)]
    run = shadow_solve(WaveProblem(c=1, u0=u0), g)
    for i in range(1, 6):
        assert run.delta[0][i] == u0[i] - Fr(float(u0[i]))
    table = build_table(run.a_exact, 12)
    assert reconstruct_global_error(run.delta, table, 6) == run.global_err


def test_rational_lambda_datum_runs_like_the_polynomial(shadow_10x20):
    # x * (1 - x) on a Fraction is a Fraction and on a float rounds as
    # Horner's rule does, so a plain function is the same datum as the
    # default problem's polynomial in both runs.
    g = shadow_10x20.grid
    prob = WaveProblem(c=1, u0=lambda x: x * (1 - x))
    assert solve(prob, g, kind=EXACT).columns == shadow_10x20.exact_run.columns
    run = shadow_solve(prob, g)
    assert run.delta == shadow_10x20.delta
    assert run.global_err == shadow_10x20.global_err


def test_float_valued_datum_is_refused_before_any_binary64_march(monkeypatch):
    import math

    g = build_grid(0, 1, 1, 6, 12)
    prob = WaveProblem(c=1, u0=lambda x: math.sin(math.pi * x))
    with pytest.raises(UnsupportedFeatureError):
        solve(prob, g, kind=EXACT)

    def march(*args):
        raise AssertionError("the binary64 march ran before the datum was refused")

    monkeypatch.setattr(scheme, "_march_binary64", march)
    with pytest.raises(UnsupportedFeatureError):
        shadow_solve(prob, g)
