"""The fraction-free exact layers against their rational-arithmetic references.

The exact march, the local-error table, the global-error table, the
round-off bound checks, the convolution reconstruction, the closed form, the
Jacobi form and the energy series run in scaled integers;
``fraction_reference`` holds the plain Fraction loops they replaced.  Every
output must be the same list of Fractions.
"""

import math
from fractions import Fraction as Fr

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraction_reference import _local_error_table as ref_local_error_table
from fraction_reference import _march_exact as ref_march_exact
from fraction_reference import check_global_bound as ref_check_global_bound
from fraction_reference import half_step as ref_half_step
from fraction_reference import lambda_closed_form as ref_lambda_closed_form
from fraction_reference import lambda_via_jacobi as ref_lambda_via_jacobi
from fraction_reference import lambda_via_jacobi_sum as ref_lambda_via_jacobi_sum
from fraction_reference import max_abs_delta as ref_max_abs_delta
from fraction_reference import reconstruct_global_error as ref_reconstruct
from wavecheck import (
    ParameterError,
    WaveProblem,
    build_grid,
    build_table,
    check_cfl,
    check_global_bound,
    energy_series,
    lambda_closed_form,
    lambda_via_jacobi,
    local_errors,
    reconstruct_global_error,
    shadow_solve,
    solve,
)
from wavecheck.errors import DomainError
from wavecheck.problem import Polynomial, antisym_extension, antisym_index
from wavecheck.report import A_VALUES, ClaimConfig
from wavecheck.roundoff import _difference_column, _local_error_table, max_abs_delta
from wavecheck.scalars import common_column, over_one_denominator

#: First-datum scales s of u0 = s x (1 - x), as in the benchmark's seeds.
DATUM_SCALES = tuple(Fr(n, 8) for n in (8, -8, 7, -7, 6, -6, 5, -5))
#: 12 x 24 has a dx that is not dyadic, so its exact samples are not floats.
GRIDS = ((8, 16), (12, 24), (16, 32))


def as_fractions(cols):
    return [[Fr(v) for v in col] for col in cols]


@pytest.mark.parametrize("i_max,k_max", GRIDS)
@pytest.mark.parametrize("s", DATUM_SCALES, ids=str)
def test_shadow_layers_equal_references(s, i_max, k_max):
    g = build_grid(0, 1, 1, i_max, k_max)
    run = shadow_solve(WaveProblem(c=1, u0=Polynomial((0, s, -s))), g)
    ex = run.exact_run
    assert ex.columns == ref_march_exact(ex.grid, ex.a, ex.columns[0], None, None)

    fl = as_fractions(run.float_run.columns)
    delta = ref_local_error_table(fl, ex.column(0), run.a_exact)
    assert run.delta == delta
    assert local_errors(run) == delta

    table = build_table(run.a_exact, k_max)
    rec = reconstruct_global_error(run.delta, table, i_max)
    assert rec == ref_reconstruct(run.delta, table, i_max)
    assert rec == run.global_err


#: Courant numbers of the random shadow grids; t_max = cn * k_max / i_max.
COURANT_NUMBERS = (Fr(1, 2), Fr(1, 3), Fr(2, 3), Fr(3, 4), Fr(9, 10))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_round_off_checks_equal_references_on_random_grids(data):
    i_max = data.draw(st.integers(2, 24), label="i_max")
    k_max = data.draw(st.integers(2, 3 * i_max), label="k_max")
    cn = data.draw(st.sampled_from(COURANT_NUMBERS), label="cn")
    s = data.draw(st.sampled_from(DATUM_SCALES), label="s")
    g = build_grid(0, 1, cn * k_max / i_max, i_max, k_max)
    run = shadow_solve(WaveProblem(c=1, u0=Polynomial((0, s, -s))), g)
    measured = [[Fr(fl) - ex for fl, ex in zip(fl_col, ex_col)]
                for fl_col, ex_col in zip(run.float_run.columns, run.exact_run.columns)]
    assert run.global_err == measured
    assert check_global_bound(run) == ref_check_global_bound(run)
    assert max_abs_delta(run) == ref_max_abs_delta(run)


def rationals(max_den=12):
    return st.fractions(min_value=-3, max_value=3, max_denominator=max_den)


@st.composite
def exact_problems(draw):
    i_max = draw(st.integers(2, 7))
    k_max = draw(st.integers(2, 9))
    t_max = draw(st.fractions(min_value=Fr(1, 4), max_value=2, max_denominator=6))
    g = build_grid(0, 1, t_max, i_max, k_max, "exact")
    cn = draw(st.fractions(min_value=Fr(1, 50), max_value=Fr(49, 50), max_denominator=50))
    c = cn * g.dx / g.dt

    def vector():
        return [Fr(0)] + draw(st.lists(rationals(), min_size=i_max - 1,
                                       max_size=i_max - 1)) + [Fr(0)]

    u1 = vector() if draw(st.booleans()) else None
    s = ([draw(st.lists(rationals(), min_size=i_max + 1, max_size=i_max + 1))
          for _ in range(k_max + 1)] if draw(st.booleans()) else None)
    return g, WaveProblem(c=c, u0=vector(), u1=u1, s=s)


@given(exact_problems())
@settings(max_examples=40, deadline=None)
def test_exact_march_equals_reference_with_velocity_and_source(case):
    g, prob = case
    run = solve(prob, g)
    expected = ref_march_exact(g, run.a, prob.u0, prob.u1, run.source)
    assert run.columns == expected


@st.composite
def random_exact_runs(draw):
    """Exact runs shaped like the energy lower-bound claim's random runs.

    Velocity and source are each present or absent, and ``c`` is a rational
    or the float nearest to it.
    """
    i_max = draw(st.integers(2, 12))
    k_max = draw(st.integers(2, 12))
    g = build_grid(0, 1, 1, i_max, k_max, "exact")
    xi = draw(st.sampled_from([Fr(1, 2 ** 50), Fr(1, 10), Fr(1, 2)]))
    c = (1 - xi) * Fr(draw(st.integers(1, 16)), 16) * g.dx / g.dt
    if draw(st.booleans()):
        c = float(c)
        assume(check_cfl(c, g, xi))

    def vector():
        inner = st.lists(rationals(max_den=8), min_size=i_max - 1, max_size=i_max - 1)
        return [Fr(0)] + draw(inner) + [Fr(0)]

    u1 = vector() if draw(st.booleans()) else None
    s = [vector() for _ in range(k_max + 1)] if draw(st.booleans()) else None
    return solve(WaveProblem(c=c, u0=vector(), u1=u1, s=s), g, xi=xi)


@given(random_exact_runs())
@settings(max_examples=40, deadline=None)
def test_energy_series_equals_reference_half_steps(run):
    series = energy_series(run)
    expected = [ref_half_step(run, k) for k in range(run.grid.k_max)]
    assert list(zip(series.kinetic, series.values)) == expected
    assert all(type(v) is Fr for v in series.kinetic + series.values)


@st.composite
def dyadic_delta_tables(draw):
    i_max = draw(st.integers(2, 6))
    k_max = draw(st.integers(0, 7))

    def dyadic():
        return Fr(draw(st.integers(-2 ** 40, 2 ** 40)), 2 ** draw(st.integers(0, 90)))

    delta = [[Fr(0)] + [dyadic() for _ in range(i_max - 1)] + [Fr(0)]
             for _ in range(k_max + 1)]
    a = draw(st.fractions(min_value=Fr(1, 100), max_value=Fr(99, 100), max_denominator=100))
    depth = k_max + draw(st.integers(0, 2))
    return delta, build_table(a, depth), i_max


@given(dyadic_delta_tables())
@settings(max_examples=60, deadline=None)
def test_reconstruction_equals_reference_on_random_dyadic_tables(case):
    delta, table, i_max = case
    assert reconstruct_global_error(delta, table, i_max) == ref_reconstruct(delta, table, i_max)


def test_reconstruction_rejects_local_error_row_with_nonzero_boundary():
    g = build_grid(0, 1, 1, 6, 12)
    run = shadow_solve(WaveProblem(c=1, u0=Polynomial((0, 1, -1))), g)
    table = build_table(run.a_exact, 12)
    delta = [list(col) for col in run.delta]
    delta[5][6] = Fr(1, 2 ** 60)
    with pytest.raises(ParameterError, match="zero boundary"):
        ref_reconstruct(delta, table, 6)
    with pytest.raises(ParameterError, match="zero boundary"):
        reconstruct_global_error(delta, table, 6)


finite_floats = st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_local_error_table_equals_reference_on_random_floats(data):
    # Includes subnormals: a tiny value must only widen its own column.
    i_max = data.draw(st.integers(2, 6))
    k_max = data.draw(st.integers(1, 6))
    cols = [[0.0] + data.draw(st.lists(finite_floats, min_size=i_max - 1,
                                       max_size=i_max - 1)) + [0.0]
            for _ in range(k_max + 1)]
    exact0 = [Fr(0)] + data.draw(st.lists(rationals(), min_size=i_max - 1,
                                          max_size=i_max - 1)) + [Fr(0)]
    a = data.draw(st.fractions(min_value=Fr(1, 100), max_value=Fr(99, 100),
                               max_denominator=100))
    expected = ref_local_error_table(as_fractions(cols), exact0, a)
    assert _local_error_table(cols, exact0, a) == expected
    assert _local_error_table(as_fractions(cols), exact0, a) == expected


def test_scaled_row_is_the_entry_row_over_q_to_the_k():
    table = build_table(Fr(2, 7), 6)
    for k in range(7):
        row = table.scaled_row(k)
        assert [Fr(v, 7 ** k) for v in row] == [table.entry(i, k) for i in range(-k, k + 1)]
    table.scaled_row(3)[0] = -1  # a copy: the table is untouched
    assert table.entry(-3, 3) == Fr(8, 343)
    with pytest.raises(DomainError):
        table.scaled_row(7)


def test_antisym_extension_matches_pointwise_index():
    q = [Fr(0), Fr(1, 3), Fr(-2, 5), Fr(7), Fr(0)]
    assert antisym_extension(q, -11, 13) == [antisym_index(q, j) for j in range(-11, 14)]
    with pytest.raises(ParameterError, match="zero boundary"):
        antisym_extension([Fr(0), Fr(1)], 0, 1)


@given(rationals(max_den=200), st.integers(0, 30), st.data())
@settings(max_examples=80, deadline=None)
def test_closed_form_equals_reference(a, k, data):
    i = data.draw(st.integers(-k, k))
    assert lambda_closed_form(a, i, k) == ref_lambda_closed_form(a, i, k)


@given(st.fractions(min_value=Fr(1, 30), max_value=Fr(29, 30), max_denominator=30),
       st.integers(0, 14))
@settings(max_examples=60, deadline=None)
def test_lambda_via_jacobi_equals_reference(a, k):
    for i in range(-k, k + 1):
        assert lambda_via_jacobi(a, i, k) == ref_lambda_via_jacobi(a, i, k)


@pytest.mark.parametrize("a", (*A_VALUES, Fr(1, 97), Fr(96, 97), Fr(7, 13)), ids=str)
def test_lambda_via_jacobi_equals_explicit_sum_on_the_default_triangle(a):
    # The claim's whole K = 40 triangle, far past the property's k <= 14.
    K = ClaimConfig().closed_form_kmax
    for k in range(K + 1):
        for i in range(-k, k + 1):
            assert lambda_via_jacobi(a, i, k) == ref_lambda_via_jacobi_sum(a, i, k), (i, k)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_difference_column_equals_fraction_subtraction(data):
    # Subnormals and rationals with unrelated denominators in one column.
    n = data.draw(st.integers(1, 8))
    fl = data.draw(st.lists(finite_floats, min_size=n, max_size=n))
    ex = data.draw(st.lists(rationals(max_den=1000), min_size=n, max_size=n))
    assert _difference_column(fl, ex) == [Fr(f) - x for f, x in zip(fl, ex)]


#: Signed zero, the smallest subnormal (denominator 2**1074) and the floats
#: nearest to +-2, the edges of the round-off analysis' range.
EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 2.0, -2.0,
               math.nextafter(2.0, 0), -math.nextafter(2.0, 0))
binary64_columns = st.lists(st.one_of(finite_floats, st.sampled_from(EDGE_FLOATS)),
                            min_size=1, max_size=8)


@given(binary64_columns)
@settings(max_examples=100, deadline=None)
def test_common_column_reads_a_float_column_as_its_fractions(col):
    ints, den = common_column(col)
    assert (ints, den) == common_column([Fr(v) for v in col])
    assert den == max(Fr(v).denominator for v in col)
    assert [Fr(n, den) for n in ints] == [Fr(v) for v in col]


def test_common_column_puts_a_subnormal_over_two_to_the_1074():
    assert common_column([5e-324, -0.0, 1.5]) == ([1, 0, 3 * 2 ** 1073], 2 ** 1074)
    assert common_column([0, 3, -2]) == ([0, 3, -2], 1)


@given(st.lists(st.lists(rationals(max_den=30), min_size=1, max_size=5), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_over_one_denominator_keeps_every_value_over_the_lcm(cols):
    parts = [common_column(col) for col in cols]
    ints, den = over_one_denominator(*parts)
    assert den == math.lcm(*(d for _, d in parts))
    assert [[Fr(n, den) for n in col] for col in ints] == cols
    # A column already over the lcm is passed through, any other is rescaled.
    assert [out is part for out, (part, d) in zip(ints, parts)] == [d == den for _, d in parts]


def test_over_one_denominator_takes_the_lcm_not_the_largest_denominator():
    thirds, quarters = common_column([Fr(1, 3), Fr(-2, 3)]), common_column([Fr(1, 4), Fr(3, 4)])
    assert over_one_denominator(thirds, quarters) == ([[4, -8], [3, 9]], 12)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_difference_column_subtracts_columns_of_either_kind(data):
    n = data.draw(st.integers(1, 8))
    fl = data.draw(st.lists(finite_floats, min_size=n, max_size=n))
    ex = data.draw(st.lists(rationals(max_den=1000), min_size=n, max_size=n))
    assert _difference_column(ex, fl) == [x - Fr(f) for x, f in zip(ex, fl)]
    assert _difference_column(ex, ex[::-1]) == [x - y for x, y in zip(ex, ex[::-1])]
    assert _difference_column(fl, fl) == [0] * n
