import math
import random
import re
import sys
import tracemalloc
from array import array
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecheck import (
    CflViolationError,
    NonFiniteError,
    ParameterError,
    ShapeError,
    WaveProblem,
    build_grid,
    check_cfl,
    courant_number,
    default_problem,
    scheme,
    solve,
    standing_wave,
)


def test_courant_number_and_margin():
    g = build_grid(0, 1, 1, 100, 200)
    assert courant_number(1.0, g) == 0.5
    assert check_cfl(1.0, g, 2.0 ** -50) is True


def test_cn_one_never_satisfies_margin():
    g = build_grid(0, 1, 1, 10, 10)  # dt = dx -> cn = c
    for xi in (2.0 ** -50, 0.1, 0.9):
        assert check_cfl(1.0, g, xi) is False


def test_cn_two():
    g = build_grid(0, 1, 2, 10, 10)  # dt = 0.2, dx = 0.1
    assert courant_number(1.0, g) == 2.0
    assert check_cfl(1.0, g, 0.5) is False


def test_cfl_xi_domain():
    g = build_grid(0, 1, 1, 10, 20)
    for xi in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ParameterError):
            check_cfl(1.0, g, xi)


def test_zero_problem_stays_zero():
    g = build_grid(0, 1, 1, 10, 20)
    run = solve(WaveProblem(c=1, u0=None), g)
    assert all(run.value(i, k) == 0.0 for i in range(11) for k in range(21))


def test_boundary_rows_identically_zero():
    g = build_grid(0, 1, 1, 12, 24, "exact")
    rng = random.Random(2)
    u0 = [Fr(0)] + [Fr(rng.randint(-5, 5), 7) for _ in range(11)] + [Fr(0)]
    u1 = [Fr(0)] + [Fr(rng.randint(-5, 5), 9) for _ in range(11)] + [Fr(0)]
    run = solve(WaveProblem(c=Fr(1, 2), u0=u0, u1=u1), g)
    for k in range(25):
        assert run.value(0, k) == 0
        assert run.value(12, k) == 0


def test_first_step_against_hand_applied_update():
    # Independent single-step evaluation of the initialization update at all
    # five nodes: u0 = x(1-x) on i_max = 4, dt chosen so a = 1/4.
    g = build_grid(0, 1, Fr(1, 2), 4, 4, "exact")
    run = solve(default_problem(), g)
    assert run.a == Fr(1, 4)
    q = [Fr(0), Fr(3, 16), Fr(1, 4), Fr(3, 16), Fr(0)]
    expected = [Fr(0)] + [
        q[i] + Fr(1, 8) * (q[i + 1] - 2 * q[i] + q[i - 1]) for i in (1, 2, 3)
    ] + [Fr(0)]
    assert expected[1] == Fr(11, 64) and expected[2] == Fr(15, 64)
    for i in range(5):
        assert run.value(i, 0) == q[i]
        assert run.value(i, 1) == expected[i]


def test_binary64_matches_direct_transliteration():
    # Oracle: a standalone scalar transliteration of the reference loop,
    # sharing no code with the solver.  Equality must be bit-for-bit.
    ni, nk = 12, 24
    dx = (1.0 - 0.0) / ni
    dt = 1.0 / nk
    v = 1.0
    a1 = dt / dx * v
    a = a1 * a1
    p = [[0.0] * (nk + 1) for _ in range(ni + 1)]
    for i in range(1, ni):
        x = i * dx
        p[i][0] = x * (1.0 - x)
    for i in range(1, ni):
        dp = p[i + 1][0] - 2.0 * p[i][0] + p[i - 1][0]
        p[i][1] = p[i][0] + 0.5 * a * dp
    for k in range(1, nk):
        for i in range(1, ni):
            dp = p[i + 1][k] - 2.0 * p[i][k] + p[i - 1][k]
            p[i][k + 1] = 2.0 * p[i][k] - p[i][k - 1] + a * dp

    g = build_grid(0, 1, 1, ni, nk)
    run = solve(default_problem(), g)
    assert run.a == a
    for i in range(ni + 1):
        for k in range(nk + 1):
            assert run.value(i, k) == p[i][k]


def test_linearity_in_exact_arithmetic():
    g = build_grid(0, 1, 1, 8, 16, "exact")
    rng = random.Random(4)

    def rand_vec():
        return [Fr(0)] + [Fr(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(7)] + [Fr(0)]

    def rand_src():
        return [rand_vec() for _ in range(17)]

    u0a, u1a, sa = rand_vec(), rand_vec(), rand_src()
    u0b, u1b, sb = rand_vec(), rand_vec(), rand_src()
    alpha, beta = Fr(2, 3), Fr(-5, 7)
    c = Fr(1, 3)
    run_a = solve(WaveProblem(c=c, u0=u0a, u1=u1a, s=sa), g)
    run_b = solve(WaveProblem(c=c, u0=u0b, u1=u1b, s=sb), g)
    combo = WaveProblem(
        c=c,
        u0=[alpha * x + beta * y for x, y in zip(u0a, u0b)],
        u1=[alpha * x + beta * y for x, y in zip(u1a, u1b)],
        s=[[alpha * x + beta * y for x, y in zip(ra, rb)] for ra, rb in zip(sa, sb)],
    )
    run_c = solve(combo, g)
    for k in range(17):
        for i in range(9):
            assert run_c.value(i, k) == alpha * run_a.value(i, k) + beta * run_b.value(i, k)


def test_update_residual_vanishes_exactly():
    # Recompute the three-term update from the stored field; the residual of
    # every interior node must be exactly zero in rational arithmetic.
    g = build_grid(0, 1, Fr(1, 2), 10, 10, "exact")
    run = solve(default_problem(), g)
    a = run.a
    for k in range(1, 10):
        for i in range(1, 10):
            recomputed = (
                2 * run.value(i, k) - run.value(i, k - 1)
                + a * (run.value(i + 1, k) - 2 * run.value(i, k) + run.value(i - 1, k))
            )
            assert run.value(i, k + 1) - recomputed == 0


def test_max_abs_is_nan_when_a_node_is_nan():
    run = solve(default_problem(), build_grid(0, 1, 1, 8, 16))
    assert run.max_abs() == 0.25
    run.columns[3][4] = math.nan
    assert math.isnan(run.max_abs())


def test_cfl_refusal():
    g = build_grid(0, 1, 1, 10, 10)  # cn = 1
    with pytest.raises(CflViolationError):
        solve(default_problem(), g)


@pytest.mark.parametrize("kind, cn_above", [
    ("binary64", "0.5000000000000001"),
    ("exact", "4503599627370497/9007199254740992"),
])
def test_margin_tie_is_admitted_and_the_next_velocity_refused(kind, cn_above):
    g = build_grid(0, 1, 1, 10, 20, kind)  # cn = c/2
    run = solve(WaveProblem(c=1), g, xi=0.5)
    assert run.cn == Fr(1, 2) and run.xi == 0.5
    message = f"Courant number {cn_above} exceeds 1 - xi = 1 - 0.5"
    with pytest.raises(CflViolationError, match=f"^{re.escape(message)}$"):
        solve(WaveProblem(c=math.nextafter(1.0, 2.0)), g, xi=0.5)


def test_run_stores_the_rational_margin_it_was_admitted_under():
    # 1/10 has no binary64 value, and cn = 9/10 is above 1 - float(1/10).
    g = build_grid(0, 1, 1, 10, 20, "exact")
    run = solve(WaveProblem(c=Fr(9, 5)), g, xi=Fr(1, 10))
    assert run.cn == Fr(9, 10) and run.xi == Fr(1, 10)
    assert run.cn <= 1 - run.xi


def test_kind_override_rebuilds_grid():
    g = build_grid(0, 1, 1, 8, 16)
    run = solve(default_problem(), g, kind="exact")
    assert run.grid.kind == "exact"
    assert isinstance(run.a, Fr)
    assert run.a == Fr(1, 4)


def test_source_term_enters_update():
    g = build_grid(0, 1, 1, 6, 12, "exact")
    src = [[Fr(0)] * 7 for _ in range(13)]
    src[1][3] = Fr(5)  # first source level consumed when producing column 2
    run = solve(WaveProblem(c=Fr(1, 2), u0=None, s=src), g)
    assert all(run.value(i, 1) == 0 for i in range(7))
    assert run.value(3, 2) == g.dt * g.dt * 5


@pytest.mark.parametrize("columns", [5, 12, 14])
def test_source_table_needs_one_column_per_time_level(columns):
    g = build_grid(0, 1, 1, 6, 12)
    with pytest.raises(ShapeError, match="source has"):
        solve(WaveProblem(c=1, s=[[0.0] * 7] * columns), g)


@pytest.mark.parametrize("problem,error,message", [
    (WaveProblem(c=1, u0=[1.0] + [0.0] * 6), ParameterError, "sampled u0 must vanish"),
    (WaveProblem(c=1, u1=[0.0] * 6 + [2.0]), ParameterError, "sampled u1 must vanish"),
    (WaveProblem(c=1, s=[[0.0] * 7] * 12 + [[0.0] * 6]), ShapeError,
     "source column 12 has length 6"),
])
def test_sampled_data_that_do_not_fit_the_grid_are_refused(problem, error, message):
    with pytest.raises(error, match=message):
        solve(problem, build_grid(0, 1, 1, 6, 12))


def march_oracle(g, a, u0, u1, source):
    """The node-by-node binary64 loop the comprehension march replaced."""
    imax = g.i_max
    dt = g.dt
    ha = 0.5 * a
    dt2 = dt * dt
    cols = [list(u0)]

    prev = cols[0]
    col = [0.0] * (imax + 1)
    for i in range(1, imax):
        dp = (prev[i + 1] - 2.0 * prev[i]) + prev[i - 1]
        if u1 is None:
            col[i] = prev[i] + ha * dp
        else:
            col[i] = (prev[i] + dt * u1[i]) + ha * dp
    cols.append(col)

    for k in range(1, g.k_max):
        pk = cols[k]
        pkm1 = cols[k - 1]
        nxt = [0.0] * (imax + 1)
        if source is None:
            for i in range(1, imax):
                dp = (pk[i + 1] - 2.0 * pk[i]) + pk[i - 1]
                nxt[i] = (2.0 * pk[i] - pkm1[i]) + a * dp
        else:
            sk = source[k]
            for i in range(1, imax):
                dp = (pk[i + 1] - 2.0 * pk[i]) + pk[i - 1]
                nxt[i] = ((2.0 * pk[i] - pkm1[i]) + a * dp) + dt2 * sk[i]
        cols.append(nxt)
    return cols


@given(st.data(), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_binary64_march_equals_node_loop_oracle(data, with_u1, with_source):
    i_max = data.draw(st.integers(2, 25))
    k_max = data.draw(st.integers(2, 40))
    g = build_grid(0, 1, data.draw(st.sampled_from((1, Fr(1, 3), 2))), i_max, k_max)
    values = st.floats(-4.0, 4.0)

    def column():
        return [0.0] + data.draw(st.lists(values, min_size=i_max - 1,
                                          max_size=i_max - 1)) + [0.0]

    a = data.draw(st.floats(0.0, 1.0))
    u0 = column()
    u1 = column() if with_u1 else None
    source = [column() for _ in range(k_max + 1)] if with_source else None
    got = scheme._march_binary64(g, a, u0, u1, source)
    assert all(type(col) is array and col.typecode == "d" for col in got)
    want = march_oracle(g, a, u0, u1, source)
    assert [[v.hex() for v in col] for col in got] == [[v.hex() for v in col] for col in want]


#: The two regroupings of the C update that no claim tells apart from it.
C_REGROUPINGS = {
    "(2c + a*dp) - o": lambda l, c, r, o, a: (2.0 * c + a * ((r - 2.0 * c) + l)) - o,
    "dp = (r + l) - 2c": lambda l, c, r, o, a: (2.0 * c - o) + a * ((r + l) - 2.0 * c),
}


@pytest.mark.parametrize("regrouping", C_REGROUPINGS)
def test_node_loop_oracle_tells_each_regrouping_from_the_c_order(regrouping):
    # The C operation order is pinned here, by march_oracle, not by any claim:
    # a march that regroups the update passes every claim but differs in bits.
    update = C_REGROUPINGS[regrouping]
    g = build_grid(0, 1, 1, 10, 20)
    a = courant_number(1, g) ** 2
    u0 = scheme._sample_space(standing_wave(1, 1).as_problem().u0, g, "u0")
    want = march_oracle(g, a, u0, None, None)
    regrouped = want[:2]  # the first step has no 2c - o term
    for k in range(1, g.k_max):
        cur, prev = regrouped[k], regrouped[k - 1]
        regrouped.append([0.0, *(update(cur[i - 1], cur[i], cur[i + 1], prev[i], a)
                                 for i in range(1, g.i_max)), 0.0])
    assert regrouped != want


def test_binary64_run_retains_at_most_10_bytes_a_node():
    # A list of boxed floats retains about 32 bytes a node; an array('d')
    # column holds 8, plus one header per column.
    g = build_grid(0, 1, 1, 200, 400)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = solve(default_problem(), g)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nodes = (g.i_max + 1) * (g.k_max + 1)
    assert len(run.columns) == g.k_max + 1
    assert retained <= 10 * nodes


def test_binary64_columns_are_allocated_at_their_exact_size():
    # An array('d') built from bytes over-allocates by a sixteenth, about
    # 8.5 bytes a node, which the 10-byte bound above would let through.
    run = solve(default_problem(), build_grid(0, 1, 1, 200, 400))
    for col in run.columns:
        assert len(col) == 201
        assert sys.getsizeof(col) == sys.getsizeof(array("d", list(col)))


@pytest.mark.parametrize("col", [
    [0.0, 1e308, 1e308, 0.0],
    [0.0, -1e308, -1e308, 1.0, 0.0],
    [0.0, 1.0, -2.5, 0.0],
])
def test_nonfinite_check_passes_finite_columns_whose_sum_overflows(col):
    scheme._abort_on_nonfinite(col, 7)


@pytest.mark.parametrize("col,i", [
    ([0.0, 1.0, math.inf, math.nan, 0.0], 2),
    ([0.0, 1e308, 1e308, math.nan, 0.0], 3),
    ([0.0, math.inf, -math.inf, 0.0], 1),
    ([0.0, 2.0, -math.inf], 2),
])
def test_nonfinite_check_reports_the_first_bad_node(col, i):
    with pytest.raises(NonFiniteError) as err:
        scheme._abort_on_nonfinite(col, 7)
    assert (err.value.i, err.value.k) == (i, 7)


def test_nonfinite_abort_reports_first_node():
    # Inside the margin (cn = 1/2), 2.0 * 1e308 overflows in the first step,
    # so the run aborts at the first non-finite node of the node-loop march.
    # A non-finite datum is reported at its own node in column 0, not at a
    # neighbour it spoils in column 1.
    g = build_grid(0, 1, 1, 12, 24)
    for value, nodes, first in ((1e308, (7,), (7, 1)), (1e308, (3, 9), (3, 1)),
                                (math.nan, (3,), (3, 0)), (math.inf, (3,), (3, 0))):
        u0 = [value if i in nodes else 0.0 for i in range(13)]
        with pytest.raises(NonFiniteError) as err:
            solve(WaveProblem(c=1, u0=u0), g)
        assert (err.value.i, err.value.k) == first
        oracle = march_oracle(g, courant_number(1, g) ** 2, u0, None, None)
        assert first == next((i, k) for k, col in enumerate(oracle)
                             for i, v in enumerate(col) if not math.isfinite(v))


@pytest.mark.parametrize("problem,node", [
    (WaveProblem(c=3, u0=default_problem().u0), (8, 379)),
    (standing_wave(1, 3).as_problem(), (49, 390)),
])
def test_unstable_run_aborts_at_the_recorded_node(problem, node):
    # c = 3 on 200 x 400 gives cn = 1.5, which solve refuses, so the march
    # is driven directly; the nodes were recorded from the node-by-node march.
    g = build_grid(0, 1, 1, 200, 400)
    with pytest.raises(CflViolationError):
        solve(problem, g)
    u0 = scheme._sample_space(problem.u0, g, "u0")
    u1 = scheme._sample_space(problem.u1, g, "u1") if problem.u1 is not None else None
    a = courant_number(problem.c, g) ** 2
    with pytest.raises(NonFiniteError) as err:
        scheme._march_binary64(g, a, u0, u1, scheme._sample_source(problem.s, g))
    assert (err.value.i, err.value.k) == node
