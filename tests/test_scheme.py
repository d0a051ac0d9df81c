import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecheck import (
    CflViolationError,
    NonFiniteError,
    ParameterError,
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
    rep = check_cfl(1.0, g, 2.0 ** -50)
    assert rep.cn == 0.5
    assert rep.satisfied


def test_cn_one_never_satisfies_margin():
    g = build_grid(0, 1, 1, 10, 10)  # dt = dx -> cn = c
    for xi in (2.0 ** -50, 0.1, 0.9):
        assert not check_cfl(1.0, g, xi).satisfied


def test_cn_two():
    g = build_grid(0, 1, 2, 10, 10)  # dt = 0.2, dx = 0.1
    assert courant_number(1.0, g) == 2.0
    assert not check_cfl(1.0, g, 0.5).satisfied


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


def test_cfl_refusal_and_warn_only():
    g = build_grid(0, 1, 1, 10, 10)  # cn = 1
    with pytest.raises(CflViolationError):
        solve(default_problem(), g)
    with pytest.warns(UserWarning):
        run = solve(default_problem(), g, enforce_cfl=False)
    assert not run.cfl.satisfied


def test_nonfinite_abort_reports_first_node():
    g = build_grid(0, 1, 1, 50, 150)  # cn = 10 with c = 30: violently unstable
    prob = WaveProblem(c=30, u0=default_problem().u0)
    with pytest.warns(UserWarning):
        with pytest.raises(NonFiniteError) as err:
            solve(prob, g, enforce_cfl=False)
    assert 0 <= err.value.i <= 50
    assert 0 <= err.value.k <= 150


def test_kind_override_rebuilds_grid():
    g = build_grid(0, 1, 1, 8, 16)
    run = solve(default_problem(), g, kind="exact")
    assert run.kind == "exact"
    assert isinstance(run.a, Fr)
    assert run.a == Fr(1, 4)


def test_source_term_enters_update():
    g = build_grid(0, 1, 1, 6, 12, "exact")
    src = [[Fr(0)] * 7 for _ in range(13)]
    src[1][3] = Fr(5)  # first source level consumed when producing column 2
    run = solve(WaveProblem(c=Fr(1, 2), u0=None, s=src), g)
    assert all(run.value(i, 1) == 0 for i in range(7))
    assert run.value(3, 2) == g.dt * g.dt * 5


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
    want = march_oracle(g, a, u0, u1, source)
    assert [[v.hex() for v in col] for col in got] == [[v.hex() for v in col] for col in want]


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


@pytest.mark.parametrize("problem,node", [
    (WaveProblem(c=3, u0=default_problem().u0), (8, 379)),
    (standing_wave(1, 3).as_problem(), (49, 390)),
])
def test_unstable_run_aborts_at_the_recorded_node(problem, node):
    # c = 3 on 200 x 400 gives cn = 1.5; the nodes were recorded from the
    # node-by-node march.
    g = build_grid(0, 1, 1, 200, 400)
    with pytest.warns(UserWarning):
        with pytest.raises(NonFiniteError) as err:
            solve(problem, g, enforce_cfl=False)
    assert (err.value.i, err.value.k) == node
