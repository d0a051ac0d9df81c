import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecheck import (
    ParameterError,
    Polynomial,
    UnsupportedFeatureError,
    antisym_index,
    antisym_value,
    build_grid,
    dalembert_zero_velocity,
    default_problem,
    standing_wave,
)


def taylor_polynomial(sol, n: int, x: float, t: float, dx: float, dt: float) -> float:
    """Degree-n Taylor polynomial of ``sol`` at (x, t) evaluated at (dx, dt)."""
    total = 0.0
    for p in range(n + 1):
        inner = 0.0
        for m in range(p + 1):
            inner += (
                math.comb(p, m) * sol.partial(m, p - m, x, t) * dx ** m * dt ** (p - m)
            )
        total += inner / math.factorial(p)
    return total


def test_standing_wave_dirichlet_boundaries():
    wave = standing_wave(1, 1)
    for t in (0.0, 0.3, 1.7):
        assert wave.value(0.0, t) == 0.0
        assert abs(wave.value(1.0, t)) < 1e-15


def test_standing_wave_peak():
    wave = standing_wave(1, 1)
    assert wave.value(0.5, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_standing_wave_parameter_validation():
    with pytest.raises(ParameterError):
        standing_wave(0, 1)
    with pytest.raises(ParameterError):
        standing_wave(1, -2)


def test_standing_wave_solves_pde_by_finite_differences():
    # Central second differences with h = 1e-4 approximate the residual
    # d^2p/dt^2 - c^2 d^2p/dx^2, which is identically zero.
    wave = standing_wave(2, 1.5)
    rng = random.Random(42)
    h = 1e-4
    for _ in range(100):
        x = rng.uniform(0.1, 0.9)
        t = rng.uniform(0.0, 2.0)
        dtt = (wave.value(x, t + h) - 2 * wave.value(x, t) + wave.value(x, t - h)) / h**2
        dxx = (wave.value(x + h, t) - 2 * wave.value(x, t) + wave.value(x - h, t)) / h**2
        assert abs(dtt - wave.c**2 * dxx) < 1e-5


def test_standing_wave_closed_form_partials_match_finite_differences():
    wave = standing_wave(1, 2)
    h = 1e-5
    for (x, t) in ((0.3, 0.7), (0.62, 1.21)):
        fd_t = (wave.value(x, t + h) - wave.value(x, t - h)) / (2 * h)
        assert wave.partial(0, 1, x, t) == pytest.approx(fd_t, abs=1e-8)
        fd_xx = (wave.value(x + h, t) - 2 * wave.value(x, t) + wave.value(x - h, t)) / h**2
        assert wave.partial(2, 0, x, t) == pytest.approx(fd_xx, abs=1e-4)


def test_taylor_constants_fixture_values():
    # Derivation oracle for m=1, c=1: every order-(n+1) mixed partial is
    # bounded by pi^(n+1), so C_n = (sqrt(2) pi)^(n+1) / (n+1)!.
    tc = standing_wave(1, 1).taylor_constants()
    assert tc.C3 == pytest.approx(math.pi**4 / 6, rel=1e-12)
    assert tc.C4 == pytest.approx(math.sqrt(2) * math.pi**5 / 30, rel=1e-12)
    assert tc.alpha3 == 1.0 and tc.alpha4 == 1.0


@pytest.mark.parametrize("degree", [3, 4])
def test_taylor_remainder_bound_sampled(degree):
    wave = standing_wave(1, 1)
    tc = wave.taylor_constants()
    c_n = tc.C3 if degree == 3 else tc.C4
    rng = random.Random(degree)
    for _ in range(200):
        x = rng.uniform(0, 1)
        t = rng.uniform(0, 1)
        radius = rng.uniform(1e-3, 1.0)
        angle = rng.uniform(0, 2 * math.pi)
        dx, dt = radius * math.cos(angle), radius * math.sin(angle)
        remainder = abs(wave.value(x + dx, t + dt)
                        - taylor_polynomial(wave, degree, x, t, dx, dt))
        assert remainder <= c_n * radius ** (degree + 1) + 1e-12


def test_antisym_index_identity_on_base_domain():
    q = [Fr(0), Fr(2), Fr(-3), Fr(5), Fr(0)]
    for j in range(5):
        assert antisym_index(q, j) == q[j]


def test_antisym_index_against_reflection_oracle():
    # Independent oracle: reflect step by step until the index lands in
    # [0, i_max], flipping the sign at each reflection.
    def oracle(values, j):
        i_max = len(values) - 1
        sign = 1
        while j < 0 or j > i_max:
            if j < 0:
                j, sign = -j, -sign
            else:
                j, sign = 2 * i_max - j, -sign
        return sign * values[j]

    q = [Fr(0), Fr(1), Fr(7), Fr(-4), Fr(2), Fr(0)]
    i_max = 5
    for j in range(-3 * i_max, 3 * i_max + 1):
        assert antisym_index(q, j) == oracle(q, j)
        assert antisym_index(q, j + 2 * i_max) == antisym_index(q, j)
        assert antisym_index(q, -j) == -antisym_index(q, j)


def test_antisym_index_rejects_nonzero_boundary():
    with pytest.raises(ParameterError):
        antisym_index([Fr(1), Fr(0), Fr(0)], 1)


def test_antisym_value_left_reflection():
    p0 = Polynomial((0, 1, -1))
    for xp in (Fr(1, 5), Fr(2, 3), Fr(7, 8)):
        x = 2 * Fr(0) - xp
        assert antisym_value(p0, Fr(0), Fr(1), x) == -p0(xp)


def test_antisym_value_odd_about_left_endpoint():
    p0 = Polynomial((0, 1, -1))
    for h in (Fr(1, 7), Fr(3, 10)):
        left = antisym_value(p0, Fr(0), Fr(1), Fr(0) - h)
        right = antisym_value(p0, Fr(0), Fr(1), Fr(0) + h)
        assert left == -right


def test_dalembert_reduces_to_datum_at_t0():
    sol = dalembert_zero_velocity(Polynomial((0, 1, -1)), 1)
    for x in (Fr(1, 3), Fr(5, 8), Fr(9, 10)):
        assert sol.value(x, Fr(0)) == x * (1 - x)


def test_dalembert_matches_standing_wave():
    # Product-to-sum identity: the split traveling waves of sin(pi x)
    # recombine into the separated standing solution.
    c = 0.75
    sol = dalembert_zero_velocity(lambda x: math.sin(math.pi * x), c)
    wave = standing_wave(1, c)
    rng = random.Random(5)
    for _ in range(1000):
        x = rng.uniform(0, 1)
        t = rng.uniform(0, 3)
        assert abs(sol.value(x, t) - wave.value(x, t)) <= 1e-12


def test_dalembert_dirichlet_at_left_boundary():
    sol = dalembert_zero_velocity(Polynomial((0, 1, -1)), 1)
    for t in (Fr(1, 3), Fr(7, 4), Fr(12, 5)):
        assert sol.value(Fr(0), t) == 0


def test_dalembert_rejects_nonzero_velocity_datum():
    with pytest.raises(UnsupportedFeatureError):
        dalembert_zero_velocity(Polynomial((0, 1, -1)), 1, p1=Polynomial((0, 1, -1)))


def test_dalembert_exposes_values_only():
    sol = dalembert_zero_velocity(Polynomial((0, 1, -1)), 1)
    with pytest.raises(UnsupportedFeatureError, match="values only"):
        sol.partial(0, 1, 0.5, 0.25)


def test_dalembert_rejects_nonvanishing_datum():
    with pytest.raises(ParameterError):
        dalembert_zero_velocity(Polynomial((1, 1)), 1)


def test_polynomial_float_call_matches_reference_expression():
    u0 = Polynomial((0, 1, -1))
    rng = random.Random(9)
    for _ in range(100):
        x = rng.uniform(0, 1)
        assert u0(x) == x * (1.0 - x)


def test_default_problem_shape():
    prob = default_problem()
    assert prob.u1 is None and prob.s is None
    assert prob.u0(Fr(0)) == 0
    assert prob.u0(Fr(1)) == 0
    assert prob.u0(Fr(1, 2)) == Fr(1, 4)


def test_dalembert_matches_higher_mode():
    c = 2.0
    sol = dalembert_zero_velocity(lambda x: math.sin(2 * math.pi * x), c)
    wave = standing_wave(2, c)
    rng = random.Random(6)
    for _ in range(300):
        x, t = rng.uniform(0, 1), rng.uniform(0, 2)
        assert abs(sol.value(x, t) - wave.value(x, t)) <= 1e-12


def float_bits(values):
    """Bit patterns, so that -0.0 and 0.0 (and NaN payloads) stay apart."""
    return [v.hex() for v in values]


@st.composite
def grids(draw, kind="binary64"):
    x_min = draw(st.sampled_from((0, -1, Fr(1, 3), 2)))
    span = draw(st.sampled_from((1, Fr(1, 2), 3)))
    t_max = draw(st.sampled_from((1, Fr(1, 4), Fr(5, 2))))
    i_max = draw(st.integers(2, 30))
    k_max = draw(st.integers(2, 40))
    return build_grid(x_min, x_min + span, t_max, i_max, k_max, kind)


@given(st.integers(1, 5), st.floats(0.05, 8.0), grids())
@settings(max_examples=80, deadline=None)
def test_standing_wave_sample_equals_per_node_value(m, c, g):
    wave = standing_wave(m, c)
    cols = list(wave.sample(g))
    assert len(cols) == g.k_max + 1
    for k, col in enumerate(cols):
        expected = [wave.value(g.x(i), g.t(k)) for i in range(g.i_max + 1)]
        assert float_bits(col) == float_bits(expected)


@given(st.sampled_from(("binary64", "exact")).flatmap(grids),
       st.sampled_from((Fr(1, 2), Fr(3, 4), 1)))
@settings(max_examples=40, deadline=None)
def test_generic_sample_equals_per_node_value(g, c):
    sol = dalembert_zero_velocity(Polynomial((0, 1, -1)), c)
    expected = [[sol.value(g.x(i), g.t(k)) for i in range(g.i_max + 1)]
                for k in range(g.k_max + 1)]
    cols = list(sol.sample(g))
    if g.kind == "binary64":
        assert [float_bits(col) for col in cols] == [float_bits(col) for col in expected]
    else:
        assert cols == expected


RATIONALS = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


def horner(coeffs, x):
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


@given(st.lists(RATIONALS, min_size=1, max_size=6),
       st.floats(min_value=0, max_value=1), RATIONALS)
def test_polynomial_call_is_horner_in_the_kind_of_its_argument(coeffs, x, q):
    poly = Polynomial(coeffs)
    value = poly(x)
    assert type(value) is float
    # hex() tells -0.0 from 0.0.
    assert value.hex() == horner([float(c) for c in coeffs], x).hex()
    exact = poly(q)
    assert type(exact) is Fr and exact == horner(coeffs, q)


def test_dalembert_exactness_is_read_off_the_datum_values():
    sol = dalembert_zero_velocity(lambda x: x * (1 - x), 1)
    poly = dalembert_zero_velocity(Polynomial((0, 1, -1)), 1)
    for x, t in ((Fr(1, 3), Fr(1, 4)), (Fr(5, 8), Fr(7, 3))):
        assert sol.value(x, t) == poly.value(x, t)
        assert type(sol.value(x, t)) is Fr
    # A rational datum must vanish exactly at the ends, not to within 1e-9.
    with pytest.raises(ParameterError):
        dalembert_zero_velocity(lambda x: x * (1 - x) + Fr(1, 10 ** 12), 1)


def test_exact_dalembert_value_refuses_a_float_valued_datum():
    sol = dalembert_zero_velocity(lambda x: math.sin(math.pi * x), 1)
    assert type(sol.value(0.25, 0.5)) is float
    with pytest.raises(UnsupportedFeatureError):
        sol.value(Fr(1, 4), Fr(1, 2))
