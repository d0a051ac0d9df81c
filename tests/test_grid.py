import math
import random
import sys
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecheck import (
    ParameterError,
    apply_Ah,
    build_grid,
    dot_dx,
    norm_dx,
    scalars,
)
from wavecheck.errors import ShapeError
from wavecheck.scalars import certified_sqrt_leq, sqrt_bounds


def test_build_grid_binary64_steps():
    g = build_grid(0, 1, 1, 100, 200)
    assert g.dx == 0.01
    assert g.dt == 0.005


def test_build_grid_rejects_tiny_interval_counts():
    with pytest.raises(ParameterError, match="greater than one"):
        build_grid(0, 1, 1, 1, 10)
    with pytest.raises(ParameterError, match="greater than one"):
        build_grid(0, 1, 1, 10, 1)


def test_build_grid_rejects_empty_domains():
    with pytest.raises(ParameterError):
        build_grid(1, 1, 1, 10, 10)
    with pytest.raises(ParameterError):
        build_grid(0, 1, 0, 10, 10)


def test_build_grid_refuses_node_tables_beyond_sys_maxsize_bytes():
    # i_max = 3 gives 4 nodes a column, 32 bytes at 8 bytes a node.
    k_max = sys.maxsize // 32 - 1
    assert build_grid(0, 1, 1, 3, k_max).k_max == k_max
    nodes = 4 * (k_max + 2)
    message = f"give {nodes} nodes, which need more than {sys.maxsize} bytes"
    with pytest.raises(ParameterError, match=message):
        build_grid(0, 1, 1, 3, k_max + 1, "exact")


def test_build_grid_exact_rational_steps():
    g = build_grid(0, 1, 2, 4, 8, "exact")
    assert g.dx == Fr(1, 4)
    assert g.dt == Fr(1, 4)
    assert g.i_max * g.dx == g.x_max - g.x_min
    assert g.k_max * g.dt == g.t_max


def test_dot_dx_zero_vector():
    g = build_grid(0, 1, 1, 10, 10)
    q = [0.0] * 11
    assert dot_dx(q, q, g) == 0.0
    assert norm_dx(q, g) == 0.0


def test_dot_dx_single_interior_term():
    g = build_grid(0, 1, 1, 100, 200)
    q = [0.0] * 101
    q[1] = 1.0
    assert dot_dx(q, q, g) == pytest.approx(0.01, rel=1e-15)
    assert norm_dx(q, g) == pytest.approx(0.1, rel=1e-15)


def test_dot_dx_shape_error():
    g = build_grid(0, 1, 1, 10, 10)
    with pytest.raises(ShapeError):
        dot_dx([0.0] * 5, [0.0] * 11, g)


@st.composite
def exact_vectors(draw, length=9):
    vals = draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=16),
        min_size=length, max_size=length))
    return vals


@given(exact_vectors(), exact_vectors())
@settings(max_examples=30, deadline=None)
def test_dot_dx_commutes_exactly(q, r):
    g = build_grid(0, 1, 1, 8, 8, "exact")
    assert dot_dx(q, r, g) == dot_dx(r, q, g)


@given(exact_vectors(), st.fractions(min_value=-4, max_value=4, max_denominator=8))
@settings(max_examples=30, deadline=None)
def test_norm_absolutely_homogeneous_in_squares(q, alpha):
    g = build_grid(0, 1, 1, 8, 8, "exact")
    scaled = [alpha * v for v in q]
    assert dot_dx(scaled, scaled, g) == alpha * alpha * dot_dx(q, q, g)


def test_triangle_inequality_certified():
    g = build_grid(0, 1, 1, 12, 12, "exact")
    rng = random.Random(11)
    for _ in range(25):
        q = [Fr(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(13)]
        r = [Fr(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(13)]
        s = [a + b for a, b in zip(q, r)]
        assert certified_sqrt_leq(dot_dx(s, s, g), [dot_dx(q, q, g), dot_dx(r, r, g)])


def test_certified_sqrt_leq_settles_true_ties():
    # sqrt(8) = sqrt(2) + sqrt(2), 3 = sqrt(1) + sqrt(4),
    # sqrt(18) = sqrt(1/2) + sqrt(9/2) + sqrt(2): equal sides, decided exactly.
    assert certified_sqrt_leq(8, [2, 2])
    assert certified_sqrt_leq(9, [1, 4])
    assert certified_sqrt_leq(Fr(18), [Fr(1, 2), Fr(9, 2), Fr(2)])
    assert not certified_sqrt_leq(8 + Fr(1, 10 ** 40), [2, 2])
    assert certified_sqrt_leq(8 - Fr(1, 10 ** 40), [2, 2])
    # Two classes left (2 and 3): decided by the enclosures.
    assert certified_sqrt_leq(8, [2, 3, 2])
    assert not certified_sqrt_leq(Fr(81, 8), [2, 3])


def test_certified_sqrt_leq_encloses_each_operand_once_per_round(monkeypatch):
    calls = []

    def counting(x, bits=64):
        calls.append(x)
        return sqrt_bounds(x, bits)

    monkeypatch.setattr(scalars, "sqrt_bounds", counting)
    assert scalars.certified_sqrt_leq(3, [1, 2])  # sqrt 3 < 1 + sqrt 2 at 32 bits
    assert sorted(calls) == [1, 2, 3]


def test_certified_sqrt_leq_escalates_precision_until_it_decides(monkeypatch):
    # (sqrt 2 + sqrt 3)^2 = 5 + sqrt 24; the rationals below and above it are
    # within 1e-40, closer than the 128-bit enclosures can separate.
    bits = []

    def recording(x, b=64):
        bits.append(b)
        return sqrt_bounds(x, b)

    monkeypatch.setattr(scalars, "sqrt_bounds", recording)
    root = math.isqrt(24 * 10 ** 80)
    for num, expected in ((5 * 10 ** 40 + root, True), (5 * 10 ** 40 + root + 1, False)):
        bits.clear()
        assert scalars.certified_sqrt_leq(Fr(num, 10 ** 40), [2, 3]) is expected
        assert sorted(set(bits)) == [32, 64, 128, 256]


def test_interior_sum_equals_inclusive_sum_for_zero_boundary():
    g = build_grid(0, 1, 1, 10, 10, "exact")
    rng = random.Random(3)
    for _ in range(20):
        q = [Fr(0)] + [Fr(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9)] + [Fr(0)]
        inclusive = sum(v * v for v in q) * g.dx
        assert dot_dx(q, q, g) == inclusive


def test_apply_Ah_annihilates_affine():
    g = build_grid(0, 1, 1, 10, 10, "exact")
    const = [Fr(3)] * 11
    lin = [g.x(i) for i in range(11)]
    for q in (const, lin):
        out = apply_Ah(Fr(2), g, q)
        assert all(v == 0 for v in out[1:10])


def test_apply_Ah_quadratic_exact():
    g = build_grid(0, 1, 1, 8, 8, "exact")
    q = [g.x(i) ** 2 for i in range(9)]
    c = Fr(3, 2)
    out = apply_Ah(c, g, q)
    assert all(v == -2 * c * c for v in out[1:8])


def test_binary64_dot_is_left_to_right():
    g = build_grid(0, 1, 1, 6, 6)
    q = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.0]
    r = [0.0, 1.7, -2.3, 3.1, -4.9, 5.3, 0.0]
    acc = 0.0
    for i in range(1, 6):
        acc += q[i] * r[i]
    assert dot_dx(q, r, g) == acc * g.dx


def test_exact_dot_is_order_independent_oracle():
    g = build_grid(0, 1, 1, 6, 6, "exact")
    q = [Fr(0), Fr(1, 3), Fr(2, 7), Fr(3, 5), Fr(4, 9), Fr(5, 11), Fr(0)]
    assert dot_dx(q, q, g) == sum(v * v for v in reversed(q)) * g.dx


def test_dot_Ah_symmetric_on_dirichlet_vectors():
    # Summation by parts: <A_h q, r> = <q, A_h r> when both vectors vanish
    # on the boundary.  This identity is what makes the energy algebra work.
    g = build_grid(0, 1, 1, 9, 9, "exact")
    rng = random.Random(21)
    for _ in range(15):
        q = [Fr(0)] + [Fr(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)] + [Fr(0)]
        r = [Fr(0)] + [Fr(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)] + [Fr(0)]
        c = Fr(rng.randint(1, 5), rng.randint(1, 5))
        assert dot_dx(apply_Ah(c, g, q), r, g) == dot_dx(apply_Ah(c, g, r), q, g)
