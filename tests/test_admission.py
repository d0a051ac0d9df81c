"""Admission of run parameters: one rule for every entry point that takes one.

Each velocity, domain length, ``t_max``, Courant number and margin ``xi`` is
admitted by :mod:`wavecheck.scalars`: :func:`positive` (positive and finite
as a binary64 number), :func:`check_margin` (``0 < xi < 1``) and
:func:`within_margin` (``cn <= 1 - xi`` in exact rationals).
"""

import math
from fractions import Fraction as Fr
from functools import partial

import pytest

from wavecheck import (
    StandingWave,
    WaveProblem,
    apply_Ah,
    build_grid,
    check_cfl,
    courant_number,
    derive_constants,
    optimal_dt,
    refinement_chain,
    solve,
    stability_constants,
    standing_wave,
)
from wavecheck.cli import main
from wavecheck.energy import c2_squared
from wavecheck.errors import ParameterError
from wavecheck.scalars import positive, within_margin

G = build_grid(0, 1, 1, 4, 8)  # dx = 1/4, dt = 1/8
#: xi, C3, C4, alpha3, alpha4, c, t_max, x_min, x_max; the x_max slot sets the span.
CONSTANTS = (0.5, 1, 1, 1, 1, 1, 1, 0, 1)


def constants_with(slot: int, v):
    args = list(CONSTANTS)
    args[slot] = v
    return derive_constants(*args)


#: Each entry point with one parameter slot left open.
ENTRY_POINTS = {
    "WaveProblem.c": lambda v: WaveProblem(c=v),
    "StandingWave.c": lambda v: StandingWave(1, v),
    "standing_wave.c": lambda v: standing_wave(1, v),
    "courant_number.c": lambda v: courant_number(v, G),
    "check_cfl.c": lambda v: check_cfl(v, G, 0.5),
    "check_cfl.xi": lambda v: check_cfl(1, G, v),
    "solve.xi": lambda v: solve(WaveProblem(c=1), G, xi=v),
    "build_grid.t_max": lambda v: build_grid(0, 1, v, 4, 8),
    "build_grid.t_max.exact": lambda v: build_grid(0, 1, v, 4, 8, "exact"),
    "apply_Ah.c": lambda v: apply_Ah(v, G, [0.0] * 5),
    "refinement_chain.c": lambda v: refinement_chain([10], 0.5, v),
    "refinement_chain.cn": lambda v: refinement_chain([10], v, 1),
    "refinement_chain.t_max": lambda v: refinement_chain([10], 0.5, 1, t_max=v),
    **{f"derive_constants.{name}": partial(constants_with, slot)
       for slot, name in [(0, "xi"), (1, "C3"), (2, "C4"), (3, "alpha3"), (4, "alpha4"),
                          (5, "c"), (6, "t_max"), (8, "x_max")]},
    "optimal_dt.fixed_cn": lambda v: optimal_dt(derive_constants(*CONSTANTS), v),
    "stability_constants.xi": lambda v: stability_constants(v, 1.0),
    "c2_squared.xi": lambda v: c2_squared(v),
}

#: Zero, negative, NaN, both infinities and a rational beyond binary64 range.
BAD = [0, -1, math.nan, math.inf, -math.inf, Fr(10 ** 400)]


@pytest.mark.parametrize("value", BAD, ids=["0", "-1", "nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_each_bad_parameter(entry, value):
    with pytest.raises(ParameterError):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_admits_one_half(entry):
    ENTRY_POINTS[entry](0.5)


@pytest.mark.parametrize("value,message", [
    (0, "c must be positive, got 0"),
    (-math.inf, "c must be positive, got -inf"),
    (math.nan, "c must be positive, got nan"),
    (math.inf, "c must be finite and within binary64 range, got inf"),
    (Fr(1, 10 ** 400), "c must be finite and within binary64 range, got 1/1000"),
])
def test_positive_names_the_parameter_and_tells_infinite_from_nonpositive(value, message):
    with pytest.raises(ParameterError, match=message):
        positive("c", value)


def test_within_margin_settles_true_ties_exactly():
    assert within_margin(0.5, 0.5)
    assert within_margin(Fr(9, 10), Fr(1, 10))
    assert within_margin(1 - 2.0 ** -50, 2.0 ** -50)
    # fl(0.9) = 0.90000000000000002 > 1 - fl(0.1) = 0.89999999999999999.
    assert not within_margin(0.9, 0.1)


def test_solve_optimal_dt_and_bound_refuse_the_same_margin(tmp_path, capsys):
    g = build_grid(0, 1, 1, 10, 10)  # dt / dx = 1, so cn = c
    assert courant_number(0.9, g) == 0.9
    assert not check_cfl(0.9, g, 0.1)
    with pytest.raises(ParameterError, match=r"fixed_cn must lie in \(0, 1 - xi\]"):
        optimal_dt(constants_with(0, 0.1), 0.9)
    assert main(["bound", "--cn", "0.9", "--xi", "0.1", "--chain", "20,40,80",
                 "--out", str(tmp_path)]) == 2
    assert "--cn must lie in (0, 1 - xi] = (0, 1 - 0.1], got 0.9" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
