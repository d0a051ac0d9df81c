"""Admission of run parameters: one rule for every entry point that takes one.

Each velocity, domain length, ``t_max``, Courant number and margin ``xi`` is
admitted by :mod:`wavecheck.scalars`: :func:`positive` (positive and finite
as a binary64 number), :func:`check_margin` (``0 < xi < 1``) and
:func:`within_margin` (``cn <= 1 - xi`` in exact rationals).  Grid
coordinates and polynomial coefficients may be zero or negative and are
admitted by :func:`in_range` (finite as a binary64 number, and not a nonzero
value that rounds to 0).  Every value is admitted before it is converted to a
scalar kind.  Each value of a sampled datum is admitted by :func:`datum`: a
real number that the grid's kind holds.
"""

import math
import re
from fractions import Fraction as Fr
from functools import partial

import pytest

from wavecheck import (
    CflViolationError,
    Polynomial,
    StandingWave,
    WaveProblem,
    apply_Ah,
    build_grid,
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
from wavecheck.fundamental import build_table
from wavecheck.scalars import check_margin, positive, within_margin

G = build_grid(0, 1, 1, 4, 8)  # dx = 1/4, dt = 1/8
#: xi, C3, C4, alpha3, alpha4, c, t_max, x_min, x_max; the x_max slot sets the span.
CONSTANTS = (0.5, 1, 1, 1, 1, 1, 1, 0, 1)


def check_cfl(c, g, xi) -> bool:
    """The Courant admission of ``solve``: ``xi``, then ``c``, then the margin."""
    check_margin(xi)
    return within_margin(courant_number(c, g), xi)


def constants_with(slot: int, v):
    args = list(CONSTANTS)
    args[slot] = v
    return derive_constants(*args)


#: Each entry point with one slot left open for a positive parameter.
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
    "build_table.a": lambda v: build_table(v, 4),
}

#: Each entry point with one slot left open for any value within binary64 range.
#: The ``x_min`` slots span one unit, so an exact grid there has nothing else to refuse.
FINITE_SLOTS = {
    "Polynomial.coefficient": lambda v: Polynomial((0, v)),
    "build_grid.x_min": lambda v: build_grid(v, v + 1, 1, 4, 8),
    "build_grid.x_min.exact": lambda v: build_grid(v, v + 1, 1, 4, 8, "exact"),
    "build_grid.x_max": lambda v: build_grid(-1, v, 1, 4, 8),
    "build_grid.x_max.exact": lambda v: build_grid(-1, v, 1, 4, 8, "exact"),
}
SLOTS = {**ENTRY_POINTS, **FINITE_SLOTS}

#: Zero, negative, NaN, both infinities and a rational beyond binary64 range.
BAD = {"0": 0, "-1": -1, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
       "1e400": Fr(10 ** 400)}
#: What such a slot refuses: NaN, the infinities and
#: rationals beyond binary64 range at either end.
OUT_OF_RANGE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                "1e400": Fr(10 ** 400), "1e-400": Fr(1, 10 ** 400)}
VALUES = {**BAD, **OUT_OF_RANGE}
CASES = ([(entry, value) for value in BAD for entry in sorted(ENTRY_POINTS)]
         + [(entry, value) for value in OUT_OF_RANGE for entry in sorted(FINITE_SLOTS)])


@pytest.mark.parametrize("entry,value", CASES, ids=[f"{e}-{v}" for e, v in CASES])
def test_every_entry_point_refuses_each_bad_parameter(entry, value):
    with pytest.raises(ParameterError):
        SLOTS[entry](VALUES[value])


@pytest.mark.parametrize("entry", sorted(SLOTS))
def test_every_entry_point_admits_one_half(entry):
    SLOTS[entry](0.5)


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
    with pytest.raises(CflViolationError, match=r"exceeds 1 - xi = 1 - 0\.1$"):
        solve(WaveProblem(c=0.9), g, xi=0.1)
    with pytest.raises(ParameterError, match=r"fixed_cn must lie in \(0, 1 - xi\]"):
        optimal_dt(constants_with(0, 0.1), 0.9)
    assert main(["bound", "--cn", "0.9", "--xi", "0.1", "--chain", "20,40,80",
                 "--out", str(tmp_path)]) == 2
    assert "--cn must lie in (0, 1 - xi] = (0, 1 - 0.1], got 0.9" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


#: Each sampled datum with one entry left open, and the node that entry sits at.
DATA_SLOTS = {
    "u0": (lambda g, v: solve(WaveProblem(c=1, u0=[0, v, 0, 0, 0]), g), 1),
    "u1": (lambda g, v: solve(WaveProblem(c=1, u1=[0, 0, v, 0, 0]), g), 2),
    "source": (lambda g, v: solve(WaveProblem(c=1, s=[[0] * 5, [0, 0, 0, v, 0], *[[0] * 5] * 7]),
                                  g), (3, 1)),
}
#: Per kind, the values its grids cannot hold, and a string ``float`` or ``Fraction``
#: would parse.  A NaN or infinite binary64 datum is admitted: its march reports it.
BAD_DATA = {"binary64": {"1e400": Fr(10 ** 400), "str": "1e-1"},
            "exact": {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "str": "1/3"}}
DATA_CASES = [(name, kind, value) for name in sorted(DATA_SLOTS)
              for kind, values in BAD_DATA.items() for value in values]


@pytest.mark.parametrize("name,kind,value", DATA_CASES, ids=["-".join(c) for c in DATA_CASES])
def test_every_sampled_datum_refuses_a_value_its_grid_cannot_hold(name, kind, value):
    call, node = DATA_SLOTS[name]
    with pytest.raises(ParameterError, match=re.escape(f"{name} at node {node} must be")):
        call(build_grid(0, 1, 1, 4, 8, kind), BAD_DATA[kind][value])
