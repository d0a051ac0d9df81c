"""The scalar-generic core against per-kind oracles.

``dot_dx``, ``apply_Ah``, ``truncation_error``, ``energy_series`` and
``energy_lower_bound_gap`` run one code path for floats and Fractions.  On binary64 grids they must
reproduce, bit for bit, the dedicated float code they replaced, copied below
with an explicit ``float()`` per operand.  On exact grids they must equal
the rational formulas.
"""

import ast
import math
import os
import subprocess
import sys
from array import array
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_analysis import AffineSolution, SeparableRational
from wavecheck import WaveProblem, build_grid, solve, standing_wave, truncation_error
from wavecheck.energy import energy_lower_bound_gap, energy_series
from wavecheck.grid import apply_Ah, dot_dx
from wavecheck.scalars import nan_or
from wavecheck.scheme import DEFAULT_XI, check_cfl

# --- binary64 oracles: the dedicated float code, one float() per operand ----


def oracle_dot_dx(q, r, g):
    acc = 0.0
    for i in range(1, g.i_max):
        acc += float(q[i]) * float(r[i])
    return acc * g.dx


def oracle_apply_Ah(c, g, q):
    c = float(c)
    c2 = c * c
    dx2 = g.dx * g.dx
    out = [0.0] * (g.i_max + 1)
    for i in range(1, g.i_max):
        d2 = (float(q[i + 1]) - 2.0 * float(q[i])) + float(q[i - 1])
        out[i] = -(c2 * d2) / dx2
    return out


def oracle_kinetic(run, k):
    g = run.grid
    pk, pk1 = run.column(k), run.column(k + 1)
    v = [(float(pk1[i]) - float(pk[i])) / g.dt for i in range(g.i_max + 1)]
    return oracle_dot_dx(v, v, g)


def oracle_discrete_energy(run, k):
    g = run.grid
    pk, pk1 = run.column(k), run.column(k + 1)
    potential = oracle_dot_dx(oracle_apply_Ah(run.problem.c, g, pk), pk1, g)
    return 0.5 * oracle_kinetic(run, k) + 0.5 * potential


def oracle_gap(run, k):
    e = oracle_discrete_energy(run, k)
    return e - 0.5 * (1.0 - float(run.cn) ** 2) * oracle_kinetic(run, k)


def oracle_truncation_error(ref, g, c):
    """The node-loop ``truncation_error`` the per-column comprehensions replaced.

    Its ``apply_Ah`` is the float oracle above on binary64 grids and the
    rational formula below on exact ones.
    """
    ah_of = oracle_apply_Ah if g.kind == "binary64" else rational_Ah
    imax, kmax = g.i_max, g.k_max
    dt = g.dt
    samples = list(ref.sample(g))
    z = 0.0 if g.kind == "binary64" else Fr(0)
    cols = [[z] * (imax + 1)]

    p0, p1 = samples[0], samples[1]
    ah0 = ah_of(c, g, p0)
    col1 = [z] * (imax + 1)
    for i in range(1, imax):
        u1_i = ref.partial(0, 1, g.x(i), 0)
        col1[i] = (p1[i] - p0[i]) / dt + (dt / 2) * ah0[i] - u1_i
    cols.append(col1)

    dt2 = dt * dt
    for k in range(2, kmax + 1):
        pk, pkm1, pkm2 = samples[k], samples[k - 1], samples[k - 2]
        ah = ah_of(c, g, pkm1)
        col = [z] * (imax + 1)
        for i in range(1, imax):
            col[i] = (pk[i] - 2 * pkm1[i] + pkm2[i]) / dt2 + ah[i]
        cols.append(col)
    return cols


def same_bits(x, y):
    return type(x) is float and type(y) is float and x.hex() == y.hex()


# --- rational formulas -------------------------------------------------------


def rational_dot(q, r, g):
    return sum((q[i] * r[i] for i in range(1, g.i_max)), Fr(0)) * g.dx


def rational_Ah(c, g, q):
    return [Fr(0)] + [-c * c * (q[i + 1] - 2 * q[i] + q[i - 1]) / (g.dx * g.dx)
                      for i in range(1, g.i_max)] + [Fr(0)]


def rational_energy(run, k):
    g = run.grid
    pk, pk1 = run.column(k), run.column(k + 1)
    v = [(b - a) / g.dt for a, b in zip(pk, pk1)]
    c = Fr(run.problem.c)
    return (rational_dot(v, v, g) + rational_dot(rational_Ah(c, g, pk), pk1, g)) / 2


# --- strategies ----------------------------------------------------------------

floats = st.floats(min_value=-8, max_value=8, allow_nan=False, allow_infinity=False)
fractions = st.fractions(min_value=-8, max_value=8, max_denominator=64)


@st.composite
def float_grids(draw):
    i_max = draw(st.integers(2, 12))
    k_max = draw(st.integers(2, 12))
    x_max = draw(st.floats(min_value=0.25, max_value=4))
    t_max = draw(st.floats(min_value=0.25, max_value=4))
    return build_grid(0.0, x_max, t_max, i_max, k_max)


@st.composite
def exact_grids(draw):
    i_max = draw(st.integers(2, 10))
    k_max = draw(st.integers(2, 10))
    x_max = draw(st.fractions(min_value=Fr(1, 4), max_value=4, max_denominator=8))
    t_max = draw(st.fractions(min_value=Fr(1, 4), max_value=4, max_denominator=8))
    return build_grid(0, x_max, t_max, i_max, k_max, "exact")


def vectors(g, elements):
    return st.lists(elements, min_size=g.i_max + 1, max_size=g.i_max + 1)


def dirichlet_vectors(g, elements, zero):
    """Vectors with zero boundary entries, as the solver's data must be."""
    inner = st.lists(elements, min_size=g.i_max - 1, max_size=g.i_max - 1)
    return inner.map(lambda v: [zero] + v + [zero])


@st.composite
def margin_velocity(draw, g):
    """A velocity whose Courant number on ``g`` satisfies ``cn <= 1 - xi``."""
    cn = draw(st.floats(min_value=0.05, max_value=1.0))
    c = cn * float(g.dx) / float(g.dt)
    if g.kind == "exact":
        c = Fr(c).limit_denominator(64)
    assume(c > 0 and check_cfl(c, g, DEFAULT_XI))
    return c


# --- binary64: bit for bit ------------------------------------------------------


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_binary64_dot_dx_matches_float_oracle(data):
    g = data.draw(float_grids())
    q = data.draw(vectors(g, floats))
    r = data.draw(vectors(g, floats))
    assert same_bits(dot_dx(q, r, g), oracle_dot_dx(q, r, g))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_binary64_apply_Ah_matches_float_oracle(data):
    g = data.draw(float_grids())
    c = data.draw(st.floats(min_value=0.01, max_value=8))
    q = data.draw(vectors(g, floats))
    got, want = apply_Ah(c, g, q), oracle_apply_Ah(c, g, q)
    assert all(same_bits(a, b) for a, b in zip(got, want))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_binary64_energy_and_gap_match_float_oracle(data):
    g = data.draw(float_grids())
    c = data.draw(margin_velocity(g))
    u0 = data.draw(dirichlet_vectors(g, floats, 0.0))
    u1 = data.draw(dirichlet_vectors(g, floats, 0.0))
    run = solve(WaveProblem(c=c, u0=u0, u1=u1), g)
    series = energy_series(run)
    for k in range(g.k_max):
        assert same_bits(series.kinetic[k], oracle_kinetic(run, k))
        assert same_bits(series.values[k], oracle_discrete_energy(run, k))
        assert same_bits(energy_lower_bound_gap(series, run.cn, k), oracle_gap(run, k))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_binary64_truncation_error_matches_node_loop_oracle(data):
    g = data.draw(float_grids())
    c = data.draw(st.floats(min_value=0.05, max_value=4))
    wave = standing_wave(data.draw(st.integers(1, 3)), c)
    got, want = list(truncation_error(wave, g, c)), oracle_truncation_error(wave, g, c)
    assert len(got) == len(want) == g.k_max + 1
    assert all(same_bits(a, b) for got_col, want_col in zip(got, want)
               for a, b in zip(got_col, want_col, strict=True))


# --- exact: the rational formulas ------------------------------------------------


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_exact_dot_dx_and_apply_Ah_equal_rational_formulas(data):
    g = data.draw(exact_grids())
    c = data.draw(st.fractions(min_value=Fr(1, 16), max_value=8, max_denominator=16))
    q = data.draw(vectors(g, fractions))
    r = data.draw(vectors(g, fractions))
    assert dot_dx(q, r, g) == rational_dot(q, r, g)
    assert apply_Ah(c, g, q) == rational_Ah(c, g, q)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_exact_truncation_error_equals_node_loop_oracle(data):
    g = data.draw(exact_grids())
    c = data.draw(st.fractions(min_value=Fr(1, 16), max_value=8, max_denominator=16))
    if data.draw(st.booleans()):
        ref = AffineSolution(*(data.draw(fractions) for _ in range(3)))
    else:
        ref = SeparableRational()
    got = list(truncation_error(ref, g, c))
    assert got == oracle_truncation_error(ref, g, c)
    assert all(type(v) is Fr for col in got for v in col)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_exact_energy_and_gap_equal_rational_formulas(data):
    g = data.draw(exact_grids())
    c = data.draw(margin_velocity(g))
    u0 = data.draw(dirichlet_vectors(g, fractions, Fr(0)))
    u1 = data.draw(dirichlet_vectors(g, fractions, Fr(0)))
    run = solve(WaveProblem(c=c, u0=u0, u1=u1), g)
    cn = Fr(c) * g.dt / g.dx
    series = energy_series(run)
    for k in range(g.k_max):
        e = rational_energy(run, k)
        pk, pk1 = run.column(k), run.column(k + 1)
        v = [(b - a) / g.dt for a, b in zip(pk, pk1)]
        kinetic = rational_dot(v, v, g)
        assert series.kinetic[k] == kinetic
        assert series.values[k] == e
        assert energy_lower_bound_gap(series, run.cn, k) == e - (1 - cn * cn) / 2 * kinetic


# --- dependencies -----------------------------------------------------------------


def test_only_analysis_imports_numpy():
    package = Path(__file__).resolve().parent.parent / "src" / "wavecheck"
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(path.name)
    assert importers == ["analysis.py"]


def test_importing_the_package_leaves_numpy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, wavecheck; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_field_storage_is_array_d_for_binary64_and_fraction_lists_for_exact():
    u0 = [0.0, 0.1, 0.2, 0.3, 0.2, 0.1, 0.0]
    g = build_grid(0, 1, 1, 6, 12)
    run = solve(WaveProblem(c=1, u0=u0), g)
    assert all(type(col) is array and col.typecode == "d" for col in run.columns)
    assert run.max_abs() == 0.3
    exact = solve(WaveProblem(c=1, u0=u0), g, kind="exact")
    assert all(type(col) is list for col in exact.columns)
    assert all(type(v) is Fr for col in exact.columns for v in col)


# --- NaN through reductions -------------------------------------------------------

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wavecheck"

#: Each single-argument builtin ``max`` or ``min`` in the package that does not
#: go through ``nan_or``, as (module, enclosing function, call), with the reason
#: its items are ints or Fractions, which are never NaN.
INT_OR_FRACTION_REDUCTIONS = {
    ("fundamental", "negative_entries", "min(row)"):
        "a fundamental-table row holds Fractions",
    ("report", "to_text", "max((len(r.claim_id) for r in self.results))"):
        "string lengths are ints",
    ("report", "claim_energy_lower_bound", "min(all_gaps)"):
        "the gaps of exact runs are Fractions",
    ("roundoff", "max_abs_delta", "max(map(abs, ints))"):
        "a column's numerators over its common denominator are ints",
    ("roundoff", "check_global_bound", "max(mags)"):
        "the magnitudes of a column's numerators are ints",
}


def single_argument_reductions(path: Path) -> list:
    """``(module, innermost enclosing function, call)`` of each call of ``max`` or
    ``min`` with one positional argument in ``path``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in ("max", "min") and len(child.args) == 1):
                found.append((path.stem, owner, ast.unparse(child)))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else owner)

    visit(ast.parse(path.read_text()), None)
    return found


def test_every_float_max_or_min_goes_through_nan_or():
    """Builtin ``max`` and ``min`` over an iterable return a NaN only when it comes
    first, so a float reduction written that way passes a NaN norm over.  Every one
    in the package must go through ``scalars.nan_or``, which passes ``max`` or
    ``min`` by name and calls neither, or be listed above.

    Two-argument clamps such as ``max(float(e0), 0.0)`` are out of scope: each
    bounds one value by a constant, and written value first, as that one is, it
    returns the value when it is NaN.
    """
    found = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in single_argument_reductions(path)]
    assert sorted(found) == sorted(INT_OR_FRACTION_REDUCTIONS)


@pytest.mark.parametrize("reduce", [max, min])
def test_nan_or_is_nan_wherever_a_nan_stands_and_the_builtin_otherwise(reduce):
    for values in ([math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]):
        assert math.isnan(nan_or(reduce, iter(values))), values
    # Ties keep the first value, as in the builtin: the signed zeros tell which.
    for values in ([0.0, -0.0], [-0.0, 0.0], [2.0, -1.0, 2.0], [Fr(1, 3), 0, Fr(-1, 2)]):
        assert nan_or(reduce, iter(values)) is reduce(values), values
