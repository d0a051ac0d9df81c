import dataclasses
import json
import math
import random
from fractions import Fraction as Fr

import pytest

from fraction_reference import half_step as ref_half_step
from wavecheck import (
    ParameterError,
    WaveProblem,
    build_grid,
    check_energy_estimate,
    default_problem,
    energy_lower_bound_gap,
    energy_series,
    solve,
    stability_constants,
)
from wavecheck import energy
from wavecheck.cli import main
from wavecheck.report import WITNESSED, ClaimConfig, claim_energy_lower_bound
from wavecheck.scalars import certified_sqrt_leq, sqrt_bounds


def test_zero_field_zero_energy():
    g = build_grid(0, 1, 1, 8, 16, "exact")
    run = solve(WaveProblem(c=1, u0=None), g)
    series = energy_series(run)
    assert series.kinetic == series.values == [0] * 16


def test_energy_exactly_constant_without_source():
    g = build_grid(0, 1, Fr(1, 2), 20, 20, "exact")
    run = solve(default_problem(), g)
    series = energy_series(run)
    assert series.drift() == 0
    assert all(v >= 0 for v in series.values)


def test_energy_half_step_against_hand_evaluation():
    # Independent evaluation of both quadratic terms of every half step from
    # its two columns, using nothing but the definition.
    g = build_grid(0, 1, Fr(1, 2), 4, 4, "exact")
    run = solve(default_problem(), g)
    series = energy_series(run)
    dt, dx = g.dt, g.dx
    c2 = Fr(1)
    for k in range(4):
        p0 = [run.value(i, k) for i in range(5)]
        p1 = [run.value(i, k + 1) for i in range(5)]
        kinetic = sum(((p1[i] - p0[i]) / dt) ** 2 for i in range(1, 4)) * dx
        ah_p0 = [Fr(0)] + [
            -c2 * (p0[i + 1] - 2 * p0[i] + p0[i - 1]) / (dx * dx) for i in (1, 2, 3)
        ] + [Fr(0)]
        potential = sum(ah_p0[i] * p1[i] for i in range(1, 4)) * dx
        expected = Fr(1, 2) * kinetic + Fr(1, 2) * potential
        assert (series.kinetic[k], series.values[k]) == (kinetic, expected)


def test_perturbed_node_moves_exactly_its_two_half_steps():
    # One interior node of column 5 off by 10**-6: the half steps 4 and 5
    # that read it change, as the Fraction oracle says, and the conserved
    # energy drifts.
    g = build_grid(0, 1, Fr(1, 2), 12, 12, "exact")
    run = solve(default_problem(), g)
    before = energy_series(run)
    assert before.drift() == 0
    columns = [list(col) for col in run.columns]
    columns[5][4] += Fr(1, 10 ** 6)
    bad = dataclasses.replace(run, columns=columns)
    after = energy_series(bad)
    steps = list(zip(after.kinetic, after.values))
    assert steps == [ref_half_step(bad, k) for k in range(12)]
    assert [k for k in range(12) if steps[k] != (before.kinetic[k], before.values[k])] == [4, 5]
    assert after.drift() != 0


def test_lower_bound_gap_zero_field():
    g = build_grid(0, 1, 1, 8, 16, "exact")
    run = solve(WaveProblem(c=1, u0=None), g)
    series = energy_series(run)
    assert all(energy_lower_bound_gap(series, run.cn, k) == 0 for k in range(16))


def test_lower_bound_gap_nonnegative_on_random_runs():
    rng = random.Random(77)
    for _ in range(10):
        i_max = rng.randint(4, 9)
        k_max = rng.randint(4, 10)
        g = build_grid(0, 1, 1, i_max, k_max, "exact")
        cn = Fr(rng.randint(1, 9), 10)
        c = cn * g.dx / g.dt
        u0 = [Fr(0)] + [Fr(rng.randint(-7, 7), 5) for _ in range(i_max - 1)] + [Fr(0)]
        u1 = [Fr(0)] + [Fr(rng.randint(-7, 7), 5) for _ in range(i_max - 1)] + [Fr(0)]
        run = solve(WaveProblem(c=c, u0=u0, u1=u1), g, xi=Fr(1, 20))
        series = energy_series(run)
        for k in range(k_max):
            assert energy_lower_bound_gap(series, run.cn, k) >= 0
            assert series.values[k] >= 0


def test_stability_constants_values():
    c1, c2 = stability_constants(0.5, 0.0)
    assert c1 == 0.0
    assert c2 == pytest.approx(0.81650, abs=1e-5)  # 1/sqrt(1.5)

    _, c2_tiny = stability_constants(2.0 ** -50, 1.0)
    # Exact-rational oracle: C2^2 = 1 / (2 xi (2 - xi)).
    xi = Fr(1, 2 ** 50)
    lo, hi = sqrt_bounds(1 / (2 * xi * (2 - xi)), 80)
    assert float(lo) <= c2_tiny <= float(hi) * (1 + 1e-14)


def test_stability_constants_domain():
    with pytest.raises(ParameterError):
        stability_constants(0.0, 1.0)
    with pytest.raises(ParameterError):
        stability_constants(0.5, -1.0)


def test_estimate_zero_source_is_equality():
    g = build_grid(0, 1, Fr(1, 2), 12, 12, "exact")
    run = solve(default_problem(), g, xi=Fr(1, 4))
    assert check_energy_estimate(run, energy_series(run)) == []


def test_estimate_zero_problem():
    g = build_grid(0, 1, 1, 8, 16, "exact")
    run = solve(WaveProblem(c=1, u0=None), g, xi=Fr(1, 2))
    assert check_energy_estimate(run, energy_series(run)) == []


def test_estimate_holds_with_random_sources():
    rng = random.Random(123)
    for _ in range(25):
        i_max = rng.randint(4, 8)
        k_max = rng.randint(4, 9)
        g = build_grid(0, 1, 1, i_max, k_max, "exact")
        cn = Fr(rng.randint(1, 7), 8)
        c = cn * g.dx / g.dt
        xi = 1 - cn  # largest admissible margin for this run

        def vec():
            return [Fr(0)] + [Fr(rng.randint(-5, 5), 4) for _ in range(i_max - 1)] + [Fr(0)]

        src = [vec() for _ in range(k_max + 1)]
        run = solve(WaveProblem(c=c, u0=vec(), u1=vec(), s=src), g, xi=xi)
        assert check_energy_estimate(run, energy_series(run)) == []


def test_estimate_binary64_reports_slack():
    g = build_grid(0, 1, Fr(1, 2), 16, 16)
    run = solve(default_problem(), g, xi=0.25)
    assert check_energy_estimate(run, energy_series(run)) == []


def test_estimate_binary64_with_a_source_adds_its_norms():
    g = build_grid(0, 1, 1, 10, 20)
    rng = random.Random(7)
    src = [[0.0] + [rng.uniform(-4, 4) for _ in range(9)] + [0.0] for _ in range(21)]
    run = solve(dataclasses.replace(default_problem(), s=src), g, xi=0.25)
    series = energy_series(run)
    assert check_energy_estimate(run, series) == []
    # Without the source's norms on the right-hand side the estimate fails.
    unforced = dataclasses.replace(run, source=[[0.0] * 11 for _ in range(21)])
    assert len(check_energy_estimate(unforced, series)) == 19


@pytest.mark.parametrize("kind,k,value,violated", [
    ("exact", 3, Fr(-1), [3]),
    ("binary64", 3, -1.0, [3]),
    ("binary64", 3, math.nan, [3]),
    # C1 is sqrt(max(E^{1/2}, 0)) = 0, below every positive energy.
    ("exact", 0, Fr(-1), list(range(12))),
    ("binary64", 0, -1.0, list(range(12))),
], ids=["exact-negative", "binary64-negative", "binary64-nan",
        "exact-negative-first", "binary64-negative-first"])
def test_estimate_lists_a_negative_or_nan_energy_as_violated(kind, k, value, violated):
    run = solve(default_problem(), build_grid(0, 1, Fr(1, 2), 12, 12, kind))
    series = energy_series(run)
    series.values[k] = value
    assert check_energy_estimate(run, series) == violated


def test_drift_is_nan_when_an_energy_is_nan():
    series = energy.EnergySeries(kinetic=[0.0] * 4, values=[1.0, 1.0, math.nan, 1.5])
    assert math.isnan(series.drift())
    assert energy.EnergySeries(kinetic=[0.0] * 2, values=[1.0, 1.5]).drift() == 0.5


def test_estimate_takes_c2_at_the_runs_own_margin(monkeypatch):
    seen = []

    def recording(real):
        def wrapper(xi, *rest):
            seen.append(xi)
            return real(xi, *rest)
        return wrapper

    monkeypatch.setattr(energy, "c2_squared", recording(energy.c2_squared))
    monkeypatch.setattr(energy, "stability_constants", recording(energy.stability_constants))
    # 1/10 has no binary64 value: C2 is taken at 1/10, not at the float nearest it.
    for xi in (Fr(3, 8), Fr(1, 10)):
        for kind in ("exact", "binary64"):
            run = solve(default_problem(), build_grid(0, 1, Fr(1, 2), 12, 12, kind), xi=xi)
            check_energy_estimate(run, energy_series(run))
    assert seen == [Fr(3, 8)] * 2 + [Fr(1, 10)] * 2


def test_binary64_slack_absorbs_rounding_drift_that_an_exact_decision_reports(tmp_path):
    # The pinned zero-source run: the bound is sqrt(E^{1/2}) at every half step.
    assert main(["energy", "--scalar", "binary64", "--problem", "standing",
                 "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "energy.csv").read_text().splitlines()[1:]
    values = [Fr(float(row.split(",")[1])) for row in rows]
    above = [v - values[0] for v in values if not certified_sqrt_leq(v, [values[0]])]
    assert (len(values), len(above)) == (200, 171)
    assert max(above) < Fr(9, 10 ** 15)
    assert json.loads((tmp_path / "energy.json").read_text())["estimate_holds"] is True


def test_binary64_energy_drift_stays_tiny_on_default_problem():
    # Float-arithmetic drift of the conserved quantity; the tolerance sits
    # well above the accumulated round-off scale for grids this size.
    g = build_grid(0, 1, Fr(1, 2), 400, 400)
    run = solve(default_problem(), g)
    series = energy_series(run)
    assert series.drift() <= 1e-10


@pytest.fixture
def energy_calls(monkeypatch):
    """Calls of ``energy_series`` and of its per-column reads inside ``energy``.

    An exact series reads each column once through ``common_column``; a
    binary64 series applies ``A_h`` once per half step.
    """
    calls = {"energy_series": 0, "common_column": 0, "apply_Ah": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(energy, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(energy, name, counting)
    return calls


@pytest.mark.parametrize("argv", [
    ["energy", "--imax", "8", "--kmax", "16"],
    ["energy", "--imax", "8", "--kmax", "16", "--scalar", "binary64"],
    ["solve", "--imax", "8", "--kmax", "16", "--scalar", "exact"],
])
def test_subcommands_evaluate_each_half_step_once(tmp_path, energy_calls, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    # 16 half steps read 17 columns.
    if "binary64" in argv:
        assert energy_calls == {"energy_series": 1, "common_column": 0, "apply_Ah": 16}
    else:
        assert energy_calls == {"energy_series": 1, "common_column": 17, "apply_Ah": 0}


def test_lower_bound_claim_evaluates_each_half_step_once(energy_calls):
    status, evidence = claim_energy_lower_bound(ClaimConfig(random_runs=6))
    assert status == WITNESSED
    # A run of k_max half steps has k_max + 1 columns.
    assert energy_calls == {"energy_series": 6,
                            "common_column": evidence["half_steps"] + 6,
                            "apply_Ah": 0}
