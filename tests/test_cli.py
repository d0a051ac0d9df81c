import dataclasses
import hashlib
import json
import math
import sys
from fractions import Fraction

import pytest

from wavecheck import WaveProblem, energy, errors, roundoff
from wavecheck.cli import build_parser, main
from wavecheck.errors import NonFiniteError, WavecheckError


def read_json(path):
    return json.loads(path.read_text())


def test_solve_zero_problem_all_zero_csv(tmp_path):
    assert main(["solve", "--problem", "zero", "--imax", "8", "--kmax", "16",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert lines[0] == "i,k,value,value_hex"
    assert len(lines) == 1 + 9 * 17
    assert all(line.split(",")[2] == "0.0" for line in lines[1:])


def test_solve_default_summary_reports_cn_half(tmp_path):
    assert main(["solve", "--out", str(tmp_path)]) == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["cn"]["decimal"] == 0.5
    assert summary["grid"]["i_max"] == 100
    assert summary["grid"]["k_max"] == 200
    assert summary["cfl_satisfied"] is True


def test_solve_exact_scalars_emit_rationals(tmp_path):
    assert main(["solve", "--scalar", "exact", "--imax", "4", "--kmax", "8",
                 "--tmax", "1/2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert lines[0] == "i,k,value"
    assert any("/" in line.split(",")[2] for line in lines[1:])
    summary = read_json(tmp_path / "summary.json")
    assert summary["cn"] == "1/4"


def test_invalid_imax_exits_nonzero(tmp_path, capsys):
    code = main(["solve", "--imax", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "greater than one" in capsys.readouterr().err


def test_order_needs_three_grids(tmp_path, capsys):
    code = main(["order", "--chain", "10,20", "--out", str(tmp_path)])
    assert code == 2
    assert "3 grids" in capsys.readouterr().err


def test_order_quick_chain(tmp_path):
    assert main(["order", "--chain", "10,20,40", "--out", str(tmp_path)]) == 0
    data = read_json(tmp_path / "order.json")
    assert 1.8 <= data["slope"] <= 2.2
    csv = (tmp_path / "order.csv").read_text().splitlines()
    assert csv[0] == "dx,error"
    assert len(csv) == 4


def test_order_truncation_mode(tmp_path):
    assert main(["order", "--mode", "truncation", "--chain", "10,20,40",
                 "--out", str(tmp_path)]) == 0
    data = read_json(tmp_path / "order.json")
    assert 1.8 <= data["slope"] <= 2.2


def test_energy_exact_run_drift_zero(tmp_path):
    assert main(["energy", "--imax", "12", "--kmax", "12", "--tmax", "1/2",
                 "--out", str(tmp_path)]) == 0
    data = read_json(tmp_path / "energy.json")
    assert data["drift"] == "0/1"
    assert data["drift_is_zero"] is True
    assert data["nonnegative"] is True
    assert data["lower_bound_holds"] is True
    assert data["estimate_holds"] is True


def test_roundoff_small_grid_exact_reconstruction(tmp_path):
    assert main(["roundoff", "--imax", "8", "--kmax", "16",
                 "--out", str(tmp_path)]) == 0
    data = read_json(tmp_path / "roundoff.json")
    assert data["reconstruction"] == "exact-equal"
    assert data["a_gap_ok"] is True
    assert data["range_ok"] is True
    assert data["local_bound_ok"] is True
    assert data["global_bound_ok"] is True
    assert data["global_max_ratio"] < 1


def fail_norm_level(monkeypatch):
    """Make ``roundoff.check_global_bound`` report ``norm_level_ok=False``."""
    check = roundoff.check_global_bound
    monkeypatch.setattr(roundoff, "check_global_bound",
                        lambda run: dataclasses.replace(check(run), norm_level_ok=False))


@pytest.mark.parametrize("patch,key,written", [
    (lambda mp: mp.setattr("wavecheck.roundoff.LOCAL_BOUND", Fraction(-1)),
     "local_bound_ok", False),
    (lambda mp: mp.setattr("wavecheck.roundoff.GLOBAL_BOUND_SCALE", Fraction(1, 2 ** 200)),
     "global_bound_ok", False),
    (lambda mp: mp.setattr("wavecheck.roundoff.A_GAP", Fraction(-1)), "a_gap_ok", False),
    # The maximum of 9 x (1 - x) is 9/4, outside the range [-2, 2].
    (lambda mp: mp.setattr("wavecheck.cli.default_problem",
                           lambda: WaveProblem(c=1, u0=lambda x: 9 * x * (1 - x))),
     "range_ok", False),
    (lambda mp: corrupt_one_entry(mp, 0, 2), "reconstruction",
     {"verdict": "mismatch", "first_mismatch": [1, 2]}),
    (fail_norm_level, "norm_level_ok", False),
], ids=["local-bound", "global-bound", "a-gap", "range", "reconstruction", "norm-level"])
def test_roundoff_exits_1_when_a_bound_check_fails(tmp_path, monkeypatch, patch, key, written):
    patch(monkeypatch)
    assert main(["roundoff", "--imax", "10", "--kmax", "20", "--out", str(tmp_path)]) == 1
    assert read_json(tmp_path / "roundoff.json")[key] == written


def energy_series_with(value):
    """``energy.energy_series`` with the energy of half step 3 set to ``value``,
    in the run's scalar kind."""
    series_of = energy.energy_series

    def fake(run):
        series = series_of(run)
        series.values[3] = type(series.values[3])(value)
        return series

    return fake


@pytest.mark.parametrize("target,fake,scalar,key", [
    ("wavecheck.energy.energy_lower_bound_gap", lambda series, cn, k: Fraction(-1), "exact",
     "lower_bound_holds"),
    ("wavecheck.energy.stability_constants", lambda xi, e_half: (0.0, 0.0), "binary64",
     "estimate_holds"),
    ("wavecheck.energy.energy_series", energy_series_with(-1), "exact", "nonnegative"),
    ("wavecheck.energy.energy_series", energy_series_with(float("nan")), "binary64",
     "estimate_holds"),
], ids=["lower-bound", "estimate", "nonnegative", "nan-estimate"])
def test_energy_exits_1_when_a_check_fails(tmp_path, monkeypatch, target, fake, scalar, key):
    monkeypatch.setattr(target, fake)
    assert main(["energy", "--imax", "12", "--kmax", "12", "--tmax", "1/2",
                 "--scalar", scalar, "--out", str(tmp_path)]) == 1
    assert read_json(tmp_path / "energy.json")[key] is False


def test_energy_min_gap_is_nan_when_a_gap_is_nan(tmp_path, monkeypatch):
    monkeypatch.setattr("wavecheck.energy.energy_series", energy_series_with(float("nan")))
    assert main(["energy", "--imax", "12", "--kmax", "12", "--tmax", "1/2",
                 "--scalar", "binary64", "--out", str(tmp_path)]) == 1
    written = read_json(tmp_path / "energy.json")
    assert written["lower_bound_holds"] is False
    assert math.isnan(written["lower_bound_min_gap"]["decimal"])


def test_fundamental_quick_sweep(tmp_path):
    assert main(["fundamental", "--depth", "8", "--range", "8",
                 "--certificates", "50", "--out", str(tmp_path)]) == 0
    data = read_json(tmp_path / "fundamental.json")
    assert data["all_pass"] is True
    assert data["certificates_checked"] > 0


def test_bound_holds(tmp_path):
    assert main(["bound", "--chain", "20,40,80", "--out", str(tmp_path)]) == 0
    data = read_json(tmp_path / "bound.json")
    assert data["holds_everywhere"] is True
    assert all(row["measured"] <= row["bound"] for row in data["rows"])
    assert data["optimal"]["dt"] > 0


def test_bound_exits_1_when_the_bound_fails(tmp_path, monkeypatch):
    monkeypatch.setattr("wavecheck.analysis.total_error_bound", lambda k, dx, dt: 0.0)
    assert main(["bound", "--chain", "20,40,80", "--out", str(tmp_path)]) == 1
    assert read_json(tmp_path / "bound.json")["holds_everywhere"] is False


def test_bound_rejects_cn_outside_margin_before_any_solve(tmp_path, capsys, monkeypatch):
    from wavecheck import report

    solves = []
    solve = report.solve

    def recording(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(report, "solve", recording)
    assert main(["bound", "--xi", "0.4", "--cn", "0.7", "--chain", "20,40,80",
                 "--out", str(tmp_path)]) == 2
    assert solves == []
    assert "--cn must lie in (0, 1 - xi]" in capsys.readouterr().err


def test_bound_honours_an_explicit_xi_equal_to_the_run_margin(tmp_path):
    assert main(["bound", "--xi", repr(2.0 ** -50), "--chain", "10,20,40",
                 "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "bound.json")["constants"]["xi"] == 2.0 ** -50


def test_fundamental_range_bounds_the_recurrence_sweep(tmp_path, monkeypatch):
    from wavecheck import fundamental

    seen = []
    check = fundamental.check_zeilberger_recurrences

    def recording(k_max):
        seen.append(k_max)
        return check(k_max)

    monkeypatch.setattr(fundamental, "check_zeilberger_recurrences", recording)
    assert main(["fundamental", "--depth", "2", "--range", "27", "--certificates", "1",
                 "--out", str(tmp_path)]) == 0
    assert seen == [27]
    assert read_json(tmp_path / "fundamental.json")["sweep"] == 27


@pytest.mark.parametrize("argv,artifact", [
    (["roundoff", "--imax", "10"], "roundoff.json"),
    (["solve", "--scalar", "exact", "--imax", "8"], "summary.json"),
])
def test_default_problem_runs_at_the_given_velocity(tmp_path, argv, artifact):
    assert main(argv + ["--c", "1/2", "--cn", "0.25", "--out", str(tmp_path)]) == 0
    a = read_json(tmp_path / artifact)["a"]
    assert (a["exact"] if artifact == "roundoff.json" else a) == "1/16"


def test_chain_never_exceeds_the_requested_courant_number(tmp_path):
    # Rounding t_max / dt to nearest would give CN 1.0 > 1 - xi on these grids.
    from wavecheck.analysis import refinement_chain
    from wavecheck.scheme import courant_number

    assert main(["order", "--chain", "50,100,200", "--cn", "0.999",
                 "--out", str(tmp_path)]) == 0
    assert main(["solve", "--cn", "0.999", "--imax", "50", "--out", str(tmp_path)]) == 0
    for c in (0.5, 1.0, 2.0):
        for g in refinement_chain([10, 50, 100, 200, 400], 0.999, c):
            assert Fraction(courant_number(c, g)) <= Fraction(0.999)


@pytest.mark.parametrize("argv,message", [
    (["solve", "--imax", "8", "--c", "0"], "c must be positive, got 0.0"),
    (["solve", "--imax", "8", "--c", "-1"], "c must be positive, got -1.0"),
    (["solve", "--imax", "8", "--cn", "0"], "cn must be positive, got 0.0"),
    (["roundoff", "--c", "0"], "c must be positive, got 0.0"),
    (["bound", "--cn", "1.5"], "--cn must lie in (0, 1), got 1.5"),
    (["fundamental", "--certificates", "-5"], "--certificates must be nonnegative"),
    (["fundamental", "--range", "-1"], "--range must be nonnegative"),
    (["order", "--chain", "10,10,10"], "pairwise distinct dx"),
    (["order", "--chain", "10,20,10"], "pairwise distinct dx"),
    (["fundamental", "--depth", "-1"], "--depth must be nonnegative"),
])
def test_bad_inputs_exit_2_naming_the_flag(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


ERROR_CLASSES = sorted((c for c in vars(errors).values()
                        if isinstance(c, type) and c.__module__ == errors.__name__),
                       key=lambda c: c.__name__)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_package_error_exits_2_with_its_message(tmp_path, capsys, monkeypatch, error):
    # Exit status 2 is decided by the base class alone, so a new error class
    # that does not derive from it would escape as a traceback.
    assert issubclass(error, WavecheckError)
    exc = error(3, 4) if error is NonFiniteError else error("planted failure")

    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr("wavecheck.cli.solve", raising)
    assert main(["solve", "--imax", "8", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {exc}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["solve", "--c", "1/0"], "argument --c: zero denominator in '1/0'"),
    (["roundoff", "--tmax", "1/0"], "argument --tmax: zero denominator"),
    (["fundamental", "--a", "1/4,1/0"], "argument --a: zero denominator in '1/0'"),
    (["solve", "--c", "inf"], "argument --c: must be finite"),
    (["order", "--chain", "10,20,40", "--c", "inf"], "argument --c: must be finite"),
    (["bound", "--chain", "10,20,40", "--c", "inf"], "argument --c: must be finite"),
    (["solve", "--tmax", "inf"], "argument --tmax: must be finite"),
    (["energy", "--scalar", "exact", "--imax", "8", "--kmax", "16", "--tmax", "1e400"],
     "argument --tmax: must be finite and within binary64 range, got '1e400'"),
    (["order", "--chain", "10,20,40", "--tmax", "nan"], "argument --tmax: must be finite"),
    (["solve", "--c", "1" + "0" * 400 + "/3"], "argument --c: must be finite"),
    (["solve", "--cn", "inf"], "argument --cn: must be finite"),
    (["order", "--chain", "10,20,40", "--xi", "nan"], "argument --xi: must be finite"),
    (["fundamental", "--a", ","], "argument --a: needs at least one value, got ','"),
    (["bound", "--chain", ","], "argument --chain: needs at least one value, got ','"),
    (["report", "--only", ""], "argument --only: needs at least one value, got ''"),
    (["report", "--only", ","], "argument --only: needs at least one value, got ','"),
])
def test_bad_numbers_and_empty_lists_exit_2_in_the_parser(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_roundoff_without_reconstruction_never_convolves(tmp_path, monkeypatch):
    from wavecheck import roundoff

    calls = []
    reconstruct = roundoff.reconstruct_global_error

    def recording(*args):
        calls.append(args)
        return reconstruct(*args)

    monkeypatch.setattr(roundoff, "reconstruct_global_error", recording)
    argv = ["roundoff", "--imax", "10", "--kmax", "20"]
    assert main(argv + ["--no-reconstruction", "--out", str(tmp_path / "skip")]) == 0
    assert read_json(tmp_path / "skip" / "roundoff.json")["reconstruction"] == "skipped"
    assert calls == []
    assert main(argv + ["--out", str(tmp_path / "full")]) == 0
    assert read_json(tmp_path / "full" / "roundoff.json")["reconstruction"] == "exact-equal"
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--imax", "0"],
    ["order", "--chain", "0,10,20"],
    ["bound", "--chain", "10,20,0"],
])
def test_grid_counts_below_two_exit_2_before_any_solve(tmp_path, capsys, monkeypatch, argv):
    from wavecheck import scheme

    marches = []
    march = scheme._march_binary64

    def recording(*args):
        marches.append(args)
        return march(*args)

    monkeypatch.setattr(scheme, "_march_binary64", recording)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "i_max too small: 0 (must be greater than one)" in capsys.readouterr().err
    assert marches == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["solve", "--c", "1e-300", "--imax", "8"],
     "t_max = 1, cn = 0.5 and c = 1e-300 give k_max = 0 at i_max = 8"),
    (["solve", "--tmax", "1e-9", "--imax", "8"],
     "t_max = 1e-09, cn = 0.5 and c = 1 give k_max = 0 at i_max = 8"),
    (["solve", "--tmax", "1/16", "--imax", "8"],
     "t_max = 1/16, cn = 0.5 and c = 1 give k_max = 1 at i_max = 8"),
    (["order", "--chain", "10,20,40", "--tmax", "1e-9"],
     "t_max = 1e-09, cn = 0.5 and c = 1.0 give k_max = 0 at i_max = 10"),
    (["solve", "--kmax", "1", "--imax", "8"], "k_max too small: 1 (must be greater than one)"),
])
def test_too_few_time_steps_name_the_flags_that_produced_them(tmp_path, capsys, argv,
                                                              message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["solve", "--c", "1e308", "--imax", "8"],
     "t_max = 1, cn = 0.5 and c = 1e+308 give dt = 6.25e-310 at i_max = 8"),
    (["solve", "--cn", "1e-320", "--imax", "8"],
     "t_max = 1, cn = 1e-320 and c = 1 give dt = 1.25e-321 at i_max = 8"),
    (["order", "--chain", "10,20,40", "--cn", "1e-320"],
     "t_max = 1.0, cn = 1e-320 and c = 1.0 give dt = 1e-321 at i_max = 10"),
    (["solve", "--cn", "5e-324", "--imax", "8"],
     "t_max = 1, cn = 5e-324 and c = 1 give dt = 0.0 at i_max = 8"),
])
def test_time_steps_too_small_to_count_name_the_flags_that_produced_them(
        tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert f"{message} (t_max / dt must be finite)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["convergence", "truncation"])
def test_order_refuses_a_grid_no_machine_can_store_before_any_march(tmp_path, capsys,
                                                                     monkeypatch, mode):
    from wavecheck import analysis, scheme

    def refuse(*args):
        raise AssertionError("a march or truncation table started")

    monkeypatch.setattr(scheme, "_march_binary64", refuse)
    monkeypatch.setattr(analysis, "truncation_error", refuse)
    argv = ["order", "--chain", "10,20,40", "--cn", "1e-300", "--mode", mode]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "i_max = 10 and k_max = 9999999999999999335" in err
    assert " give 1099999999999999926897" in err
    assert f"nodes, which need more than {sys.maxsize} bytes at 8 bytes a node" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["energy", "--problem", "standing", "--imax", "20"],
    ["solve", "--problem", "standing", "--scalar", "exact", "--imax", "20"],
])
def test_standing_wave_with_exact_scalars_exits_2_before_sampling(tmp_path, capsys,
                                                                  monkeypatch, argv):
    from wavecheck import scheme

    samples = []
    sample = scheme._sample_space

    def recording(*args):
        samples.append(args)
        return sample(*args)

    monkeypatch.setattr(scheme, "_sample_space", recording)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--problem standing" in err and "--scalar binary64" in err
    assert samples == []
    assert list(tmp_path.iterdir()) == []


def test_fundamental_counts_violated_certificates_apart_from_skipped(tmp_path, monkeypatch):
    import random

    from test_fundamental import plus_one

    from wavecheck import fundamental, report

    cert = fundamental._CERTIFICATE["k"]
    monkeypatch.setitem(cert, "rat", plus_one(cert["rat"]))
    assert main(["fundamental", "--depth", "4", "--range", "6", "--certificates", "30",
                 "--out", str(tmp_path)]) == 1
    data = read_json(tmp_path / "fundamental.json")
    checked, skipped, failures = report.certificate_failures(random.Random(20130), 30, 6)
    violated = sum(list(results.values()).count("violated") for _, results in failures)
    assert (skipped, violated) == (46, 18)
    assert data["certificates_skipped"] == skipped
    assert data["certificates_checked"] == checked == 90 - 46 - 18
    assert [f for f in data["failures"] if f[0] == "certificate"] == [
        ["certificate", str(point), str(results)] for point, results in failures]


def test_a_corrupted_shift_coefficient_fails_the_recurrence_and_the_certificate(
        tmp_path, monkeypatch):
    from wavecheck import fundamental

    b1 = fundamental._CERTIFICATE["n"]["b1"]
    monkeypatch.setitem(fundamental._CERTIFICATE["n"], "b1",
                        lambda i, n, k: 2 * b1(i, n, k))
    # Every failure is written, so the certificates that sort after more
    # than ten recurrence failures are in the file too.
    for sweep, recurrences, certificates in ((2, 4, 3), (4, 20, 2)):
        out = tmp_path / str(sweep)
        assert main(["fundamental", "--depth", "2", "--range", str(sweep),
                     "--certificates", "30", "--out", str(out)]) == 1
        failures = read_json(out / "fundamental.json")["failures"]
        # The n-recurrence fails wherever f(i, n + 1, k) is nonzero.
        assert failures[:4] == [["shift-recurrence", "0", "0", "1"],
                                ["shift-recurrence", "0", "0", "2"],
                                ["shift-recurrence", "0", "1", "2"],
                                ["shift-recurrence", "1", "1", "2"]]
        assert [f[0] for f in failures] == (["shift-recurrence"] * recurrences
                                            + ["certificate"] * certificates)


@pytest.mark.parametrize("command", ["order", "bound"])
@pytest.mark.parametrize("flag", ["--imax", "--kmax"])
def test_grid_flags_are_rejected_where_unread(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "10", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err


#: Defaults of each subcommand's flags, recorded while the parser still wrote
#: them out as literals; it now reads them from the catalog and the scheme.
#: The list defaults were re-recorded as tuples when the parser became one
#: per process: a list default is shared by every parse, so one run that
#: appended to it would change the defaults of the next.
PARSER_DEFAULTS = {
    "order": {"c": 1, "tmax": 1, "cn": 0.5, "xi": 2.0 ** -50, "mode": "convergence",
              "chain": (50, 100, 200, 400), "m": 1},
    "fundamental": {"depth": 40, "sweep": 30,
                    "a": (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)),
                    "certificates": 500, "seed": 20130},
    "bound": {"c": 1, "tmax": 1, "cn": 0.5, "xi": None, "m": 1, "chain": (50, 100, 200)},
    "report": {"only": None, "seed": 20130, "selftest_inject_fault": False},
}


@pytest.mark.parametrize("command", sorted(PARSER_DEFAULTS))
def test_parser_defaults_are_pinned(command):
    expected = PARSER_DEFAULTS[command]
    args = vars(build_parser().parse_args([command]))
    got = {key: args[key] for key in expected}
    assert got == expected
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in expected.items()}
    for key, value in args.items():  # immutable, so a shared parser holds no state
        assert hash(value) is not None, key


@pytest.mark.parametrize("command", ["solve", "energy", "roundoff"])
def test_parser_defaults_without_a_pin_are_hashable(command):
    for key, value in vars(build_parser().parse_args([command])).items():
        assert hash(value) is not None, key


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_order_prints_its_default_chain_as_a_list(tmp_path, capsys):
    assert main(["order", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith(" over chain [50, 100, 200, 400]\n")
    assert read_json(tmp_path / "order.json")["chain"] == [50, 100, 200, 400]


def test_report_subset_and_skip_labeling(tmp_path):
    code = main(["report", "--only", "row-sums-linear,binomial-identities",
                 "--out", str(tmp_path)])
    assert code == 0
    data = read_json(tmp_path / "claims.json")
    by_id = {c["id"]: c for c in data["claims"]}
    assert len(by_id) == 14  # every claim id appears exactly once
    assert by_id["row-sums-linear"]["status"] == "verified-exact"
    assert by_id["binomial-identities"]["status"] == "verified-exact"
    assert by_id["convergence-order"]["status"] == "skipped"


def test_report_fault_injection_surfaces_violation(tmp_path):
    code = main(["report", "--only", "global-error-reconstruction",
                 "--selftest-inject-fault", "--out", str(tmp_path)])
    assert code == 1
    data = read_json(tmp_path / "claims.json")
    by_id = {c["id"]: c for c in data["claims"]}
    claim = by_id["global-error-reconstruction"]
    assert claim["status"] == "violated"
    assert "first_mismatch" in claim["evidence"]


def test_outputs_are_deterministic(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        assert main(["solve", "--imax", "16", "--kmax", "32",
                     "--out", str(out)]) == 0
        assert main(["report", "--only", "energy-constant,constants-derivation",
                     "--out", str(out)]) == 0
    for name in ("field.csv", "summary.json", "claims.json", "claims.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # Wall-clock times live in their own file, one entry per claim.
    claims = read_json(out1 / "claims.json")["claims"]
    assert all("seconds" not in c for c in claims)
    timings = read_json(out1 / "timings.json")["claims"]
    assert [c["id"] for c in timings] == [c["id"] for c in claims]


def test_report_unknown_claim_id_exits_2(tmp_path, capsys):
    assert main(["report", "--only", "row-sums-linaer", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "row-sums-linaer" in err
    assert "row-sums-linear" in err  # the valid ids are listed
    assert not (tmp_path / "claims.json").exists()


def test_run_claims_rejects_unknown_ids():
    from wavecheck.errors import ParameterError
    from wavecheck.report import run_claims

    with pytest.raises(ParameterError, match="unknown claim id.*no-such-claim"):
        run_claims(only=["row-sums-linear", "no-such-claim"])


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("imax=8\nkmax=16\n# comment line\n")
    out = tmp_path / "a"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_json(out / "summary.json")["grid"]["i_max"] == 8

    out2 = tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--imax", "12", "--kmax", "24",
                 "--out", str(out2)]) == 0
    assert read_json(out2 / "summary.json")["grid"]["i_max"] == 12


def test_config_file_before_the_subcommand(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("imax=10\nkmax=20\n")
    out = tmp_path / "a"
    assert main(["--config", str(cfg), "solve", "--out", str(out)]) == 0
    grid = read_json(out / "summary.json")["grid"]
    assert (grid["i_max"], grid["k_max"]) == (10, 20)


@pytest.mark.parametrize("before", [True, False])
def test_config_equals_spelling_before_and_after_the_subcommand(tmp_path, before):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("imax=12\nkmax=24\n")
    out = tmp_path / "a"
    config = [f"--config={cfg}"]
    argv = config + ["solve"] if before else ["solve"] + config
    assert main(argv + ["--out", str(out)]) == 0
    grid = read_json(out / "summary.json")["grid"]
    assert (grid["i_max"], grid["k_max"]) == (12, 24)


@pytest.mark.parametrize("position", ["before", "after", "both"])
def test_repeated_config_exits_2_naming_the_repetition(tmp_path, capsys, position):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("imax=8\nkmax=16\n")
    first, second = ["--config", str(cfg)], [f"--config={cfg}"]
    argv = {"before": first + second + ["solve"],
            "after": ["solve"] + first + second,
            "both": first + ["solve"] + second}[position]
    try:
        code = main(argv + ["--out", str(tmp_path / "out")])
    except SystemExit as exc:  # an argparse refusal would name something else
        code = exc.code
    assert code == 2
    assert "--config given more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("before", [True, False])
def test_malformed_config_exits_2(tmp_path, capsys, before):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("imax 10\n")
    config = ["--config", str(cfg)]
    argv = config + ["solve"] if before else ["solve"] + config
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "not key=value" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.cfg"), "solve"]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"imax=\xff\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_report_crashing_claim_is_errored_not_violated(tmp_path, monkeypatch):
    from wavecheck import report

    def boom(cfg):
        raise ZeroDivisionError("checker divided by zero")

    monkeypatch.setattr(report, "CLAIMS", report.CLAIMS + [
        ("crashing-claim", "a claim whose check raises", boom)])
    assert main(["report", "--only", "crashing-claim", "--out", str(tmp_path)]) == 1
    data = read_json(tmp_path / "claims.json")
    claim = {c["id"]: c for c in data["claims"]}["crashing-claim"]
    assert claim["status"] == "errored"
    assert claim["evidence"]["error_type"] == "ZeroDivisionError"
    assert claim["evidence"]["raised_in"].endswith(".boom")
    assert (data["violated"], data["errored"]) == (0, 1)
    assert "errored: 1 / 15" in (tmp_path / "claims.txt").read_text()


def corrupt_one_entry(monkeypatch, i, k):
    """Make ``fundamental.build_table`` add one to the scaled entry ``L_i^k``."""
    from wavecheck import fundamental

    build = fundamental.build_table

    def corrupted(a, K):
        table = build(a, K)
        rows = [table.scaled_row(r) for r in range(K + 1)]
        rows[k][i + k] += 1
        return fundamental.FundamentalTable(table.a, K, rows)

    monkeypatch.setattr(fundamental, "build_table", corrupted)


def test_closed_form_sweep_reports_a_corrupted_entry_in_both_forms(monkeypatch):
    from wavecheck import fundamental, report

    corrupt_one_entry(monkeypatch, -1, 3)
    table = fundamental.build_table(Fraction(1, 2), 6)
    assert list(report.closed_form_failures(table)) == [("closed", -1, 3), ("jacobi", -1, 3)]
    status, evidence = report.claim_closed_form(report.ClaimConfig(closed_form_kmax=6))
    assert status == report.VIOLATED
    assert evidence == {"a": "1/4", "i": -1, "k": 3, "form": "closed"}


#: SHA-256 of ``fundamental.json`` with the entry ``L_{-1}^3`` off by one,
#: recorded while the Jacobi form still summed one Fraction per polynomial.
FAILING_FUNDAMENTAL_SHA256 = "7f7cfe8a3b0c732aad668044c692e49b3884306e70935b5f43a01314be8eb7ec"


def test_fundamental_lists_a_corrupted_entry_in_both_forms(tmp_path, monkeypatch):
    corrupt_one_entry(monkeypatch, -1, 3)
    assert main(["fundamental", "--a", "1/2", "--depth", "6", "--range", "4",
                 "--certificates", "10", "--out", str(tmp_path)]) == 1
    path = tmp_path / "fundamental.json"
    assert read_json(path)["failures"] == [["closed-form", "1/2", "-1", "3"],
                                           ["jacobi-form", "1/2", "-1", "3"],
                                           ["row-sum", "1/2", "4"]]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FAILING_FUNDAMENTAL_SHA256


#: SHA-256 of the verdict files of the fundamental-solution claims at the
#: catalog's default sizes (the benchmark's goldens cover smaller ones),
#: recorded while the Jacobi form still summed one Fraction per polynomial.
FUNDAMENTAL_CLAIMS_SHA256 = {
    "claims.json": "5f8cbde0d8f09efd0f61ec8a5a0b7979b043911259eda00b097b8e440a0356db",
    "claims.txt": "783b8e9da4803980503bf938f20d6e3cb531f8a941e96fc64c3b7cd617ad1f97",
}


def test_default_size_fundamental_claims_match_recorded_digests(tmp_path):
    only = ("row-sums-linear,closed-form-equivalence,fundamental-nonnegative,"
            "binomial-identities,telescoping-recurrences")
    assert main(["report", "--only", only, "--out", str(tmp_path)]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in FUNDAMENTAL_CLAIMS_SHA256} == FUNDAMENTAL_CLAIMS_SHA256


#: SHA-256 of every artifact of one run per subcommand and scalar kind,
#: recorded before the binary64 and exact code paths were merged into one
#: scalar-generic path; the merged path must reproduce them byte for byte.
ARTIFACT_SHA256 = {
    "solve-binary64": (
        ["solve", "--imax", "16", "--kmax", "32"],
        {"field.csv": "463a05ccfacf00db1ffe73fde380219327beb93e3fcb3ded7745eeccf83e5ab3",
         "summary.json": "5e70156031a39ffdae79b5e6a86cf352d3fecd7d8feed0456fb33b4e3e3dc538"}),
    "solve-exact": (
        ["solve", "--scalar", "exact", "--imax", "8", "--kmax", "16", "--tmax", "1/2"],
        {"field.csv": "48793a02559668a620e157b6aeb4766c2df124b28902b6285175aab04536692a",
         "summary.json": "4e621783642ccc35c0ef9267370a92e2aaf0ce4c74c4f8b2a9c4c40f1b54bbb8"}),
    # The next three were recorded before the exact energy series summed in
    # integers: an exact solve larger than the 8 x 16 one, a float --c on an
    # exact run, and the README's 50 x 50 energy command.
    "solve-exact-20x40": (
        ["solve", "--scalar", "exact", "--imax", "20", "--kmax", "40"],
        {"field.csv": "1a6e4eaba256d6ee423c26a27784c86eec6a016fb602739c919c85f67abe90ff",
         "summary.json": "5810fa3ff8534fa70077ab328885660239ace625d46d7efc27b3d8872285d76d"}),
    "energy-exact": (
        ["energy", "--imax", "12", "--kmax", "12", "--tmax", "1/2"],
        {"energy.csv": "ece347ab406661da19d89f784f65f81e8366d0a4aa5d4e7fe555a2c1b7aa21e8",
         "energy.json": "ca744a169e1226b15e778bb2cf13127d1c06118256ef2074989eb7e0f9698e05"}),
    "energy-exact-float-c": (
        ["energy", "--c", "0.9", "--imax", "10", "--kmax", "20"],
        {"energy.csv": "719604126edbc7f63b39385cf06c0687f7346b149316e9c9fabfbc92197d14b3",
         "energy.json": "753a845c287fb4c6e7a000d69b07d038bd08c11505b4dfeded43180a6e25d8f7"}),
    "energy-exact-readme": (
        ["energy", "--imax", "50", "--kmax", "50", "--tmax", "1/2"],
        {"energy.csv": "a55a1695ec9f6e1bcfbf157d5fff6fa1c6396a3cf5a43918a871ebbe1f256de3",
         "energy.json": "1c59dc4334e5b61a903b793e48df67bdf44158d04cdc8632f8e95d8066a85447"}),
    "energy-binary64": (
        ["energy", "--scalar", "binary64", "--problem", "standing"],
        {"energy.csv": "6cf627e6c3692c7f5885904e3dccc3ef4f4d4cfb17bd02eda03c837fb457c017",
         "energy.json": "4985206281bc41953f9b7b2de68d07ecce5a121aff66b397588cc565859b4636"}),
    "order": (
        ["order", "--chain", "10,20,40"],
        {"order.csv": "2c8d45c5b7cc2ac112288e0c4c5282c995feaed8c8b000c285b827f6aa50aaa7",
         "order.json": "bdb1807cb6d07f6051d516c9dfce7981f9df707924f891b684deedd5234eeaac"}),
    "order-truncation": (
        ["order", "--mode", "truncation", "--chain", "10,20,40"],
        {"order.csv": "18855564eb6bc84d9c3dcedaa97534b0319611d7239ca8df89c3b228f61588c7",
         "order.json": "557d042d6d7b8f1255873a93c3b37e320f7258344886896cb70e82770a1d4528"}),
    "fundamental": (
        ["fundamental", "--depth", "10", "--range", "10", "--certificates", "80"],
        {"fundamental.json":
         "4217bea2320d9d9eb850206247054dd90ecad1edbed8fd260e2e02ca29b17721"}),
    "fundamental-readme": (
        ["fundamental", "--depth", "40", "--range", "30"],
        {"fundamental.json":
         "2d248085ef597a132a8dd73e837c72a9176e98868cb455453705bfb9b4c2e7ea"}),
    "roundoff": (
        ["roundoff", "--imax", "10", "--kmax", "20"],
        {"roundoff.json": "1555e24fe3dd64ad324c466655b952c598296b0907efad3ec644ff78e7487297"}),
    # SHA-256 of every ``roundoff`` artifact, recorded from the plain Fraction
    # implementation of the exact layers; the fraction-free one must match it.
    "roundoff-12x24": (
        ["roundoff", "--imax", "12", "--kmax", "24"],
        {"roundoff.json": "6010c7622677bd390bc512494a3f9051c9c14c30de2f548936382aed111f06ef"}),
    "bound": (
        ["bound", "--chain", "20,40,80"],
        {"bound.json": "79bfd43a11bf302e1aac6c191952f9259c34ec701a0b6a44d46acc49884adaca"}),
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
def test_artifacts_match_recorded_digests(tmp_path, capsys, name):
    # Two runs in one process share the parser: both must write the same
    # files and print the same lines.
    argv, expected = ARTIFACT_SHA256[name]
    digests, stdouts = [], []
    for run in ("run1", "run2"):
        out = tmp_path / run
        assert main(argv + ["--out", str(out)]) == 0
        digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.iterdir()})
        stdouts.append(capsys.readouterr().out.replace(str(out), "<out>"))
    assert digests[0] == digests[1] == expected
    assert stdouts[0] == stdouts[1] != ""
