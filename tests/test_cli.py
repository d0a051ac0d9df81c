import hashlib
import json
from fractions import Fraction

import pytest

from wavecheck.cli import build_parser, main


def run_cli(args, capsys=None):
    code = main(args)
    return code


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

    def recording(i, n, k):
        seen.append(k)
        return check(i, n, k)

    monkeypatch.setattr(fundamental, "check_zeilberger_recurrences", recording)
    assert main(["fundamental", "--depth", "2", "--range", "27", "--certificates", "1",
                 "--out", str(tmp_path)]) == 0
    assert max(seen) == 27
    assert read_json(tmp_path / "fundamental.json")["sweep"] == 27


@pytest.mark.parametrize("argv,artifact", [
    (["roundoff", "--imax", "10"], "roundoff.json"),
    (["solve", "--scalar", "exact", "--imax", "8"], "summary.json"),
])
def test_default_problem_runs_at_the_given_velocity(tmp_path, argv, artifact):
    assert main(argv + ["--c", "1/2", "--cn", "0.25", "--out", str(tmp_path)]) == 0
    a = read_json(tmp_path / artifact)["a"]
    assert (a["exact"] if artifact == "roundoff.json" else a) == "1/16"


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
])
def test_bad_inputs_exit_2_naming_the_flag(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("command", ["order", "bound"])
@pytest.mark.parametrize("flag", ["--imax", "--kmax"])
def test_grid_flags_are_rejected_where_unread(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "10", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err


#: Defaults of each subcommand's flags, recorded while the parser still wrote
#: them out as literals; it now reads them from the catalog and the scheme.
PARSER_DEFAULTS = {
    "order": {"c": 1, "tmax": 1, "cn": 0.5, "xi": 2.0 ** -50, "mode": "convergence",
              "chain": [50, 100, 200, 400], "m": 1},
    "fundamental": {"depth": 40, "sweep": 30,
                    "a": [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)],
                    "certificates": 500, "seed": 20130},
    "bound": {"c": 1, "tmax": 1, "cn": 0.5, "xi": None, "m": 1, "chain": [50, 100, 200]},
    "report": {"only": None, "seed": 20130, "selftest_inject_fault": False},
}


@pytest.mark.parametrize("command", sorted(PARSER_DEFAULTS))
def test_parser_defaults_are_pinned(command):
    expected = PARSER_DEFAULTS[command]
    args = vars(build_parser().parse_args([command]))
    got = {key: args[key] for key in expected}
    assert got == expected
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in expected.items()}


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


#: SHA-256 of every ``roundoff`` artifact, recorded from the plain Fraction
#: implementation of the exact layers; the fraction-free one must match it.
ROUNDOFF_SHA256 = {
    (10, 20): {"roundoff.json":
               "a02b9e160f3ba071d47473b25ae24398312a56d7d623ffcd0578ab0703cf8888"},
    (12, 24): {"roundoff.json":
               "c0940216bef10fbf8cb02e335dd9ebece2e68c6108b645a64c3c1a31c59d2d3c"},
}


@pytest.mark.parametrize("i_max,k_max", sorted(ROUNDOFF_SHA256))
def test_roundoff_artifacts_match_recorded_digests(tmp_path, i_max, k_max):
    digests = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        assert main(["roundoff", "--imax", str(i_max), "--kmax", str(k_max),
                     "--out", str(out)]) == 0
        digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.iterdir()})
    assert digests[0] == digests[1] == ROUNDOFF_SHA256[i_max, k_max]


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
    "energy-exact": (
        ["energy", "--imax", "12", "--kmax", "12", "--tmax", "1/2"],
        {"energy.csv": "ece347ab406661da19d89f784f65f81e8366d0a4aa5d4e7fe555a2c1b7aa21e8",
         "energy.json": "ca744a169e1226b15e778bb2cf13127d1c06118256ef2074989eb7e0f9698e05"}),
    "energy-binary64": (
        ["energy", "--scalar", "binary64", "--problem", "standing"],
        {"energy.csv": "6cf627e6c3692c7f5885904e3dccc3ef4f4d4cfb17bd02eda03c837fb457c017",
         "energy.json": "4985206281bc41953f9b7b2de68d07ecce5a121aff66b397588cc565859b4636"}),
    "order": (
        ["order", "--chain", "10,20,40"],
        {"order.csv": "2c8d45c5b7cc2ac112288e0c4c5282c995feaed8c8b000c285b827f6aa50aaa7",
         "order.json": "bdb1807cb6d07f6051d516c9dfce7981f9df707924f891b684deedd5234eeaac"}),
    "fundamental": (
        ["fundamental", "--depth", "10", "--range", "10", "--certificates", "80"],
        {"fundamental.json":
         "4217bea2320d9d9eb850206247054dd90ecad1edbed8fd260e2e02ca29b17721"}),
    "bound": (
        ["bound", "--chain", "20,40,80"],
        {"bound.json": "79bfd43a11bf302e1aac6c191952f9259c34ec701a0b6a44d46acc49884adaca"}),
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
def test_artifacts_match_recorded_digests(tmp_path, name):
    argv, expected = ARTIFACT_SHA256[name]
    digests = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        assert main(argv + ["--out", str(out)]) == 0
        digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.iterdir()})
    assert digests[0] == digests[1] == expected
