import hashlib
import json

import pytest

from wavecheck.cli import main


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
    assert (out1 / "field.csv").read_bytes() == (out2 / "field.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


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
