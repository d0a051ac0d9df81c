"""Fault catalogue: at least one fault for every claim of the catalog.

Each row names a claim id, the subcommand that decides the same check (None
for a claim whose check no subcommand decides), and a fault: one package
function or constant, monkeypatched.  Under the fault the claim must read
``violated`` and the subcommand must exit 1, so a claim and its subcommand
cannot disagree on a failure.  Claims and subcommands run at reduced sizes;
without a fault every one of them passes at these sizes.
"""

import struct
from fractions import Fraction

import pytest
from test_cli import corrupt_one_entry, energy_series_with, fail_norm_level
from test_fundamental import plus_one

from wavecheck import WaveProblem, analysis, cli, energy, fundamental, report, roundoff, scheme
from wavecheck.cli import main
from wavecheck.report import (
    VERIFIED_EXACT,
    VERIFIED_TOL,
    VIOLATED,
    WITNESSED,
    ClaimConfig,
    run_claims,
)

#: Catalog sizes of the table, small enough that the file runs in about a second.
SMALL = ClaimConfig(order_chain=(20, 40, 80), random_runs=3, row_sum_kmax=8,
                    closed_form_kmax=6, nonneg_kmax=8, identity_kmax=8, zeilberger_kmax=8,
                    certificate_samples=30, reconstruction_grids=((6, 12),),
                    local_bound_grid=(10, 20))
PASSED = {VERIFIED_EXACT, VERIFIED_TOL, WITNESSED}

ROUNDOFF = ["roundoff", "--imax", "10", "--kmax", "20"]
ENERGY = ["energy", "--imax", "12", "--kmax", "12", "--tmax", "1/2"]
FUNDAMENTAL = ["fundamental", "--depth", "6", "--range", "8", "--certificates", "30"]
BOUND = ["bound", "--chain", "10,20,40"]

#: Claims whose check no subcommand decides, with the reason.
CATALOG_ONLY = {
    "convergence-order": "order writes its fitted slope and checks nothing",
    "truncation-order": "order writes its fitted slope and checks nothing",
    "energy-constant": "energy writes the drift as a measurement, not a check",
    "constants-derivation": "no subcommand recomputes the constants",
}


def out_of_range_problem(monkeypatch):
    # The maximum of 9 x (1 - x) is 9/4, outside the range [-2, 2].
    for module in (report, cli):
        monkeypatch.setattr(module, "default_problem",
                            lambda: WaveProblem(c=1, u0=lambda x: 9 * x * (1 - x)))


def march_at_half_a(monkeypatch):
    march = scheme._march_binary64
    monkeypatch.setattr(scheme, "_march_binary64", lambda g, a, *rest: march(g, a / 2, *rest))


def residuals_plus_one_thousandth(monkeypatch):
    truncation_error = analysis.truncation_error
    monkeypatch.setattr(analysis, "truncation_error", lambda ref, g, c: (
        [r + 1e-3 for r in row] for row in truncation_error(ref, g, c)))


def one_half_step_raised(monkeypatch):
    series_of = energy.energy_series

    def raised(run):
        series = series_of(run)
        series.values[3] += 1
        return series

    monkeypatch.setattr(energy, "energy_series", raised)


def xi_in_single_precision(monkeypatch):
    # The oracle recomputes from the inputs the claim passed, not from the
    # ones the derivation stored, so a changed input shows as a mismatch.
    derive = analysis.derive_constants
    monkeypatch.setattr(analysis, "derive_constants", lambda xi, *args: derive(
        struct.unpack("f", struct.pack("f", xi))[0], *args))


def binomial_off_by_one(monkeypatch):
    brute_sum = fundamental.brute_sum
    monkeypatch.setattr(fundamental, "brute_sum",
                        lambda i, n, k: brute_sum(i, n, k) + ((i, n, k) == (1, 2, 5)))


def doubled_shift_coefficient(monkeypatch):
    b1 = fundamental._CERTIFICATE["n"]["b1"]
    monkeypatch.setitem(fundamental._CERTIFICATE["n"], "b1", lambda i, n, k: 2 * b1(i, n, k))


def certificate_k_plus_one(monkeypatch):
    # The shift recurrences read only b0 and b1, so they still hold and the
    # claim reaches its certificate sweep.
    rat = fundamental._CERTIFICATE["k"]["rat"]
    monkeypatch.setitem(fundamental._CERTIFICATE["k"], "rat", plus_one(rat))


FAULTS = {
    "local-bound": ("local-error-bound", ROUNDOFF,
                    lambda mp: mp.setattr(roundoff, "LOCAL_BOUND", Fraction(-1))),
    "a-gap": ("local-error-bound", ROUNDOFF,
              lambda mp: mp.setattr(roundoff, "A_GAP", Fraction(-1))),
    "range": ("local-error-bound", ROUNDOFF, out_of_range_problem),
    "global-bound": ("global-error-bound", ROUNDOFF,
                     lambda mp: mp.setattr(roundoff, "GLOBAL_BOUND_SCALE",
                                           Fraction(1, 2 ** 200))),
    "norm-level": ("global-error-bound", ROUNDOFF, fail_norm_level),
    "reconstruction": ("global-error-reconstruction", ROUNDOFF,
                       lambda mp: corrupt_one_entry(mp, 0, 2)),
    "energy-lower-bound": ("energy-lower-bound", ENERGY,
                           lambda mp: mp.setattr(energy, "energy_lower_bound_gap",
                                                 lambda series, cn, k: Fraction(-1))),
    "energy-nan-gap": ("energy-lower-bound", ENERGY,
                       lambda mp: mp.setattr(energy, "energy_lower_bound_gap",
                                             lambda series, cn, k: float("nan"))),
    "energy-nonnegative": ("energy-lower-bound", ENERGY,
                           lambda mp: mp.setattr(energy, "energy_series",
                                                 energy_series_with(-1))),
    "fundamental-nonnegative": ("fundamental-nonnegative", FUNDAMENTAL,
                                lambda mp: mp.setattr(fundamental.FundamentalTable,
                                                      "negative_entries",
                                                      lambda table: iter([(0, 0)]))),
    "closed-form": ("closed-form-equivalence", FUNDAMENTAL,
                    lambda mp: mp.setattr(fundamental, "lambda_closed_form",
                                          lambda a, i, k: Fraction(-1))),
    "row-sums": ("row-sums-linear", FUNDAMENTAL,
                 lambda mp: mp.setattr(fundamental, "row_sum", lambda table, k: Fraction(-1))),
    "binomial": ("binomial-identities", FUNDAMENTAL, binomial_off_by_one),
    "telescoping": ("telescoping-recurrences", FUNDAMENTAL, doubled_shift_coefficient),
    "telescoping-certificate": ("telescoping-recurrences", FUNDAMENTAL, certificate_k_plus_one),
    "total-error-bound": ("total-error-bound", BOUND,
                          lambda mp: mp.setattr(analysis, "total_error_bound",
                                                lambda consts, dx, dt: 0.0)),
    "total-error-nan-bound": ("total-error-bound", BOUND,
                              lambda mp: mp.setattr(analysis, "total_error_bound",
                                                    lambda consts, dx, dt: float("nan"))),
    "convergence-order": ("convergence-order", None, march_at_half_a),
    "truncation-order": ("truncation-order", None, residuals_plus_one_thousandth),
    "energy-constant": ("energy-constant", None, one_half_step_raised),
    "constants-derivation": ("constants-derivation", None, xi_in_single_precision),
}


def claim_status(claim_id: str) -> str:
    results = run_claims(SMALL, only=[claim_id]).results
    return next(r.status for r in results if r.claim_id == claim_id)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_fault_violates_the_claim_and_fails_the_subcommand(tmp_path, monkeypatch, fault):
    claim_id, argv, patch = FAULTS[fault]
    patch(monkeypatch)
    assert claim_status(claim_id) == VIOLATED
    if argv is not None:
        assert main(argv + ["--out", str(tmp_path)]) == 1


def test_without_a_fault_the_claims_pass_and_the_subcommands_exit_0(tmp_path):
    for claim_id in sorted({row[0] for row in FAULTS.values()}):
        assert claim_status(claim_id) in PASSED, claim_id
    subcommands = {tuple(row[1]) for row in FAULTS.values() if row[1] is not None}
    for j, argv in enumerate(sorted(subcommands)):
        assert main([*argv, "--out", str(tmp_path / str(j))]) == 0, argv


def test_every_claim_sharing_a_check_with_a_subcommand_has_a_fault():
    shared = {claim_id for claim_id, _, _ in report.CLAIMS} - set(CATALOG_ONLY)
    assert shared == {row[0] for row in FAULTS.values() if row[1] is not None}


def test_every_claim_has_a_fault():
    assert {claim_id for claim_id, _, _ in report.CLAIMS} == {row[0] for row in FAULTS.values()}
    assert {row[0] for row in FAULTS.values() if row[1] is None} == set(CATALOG_ONLY)
