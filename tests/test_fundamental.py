import hashlib
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference
from fraction_reference import brute_sum as ref_brute_sum
from fraction_reference import table_rows
from wavecheck import (
    ParameterError,
    build_table,
    check_binomial_identity,
    check_certificate,
    check_zeilberger_recurrences,
    fundamental,
    lambda_closed_form,
    lambda_via_jacobi,
    row_sum,
)
from wavecheck.cli import main
from wavecheck.errors import DomainError, NumericDomainError
from wavecheck.fundamental import _jacobi_step, brute_sum
from wavecheck.report import (
    VIOLATED,
    ClaimConfig,
    claim_binomial_identities,
    run_claims,
)


def test_initial_rows():
    t = build_table(Fr(2, 5), 4)
    assert t.entry(0, 0) == 1
    assert t.entry(1, 0) == 0 and t.entry(-3, 0) == 0
    assert t.entry(-1, -1) == 0


def test_first_recurrence_row():
    a = Fr(2, 7)
    t = build_table(a, 3)
    assert (t.entry(-1, 1), t.entry(0, 1), t.entry(1, 1)) == (a, 2 - 2 * a, a)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        build_table(Fr(0), 5)
    with pytest.raises(ParameterError):
        build_table(Fr(3, 2), 5)
    with pytest.raises(ParameterError):
        build_table(Fr(1, 2), -1)
    for k in (-2, 4):
        with pytest.raises(DomainError, match=f"time index {k} outside"):
            build_table(Fr(1, 2), 3).entry(0, k)


def test_entries_nonnegative_small():
    t = build_table(Fr(1, 2), 6)
    assert list(t.negative_entries()) == []


def test_spatial_symmetry_and_light_cone():
    t = build_table(Fr(3, 8), 15)
    assert all(row == row[::-1] for row in map(t.scaled_row, range(16)))
    for k in range(16):
        assert t.entry(k + 1, k) == 0
        for i in range(k + 1):
            assert t.entry(i, k) == t.entry(-i, k)


@given(
    st.fractions(min_value=Fr(1, 97), max_value=Fr(96, 97), max_denominator=97),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_half_row_table_equals_full_row_oracle(a, K):
    t = build_table(a, K)
    assert [t.scaled_row(k) for k in range(K + 1)] == table_rows(a, K)


def test_row_totals_second_difference_vanishes():
    t = build_table(Fr(4, 9), 20)
    for k in range(1, 20):
        assert row_sum(t, k + 2) - 2 * row_sum(t, k + 1) + row_sum(t, k) == 0


def test_closed_form_base_cases():
    a = Fr(5, 13)
    assert lambda_closed_form(a, 0, 0) == 1
    assert lambda_closed_form(a, 0, 1) == 2 - 2 * a
    with pytest.raises(DomainError):
        lambda_closed_form(a, 3, 2)


def test_three_representations_agree():
    for a in (Fr(1, 3), Fr(1, 2), Fr(4, 5)):
        t = build_table(a, 12)
        for k in range(13):
            for i in range(-k, k + 1):
                v = t.entry(i, k)
                assert v == lambda_closed_form(a, i, k)
                assert v == lambda_via_jacobi(a, i, k)


@given(
    st.fractions(min_value=Fr(1, 30), max_value=Fr(29, 30), max_denominator=30),
    st.integers(min_value=0, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_recurrence_property(a, k):
    t = build_table(a, k)
    for i in range(-k, k + 1):
        assert t.entry(i, k) == lambda_closed_form(a, i, k)


def test_row_sums():
    t = build_table(Fr(3, 7), 10)
    assert row_sum(t, 0) == 0
    assert row_sum(t, 1) == 1
    assert row_sum(t, 5) == 5
    assert row_sum(t, 11) == 11
    with pytest.raises(DomainError):
        row_sum(t, 12)


def test_jacobi_form_light_cone_edge():
    a = Fr(2, 9)
    t = build_table(a, 8)
    for k in range(9):
        assert lambda_via_jacobi(a, k, k) == a ** k == t.entry(k, k)
    with pytest.raises(DomainError):
        lambda_via_jacobi(a, 9, 8)


def test_jacobi_step_with_a_remainder_raises_and_the_claim_is_errored(monkeypatch):
    # a = 1/3, alpha = 2: Q_0 = 1, Q_1 = 3q - 4p = 5 and Q_2 = 9; one more in
    # Q_1 leaves 180 / 64 in the step's division.
    assert _jacobi_step(2, 2, 1, 3, 5, 1) == 9
    with pytest.raises(NumericDomainError, match="not an integer"):
        _jacobi_step(2, 2, 1, 3, 6, 1)

    step = fundamental._jacobi_step

    def off_by_one(n, alpha, p, q, old, older):
        # One more in the Legendre Q_2 leaves 240 / 72 at a = 1/4.
        return step(n, alpha, p, q, old + (n == 3 and alpha == 0), older)

    monkeypatch.setattr(fundamental, "_jacobi_step", off_by_one)
    (result,) = [r for r in run_claims(ClaimConfig(closed_form_kmax=4),
                                       only=["closed-form-equivalence"]).results
                 if r.claim_id == "closed-form-equivalence"]
    assert result.status == "errored"
    assert result.evidence["raised_in"] == "wavecheck.fundamental._jacobi_step"


def test_legendre_partial_sum_oracle():
    # Independent Legendre values from the three-term recurrence
    # (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}.
    a = Fr(2, 5)
    x = 1 - 2 * a
    legendre = [Fr(1), x]
    for n in range(1, 20):
        legendre.append(((2 * n + 1) * x * legendre[n] - n * legendre[n - 1]) / (n + 1))
    t = build_table(a, 20)
    for k in range(21):
        assert t.entry(0, k) == sum(legendre[: k + 1])


def test_binomial_identity_base_cases():
    assert check_binomial_identity(0) == []
    # (0,1,1): direct enumeration gives 2 on the left, C(2,1) C(2,2) = 2.
    assert brute_sum(0, 1, 1) == 2
    assert check_binomial_identity(1) == []
    assert check_binomial_identity(-1) == []  # no ordered triple to check


def test_binomial_identity_sweep():
    # Every (i, n) column is walked over every k in [n, 9].
    assert check_binomial_identity(9) == []


#: SHA-256 of ``fundamental.json`` with ``f(1, 2, 5)`` off by one, recorded
#: while each binomial triple was checked on its own, summing its column afresh.
FAILING_BINOMIAL_SHA256 = "1aa84af3f73558bd1cd7f86fe57289952b403ce021e7a03cbf8bc5af84d0ee6f"


def test_a_binomial_fault_is_located_by_the_claim_and_the_subcommand(tmp_path, monkeypatch):
    exact = fundamental.brute_sum

    def off_by_one(i, n, k):
        return exact(i, n, k) + ((i, n, k) == (1, 2, 5))

    monkeypatch.setattr(fundamental, "brute_sum", off_by_one)
    # The single sum fails at k = 5 only; the double sum from k = 5 on.
    assert check_binomial_identity(8) == [(1, 2, 5), (1, 2, 6), (1, 2, 7), (1, 2, 8)]
    assert claim_binomial_identities(ClaimConfig()) == (VIOLATED, {"i": 1, "n": 2, "k": 5})
    assert main(["fundamental", "--depth", "2", "--range", "8", "--certificates", "0",
                 "--out", str(tmp_path)]) == 1
    digest = hashlib.sha256((tmp_path / "fundamental.json").read_bytes()).hexdigest()
    assert digest == FAILING_BINOMIAL_SHA256


def test_binomial_faults_in_two_columns_are_listed_in_k_n_i_order(monkeypatch):
    exact = fundamental.brute_sum

    def off_by_one(i, n, k):
        return exact(i, n, k) + ((i, n, k) in {(1, 2, 5), (0, 3, 4)})

    monkeypatch.setattr(fundamental, "brute_sum", off_by_one)
    assert check_binomial_identity(6) == [(0, 3, 4), (1, 2, 5), (0, 3, 5),
                                          (1, 2, 6), (0, 3, 6)]


def test_zeilberger_diagonal_annihilation():
    # At i = n the right factor vanishes, so the shifted sum must be zero.
    for n in range(5):
        for k in range(n, n + 4):
            assert brute_sum(n + 1, n, k) == 0
    assert check_zeilberger_recurrences(7) == []


def test_brute_sum_equals_summand_oracle_off_the_ordered_region():
    # The box holds negative i, i > n, n > k and k = -1.
    for k in range(-1, 16):
        for n in range(-2, k + 3):
            for i in range(-4, n + 4):
                assert brute_sum(i, n, k) == ref_brute_sum(i, n, k), (i, n, k)


def test_zeilberger_k_shift_base_case():
    assert brute_sum(0, 0, 0) == 1
    assert brute_sum(0, 0, 1) == 1
    assert check_zeilberger_recurrences(0) == []


def test_zeilberger_sweep():
    assert check_zeilberger_recurrences(9) == []
    assert check_zeilberger_recurrences(-1) == []  # no ordered triple to check


@given(st.data(), st.integers(min_value=0, max_value=12), st.sampled_from((-2, -1, 1, 2)))
@settings(max_examples=40, deadline=None)
def test_recurrence_sweep_locates_a_planted_fault_like_the_per_triple_oracle(data, K, delta):
    # The fault may sit on any sum the sweep reads: the ordered triples up to
    # k = K + 1, their i-shifts to i = n + 1 and their n-shifts to n = k + 1.
    k = data.draw(st.integers(min_value=0, max_value=K + 1))
    n = data.draw(st.integers(min_value=0, max_value=k + 1))
    i = data.draw(st.integers(min_value=0, max_value=n + 1))

    def planted(exact):
        return lambda *t: exact(*t) + delta * (t == (i, n, k))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fundamental, "brute_sum", planted(fundamental.brute_sum))
        mp.setattr(fraction_reference, "brute_sum", planted(ref_brute_sum))
        expected = list(fraction_reference.identity_failures(
            fraction_reference.check_zeilberger_recurrences, K))
        assert check_zeilberger_recurrences(K) == expected


def test_recurrence_sweep_evaluates_each_sum_once(monkeypatch):
    calls = []
    exact = fundamental.brute_sum

    def recording(i, n, k):
        calls.append((i, n, k))
        return exact(i, n, k)

    monkeypatch.setattr(fundamental, "brute_sum", recording)
    assert check_zeilberger_recurrences(30) == []
    # Rows k = 0..31 of f(i, n, k), i <= n + 1 <= k + 2; the per-triple
    # sweep made 21,824 calls for the same verdict.
    assert len(calls) == len(set(calls)) == 7104


def test_certificate_known_points():
    res = check_certificate(0, 1, 2, 1)
    assert res["k"] == "ok"
    assert "violated" not in res.values()
    res = check_certificate(1, 2, 3, 2)
    assert res["i"] == "ok"
    assert "violated" not in res.values()


def test_certificate_skips_zero_denominators_with_reason():
    res = check_certificate(0, 1, 2, 1)  # p == n: the shifted n-denominator dies
    assert res["n"].startswith("skipped")
    assert "n - p" in res["n"]
    res = check_certificate(2, 2, 2, 2)  # k == i kills the i-certificate
    assert res["i"].startswith("skipped")


def test_certificate_support_validation():
    with pytest.raises(DomainError):
        check_certificate(0, 1, 2, 2)  # p outside [i, n]
    with pytest.raises(DomainError):
        check_certificate(3, 1, 2, 1)


def plus_one(rat):
    """The certificate ``rat`` plus one, as an unreduced integer pair."""
    def corrupted(i, n, k, p):
        num, den = rat(i, n, k, p)
        return num + den, den
    return corrupted


@pytest.mark.parametrize("corruption", [
    None,
    ("k", "rat", plus_one),
    ("n", "b1", lambda b1: lambda i, n, k: 2 * b1(i, n, k)),
], ids=["exact", "rat-k-plus-one", "b1-n-doubled"])
def test_certificate_results_equal_the_fraction_reference(monkeypatch, corruption):
    if corruption is not None:
        name, key, wrap = corruption
        cert = fundamental._CERTIFICATE[name]
        monkeypatch.setitem(cert, key, wrap(cert[key]))
    outcomes = set()
    for k in range(13):
        for n in range(k + 1):
            for i in range(n + 1):
                for p in range(i, n + 1):
                    expected = fraction_reference.certificate_results(i, n, k, p)
                    assert check_certificate(i, n, k, p) == expected, (i, n, k, p)
                    outcomes.update(expected.values())
    # Each corruption shows as a violation; the exact certificate shows none.
    assert ("violated" in outcomes) == (corruption is not None)


def test_table_with_one_planted_negative_entry_is_not_nonnegative():
    table = build_table(Fr(1, 2), 6)
    assert list(table.negative_entries()) == []
    for i in (-2, 3):  # left and right of the centre of row 5
        rows = [table.scaled_row(k) for k in range(7)]
        rows[5][i + 5] = -1
        planted = fundamental.FundamentalTable(table.a, 6, rows)
        assert next(planted.negative_entries(), None) == (i, 5)
        assert list(planted.negative_entries()) == [(i, 5)]


def test_certificate_random_tuples():
    import random

    rng = random.Random(31)
    for _ in range(100):
        k = rng.randint(0, 12)
        n = rng.randint(0, k)
        i = rng.randint(0, n)
        p = rng.randint(i, n)
        res = check_certificate(i, n, k, p)
        assert "violated" not in res.values(), ((i, n, k, p), res)
