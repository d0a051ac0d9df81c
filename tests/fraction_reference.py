"""Rational-arithmetic references for the fraction-free exact layers.

These are the plain ``fractions.Fraction`` loops that the package's exact
march, local-error table, convolution reconstruction, round-off bound checks,
closed form, Jacobi form and energy half steps used before they were
rewritten in scaled integers, and the full-row table recurrence that the
half-row one replaced.  They are kept verbatim as test oracles: every
Fraction the package returns must equal the one computed here.  The integer
sums at the end are the explicit forms that the Jacobi recurrence and the
direct binomial sums replaced, kept the same way, and so is the per-triple
sweep of the shift recurrences that the row-carrying sweep replaced, and the
telescoping certificate's two sides as Fractions, which the cross-multiplied
integer test replaced.
"""

import math
from fractions import Fraction

from wavecheck.errors import ParameterError
from wavecheck.fundamental import (
    _CERTIFICATE,
    FundamentalTable,
    _require_ordered,
    summand,
    three_term,
)
from wavecheck.grid import Grid, apply_Ah, dot_dx
from wavecheck.problem import antisym_index
from wavecheck.roundoff import GLOBAL_BOUND_SCALE, NORM_SCALE, GlobalBoundReport


def _march_exact(g: Grid, a: Fraction, u0, u1, source) -> list:
    imax = g.i_max
    half_a = a / 2
    dt = g.dt
    dt2 = dt * dt
    z = Fraction(0)
    cols = [list(u0)]

    prev = cols[0]
    col = [z] * (imax + 1)
    for i in range(1, imax):
        dp = (prev[i + 1] - 2 * prev[i]) + prev[i - 1]
        col[i] = prev[i] + half_a * dp
        if u1 is not None:
            col[i] += dt * u1[i]
    cols.append(col)

    for k in range(1, g.k_max):
        pk = cols[k]
        pkm1 = cols[k - 1]
        nxt = [z] * (imax + 1)
        for i in range(1, imax):
            dp = (pk[i + 1] - 2 * pk[i]) + pk[i - 1]
            nxt[i] = 2 * pk[i] - pkm1[i] + a * dp
            if source is not None:
                nxt[i] += dt2 * source[k][i]
        cols.append(nxt)
    return cols


def _second_diff(col, i):
    return (col[i + 1] - 2 * col[i]) + col[i - 1]


def _local_error_table(fl_cols: list, exact_col0: list, a: Fraction) -> list:
    """Local errors per the update definitions; outer arithmetic exact."""
    imax = len(fl_cols[0]) - 1
    kmax = len(fl_cols) - 1
    z = Fraction(0)
    half_a = a / 2

    d0 = [z] * (imax + 1)
    for i in range(1, imax):
        d0[i] = exact_col0[i] - fl_cols[0][i]

    d1 = [z] * (imax + 1)
    for i in range(1, imax):
        ideal = fl_cols[0][i] + half_a * _second_diff(fl_cols[0], i)
        inherited = d0[i] + half_a * _second_diff(d0, i)
        d1[i] = ideal - fl_cols[1][i] - inherited

    cols = [d0, d1]
    for k in range(1, kmax):
        dk = [z] * (imax + 1)
        pk, pkm1, pk1 = fl_cols[k], fl_cols[k - 1], fl_cols[k + 1]
        for i in range(1, imax):
            ideal = 2 * pk[i] - pkm1[i] + a * _second_diff(pk, i)
            dk[i] = ideal - pk1[i]
        cols.append(dk)
    return cols


def reconstruct_global_error(delta: list, table: FundamentalTable, i_max: int) -> list:
    """Global error from the convolution of extended local errors.

    ``R_i^k = - sum_{l=0}^{k} sum_{j=-l}^{l} d~_{i-j}^{k-l} L_j^l`` where
    ``d~`` is the odd spatial extension of each local-error row and ``L`` is
    the time-shifted fundamental solution; the leading sign converts the
    convolution's exact-minus-computed orientation into the stored
    computed-minus-exact one.  The result must equal the measured table
    exactly.
    """
    k_max = len(delta) - 1
    if table.K < k_max:
        raise ParameterError(
            f"fundamental table depth {table.K} insufficient for k_max {k_max}"
        )
    lam_rows = [
        [table.entry(j, l) for j in range(-l, l + 1)] for l in range(k_max + 1)
    ]
    out = []
    for k in range(k_max + 1):
        col = [Fraction(0)] * (i_max + 1)
        for i in range(i_max + 1):
            acc = Fraction(0)
            for l in range(k + 1):
                drow = delta[k - l]
                lrow = lam_rows[l]
                for j in range(-l, l + 1):
                    w = lrow[j + l]
                    if w:
                        d = antisym_index(drow, i - j)
                        if d:
                            acc += d * w
            col[i] = -acc
        out.append(col)
    return out


def lambda_closed_form(a: Fraction, i: int, k: int) -> Fraction:
    """Closed form of the table entry as an alternating binomial sum in a."""
    total = Fraction(0)
    a_pow = a ** abs(i)
    for n in range(abs(i), k + 1):
        term = math.comb(2 * n, n + i) * math.comb(n + k + 1, 2 * n + 1)
        total += (-1) ** (n + i) * term * a_pow
        a_pow *= a
    return total


def jacobi_poly(n: int, alpha: int, beta: int, x: Fraction) -> Fraction:
    """Jacobi polynomial ``P_n^(alpha,beta)(x)`` from its binomial definition."""
    plus = (x + 1) / 2
    minus = (x - 1) / 2
    total = Fraction(0)
    for p in range(n + 1):
        total += (
            math.comb(n + alpha, p) * math.comb(n + beta, n - p)
            * plus ** p * minus ** (n - p)
        )
    return total


def lambda_via_jacobi(a: Fraction, i: int, k: int) -> Fraction:
    """Table entry as ``a^|i|`` times a partial sum of Jacobi polynomials."""
    arg = 1 - 2 * a
    ai = abs(i)
    total = Fraction(0)
    for n in range(k - ai + 1):
        total += jacobi_poly(n, 2 * ai, 0, arg)
    return a ** ai * total


def max_abs_delta(run) -> Fraction:
    return max((abs(v) for col in run.delta for v in col), default=Fraction(0))


def check_global_bound(run) -> GlobalBoundReport:
    """Node-wise ``|D_i^k| <= 78 * 2^-53 (k+1)(k+2)``, plus the norm-level form."""
    g = run.grid
    scale_n, scale_d = GLOBAL_BOUND_SCALE.numerator, GLOBAL_BOUND_SCALE.denominator
    # |err| / bound = (n * scale_d) / (d * bound_n); ratios compare crosswise.
    best_n, best_d = 0, 1
    worst = None
    violations = []
    for k in range(g.k_max + 1):
        bound_n = scale_n * (k + 1) * (k + 2)
        for i, v in enumerate(run.global_err[k]):
            num = abs(v.numerator) * scale_d
            den = v.denominator * bound_n
            if num > den:
                violations.append((i, k))
            if num * best_d > best_n * den:
                best_n, best_d = num, den
                worst = (i, k)
    best = Fraction(best_n, best_d)

    norm_level_ok = None
    if g.dx <= 1 and g.dt <= g.t_max / 2:
        span = g.x_max - g.x_min
        scale = NORM_SCALE * g.k_max ** 2
        limit_sq = (span + 1) * scale * scale
        norm_level_ok = all(
            dot_dx(run.global_err[k], run.global_err[k], g) <= limit_sq
            for k in range(g.k_max + 1)
        )

    return GlobalBoundReport(
        ok=not violations,
        max_ratio=float(best),
        max_ratio_exact=best,
        worst_node=worst,
        norm_level_ok=norm_level_ok,
        violations=violations,
    )


def half_step(run, k: int) -> tuple:
    """``(||(p^{k+1}-p^k)/dt||^2, E^{k+1/2})`` from columns ``k`` and ``k+1``."""
    g = run.grid
    pk = run.column(k)
    pk1 = run.column(k + 1)
    v = [(pk1[i] - pk[i]) / g.dt for i in range(g.i_max + 1)]
    kinetic = dot_dx(v, v, g)
    potential = dot_dx(apply_Ah(run.problem.c, g, pk), pk1, g)
    return kinetic, kinetic / 2 + potential / 2


def lambda_via_jacobi_sum(a: Fraction, i: int, k: int) -> Fraction:
    """``lambda_via_jacobi`` with each ``q**n P_n^(2|i|,0)(1 - 2a)`` as its binomial sum."""
    p, q = a.numerator, a.denominator
    ai = abs(i)
    total = 0
    for n in range(k - ai + 1):  # (x + 1)/2 = (q - p)/q and (x - 1)/2 = -p/q
        total = total * q + sum(math.comb(n + 2 * ai, j) * math.comb(n, j)
                                * (q - p) ** j * (-p) ** (n - j) for j in range(n + 1))
    return Fraction(p ** ai * total, q ** k)


def brute_sum(i: int, n: int, k: int) -> int:
    """``sum_p F(i, n, k; p)`` over ``min(i, 0) <= p <= max(n, 0)``, any indices."""
    return sum(summand(i, n, k, p) for p in range(min(i, 0), max(n, 0) + 1))


def table_rows(a: Fraction, K: int) -> list[list[int]]:
    """Scaled rows of ``build_table(a, K)`` by the recurrence over every ``i = -k..k``."""
    p, q = a.numerator, a.denominator
    two_q_minus_p = 2 * (q - p)

    rows: list[list[int]] = [[1]]
    old = [0, 0, 0]
    for k in range(K):
        padded = [0, 0, *rows[k], 0, 0]
        rows.append(three_term(padded, old, p, two_q_minus_p, q * q))
        old = padded
    return rows


def identity_failures(check, k_max: int):
    """``(i, n, k)`` of every ordered triple up to ``k_max`` where ``check`` fails."""
    for k in range(k_max + 1):
        for n in range(k + 1):
            for i in range(n + 1):
                if not check(i, n, k):
                    yield i, n, k


def check_zeilberger_recurrences(i: int, n: int, k: int) -> bool:
    """The three first-order shift recurrences of ``f``, checked on brute force.

    ``(n+1+i) f(i+1,n,k) = (n-i) f(i,n,k)``
    ``(n+1+i)(n+1-i) f(i,n+1,k) = (k+1+n)(k-n) f(i,n,k)``
    ``(k+1-n) f(i,n,k+1) = (k+1+n) f(i,n,k)``
    """
    _require_ordered(i, n, k)
    f = brute_sum(i, n, k)
    ok_i = (n + 1 + i) * brute_sum(i + 1, n, k) == (n - i) * f
    ok_n = (n + 1 + i) * (n + 1 - i) * brute_sum(i, n + 1, k) == (k + 1 + n) * (k - n) * f
    ok_k = (k + 1 - n) * brute_sum(i, n, k + 1) == (k + 1 + n) * f
    return ok_i and ok_n and ok_k


def certificate_results(i: int, n: int, k: int, p: int) -> dict:
    """``check_certificate(i, n, k, p)`` with each identity's sides as Fractions.

    The certificates are ``(numerator, denominator)`` pairs of integers; each
    enters here as ``Fraction(*pair)``.
    """
    base = summand(i, n, k, p)
    results: dict = {}
    for name, cert in _CERTIFICATE.items():
        bad = cert["bad_dens"](i, n, k, p)
        if bad:
            results[name] = f"skipped: zero denominator {', '.join(bad)}"
            continue
        di, dn, dk = cert["step"]
        shifted = summand(i + di, n + dn, k + dk, p)
        lhs = cert["b0"](i, n, k) + cert["b1"](i, n, k) * Fraction(shifted, base)
        rat = cert["rat"]
        rhs = (Fraction(*rat(i, n, k, p + 1)) * Fraction(summand(i, n, k, p + 1), base)
               - Fraction(*rat(i, n, k, p)))
        results[name] = "ok" if lhs == rhs else "violated"
    return results
