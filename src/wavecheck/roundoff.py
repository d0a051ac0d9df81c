"""Shadow execution and the full round-off error pipeline.

A shadow run executes the same scheme twice: once in binary64 following the
reference program's operation schedule, once in exact rational arithmetic.
Every binary64 value is a rational, so the global error ``D = computed -
exact`` and the per-update local errors ``d`` are exact rationals, and the
convolution identity tying them together can be checked with zero tolerance.

The exact layers run fraction-free (Bareiss-style): :func:`common_column`
reads a column of floats or Fractions as integers over the lcm of its
denominators, :func:`over_one_denominator` puts several over one lcm, and
each output node becomes one Fraction at the end.  The exact march keeps a
column over ``2*D*q**k`` (see :mod:`wavecheck.scheme`) and a local-error
update is an integer over ``q`` times its columns' lcm, both through the
integer stencil :func:`wavecheck.fundamental.three_term` that also builds
the fundamental table; the convolution sums each node over ``D * q**k``
with ``D`` the lcm of all local errors.  Every table returned is the same
list of Fractions a plain rational loop gives.

The round-off checks read the tables one column at a time the same way.
Global-error column k is the binary64 minus the exact column over their
lcm.  :func:`check_global_bound` compares each ``|n|`` against one integer
threshold per column, takes the worst ratio from the column's largest
``|n|`` and sums the norm-level form as ``sum n**2`` over ``den**2``;
:func:`max_abs_delta` takes each column's largest ``|n|`` over its lcm.

Sign bookkeeping, fixed once here: the local errors measure *exact update of
computed values minus computed value* (the amount the float fell short), so
their convolution with the fundamental solution reproduces ``exact - computed``.
:func:`reconstruct_global_error` negates the convolution so that its output
matches the stored ``computed - exact`` table entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .errors import ParameterError, UnsupportedFeatureError
from .fundamental import FundamentalTable, three_term
from .grid import Grid
from .problem import WaveProblem, antisym_extension
from .scalars import BINARY64, EXACT, common_column, over_one_denominator, to_fraction
from .scheme import DEFAULT_XI, SchemeRun, solve

#: Local round-off bound for one update of the scheme, 78 * 2**-52.
LOCAL_BOUND = Fraction(78, 2 ** 52)

#: Admissible gap between the computed and exact stiffness coefficients.
A_GAP = Fraction(1, 2 ** 49)

#: Round-off norm scale 234 * 2**-53 of the norm-level global bound and of C_Delta.
NORM_SCALE = Fraction(234, 2 ** 53)


@dataclass
class ShadowRun:
    """Paired binary64/exact runs with their error tables (all rationals)."""

    float_run: SchemeRun
    exact_run: SchemeRun
    delta: list       # columns of local errors, (i_max+1) x (k_max+1)
    global_err: list  # columns of computed-minus-exact
    a_gap_ok: bool
    range_violation: Optional[tuple]

    @property
    def a_exact(self) -> Fraction:
        return self.exact_run.a

    @property
    def grid(self) -> Grid:
        return self.exact_run.grid

    @property
    def i_max(self) -> int:
        return self.exact_run.grid.i_max

    @property
    def k_max(self) -> int:
        return self.exact_run.grid.k_max


def _difference_column(a_col, b_col) -> list:
    """``a - b`` per node, for columns of any scalar kind.

    Both columns are put over the lcm ``den`` of their denominators
    (:func:`common_column`, :func:`over_one_denominator`), so each node is
    one Fraction, ``x - y`` over ``den``.
    """
    (a_ints, b_ints), den = over_one_denominator(common_column(a_col), common_column(b_col))
    return [Fraction(x - y, den) for x, y in zip(a_ints, b_ints)]


def _local_error_table(fl_cols: list, exact_col0: list, a: Fraction) -> list:
    """Local errors per the update definitions, from the binary64 columns.

    With ``a = p/q`` each update ``d^k`` for k >= 1 is ``step``: the stencil
    :func:`three_term` with weight ``w`` over ``w * den``, where ``den`` is
    the lcm :func:`over_one_denominator` puts its columns over.  ``d^0 =
    ex^0 - p^0`` is the data error.  ``d^1 = y + (a/2) (y_(i+1) - 2 y_i +
    y_(i-1)) - p^1`` with ``y = p^0 - d^0 = 2 p^0 - ex^0`` has ``w = 2q`` on
    ``p^1``; later ``2 p^k - p^(k-1) + a (p^k_(i+1) - 2 p^k_i + p^k_(i-1)) -
    p^(k+1)`` has ``w = q`` on ``p^(k-1) + p^(k+1)``.  The binary64 columns
    are read as integers one at a time, three held at once.
    """
    p, q = a.numerator, a.denominator
    two_q_minus_p, z = 2 * (q - p), Fraction(0)

    def step(cur, old, w, den):
        den *= w
        return [z, *(Fraction(n, den) for n in three_term(cur, old, p, two_q_minus_p, w)), z]

    fl_ints = map(common_column, fl_cols)
    prev_dy, cur_dy = next(fl_ints), next(fl_ints)
    (fl0, ex0, fl1), den = over_one_denominator(prev_dy, common_column(exact_col0), cur_dy)
    y = [2 * f - x for f, x in zip(fl0, ex0)]
    cols = [_difference_column(exact_col0, fl_cols[0]), step(y, fl1[1:], 2 * q, den)]
    for next_dy in fl_ints:
        (prev, cur, nxt), den = over_one_denominator(prev_dy, cur_dy, next_dy)
        cols.append(step(cur, [back + ahead for back, ahead in zip(prev[1:], nxt[1:])], q, den))
        prev_dy, cur_dy = cur_dy, next_dy
    return cols


def shadow_solve(p: WaveProblem, g: Grid, xi: float = DEFAULT_XI) -> ShadowRun:
    """Run both scalar kinds and measure the error tables.

    Requires zero second datum and zero source (the program's assumptions)
    and a first datum with rational values at the rational nodes, so that the
    exact run is the true real-arithmetic solution.  The exact run goes
    first, so sampling refuses any other datum before either march starts.
    """
    if p.u1 is not None or p.s is not None:
        raise UnsupportedFeatureError(
            "shadow runs assume u1 = 0 and s = 0, as the reference program does"
        )
    exact_run = solve(p, g, kind=EXACT, xi=xi)
    float_run = solve(p, g, kind=BINARY64, xi=xi)
    a_gap_ok = abs(to_fraction(float_run.a) - exact_run.a) <= A_GAP

    fl_cols, ex_cols = float_run.columns, exact_run.columns
    global_err = [_difference_column(fl_col, ex_col)
                  for fl_col, ex_col in zip(fl_cols, ex_cols)]
    delta = _local_error_table(fl_cols, ex_cols[0], exact_run.a)
    range_violation = next(((i, k, v) for k, col in enumerate(fl_cols)
                            for i, v in enumerate(col) if not -2.0 <= v <= 2.0), None)

    return ShadowRun(
        float_run=float_run, exact_run=exact_run, delta=delta,
        global_err=global_err, a_gap_ok=a_gap_ok, range_violation=range_violation,
    )


def local_errors(run: ShadowRun) -> list:
    """Recompute the local-error table from the stored runs (pure function)."""
    return _local_error_table(run.float_run.columns, run.exact_run.column(0), run.a_exact)


def max_abs_delta(run: ShadowRun) -> Fraction:
    """``max |d|`` over the local-error table, one Fraction per column."""
    best = Fraction(0)
    for col in run.delta:
        ints, den = common_column(col)
        best = max(best, Fraction(max(map(abs, ints)), den))
    return best


def reconstruct_global_error(delta: list, table: FundamentalTable, i_max: int) -> list:
    """Global error from the convolution of extended local errors.

    ``R_i^k = - sum_{l=0}^{k} sum_{j=-l}^{l} d~_{i-j}^{k-l} L_j^l`` where
    ``d~`` is the odd spatial extension of each local-error row and ``L`` is
    the time-shifted fundamental solution; the leading sign converts the
    convolution's exact-minus-computed orientation into the stored
    computed-minus-exact one.  The result must equal the measured table
    exactly.

    The sum runs fraction-free: every ``d`` is scaled to integers over one
    common denominator ``D``, each row ``L^l`` is read as integers over
    ``q**l`` (``a = p/q``), and each node accumulates ``sum_l q**(k-l) S_l``
    by Horner's rule, so that ``R_i^k`` is one Fraction over ``D q**k``.
    """
    k_max = len(delta) - 1
    if table.K < k_max:
        raise ParameterError(
            f"fundamental table depth {table.K} insufficient for k_max {k_max}"
        )
    # Row m extended to indices -k_max .. i_max + k_max, as integers over D.
    ext, den = over_one_denominator(*(
        common_column(antisym_extension(row, -k_max, i_max + k_max)) for row in delta))
    # Reversed rows turn sum_j d~_{i-j} L_j into a dot product with a slice.
    lam_rev = [table.scaled_row(l)[::-1] for l in range(k_max + 1)]
    q = table.a.denominator
    out = []
    for k in range(k_max + 1):
        acc = [0] * (i_max + 1)
        for l in range(k + 1):
            row, weights, width = ext[k - l], lam_rev[l], 2 * l + 1
            for i in range(i_max + 1):
                lo = i - l + k_max
                acc[i] = acc[i] * q + sum(map(mul, row[lo:lo + width], weights))
        den_k = den * q ** k
        out.append([Fraction(-n, den_k) for n in acc])
    return out


GLOBAL_BOUND_SCALE = Fraction(78, 2 ** 53)


@dataclass
class GlobalBoundReport:
    ok: bool
    max_ratio: float
    max_ratio_exact: Fraction
    worst_node: Optional[tuple]
    norm_level_ok: Optional[bool]
    violations: list


def check_global_bound(run: ShadowRun) -> GlobalBoundReport:
    """Node-wise ``|D_i^k| <= 78 * 2^-53 (k+1)(k+2)``, plus the norm-level form.

    Violations are findings (collected, not raised); the max ratio of error
    to bound is reported for regression tracking.

    The node-wise bound implies the norm-level one, so ``ok`` implies
    ``norm_level_ok is not False``.  With ``I = i_max``, ``K = k_max >= 2``
    and ``B = 78 * 2^-53``, every column has ``|D_i^k| <= B (K+1)(K+2)``, so

        sum_{i=1}^{I-1} (D_i^k)^2 dx <= span (B (K+1)(K+2))^2
                                     <= (span + 1) (234 * 2^-53 K^2)^2,

    because ``(I-1) dx < span`` and ``(K+1)(K+2) <= 3 K^2`` for ``K >= 2``.
    The right-hand side is ``limit_sq`` below.
    """
    g = run.grid
    scale_n, scale_d = GLOBAL_BOUND_SCALE.numerator, GLOBAL_BOUND_SCALE.denominator
    norm_level_ok: Optional[bool] = None
    if g.dx <= 1 and g.dt <= g.t_max / 2:
        span = g.x_max - g.x_min
        scale = NORM_SCALE * g.k_max ** 2
        limit_sq = (span + 1) * scale * scale
        # sum (n/den)^2 dx <= limit_sq  <=>  sum n^2 * sq_lhs <= sq_rhs * den^2.
        sq_lhs = g.dx.numerator * limit_sq.denominator
        sq_rhs = limit_sq.numerator * g.dx.denominator
        norm_level_ok = True
    # Column k is integers n over den, so |D| / bound = (|n| scale_d) / (den
    # bound_n); ratios compare crosswise, and |n| violates the bound exactly
    # when it exceeds floor(den bound_n / scale_d).
    best_n, best_d = 0, 1
    worst = None
    violations = []
    for k in range(g.k_max + 1):
        ints, den = common_column(run.global_err[k])
        mags = list(map(abs, ints))
        bound_n = scale_n * (k + 1) * (k + 2)
        threshold = den * bound_n // scale_d
        violations.extend((i, k) for i, n in enumerate(mags) if n > threshold)
        top = max(mags)
        num, rden = top * scale_d, den * bound_n
        if num * best_d > best_n * rden:
            best_n, best_d = num, rden
            worst = (mags.index(top), k)
        if norm_level_ok:  # stops at the first failing column
            interior = mags[1:-1]
            norm_level_ok = sum(map(mul, interior, interior)) * sq_lhs <= sq_rhs * den * den
    best = Fraction(best_n, best_d)

    return GlobalBoundReport(
        ok=not violations,
        max_ratio=float(best),
        max_ratio_exact=best,
        worst_node=worst,
        norm_level_ok=norm_level_ok,
        violations=violations,
    )
