"""Discrete fundamental solution of the scheme and its combinatorial identities.

Everything here is exact: rationals for the triangular table, big integers
for the binomial identities.  No floating point enters this module -- these
are algebraic identities, and a tolerance would only mask defects.

The table stores the time-shifted sequence ``L`` with ``L_i^{-1} = 0``,
``L_0^0 = 1`` and the three-term recurrence

    L_i^{k+1} = a (L_{i-1}^k + L_{i+1}^k) + 2 (1 - a) L_i^k - L_i^{k-1}.

The stencil is :func:`three_term`, written once in fraction-free integers
(``a = p/q``) and shared with the exact march in :mod:`wavecheck.scheme` and
the local-error table in :mod:`wavecheck.roundoff`.

The fundamental solution proper (unit impulse in the second Cauchy datum)
is the shift ``lam(i, k) = L(i, k-1)``; row sums of ``lam`` grow linearly
and the entries vanish outside the light cone ``|i| < k``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, NumericDomainError, ParameterError
from .scalars import to_fraction


def comb0(m: int, r: int) -> int:
    """Binomial coefficient that vanishes outside ``0 <= r <= m``."""
    if m < 0 or r < 0 or r > m:
        return 0
    return math.comb(m, r)


class FundamentalTable:
    """Triangular table of ``L_i^k`` for ``|i| <= k <= K`` in exact rationals.

    Internally row k is stored in full, ``i = -k..k``, as integers scaled by
    ``q**k`` where ``a = p/q`` in lowest terms; the recurrence then runs in
    pure integer arithmetic (no gcd per step), and entries materialize as
    Fractions on access.  The accessors read the full rows and assume no
    symmetry, so a fault planted on one side of a row still shows.
    """

    def __init__(self, a: Fraction, K: int, rows: list[list[int]]):
        self.a = a
        self.K = K
        self._rows = rows
        self._q = a.denominator

    def entry(self, i: int, k: int) -> Fraction:
        """``L_i^k``; zero outside the triangle and on the fictitious row -1."""
        if k == -1:
            return Fraction(0)
        if not 0 <= k <= self.K:
            raise DomainError(f"time index {k} outside [0, {self.K}]")
        if abs(i) > k:
            return Fraction(0)
        return Fraction(self._rows[k][i + k], self._q ** k)

    def scaled_row(self, k: int) -> list[int]:
        """Row k of ``L`` fraction-free: integers over ``q**k``, for ``i = -k..k``.

        ``entry(i, k) == Fraction(scaled_row(k)[i + k], q**k)`` with ``q`` the
        denominator of ``a``.  Exact consumers that keep their own common
        denominator read rows here and skip one Fraction per entry.  The list
        is a copy.
        """
        if not 0 <= k <= self.K:
            raise DomainError(f"time index {k} outside [0, {self.K}]")
        return list(self._rows[k])

    def negative_entries(self):
        """``(i, k)`` of each negative entry; only rows with a negative minimum are read."""
        for k, row in enumerate(self._rows):
            if min(row) < 0:
                yield from ((j - k, k) for j, v in enumerate(row) if v < 0)


def three_term(cur: list, old: list, p, t, w) -> list:
    """``p*(cur[i-1] + cur[i+1]) + t*cur[i] - w*old[i]`` over the interior of ``cur``.

    ``old`` is aligned with ``cur[1:]``.  With ``a = p/q`` and ``t = 2*(q -
    p)`` the first two terms are ``q`` times ``a (L_{i-1} + L_{i+1}) + 2 (1 -
    a) L_i``; callers differ only in the weight ``w`` on the older term.
    """
    return [p * (left + right) + t * mid - w * back
            for left, mid, right, back in zip(cur, cur[1:], cur[2:], old)]


def build_table(a, K: int) -> FundamentalTable:
    """Run the three-term recurrence up to time index K.

    The initial row is even and the stencil symmetric, so ``L_{-i}^k =
    L_i^k`` and the recurrence runs on the half row ``i = 0..k`` only.  The
    half of row k + 1 is the stencil over ``[L_1^k, *half, 0, 0]`` (``L_{-1}^k
    = L_1^k``, zero at k = 0), minus ``q**2`` times the half of row k - 1
    padded with two zeros; the fictitious row -1 is zero.  Each full row is
    the half row mirrored about ``i = 0``.
    """
    a = to_fraction(a)
    if not 0 < a < 1:
        raise ParameterError(f"a must lie in (0, 1), got {a}")
    if K < 0:
        raise ParameterError(f"table depth must be nonnegative, got {K}")
    p, q = a.numerator, a.denominator
    two_q_minus_p = 2 * (q - p)

    rows: list[list[int]] = [[1]]
    half, old = [1], [0, 0]
    for k in range(K):
        cur = [half[1] if k else 0, *half, 0, 0]
        half, old = three_term(cur, old, p, two_q_minus_p, q * q), [*half, 0, 0]
        rows.append([*half[:0:-1], *half])
    return FundamentalTable(a, K, rows)


def row_sum(table: FundamentalTable, k: int) -> Fraction:
    """``sigma^k = sum_i lam(i, k)``; the linear-growth law says this equals k."""
    if not 0 <= k <= table.K + 1:
        raise DomainError(f"row-sum index {k} outside [0, {table.K + 1}]")
    if k == 0:
        return Fraction(0)
    return Fraction(sum(table.scaled_row(k - 1)), table.a.denominator ** (k - 1))


def lambda_closed_form(a, i: int, k: int) -> Fraction:
    """Closed form of the table entry as an alternating binomial sum in a."""
    a = to_fraction(a)
    if abs(i) > k:
        raise DomainError(f"(i={i}, k={k}) outside the triangle |i| <= k")
    p, q = a.numerator, a.denominator
    ai = abs(i)
    # (-1)**(n + i) a**n = p**|i| (-p)**(n - |i|) q**(k - n) / q**k, since n + i
    # and n - |i| have the same parity; Horner's rule in q carries the power of q.
    total = 0
    signed_power = 1
    for n in range(ai, k + 1):
        term = math.comb(2 * n, n + i) * math.comb(n + k + 1, 2 * n + 1)
        total = total * q + term * signed_power
        signed_power *= -p
    return Fraction(p ** ai * total, q ** k)


def _jacobi_step(n: int, alpha: int, p: int, q: int, old: int, older: int) -> int:
    """``Q_n`` from ``Q_{n-1}`` and ``Q_{n-2}``, where ``Q_n = q**n P_n^(alpha,0)(1 - 2p/q)``.

    Szegő (4.5.1) with beta = 0, scaled by ``q**n``, for ``n >= 2``.  Every
    ``Q_n`` is an integer, so the division is exact; a remainder means the
    recurrence is wrong, and raises rather than rounds.
    """
    s = 2 * n + alpha
    num = ((s - 1) * (s * (s - 2) * (q - 2 * p) + alpha * alpha * q) * old
           - 2 * (n + alpha - 1) * (n - 1) * s * q * q * older)
    value, rem = divmod(num, 2 * n * (n + alpha) * (s - 2))
    if rem:
        raise NumericDomainError(
            f"Jacobi step n={n}, alpha={alpha} at a={p}/{q} is not an integer")
    return value


def lambda_via_jacobi(a, i: int, k: int) -> Fraction:
    """Table entry as ``a^|i|`` times the partial sum of ``P_n^(2|i|,0)(1 - 2a)``.

    At ``i = 0`` the summands are Legendre polynomials; nonnegativity of such
    partial sums on (0, 1) is what makes the fundamental solution positive.
    With ``a = p/q`` each ``P_n`` is an integer ``Q_n`` over ``q**n``, which
    the three-term recurrence in n gives one from the two before it, and
    Horner's rule in ``q`` sums them over one power of ``q``.
    """
    a = to_fraction(a)
    if abs(i) > k:
        raise DomainError(f"(i={i}, k={k}) outside the triangle |i| <= k")
    p, q = a.numerator, a.denominator
    ai = abs(i)
    alpha = 2 * ai
    older, old = 1, (alpha + 1) * q - (alpha + 2) * p  # Q_0, Q_1
    total = 1 if k == ai else q + old
    for n in range(2, k - ai + 1):
        older, old = old, _jacobi_step(n, alpha, p, q, old, older)
        total = total * q + old
    return Fraction(p ** ai * total, q ** k)


# --- hypergeometric summand and the telescoping certificate -----------------


def summand(i: int, n: int, k: int, p: int) -> int:
    """``F(i, n, k; p)``: the hypergeometric summand, zero outside ``i<=p<=n``."""
    return comb0(k + i, p + i) * comb0(k - i, p - i) * comb0(k - p, n - p)


def brute_sum(i: int, n: int, k: int) -> int:
    """``f(i, n, k) = sum_p F(i, n, k; p)`` by direct enumeration."""
    ai = abs(i)
    if not ai <= n <= k:
        return 0  # every summand vanishes
    # F is nonzero only on |i| <= p <= n <= k, where every binomial argument is in range.
    return sum(math.comb(k + i, p + i) * math.comb(k - i, p - i) * math.comb(k - p, n - p)
               for p in range(ai, n + 1))


def _require_ordered(i: int, n: int, k: int) -> None:
    if not 0 <= i <= n <= k:
        raise DomainError(f"need 0 <= i <= n <= k, got ({i}, {n}, {k})")


def check_binomial_identity(k_max: int) -> list[tuple[int, int, int]]:
    """Every ordered triple ``(i, n, k)``, ``k <= k_max``, where a binomial identity fails.

    Single sum: ``f(i, n, k) = C(2n, n+i) C(k+n, 2n)``.
    Double sum (its column summation): ``sum_{l=n..k} f(i, n, l) = C(2n,
    n+i) C(n+k+1, 2n+1)``.  The sweep walks each ``(i, n)`` column along k
    once, evaluating each ``f`` once and carrying the double sum, and sorts
    the failing triples once into ``(k, n, i)`` order.
    """
    failing = []
    for n in range(k_max + 1):
        for i in range(n + 1):
            central = math.comb(2 * n, n + i)
            double_lhs = 0
            for k in range(n, k_max + 1):
                f = brute_sum(i, n, k)
                double_lhs += f
                if (f != central * math.comb(k + n, 2 * n)
                        or double_lhs != central * math.comb(n + k + 1, 2 * n + 1)):
                    failing.append((i, n, k))
    return sorted(failing, key=lambda t: t[::-1])


# Per shift variable: the recurrence ``b0 f + b1 f(shifted by step) = 0``, the
# certificate ``rat`` as an unreduced ``(numerator, denominator)`` pair of
# integers, and the zero denominators ``bad_dens`` of ``rat``.
_CERTIFICATE = {
    "i": {
        "b0": lambda i, n, k: n - i,
        "b1": lambda i, n, k: -(n + 1 + i),
        "rat": lambda i, n, k, p: ((1 + 2 * i) * (p - i), k - i),
        "step": (1, 0, 0),
        "bad_dens": lambda i, n, k, p: ("k - i",) if k == i else (),
    },
    "n": {
        "b0": lambda i, n, k: (k + 1 + n) * (k - n),
        "b1": lambda i, n, k: -(n + 1 + i) * (n + 1 - i),
        "rat": lambda i, n, k, p: ((k - n) * (p + i) * (p - i), n + 1 - p),
        "step": (0, 1, 0),
        "bad_dens": lambda i, n, k, p: ("n - p",) if p == n else (),
    },
    "k": {
        "b0": lambda i, n, k: k + 1 + n,
        "b1": lambda i, n, k: -(k + 1 - n),
        "rat": lambda i, n, k, p: ((p + i) * (p - i), k + 1 - p),
        "step": (0, 0, 1),
        "bad_dens": lambda i, n, k, p: ("k - p",) if p == k else (),
    },
}


def check_zeilberger_recurrences(k_max: int) -> list[tuple[int, int, int]]:
    """Every ordered triple ``(i, n, k)``, ``k <= k_max``, where a shift recurrence fails.

    For each shift variable of :data:`_CERTIFICATE` the first-order
    recurrence ``b0 f(i, n, k) + b1 f((i, n, k) + step) = 0`` is checked on
    brute force; the triples come in ``(k, n, i)`` order.  Row k holds
    ``f(i, n, k)`` for ``i <= n+1 <= k+2``, which covers the i- and n-shifts
    of every ordered triple at k; the k-shift reads row k + 1, which is
    carried to the next k, so each ``f`` is evaluated once.
    """
    def row(k):
        return [[brute_sum(i, n, k) for i in range(n + 2)] for n in range(k + 2)]

    failing = []
    rows = [None, row(0)]
    for k in range(k_max + 1):
        rows = [rows[1], row(k + 1)]
        for n in range(k + 1):
            for i in range(n + 1):
                for cert in _CERTIFICATE.values():
                    di, dn, dk = cert["step"]
                    if (cert["b0"](i, n, k) * rows[0][n][i]
                            + cert["b1"](i, n, k) * rows[dk][n + dn][i + di]):
                        failing.append((i, n, k))
                        break
    return failing


def check_certificate(i: int, n: int, k: int, p: int) -> dict:
    """``"ok"``, ``"violated"`` or ``"skipped: ..."`` per shift variable at one support point.

    For each shift variable ``l`` the rational-function identity

        b_{l,0} + b_{l,1} (LF/F) = R_l(p+1) (PF/F) - R_l(p)

    is decided in integers, no Fraction built: with ``R_l(p) = r0/d0`` and
    ``R_l(p+1) = r1/d1`` unreduced, it holds exactly when ``(b_{l,0} F +
    b_{l,1} LF) d0 d1 = r1 d0 PF - r0 d1 F``, since ``F`` and both
    denominators are nonzero.  Configurations that put a zero in one of the
    certificate denominators are skipped with the denominator named.
    """
    _require_ordered(i, n, k)
    if not i <= p <= n:
        raise DomainError(f"p={p} outside the summand support [{i}, {n}]")
    base = summand(i, n, k, p)
    following = summand(i, n, k, p + 1)
    results: dict = {}
    for name, cert in _CERTIFICATE.items():
        bad = cert["bad_dens"](i, n, k, p)
        if bad:
            results[name] = f"skipped: zero denominator {', '.join(bad)}"
            continue
        di, dn, dk = cert["step"]
        shifted = summand(i + di, n + dn, k + dk, p)
        rat = cert["rat"]
        (r0, d0), (r1, d1) = rat(i, n, k, p), rat(i, n, k, p + 1)
        lhs = (cert["b0"](i, n, k) * base + cert["b1"](i, n, k) * shifted) * d0 * d1
        rhs = r1 * d0 * following - r0 * d1 * base
        results[name] = "ok" if lhs == rhs else "violated"
    return results
