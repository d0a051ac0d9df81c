"""Scalar-kind machinery.

Every numeric operation in the package is parameterized by a scalar kind:

* ``"binary64"`` -- IEEE-754 double precision, round-to-nearest-even, no
  fused multiply-add.  Python floats provide exactly this on CPython.
* ``"exact"`` -- arbitrary-precision rationals (:class:`fractions.Fraction`).
  The update rules of the solver use only +, -, *, so rational arithmetic
  reproduces the ideal real-number run bit for bit.

The kind only picks the type of the operands (:func:`convert`,
:func:`zero`); the arithmetic is one code path for both.  Python's
``+ - * /`` act on floats and Fractions alike, and the binary64 evaluation
order is a valid order for exact arithmetic, so one expression written in
that order is the float computation for floats and the exact one for
Fractions.

Exact square roots do not stay rational, so comparisons involving square
roots of rationals are decided with certified integer-square-root interval
bounds (:func:`sqrt_bounds`, :func:`certified_sqrt_leq`) instead of floats.

Every run parameter is admitted here, so the library and the CLI refuse the
same values: :func:`positive`, :func:`check_margin` and :func:`within_margin`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence, Union

from .errors import NumericDomainError, ParameterError

Scalar = Union[float, Fraction]

BINARY64 = "binary64"
EXACT = "exact"
KINDS = (BINARY64, EXACT)


def ensure_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ParameterError(f"unknown scalar kind {kind!r}; expected one of {KINDS}")
    return kind


def to_fraction(x) -> Fraction:
    """Exact conversion to a rational; floats convert to their exact value."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def is_rational(x) -> bool:
    """Whether ``x`` is a value an exact run takes as it is: an int or a Fraction."""
    return isinstance(x, (int, Fraction))


def convert(x, kind: str) -> Scalar:
    """Coerce ``x`` into the requested scalar kind."""
    if kind == BINARY64:
        return float(x)
    if kind == EXACT:
        return to_fraction(x)
    raise ParameterError(f"unknown scalar kind {kind!r}")


def zero(kind: str) -> Scalar:
    return 0.0 if kind == BINARY64 else Fraction(0)


def finite(v) -> bool:
    """Whether ``v`` is finite within binary64 range; a rational beyond it is not."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def positive(name: str, v):
    """``v``, if it is positive and finite as a binary64 number (not one rounding to 0)."""
    if finite(v) and float(v) > 0:
        return v
    if v > 0:
        raise ParameterError(f"{name} must be finite and within binary64 range, got {v}")
    raise ParameterError(f"{name} must be positive, got {v}")


def check_margin(xi):
    """``xi``, if it lies in (0, 1) as a binary64 number."""
    if not (finite(xi) and 0 < float(xi) < 1):
        raise ParameterError(f"xi must lie in (0, 1), got {xi}")
    return xi


def within_margin(cn, xi) -> bool:
    """Whether the Courant margin ``cn <= 1 - xi`` holds, decided in exact rationals."""
    return to_fraction(cn) <= 1 - to_fraction(xi)


def nan_or(reduce, values):
    """``reduce(values)`` for builtin ``max`` or ``min``, or NaN if any value is NaN.

    The builtins keep a NaN only when it comes first (IEEE 754-2019 §5.11); here one
    stays once met, as ``max(nan, v)`` and ``min(nan, v)`` return their first argument.
    ``values`` is read once, so a stream of column norms is never held whole."""
    return functools.reduce(lambda best, v: v if v != v else reduce(best, v), values)


def common_column(col) -> tuple[list[int], int]:
    """A column as integers over the lcm of its denominators: ``(ints, den)``.

    Floats, ints and Fractions alike are read through ``as_integer_ratio``;
    for a binary64 column ``den`` is its largest power-of-two denominator.
    """
    ratios = [v.as_integer_ratio() for v in col]
    dens = {d for _, d in ratios}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    return [n * scale[d] for n, d in ratios], den


def over_one_denominator(*cols) -> tuple[list[list[int]], int]:
    """``(ints, den)`` columns rescaled to their lcm: ``([ints, ...], lcm)``.

    A column already over the lcm is returned as it is, not copied.
    """
    den = math.lcm(*(d for _, d in cols))
    return [ints if d == den else list(map((den // d).__mul__, ints)) for ints, d in cols], den


def sqrt_bounds(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure ``lo <= sqrt(x) <= hi`` with ``hi - lo <= 2**-bits / q``.

    Uses ``isqrt(p*q*4**bits)`` on ``x = p/q``, so both bounds are exact
    rationals and the enclosure is certified, not heuristic.
    """
    x = to_fraction(x)
    if x < 0:
        raise NumericDomainError(f"square root of negative rational {x}")
    p, q = x.numerator, x.denominator
    scaled = p * q << (2 * bits)
    s = math.isqrt(scaled)
    den = q << bits
    lo = Fraction(s, den)
    hi = lo if s * s == scaled else Fraction(s + 1, den)
    return lo, hi


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """``sqrt(x)`` when it is rational (x >= 0 in lowest terms), else None."""
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def certified_sqrt_leq(lhs: Fraction, rhs_terms: Sequence[Fraction]) -> bool:
    """Decide ``sqrt(lhs) <= sum_j sqrt(rhs_terms[j])`` exactly.

    All inputs are nonnegative rationals.  Terms whose ratio is a rational
    square share one irrational part, ``sqrt(t) = r sqrt(b)`` with r
    rational, so each such class merges into the single term ``(sum r)**2 b``.
    One class left makes the comparison rational, true ties included.  With
    two or more, the square roots of distinct classes are linearly
    independent over the rationals (Besicovitch 1940), so the two sides
    differ and escalating the enclosure precision, up to 512 bits, settles
    the comparison.
    """
    lhs = to_fraction(lhs)
    terms = [to_fraction(t) for t in rhs_terms if t != 0]
    if lhs < 0 or any(t < 0 for t in terms):
        raise NumericDomainError("sqrt comparison needs nonnegative radicands")
    if lhs == 0:
        return True
    classes: list[list[Fraction]] = []  # [base b, coefficient of sqrt(b)]
    for t in terms:
        for cls in classes:
            r = _rational_sqrt(t / cls[0])
            if r is not None:
                cls[1] += r
                break
        else:
            classes.append([t, Fraction(1)])
    terms = [c * c * b for b, c in classes]
    if not terms:
        return False
    if len(terms) == 1:
        # sqrt is monotone: single-term case is a plain rational comparison.
        return lhs <= terms[0]
    bits = 32
    while bits <= 512:
        lhs_lo, lhs_hi = sqrt_bounds(lhs, bits)
        rhs_lo = rhs_hi = Fraction(0)
        for t in terms:
            lo, hi = sqrt_bounds(t, bits)
            rhs_lo += lo
            rhs_hi += hi
        if lhs_hi <= rhs_lo:
            return True
        if lhs_lo > rhs_hi:
            return False
        bits *= 2
    raise NumericDomainError(
        "sqrt comparison undecided at 512 bits; the two sides differ "
        "by less than the enclosure width"
    )


def scalar_json(v):
    """JSON-ready form: rationals as 'p/q' strings, binary64 with a lossless hex twin."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return {"decimal": v, "hex": v.hex()}
    return v
