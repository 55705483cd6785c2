"""Exact rational arithmetic helpers.

Every weight, distance, radius, charge and bound in this package is a
`fractions.Fraction`.  This module holds the parsing/formatting of the
canonical "num/den" text form and of JSON integers and lists, exact base-2 logarithm helpers, and certified
rational brackets for the irrational constants used by the audit thresholds.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .errors import ParseError, InputError

_FRACTION_RE = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


def parse_fraction(text: str) -> Fraction:
    """Parse a canonical reduced "num/den" string.

    Only the exact canonical form is accepted: reduced, denominator >= 1,
    no whitespace, no float notation.  "5" must be written "5/1".
    """
    if not isinstance(text, str):
        raise ParseError(f"fraction must be a string, got {type(text).__name__}")
    m = _FRACTION_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"not a canonical fraction string: {text!r}")
    num, den = int(m.group(1)), int(m.group(2))
    if math.gcd(num, den) != 1:
        raise ParseError(f"fraction not reduced: {text!r}")
    if num < 0:
        raise ParseError(f"negative value not allowed here: {text!r}")
    return Fraction(num, den)


def parse_int(value, what: str) -> int:
    """A JSON integer: an int that is not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer")
    return value


def parse_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list")
    return value


def unwritten_field(written: dict, given: dict, listed: str) -> str | None:
    """The first key of a file `given` whose value is not its writer's form
    `written`, or None.  Values compare as JSON text: true differs from 1, and
    a missing key from null.  Both hold the list under `listed`, a written
    entry per given one, and of it the first entry that differs is named."""

    def text(value) -> str:
        return json.dumps(value, sort_keys=True)

    for key in {**written, **given}:
        if key in written and key in given and text(written[key]) == text(given[key]):
            continue
        if key != listed:
            return key
        i = next(i for i, (w, g) in enumerate(zip(written[key], given[key])) if text(w) != text(g))
        return f"{key}[{i}]"
    return None


def parse_edge(item, what: str) -> tuple[int, int, Fraction]:
    """A JSON [u, v, "num/den"] triple with integer endpoints."""
    if not (isinstance(item, list) and len(item) == 3):
        raise ParseError(f"{what} must be [u, v, weight]")
    u, v, w = item
    end = f"{what} endpoint"
    return parse_int(u, end), parse_int(v, end), parse_fraction(w)


def format_fraction(value: Fraction) -> str:
    """Canonical "num/den" form, inverse of :func:`parse_fraction`.

    A `Fraction` is formatted as it is; any other value (an `int`, a `bool`)
    is converted to one first.
    """
    if type(value) is not Fraction:
        value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def frac_decimal(value: Fraction) -> str:
    """Render a nonnegative rational as a decimal string with six places.

    Round-half-even on the last digit, so output is deterministic.
    """
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    value = abs(value)
    scaled = value.numerator * 10**6
    q, r = divmod(scaled, value.denominator)
    if 2 * r > value.denominator or (2 * r == value.denominator and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, 10**6)
    return f"{sign}{whole}.{frac:06d}"


def pow2(exponent: int) -> Fraction:
    """Exact 2**exponent as a Fraction; exponent may be negative."""
    if exponent >= 0:
        return Fraction(1 << exponent)
    return Fraction(1, 1 << (-exponent))


def floor_log2(value) -> int:
    """Largest e with 2**e <= value, exact over rationals. value must be > 0."""
    value = Fraction(value)
    if value <= 0:
        raise InputError("floor_log2 requires a positive value")
    e = value.numerator.bit_length() - value.denominator.bit_length()
    # with a = num bits and b = den bits, 2**(a-1) / 2**b < value < 2**a /
    # 2**(b-1), so 2**(e-1) < value < 2**(e+1): e is exact or one too high
    if pow2(e) > value:
        e -= 1
    return e


def ceil_log2(value) -> int:
    """Smallest e with 2**e >= value, exact over rationals."""
    e = floor_log2(value)
    return e if pow2(e) == Fraction(value) else e + 1


def lg_plus(value) -> int:
    """Integer log surrogate max(1, ceil(log2 value)) used by every threshold.

    Defined for value >= 1 only; guards the degenerate size-1 sets that the
    real-log formulas cannot handle.  A plain `int` (a class size, K) takes
    the bit length of value - 1, which is ceil(log2 value) for value >= 1;
    every other value, a `bool` included, goes through `Fraction`.
    """
    if type(value) is int:
        if value < 1:
            raise InputError(f"lg_plus requires value >= 1, got {value}")
        return max(1, (value - 1).bit_length())
    value = Fraction(value)
    if value < 1:
        raise InputError(f"lg_plus requires value >= 1, got {value}")
    return max(1, ceil_log2(value))


def class_radius(cost: Fraction, size: int) -> Fraction:
    """The dual-ball radius c / (8 * lg_plus(|P|)) of a class P of pairs of cost c."""
    return cost / (8 * lg_plus(size))


# Certified rational brackets for irrational audit constants.  The test suite
# verifies these against 50-digit evaluations; audits only ever use them in
# the direction that slackens toward accepting a true inequality.
E_UPPER = Fraction(2718281828459045236, 10**18)  # e < E_UPPER
E5_LOWER = Fraction(148413159102576603, 10**15)  # E5_LOWER < e**5
E5_UPPER = Fraction(148413159102576604, 10**15)  # e**5 < E5_UPPER

SURVIVOR_CHARGE_CAP_UPPER = 55 * E5_UPPER  # certified upper bound on 55*e**5


def exp_upper(exponent: Fraction) -> Fraction:
    """A certified rational upper bound on e**exponent (exponent >= 0).

    Uses e**x <= E_UPPER**ceil(x); the slack is at most one factor of e,
    negligible against the magnitudes these bounds are compared to.
    """
    exponent = Fraction(exponent)
    if exponent < 0:
        raise InputError("exp_upper requires a nonnegative exponent")
    q = exponent.numerator // exponent.denominator
    if q * exponent.denominator != exponent.numerator:
        q += 1
    return E_UPPER**q
