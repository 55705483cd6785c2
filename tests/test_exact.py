import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from greedysf.errors import InputError, ParseError
from greedysf.exact import (
    E5_LOWER,
    E5_UPPER,
    E_UPPER,
    SURVIVOR_CHARGE_CAP_UPPER,
    ceil_log2,
    exp_upper,
    floor_log2,
    format_fraction,
    frac_decimal,
    lg_plus,
    parse_fraction,
    pow2,
)


def test_certified_constant_brackets():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    e5 = mpmath.exp(5)
    assert mpmath.mpf(E5_LOWER.numerator) / E5_LOWER.denominator < e5
    assert e5 < mpmath.mpf(E5_UPPER.numerator) / E5_UPPER.denominator
    e = mpmath.exp(1)
    assert e < mpmath.mpf(E_UPPER.numerator) / E_UPPER.denominator
    assert 55 * e5 < mpmath.mpf(SURVIVOR_CHARGE_CAP_UPPER.numerator) / (
        SURVIVOR_CHARGE_CAP_UPPER.denominator
    )


def test_exp_upper_dominates():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80
    assert exp_upper(Fraction(0)) == 1
    for q in (Fraction(1), Fraction(7, 3), Fraction(200), Fraction(620, 3)):
        bound = exp_upper(q)
        value = mpmath.exp(mpmath.mpf(q.numerator) / q.denominator)
        assert value < mpmath.mpf(bound.numerator) / bound.denominator


@pytest.mark.parametrize(
    "text,value",
    [("0/1", Fraction(0)), ("5/1", Fraction(5)), ("5/2", Fraction(5, 2))],
)
def test_parse_fraction_roundtrip(text, value):
    assert parse_fraction(text) == value
    assert format_fraction(value) == text


@pytest.mark.parametrize("text", ["3/6", "1.5", "5", " 5/1", "5/1\n", "5/0", "-1/2", "02/1"])
def test_parse_fraction_rejects_non_canonical(text):
    with pytest.raises(ParseError):
        parse_fraction(text)


def _normalising_parse_fraction(text):
    """The reference: build the normalised `Fraction`, then compare it with
    the text's numerator and denominator and check its sign."""
    if not isinstance(text, str):
        raise ParseError(f"fraction must be a string, got {type(text).__name__}")
    m = re.fullmatch(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)", text)
    if m is None:
        raise ParseError(f"not a canonical fraction string: {text!r}")
    num, den = int(m.group(1)), int(m.group(2))
    value = Fraction(num, den)
    if value.numerator != num or value.denominator != den:
        raise ParseError(f"fraction not reduced: {text!r}")
    if value < 0:
        raise ParseError(f"negative value not allowed here: {text!r}")
    return value


def _fraction_corpus():
    numbers = [str(n) for n in range(-24, 25)] + ["-0", "00", "01", "-01", "+1", "10" * 12]
    dens = [str(d) for d in range(19)] + ["-1", "01", "+2", "3" * 20]
    texts = [f"{n}/{d}" for n in numbers for d in dens]
    texts += [t + tail for t in ("1/1", "0/2", "3/4") for tail in ("\n", " ", "\r\n", "/1")]
    texts += ["", "/", "1/", "/2", "5", "1.5", "1e3", " 1/2", "1 /2", "½", "٣/٤", "1_0/3"]
    return texts + [None, 1, 1.5, Fraction(1, 2), b"1/2", ["1/2"]]


def test_parse_fraction_matches_the_normalising_reference():
    corpus = _fraction_corpus()
    assert len(corpus) > 1000
    for text in corpus:
        outcomes = []
        for parse in (parse_fraction, _normalising_parse_fraction):
            try:
                value = parse(text)
            except ParseError as exc:
                outcomes.append(("error", str(exc)))
            else:
                assert type(value) is Fraction
                outcomes.append(("value", value))
        assert outcomes[0] == outcomes[1], text


def test_floor_ceil_log2():
    assert floor_log2(Fraction(1)) == 0
    assert floor_log2(Fraction(3, 2)) == 0
    assert floor_log2(Fraction(1, 2)) == -1
    assert floor_log2(Fraction(1, 3)) == -2
    assert ceil_log2(Fraction(1, 3)) == -1
    assert floor_log2(Fraction(2**80)) == 80
    assert ceil_log2(Fraction(2**80 + 1)) == 81


@given(st.integers(1, 10**12), st.integers(1, 10**12))
def test_floor_log2_matches_definition(num, den):
    x = Fraction(num, den)
    e = floor_log2(x)
    assert pow2(e) <= x < pow2(e + 1)


_big = st.one_of(st.integers(1, 2**200), st.integers(0, 200).map(lambda k: 2**k))


@given(_big, _big)
def test_floor_log2_estimate_is_exact_or_one_high(num, den):
    # floor_log2 starts from the bit-length difference and only ever steps
    # down, once: the estimate is never too low
    x = Fraction(num, den)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    assert pow2(e - 1) < x < pow2(e + 1)
    got = floor_log2(x)
    assert got in (e - 1, e) and pow2(got) <= x < pow2(got + 1)


def test_lg_plus():
    assert lg_plus(1) == 1
    assert lg_plus(2) == 1
    assert lg_plus(3) == 2
    assert lg_plus(6) == 3
    assert lg_plus(Fraction(3, 2)) == 1
    with pytest.raises(InputError):
        lg_plus(Fraction(1, 2))


def test_lg_plus_of_an_int_is_its_fraction_path():
    # an int takes the bit length, every other value the exact Fraction path
    near_powers = {2**j + d for j in range(1, 71) for d in (-1, 0, 1)}
    for n in sorted(set(range(1, 4098)) | near_powers):
        assert lg_plus(n) == lg_plus(Fraction(n)), n
    assert lg_plus(True) == 1


@pytest.mark.parametrize(
    "value, shown", [(0, "0"), (-3, "-3"), (Fraction(1, 2), "1/2")]
)
def test_lg_plus_below_one_is_refused(value, shown):
    with pytest.raises(InputError) as info:
        lg_plus(value)
    assert str(info.value) == f"lg_plus requires value >= 1, got {shown}"


@pytest.mark.parametrize(
    "value, text",
    [(5, "5/1"), (True, "1/1"), (Fraction(7, 3), "7/3"), (Fraction(0), "0/1")],
)
def test_format_fraction_of_each_type(value, text):
    assert format_fraction(value) == text


def test_frac_decimal():
    assert frac_decimal(Fraction(1, 3)) == "0.333333"
    assert frac_decimal(Fraction(15, 2)) == "7.500000"
    assert frac_decimal(Fraction(1, 2_000_000)) == "0.000000"  # half-even to even
    assert frac_decimal(Fraction(3, 2_000_000)) == "0.000002"
