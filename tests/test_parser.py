"""Ideal-expression grammar: positive cases, error positions, round-trips."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reesval import (
    MAX_INPUT_EXPONENT,
    EmptyIdealError,
    IdealSyntaxError,
    InvalidInput,
    ParseError,
    RingContext,
    UnknownVariableError,
    ZeroExponentError,
    normalize,
    parse_ideal,
    parse_monomial,
    parse_ring,
    render_ideal,
    render_monomial,
)

R2 = RingContext(("x", "y"))


def test_parse_ring_basic():
    assert parse_ring("Q[x,y]") == R2
    assert parse_ring("  k [ a , b , c ]  ").variable_names == ("a", "b", "c")
    assert parse_ring("QQ[alpha_1,alpha_2]").variable_names == ("alpha_1", "alpha_2")


def test_parse_ring_errors():
    for bad in ["", "Q[", "Q[]", "[x]", "Q[x,y] junk", "Q[x,,y]"]:
        with pytest.raises(InvalidInput):
            parse_ring(bad)
    with pytest.raises(InvalidInput):
        parse_ring("Q[x,x]")


def test_parse_ideal_example():
    assert parse_ideal("x^2*y, y^3", "Q[x,y]").min_gens == ((2, 1), (0, 3))


def test_parse_ideal_normalizes():
    assert parse_ideal("x^2, x^3", "Q[x,y]").min_gens == ((2, 0),)


def test_parse_ideal_zero_exponent():
    with pytest.raises(ZeroExponentError) as exc_info:
        parse_ideal("x^0", R2)
    assert exc_info.value.position == 3


def test_parse_ideal_unknown_variable():
    with pytest.raises(UnknownVariableError) as exc_info:
        parse_ideal("x*q^2", R2)
    assert exc_info.value.name == "q"
    assert exc_info.value.position == 3


def test_parse_ideal_empty():
    with pytest.raises(EmptyIdealError):
        parse_ideal("   ", R2)


def test_parse_ideal_syntax_errors():
    for bad in ["x^", "x*", "x,,y", "x 2", "x^2^3", "^2", "x+y"]:
        with pytest.raises(IdealSyntaxError):
            parse_ideal(bad, R2)


def test_parse_ideal_whitespace_insensitive():
    a = parse_ideal("x^2*y, y^3", R2)
    b = parse_ideal("  x ^ 2 * y ,y^3 ", R2)
    assert a == b


def test_repeated_factor_accumulates():
    assert parse_ideal("x*x*y", R2).min_gens == ((2, 1),)


def test_exponent_cap_enforced():
    with pytest.raises(InvalidInput):
        parse_ideal("x^13", R2)
    with pytest.raises(InvalidInput):
        parse_ideal("x^7*x^6", R2)


def test_exponent_digits_are_ascii_only():
    # '²' passes str.isdigit() but not int(), '２' is read by int() as 2;
    # both are syntax errors at their own column, the last one here
    for text in ("x^²", "x^２", "y*x^2²"):
        for parse in (parse_ideal, parse_monomial):
            with pytest.raises(IdealSyntaxError) as exc_info:
                parse(text, R2)
            assert exc_info.value.position == len(text)


def test_exponent_longer_than_int_conversion_allows():
    # int() refuses strings of more than 4300 digits; leading zeros count
    # there but not here
    with pytest.raises(IdealSyntaxError):
        parse_ideal("x^" + "1" * 4301, R2)
    assert parse_ideal("x^" + "0" * 5000 + "2", R2).min_gens == ((2, 0),)
    with pytest.raises(InvalidInput):
        parse_ideal("x^" + "1" * 4300, R2)


# grammar tokens make malformed-but-close inputs such as "x^²" likely
parser_text = st.lists(
    st.sampled_from(["x", "y", "Q", "[", "]", ",", "*", "^", " ", "0", "2", "13", "²", "２"])
    | st.characters(),
    max_size=12,
).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parser_text, parser_text)
@example("Q[x,y]", "x^²")
@example("Q[x²]", "x²^" + "9" * 4301)
def test_parsers_raise_only_parse_errors(ring_text, text):
    # every malformed input is a ParseError or InvalidInput (exit 2),
    # never a bare ValueError or anything else
    for call in (
        lambda: parse_ring(ring_text),
        lambda: parse_ideal(text, R2),
        lambda: parse_monomial(text, R2),
        lambda: parse_ideal(text, ring_text),
    ):
        try:
            call()
        except (ParseError, InvalidInput):
            pass


def test_parse_monomial():
    assert parse_monomial("x*y^2", R2) == (1, 2)
    with pytest.raises(IdealSyntaxError):
        parse_monomial("x, y", R2)


def test_parse_monomial_one_is_the_zero_vector():
    assert parse_monomial("1", R2) == (0, 0)
    assert parse_monomial(" 1\t", R2) == (0, 0)
    # '1' is the whole monomial or nothing: it is no factor
    for bad in ("1*x", "x*1", "1, 1", "11", "1^2"):
        with pytest.raises(IdealSyntaxError):
            parse_monomial(bad, R2)
    with pytest.raises(IdealSyntaxError):
        parse_ideal("1", R2)


R3 = RingContext(("x", "y", "z_1"))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.tuples(*[st.integers(0, MAX_INPUT_EXPONENT)] * 3))
@example((0, 0, 0))
def test_monomial_round_trip(m):
    assert parse_monomial(render_monomial(m, R3), R3) == m


def test_render_monomial():
    assert render_monomial((2, 1), R2) == "x^2*y"
    assert render_monomial((0, 0), R2) == "1"
    assert render_monomial((0, 3), R2) == "y^3"


def test_render_ideal_golden():
    J = normalize([(2, 0), (1, 2), (0, 3)], R2)
    assert render_ideal(J) == "x^2, x*y^2, y^3"
    assert render_ideal(normalize([], R2)) == "0"


vectors2 = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda v: any(v))


@settings(max_examples=80, deadline=None)
@given(st.lists(vectors2, min_size=1, max_size=6))
def test_round_trip(gens):
    J = normalize(gens, R2)
    assert parse_ideal(render_ideal(J), R2) == J


def test_round_trip_corpus(corpus_ideals):
    for entry, ideal in corpus_ideals:
        assert parse_ideal(render_ideal(ideal), ideal.ring) == ideal, entry["id"]
