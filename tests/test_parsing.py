import random
from fractions import Fraction

import pytest

from ncreal.algebra import MonomialOrder, Poly
from ncreal.parsing import (
    MAX_WORD_LETTERS,
    ParseError,
    parse_generators,
    parse_poly,
    parse_word,
    poly_str,
)

from util import rand_poly


def test_parse_simple_forms():
    x = Poly.gen(1, 1)
    xs = x.star()
    assert parse_poly("x1") == x
    assert parse_poly("x1*") == xs
    assert parse_poly("x1 x1* - x1* x1 - 1") == x * xs - xs * x - 1
    assert parse_poly("2 x1 + 4") == 2 * x + 4 * Poly.one(1)
    assert parse_poly("x1^3") == x**3
    assert parse_poly("x1*^2") == xs * xs
    assert parse_poly("-x1") == -x
    assert parse_poly("0", g=1) == Poly.zero(1)
    assert parse_poly("3/2 x1") == Fraction(3, 2) * x


def test_parse_coefficient_styles():
    p = parse_poly("1/2 x1 x2 + 3 x2*", g=2)
    assert p.coefficient((0, 2)) == Fraction(1, 2)
    assert p.coefficient((3,)) == 3
    assert parse_poly("7/2") == Poly.constant(1, Fraction(7, 2))


def test_grammar_has_no_parens_or_decimals():
    # the term language is sums of coefficient-times-word only
    with pytest.raises(ParseError):
        parse_poly("(x1 + x1*)^2")
    with pytest.raises(ParseError):
        parse_poly("0.25 x1")


def test_variable_count_inference():
    assert parse_poly("x1 + x3*").g == 3
    assert parse_poly("x1", g=4).g == 4
    with pytest.raises(ParseError):
        parse_poly("x3", g=2)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_poly("bogus (")
    assert e.value.pos == 0
    with pytest.raises(ParseError):
        parse_poly("x0")
    with pytest.raises(ParseError):
        parse_poly("x1 +")
    with pytest.raises(ParseError):
        parse_poly("(x1")
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("x1^")
    with pytest.raises(ParseError, match="variable needs an index") as e:
        parse_poly("2 x")
    assert e.value.pos == 3
    with pytest.raises(ParseError, match="zero denominator") as e:
        parse_poly("3/0 x1")
    assert e.value.pos == 1
    with pytest.raises(ParseError, match="expected '\\+' or '-' between terms") as e:
        parse_poly("x1 2")
    assert e.value.pos == 3
    # only ASCII digits are INT: a superscript or Arabic-Indic digit is a stray character
    for text, pos in (("x1\u00b2", 2), ("x1^\u00b2", 3), ("x\u0661", 1)):
        with pytest.raises(ParseError, match="unexpected character") as e:
            parse_poly(text)
        assert e.value.pos == pos


@pytest.mark.parametrize("text, g, message, pos", [
    ("x0", None, "variable indices start at 1", 0),
    ("x1 x3", 2, "variable x3 out of range for g=2", 3),
    ("x1^", None, "expected 'int'", 3),
    ("2/x1", None, "expected 'int'", 2),
    ("-", None, "expected a coefficient or a monomial", 1),
    ("x1 + ", None, "expected a coefficient or a monomial", 5),
    ("*x1", None, "expected a coefficient or a monomial", 0),
    ("  ", None, "empty input", 0),
    ("x", None, "variable needs an index, like x1", 1),
    ("3 ^2", None, "expected '+' or '-' between terms", 2),
    ("x1**", None, "expected '+' or '-' between terms", 3),
    ("x0 ?", None, "unexpected character '?'", 3),
    # an INT past Python's int-string limit (4,300 digits by default)
    ("1" * 5000, None, "integer of 5000 digits is too long", 0),
    ("x" + "1" * 5000, None, "integer of 5000 digits is too long", 1),
    ("x1^" + "1" * 5000, None, "integer of 5000 digits is too long", 3),
    ("1/" + "1" * 5000, None, "integer of 5000 digits is too long", 2),
    ("x1^9999 x2^2", None, "word longer than 10000 letters", 10),
    ("x1^10000 x2", None, "word longer than 10000 letters", 9),
])
def test_every_parse_error_message_and_position(text, g, message, pos):
    with pytest.raises(ParseError) as e:
        parse_poly(text, g)
    assert str(e.value) == f"{message} (at position {pos})"
    assert e.value.pos == pos


def test_a_huge_power_fails_before_allocating():
    # without the bound this asks for about 16 GB
    with pytest.raises(ParseError, match="word longer than 10000 letters") as e:
        parse_poly("x1^2000000000")
    assert e.value.pos == 2
    assert len(parse_word(f"x1^{MAX_WORD_LETTERS}")) == MAX_WORD_LETTERS


def test_parse_word_single_monomials_only():
    assert parse_word("x1 x2* x2 x1", 2) == (0, 3, 2, 0)
    assert parse_word("1", 1) == ()
    with pytest.raises(ParseError):
        parse_word("x1 + x2", 2)
    with pytest.raises(ParseError):
        parse_word("2 x1", 1)


def test_parse_generators_shares_g_and_skips_comments():
    text = """
    # generators of a cubic ideal
    x1^3 + 1
    x1^2 + x1*^2

    x1 x1* - x1*^2  # trailing note
    x1* x1 - 5
    """
    gens = parse_generators(text)
    assert len(gens) == 4
    assert all(p.g == 1 for p in gens)
    text2 = "x1\nx2*"
    gens2 = parse_generators(text2)
    assert all(p.g == 2 for p in gens2)
    # a parse error names its line, counting blank and comment lines
    with pytest.raises(ParseError) as e:
        parse_generators("x1\n# note\n1/0 x1")
    assert str(e.value) == "line 3: zero denominator (at position 1)"
    assert e.value.pos == 1
    with pytest.raises(ParseError, match="no generators found"):
        parse_generators("# only a comment\n\n")


def test_poly_str_round_trip_random():
    rng = random.Random(29)
    for _ in range(200):
        p = rand_poly(rng, 2, 4, nterms=5)
        assert parse_poly(poly_str(p), g=2) == p


def test_poly_str_canonical_descending():
    order = MonomialOrder(1)
    p = parse_poly("1 + x1 + x1^2")
    s = poly_str(p, order)
    assert s == "x1^2 + x1 + 1"
    assert poly_str(Poly.zero(1)) == "0"
    assert poly_str(parse_poly("-x1 - 1")) == "-x1 - 1"
    assert poly_str(parse_poly("1/2 x1")) == "1/2 x1"
