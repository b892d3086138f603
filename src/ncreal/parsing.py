"""Text form of free-*-algebra polynomials.

Grammar (whitespace between tokens is insignificant):

    LETTER := 'x' INT ['*']
    FACTOR := LETTER ['^' INT]
    MONO   := FACTOR+
    COEFF  := INT ['/' INT]
    TERM   := COEFF [MONO] | MONO
    POLY   := ['-'] TERM (('+'|'-') TERM)*

so "x1 x1*^2 - 1" and "3/2x2 x1 - x1" both parse.  Nothing nests, so one
regex scan splits the text into tokens and one loop over them reads the
terms.  The printer emits terms in descending monomial order and
round-trips through the parser.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import MonomialOrder, Poly, Word, checked_order, letter, word_str


class ParseError(ValueError):
    """Syntax error with the offending position in the input string; message
    is the error without the position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


# the grammar's INT is ASCII (str.isdigit takes "²" too); \s is str.isspace
_TOKEN = re.compile(r"[0-9]+|\S")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """(token, pos) pairs, each a run of digits or one other character, then
    ("", len(text)) to end them."""
    tokens = [(m[0], m.start()) for m in _TOKEN.finditer(text)]
    for tok, pos in tokens:
        if tok[0] not in "0123456789x*^/+-":
            raise ParseError(f"unexpected character {tok!r}", pos)
    tokens.append(("", len(text)))
    return tokens


def _int(token: tuple[str, int], message: str = "expected 'int'") -> int:
    """The value of an INT token; ParseError(message) at any other token."""
    tok, pos = token
    if not tok.isdigit():  # past _tokenize, only an INT token is all digits
        raise ParseError(message, pos)
    return int(tok)


def _terms(text: str, g: int | None) -> dict[Word, Fraction]:
    """The terms of one polynomial, letters checked against g when given.

    One loop reads a term's coefficient and letters until '+', '-' or the
    end closes it; a term must hold one of them, and only an empty term
    takes a coefficient."""
    tokens = _tokenize(text)
    if len(tokens) == 1:
        raise ParseError("empty input", 0)
    terms: dict[Word, Fraction] = {}
    sign, i = (-1, 1) if tokens[0][0] == "-" else (1, 0)
    coeff, word, empty = Fraction(1), [], True
    while True:
        tok, pos = tokens[i]
        if tok == "x":
            idx = _int(tokens[i + 1], "variable needs an index, like x1")
            if idx < 1:
                raise ParseError("variable indices start at 1", pos)
            if g is not None and idx > g:
                raise ParseError(f"variable x{idx} out of range for g={g}", pos)
            i += 2
            star = tokens[i][0] == "*"
            i += star
            power = 1
            if tokens[i][0] == "^":
                power = _int(tokens[i + 1])
                i += 2
            word += [letter(idx, star)] * power
            empty = False
        elif empty and tok.isdigit():
            num, den = int(tok), 1
            if tokens[i + 1][0] == "/":
                den = _int(tokens[i + 2])
                if den == 0:
                    raise ParseError("zero denominator", tokens[i + 1][1])
                i += 2
            coeff = Fraction(num, den)
            i += 1
            empty = False
        elif empty:
            raise ParseError("expected a coefficient or a monomial", pos)
        else:
            key = tuple(word)
            terms[key] = terms.get(key, Fraction(0)) + sign * coeff
            if not tok:
                return terms
            if tok not in "+-":
                raise ParseError("expected '+' or '-' between terms", pos)
            sign = -1 if tok == "-" else 1
            coeff, word, empty = Fraction(1), [], True
            i += 1


def _line_terms(text: str, g: int | None) -> list[dict[Word, Fraction]]:
    """The terms of each line of text; '#' starts a comment, blank lines
    are skipped, and a parse error names its line.  Raises ParseError
    when no line holds a polynomial."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(_terms(line, g))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}", exc.pos) from exc
    if not out:
        raise ParseError("no generators found", 0)
    return out


def _polys(terms: list[dict[Word, Fraction]], g: int | None) -> list[Poly]:
    """One Poly per term dict, all on g, or when g is None on the largest
    variable index that occurs in any of them (at least 1)."""
    if g is None:
        g = max((code // 2 + 1 for t in terms for w in t for code in w), default=1)
    return [Poly(g, t) for t in terms]


def parse_poly(text: str, g: int | None = None) -> Poly:
    """Parse the grammar above.  When g is None it is inferred as the largest
    variable index that occurs (at least 1)."""
    return _polys([_terms(text, g)], g)[0]


def parse_word(text: str, g: int | None = None) -> Word:
    """Parse a single word (a monomial with coefficient 1)."""
    p = parse_poly(text, g)
    if len(p.terms) != 1:
        raise ParseError("expected a single word", 0)
    (word, coeff), = p.terms.items()
    if coeff != 1:
        raise ParseError("a word has no coefficient", 0)
    return word


def parse_generators(text: str, g: int | None = None) -> list[Poly]:
    """One polynomial per line; '#' starts a comment; blank lines skipped.
    All polynomials are built once, on a common variable count."""
    return _polys(_line_terms(text, g), g)


def poly_str(p: Poly, order: MonomialOrder | None = None) -> str:
    """Canonical form: descending monomial order, explicit signs."""
    if not p.terms:
        return "0"
    pieces = []
    for w in sorted(p.terms, key=checked_order(p.g, order).key):
        c = p.terms[w]
        mag = -c if c < 0 else c
        if not w:
            body = str(mag)
        elif mag == 1:
            body = word_str(w)
        else:
            body = f"{mag} {word_str(w)}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
