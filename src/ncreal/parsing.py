"""Text form of free-*-algebra polynomials.

Grammar (whitespace between tokens is insignificant):

    LETTER := 'x' INT ['*']
    FACTOR := LETTER ['^' INT]
    MONO   := FACTOR+
    COEFF  := INT ['/' INT]
    TERM   := COEFF [MONO] | MONO
    POLY   := ['-'] TERM (('+'|'-') TERM)*

so "x1 x1*^2 - 1" and "3/2x2 x1 - x1" both parse.  The printer emits terms
in descending monomial order and round-trips through the parser.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import MonomialOrder, Poly, Word, checked_order, letter, word_str


class ParseError(ValueError):
    """Syntax error with the offending position in the input string."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split into (kind, value, pos) tokens; kinds: int, x, and punctuation."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":  # the grammar's INT is ASCII; str.isdigit takes "²" too
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch == "x":
            tokens.append(("x", ch, i))
            i += 1
        elif ch in "*^/+-":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str, g: int | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.g = g
        self.end = len(text)

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def here(self) -> int:
        return self.tokens[self.pos][2] if self.pos < len(self.tokens) else self.end

    def take(self, kind: str) -> str:
        if self.peek() != kind:
            raise ParseError(f"expected {kind!r}", self.here())
        value = self.tokens[self.pos][1]
        self.pos += 1
        return value

    def parse_letter(self) -> int:
        pos = self.here()
        self.take("x")
        if self.peek() != "int":
            raise ParseError("variable needs an index, like x1", self.here())
        idx = int(self.take("int"))
        if idx < 1:
            raise ParseError("variable indices start at 1", pos)
        if self.g is not None and idx > self.g:
            raise ParseError(f"variable x{idx} out of range for g={self.g}", pos)
        star = False
        if self.peek() == "*":
            self.take("*")
            star = True
        return letter(idx, star)

    def parse_mono(self) -> Word:
        word: list[int] = []
        while self.peek() == "x":
            code = self.parse_letter()
            power = 1
            if self.peek() == "^":
                self.take("^")
                power = int(self.take("int"))
            word.extend([code] * power)
        return tuple(word)

    def parse_term(self) -> tuple[Fraction, Word]:
        if self.peek() == "int":
            num = int(self.take("int"))
            den = 1
            if self.peek() == "/":
                pos = self.here()
                self.take("/")
                den = int(self.take("int"))
                if den == 0:
                    raise ParseError("zero denominator", pos)
            word = self.parse_mono() if self.peek() == "x" else ()
            return Fraction(num, den), word
        if self.peek() == "x":
            return Fraction(1), self.parse_mono()
        raise ParseError("expected a coefficient or a monomial", self.here())

    def parse_poly(self) -> dict[Word, Fraction]:
        terms: dict[Word, Fraction] = {}
        sign = Fraction(1)
        if self.peek() == "-":
            self.take("-")
            sign = Fraction(-1)
        while True:
            coeff, word = self.parse_term()
            terms[word] = terms.get(word, Fraction(0)) + sign * coeff
            nxt = self.peek()
            if nxt is None:
                return terms
            if nxt == "+":
                self.take("+")
                sign = Fraction(1)
            elif nxt == "-":
                self.take("-")
                sign = Fraction(-1)
            else:
                raise ParseError("expected '+' or '-' between terms", self.here())


def _terms(text: str, g: int | None) -> dict[Word, Fraction]:
    """The terms of one polynomial, letters checked against g when given."""
    if not text.strip():
        raise ParseError("empty input", 0)
    return _Parser(text, g).parse_poly()


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
            raise ParseError(f"line {lineno}: {exc}", exc.pos) from exc
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
