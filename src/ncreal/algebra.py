"""Exact arithmetic in the free *-algebra R<x1, x1*, ..., xg, xg*>.

A letter is a small int: 2*(i-1) codes x_i and 2*(i-1)+1 codes x_i*, so
starring a letter is ``code ^ 1``.  A word is a tuple of letters; the
involution reverses the tuple and stars every letter, hence (uv)* = v* u*.
Polynomials carry Fraction coefficients throughout — floats never enter
this layer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


def letter(var: int, star: bool = False) -> int:
    """Letter code for x_var (or x_var* when star), var counted from 1."""
    if var < 1:
        raise ValueError(f"variable index must be >= 1, got {var}")
    return 2 * (var - 1) + (1 if star else 0)


def letter_var(code: int) -> int:
    return code // 2 + 1


def letter_str(code: int) -> str:
    return f"x{letter_var(code)}" + ("*" if code & 1 else "")


def word_star(w: Word) -> Word:
    """Involution on words: reverse and star every letter."""
    return tuple(c ^ 1 for c in reversed(w))


def word_str(w: Word) -> str:
    """Render a word with repeated letters grouped into powers."""
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        parts.append(letter_str(w[i]) + (f"^{j - i}" if j - i > 1 else ""))
        i = j
    return " ".join(parts)


class MonomialOrder:
    """Degree-first word order with a configurable letter ranking.

    Words compare by total degree first; equal-degree words compare letter
    by letter, left to right, using the ranking (position 0 = greatest
    letter).  The default ranking is x1 > x1* > x2 > x2* > ... which makes
    the order deterministic across runs.  The order is left-compatible:
    u > v implies wu > wv, which is what the reduction arguments need.
    """

    def __init__(self, g: int, ranking: Iterable[int] | None = None):
        if g < 1:
            raise ValueError(f"need at least one variable, got g={g}")
        self.g = g
        if ranking is None:
            ranking = range(2 * g)
        ranking = tuple(ranking)
        if sorted(ranking) != list(range(2 * g)):
            raise ValueError("ranking must be a permutation of all 2g letters")
        self.ranking = ranking
        self._rank = [0] * (2 * g)
        for pos, code in enumerate(ranking):
            self._rank[code] = pos

    def key(self, w: Word) -> tuple:
        """Sort key; ascending in this key = descending monomial order."""
        return (-len(w), self.letter_key(w))

    def letter_key(self, w: Word) -> tuple:
        """Sort key among words of one length: the ranks of their letters."""
        return tuple(map(self._rank.__getitem__, w))

    def max_word(self, words: Iterable[Word]) -> Word:
        return min(words, key=self.key)

    def __repr__(self) -> str:
        return f"MonomialOrder(g={self.g}, {' > '.join(letter_str(c) for c in self.ranking)})"


def checked_order(g: int, order: MonomialOrder | None = None) -> MonomialOrder:
    """order, or the default order on g variables when it is None; the one
    range check: an order must rank all g variables (it may rank more)."""
    if order is None:
        return MonomialOrder(g)
    if order.g < g:
        raise ValueError(f"the order ranks {order.g} variable(s), the input uses {g}")
    return order


def words_of_degree(g: int, d: int, order: MonomialOrder | None = None) -> list[Word]:
    """All (2g)^d words of degree d, in descending monomial order: the d-fold
    product of the ranking of the 2g letters (checked_order; it may rank more)."""
    return list(product([c for c in checked_order(g, order).ranking if c < 2 * g], repeat=d))


def words_up_to(g: int, d: int, order: MonomialOrder | None = None) -> list[Word]:
    """All words of degree <= d, ascending in degree, descending inside each degree."""
    return [w for k in range(d + 1) for w in words_of_degree(g, k, order)]


# ---------------------------------------------------------------------------
# coefficient-dict kernels, shared by Poly and the Groebner reduction
# ---------------------------------------------------------------------------

def word_dict_add(a: dict, b: dict, scale=1) -> dict:
    """a + scale*b on {word: coeff} dicts; drops exact zeros."""
    out = dict(a)
    for w, c in b.items():
        c = out.get(w, 0) + scale * c
        if c:
            out[w] = c
        else:
            out.pop(w, None)
    return out


def word_dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = u + v
            c = out.get(w, 0) + cu * cv
            if c:
                out[w] = c
            else:
                out.pop(w, None)
    return out


def word_dict_star(a: dict) -> dict:
    return {word_star(w): c for w, c in a.items()}


class Poly:
    """A polynomial in the free *-algebra on g variables, exact coefficients.

    Immutable by convention: nothing here mutates ``terms`` after
    construction, and callers must not either.
    """

    __slots__ = ("g", "terms")

    def __init__(self, g: int, terms: dict | None = None):
        if g < 1:
            raise ValueError(f"need at least one variable, got g={g}")
        clean: dict[Word, Fraction] = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            for code in w:
                if not 0 <= code < 2 * g:
                    raise ValueError(
                        f"letter {letter_str(code)} out of range for g={g}")
            clean[w] = c
        self.g = g
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, g: int) -> "Poly":
        return cls(g, {})

    @classmethod
    def one(cls, g: int) -> "Poly":
        return cls(g, {EMPTY_WORD: 1})

    @classmethod
    def constant(cls, g: int, c) -> "Poly":
        return cls(g, {EMPTY_WORD: Fraction(c)})

    @classmethod
    def from_word(cls, g: int, w: Word, c=1) -> "Poly":
        return cls(g, {tuple(w): Fraction(c)})

    @classmethod
    def gen(cls, g: int, var: int, star: bool = False) -> "Poly":
        return cls.from_word(g, (letter(var, star),))

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.g != other.g:
            raise ValueError(f"conflicting variable counts: g={self.g} vs g={other.g}")

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self + Poly.constant(self.g, other)
        self._check(other)
        return Poly(self.g, word_dict_add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self - Poly.constant(self.g, other)
        self._check(other)
        return Poly(self.g, word_dict_add(self.terms, other.terms, -1))

    def __rsub__(self, other) -> "Poly":
        return Poly.constant(self.g, other) - self

    def __neg__(self) -> "Poly":
        return Poly(self.g, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = Fraction(other)
            return Poly(self.g, {w: c * cw for w, cw in self.terms.items()})
        self._check(other)
        return Poly(self.g, word_dict_mul(self.terms, other.terms))

    def __rmul__(self, other) -> "Poly":
        # scalars commute; Poly*Poly never lands here
        return self * other

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative powers do not exist in the free algebra")
        out = Poly.one(self.g)
        for _ in range(n):
            out = out * self
        return out

    def star(self) -> "Poly":
        """The involution: reverse every word and star its letters."""
        return Poly(self.g, word_dict_star(self.terms))

    # -- structure ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.g, other)
        return isinstance(other, Poly) and self.g == other.g and self.terms == other.terms

    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial (sentinel, not -inf)."""
        if not self.terms:
            return None
        return max(len(w) for w in self.terms)

    def coefficient(self, w: Word) -> Fraction:
        return self.terms.get(tuple(w), Fraction(0))

    def constant_coeff(self) -> Fraction:
        return self.terms.get(EMPTY_WORD, Fraction(0))

    def is_constant(self) -> bool:
        return all(not w for w in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_homogeneous(self) -> bool:
        degs = {len(w) for w in self.terms}
        return len(degs) <= 1

    def is_analytic(self) -> bool:
        """No starred letter anywhere (constants count as analytic)."""
        return all(not (c & 1) for w in self.terms for c in w)

    def is_symmetric(self) -> bool:
        return self.terms == word_dict_star(self.terms)

    def homogeneous_part(self, d: int) -> "Poly":
        return Poly(self.g, {w: c for w, c in self.terms.items() if len(w) == d})

    def leading_word(self, order: MonomialOrder) -> Word:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading word")
        return checked_order(self.g, order).max_word(self.terms)

    def leading_coeff(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_word(order)]

    def leading_part(self) -> "Poly":
        """Top-degree homogeneous part (the 'leading polynomial')."""
        d = self.degree()
        if d is None:
            return self
        return self.homogeneous_part(d)

    def monic(self, order: MonomialOrder) -> "Poly":
        return self * (1 / self.leading_coeff(order))

    def variables_used(self) -> set[int]:
        return {letter_var(c) for w in self.terms for c in w}

    def relabel_variable(self, src: int, dst: int, g: int) -> "Poly":
        """Rename variable src to dst (used to route single-variable input
        through the univariate closed forms)."""
        out: dict[Word, Fraction] = {}
        for w, c in self.terms.items():
            nw = tuple(letter(dst, bool(code & 1)) if letter_var(code) == src else code
                       for code in w)
            out[nw] = c
        return Poly(g, out)

    def __str__(self) -> str:
        from .parsing import poly_str
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({self})"


def iter_words(g: int, max_degree: int) -> Iterator[Word]:
    """All words of degree <= max_degree in the default order: by degree, then lexicographic."""
    return iter(words_up_to(g, max_degree))


def is_left_unshrinkable(w: Word) -> bool:
    """True unless w = u u* v with u nonempty.

    Checked by scanning shrink lengths k = 1..len(w)//2: the block
    w[k:2k] must be the starred reversal of w[:k].
    """
    return shrink_length(w) is None


def shrink_length(w: Word) -> int | None:
    """Smallest k >= 1 with w[:k] (w[:k])* a prefix of w, or None."""
    for k in range(1, len(w) // 2 + 1):
        if word_star(w[:k]) == tuple(w[k:2 * k]):
            return k
    return None
