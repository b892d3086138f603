"""Factorization of homogeneous polynomials in the free *-algebra.

A nonzero homogeneous p of degree d factors as p1 * p2 with deg p1 = d1 iff
its (d1, d - d1)-Gram matrix has rank one; the factors are read off a
nonzero row/column pair.  Only the support of p is touched: a term c w is
the Gram entry c at row (w[:d1])^* and column w[d1:], so the nonzero rows
and columns are read from p.terms, and a rank-one matrix fills exactly the
product of its nonzero rows and columns.  Splitting at the smallest
admissible d1 makes the left factor irreducible, so iterating yields the
full factorization p = c * f1 * ... * fk into monic irreducibles.
(Homogeneous polynomials factor uniquely here, so the result does not
depend on tie-breaking, but the scan order below is deterministic anyway.)
"""

from fractions import Fraction

from .algebra import Poly, checked_order, word_star


def rank_one_split(p, d1, order=None):
    """Split homogeneous p of degree d as p1 * p2 with deg p1 == d1, if possible.

    Returns (p1, p2) or None.  p1 is normalized to have coefficient 1 on the
    first nonzero entry's row word: the pivot is the first row word in
    order, then the first column word in that row.  The cost is linear in
    the number of terms of p.
    """
    if not p or not p.is_homogeneous():
        raise ValueError("input must be nonzero homogeneous")
    d = p.degree()
    if not 1 <= d1 <= d - 1:
        raise ValueError("need 1 <= d1 <= deg(p) - 1")
    order = checked_order(p.g, order)
    rows = {}  # row word -> {column word: entry}
    cols = set()
    for w, c in p.terms.items():
        rows.setdefault(word_star(w[:d1]), {})[w[d1:]] = c
        cols.add(w[d1:])
    if len(p.terms) != len(rows) * len(cols):
        return None  # a rank-one matrix fills every (nonzero row, nonzero column) pair
    # so every row is full, and the pivot is the first column of the first row
    row_words = sorted(rows, key=order.key)
    col_words = sorted(cols, key=order.key)
    beta = rows[row_words[0]]
    j0 = col_words[0]
    pivot = beta[j0]
    alpha = {u: row[j0] / pivot for u, row in rows.items()}
    for u, row in rows.items():
        a = alpha[u]
        for v, c in row.items():
            if c != a * beta[v]:
                return None
    p1 = Poly(p.g, {word_star(u): alpha[u] for u in row_words})
    p2 = Poly(p.g, {v: beta[v] for v in col_words})
    if p1 * p2 != p:
        raise AssertionError("internal error: rank-one split does not multiply back")
    return p1, p2


def is_irreducible_homogeneous(p, order=None):
    """True iff nonzero homogeneous p of degree >= 1 has no proper split."""
    if not p or not p.is_homogeneous() or p.degree() < 1:
        raise ValueError("input must be nonzero homogeneous of degree >= 1")
    order = checked_order(p.g, order)
    return all(rank_one_split(p, d1, order) is None for d1 in range(1, p.degree()))


class Factorization:
    """p == scalar * factors[0] * ... * factors[-1], factors monic irreducible."""

    def __init__(self, scalar, factors):
        self.scalar = scalar
        self.factors = factors

    def product(self, g):
        out = Poly.constant(g, self.scalar)
        for f in self.factors:
            out = out * f
        return out


def factor_homogeneous(p, order=None):
    """Factor nonzero homogeneous p of degree >= 1 into monic irreducibles:
    each pass scales one head to monic, the left factor of the rest's first
    rank-one split (the smallest d1, so irreducible) or else the whole rest."""
    if not p or not p.is_homogeneous() or p.degree() < 1:
        raise ValueError("input must be nonzero homogeneous of degree >= 1")
    order = checked_order(p.g, order)
    scalar = Fraction(1)
    factors = []
    rest = p  # invariant: p == scalar * (product of factors) * rest, until rest is None
    while rest is not None:
        splits = (rank_one_split(rest, d1, order) for d1 in range(1, rest.degree()))
        head, rest = next(filter(None, splits), (rest, None))
        c = head.leading_coeff(order)
        scalar *= c
        factors.append((Fraction(1) / c) * head)
    out = Factorization(scalar, factors)
    if out.product(p.g) != p:
        raise AssertionError("internal error: factorization does not multiply back")
    return out
