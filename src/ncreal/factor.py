"""Factorization of homogeneous polynomials in the free *-algebra.

A nonzero homogeneous p of degree d factors as p1 * p2 with deg p1 = d1 iff
its (d1, d - d1)-Gram matrix has rank one; the factors are read off a
nonzero row/column pair.  Splitting at the smallest admissible d1 makes the
left factor irreducible, so iterating yields the full factorization
p = c * f1 * ... * fk into monic irreducibles.  (Homogeneous polynomials
factor uniquely here, so the result does not depend on tie-breaking, but the
scan order below is deterministic anyway.)
"""

from fractions import Fraction

from .algebra import MonomialOrder, Poly, word_star
from .gram import gram_matrix


def rank_one_split(p, d1, order=None):
    """Split homogeneous p of degree d as p1 * p2 with deg p1 == d1, if possible.

    Returns (p1, p2) or None.  p1 is normalized to have coefficient 1 on the
    first nonzero entry's row word.
    """
    if not p or not p.is_homogeneous():
        raise ValueError("input must be nonzero homogeneous")
    d = p.degree()
    if not 1 <= d1 <= d - 1:
        raise ValueError("need 1 <= d1 <= deg(p) - 1")
    gm = gram_matrix(p, d1, d - d1, order)
    A = gm.entries
    i0 = j0 = None
    for i, row in enumerate(A):
        for j, a in enumerate(row):
            if a:
                i0, j0 = i, j
                break
        if i0 is not None:
            break
    pivot = A[i0][j0]
    alpha = [A[i][j0] / pivot for i in range(len(gm.row_words))]
    beta = A[i0]
    for i in range(len(alpha)):
        for j in range(len(beta)):
            if A[i][j] != alpha[i] * beta[j]:
                return None
    p1 = Poly(p.g, {word_star(u): a for u, a in zip(gm.row_words, alpha) if a})
    p2 = Poly(p.g, {v: b for v, b in zip(gm.col_words, beta) if b})
    if p1 * p2 != p:
        raise AssertionError("internal error: rank-one split does not multiply back")
    return p1, p2


def is_irreducible_homogeneous(p, order=None):
    """True iff nonzero homogeneous p of degree >= 1 has no proper split."""
    if not p or not p.is_homogeneous() or p.degree() < 1:
        raise ValueError("input must be nonzero homogeneous of degree >= 1")
    d = p.degree()
    return all(rank_one_split(p, d1, order) is None for d1 in range(1, d))


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
    """Factor nonzero homogeneous p of degree >= 1 into monic irreducibles."""
    if not p or not p.is_homogeneous() or p.degree() < 1:
        raise ValueError("input must be nonzero homogeneous of degree >= 1")
    if order is None:
        order = MonomialOrder(p.g)
    scalar = Fraction(1)
    factors = []
    current = p
    while True:
        d = current.degree()
        split = None
        for d1 in range(1, d):
            split = rank_one_split(current, d1, order)
            if split is not None:
                break
        if split is None:
            c = current.leading_coeff(order)
            scalar *= c
            factors.append((Fraction(1) / c) * current)
            break
        p1, p2 = split
        c = p1.leading_coeff(order)
        scalar *= c
        factors.append((Fraction(1) / c) * p1)
        current = p2  # invariant: p == scalar * (product of factors) * current
    out = Factorization(scalar, factors)
    if out.product(p.g) != p:
        raise AssertionError("internal error: factorization does not multiply back")
    return out
