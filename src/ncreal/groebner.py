"""Left Groebner bases for finitely generated left ideals.

Left ideals only admit left multiples omega * p, so a word w is reducible by
p exactly when lead(p) is a suffix of w: w = omega * lead(p).  The basis
algorithm is interreduction on leading words: while some lead(p_i) is a
suffix of lead(p_j) (i != j; for equal leads the later element is reduced
against the earlier), replace p_j by the monic part of p_j - omega * p_i and
drop zeros.  Leads strictly decrease in the degree-first order, which is
well-founded, so this terminates.  One lookup, _suffix_hits, finds the
elements whose lead is a suffix of a word, in basis order; reduction, the
irreducible-word test and interreduction all read it.

Each basis element carries a representation as a left combination of the
original generators, which lets callers rewrite certificates found against
the basis in terms of their own input.
"""

from fractions import Fraction

from .algebra import Poly, checked_order, word_dict_add, word_dict_mul


class LeftGroebnerBasis:
    """Monic basis of a left ideal with suffix-reduction normal forms."""

    def __init__(self, g, order, elements, reps):
        self.g = g
        self.order = order
        self.elements = elements
        self.leads = [p.leading_word(order) for p in elements]
        self.reps = reps  # reps[i][t]: elements[i] == sum_t reps[i][t] * gens[t]

    def reduce(self, terms):
        """Suffix-reduce a {word: coeff} dict of any number type; returns the remainder.

        Repeatedly cancels the largest reducible word w = omega * lead_i.
        """
        work = terms
        while True:
            hit = next(((w, i) for w in sorted(work, key=self.order.key)
                        for i in _suffix_hits(self.leads, w)), None)
            if hit is None:
                return work
            w, idx = hit
            omega = {w[: len(w) - len(self.leads[idx])]: work[w]}
            work = word_dict_add(work, word_dict_mul(omega, self.elements[idx].terms), -1)

    def normal_form(self, p):
        """The remainder of p after suffix reduction by the basis."""
        return Poly(self.g, self.reduce(p.terms))

    def contains(self, p):
        return not self.normal_form(p)

    def is_irreducible_word(self, w):
        return next(_suffix_hits(self.leads, w), None) is None


def _suffix_hits(leads, w):
    """Indices i, ascending, of the leads[i] that are suffixes of w."""
    return (i for i, lw in enumerate(leads) if len(lw) <= len(w) and w[len(w) - len(lw):] == lw)


def left_groebner(gens, order=None):
    """Compute the left Groebner basis of the left ideal generated by gens,
    under order (checked_order: the default one when None)."""
    if not gens:
        raise ValueError("need at least one generator")
    g = gens[0].g
    if any(p.g != g for p in gens):
        raise ValueError("generators live in algebras with different numbers of variables")
    order = checked_order(g, order)
    elements, reps = [], []
    for t, p in enumerate(gens):
        if not p:
            continue
        c = p.leading_coeff(order)
        rep = [Poly.zero(g) for _ in gens]
        rep[t] = Poly.constant(g, Fraction(1) / c)
        elements.append((Fraction(1) / c) * p)
        reps.append(rep)

    leads = [p.leading_word(order) for p in elements]
    while True:
        hit = next(((i, j) for j, lj in enumerate(leads) for i in _suffix_hits(leads, lj)
                    if i != j and (i < j or leads[i] != lj)), None)
        if hit is None:
            break
        i, j = hit
        lj, li = leads[j], leads[i]
        omega = Poly(g, {lj[: len(lj) - len(li)]: Fraction(1)})
        new = elements[j] - omega * elements[i]
        new_rep = [reps[j][t] - omega * reps[i][t] for t in range(len(gens))]
        if not new:
            del elements[j], reps[j], leads[j]
        else:
            c = new.leading_coeff(order)
            elements[j] = (Fraction(1) / c) * new
            reps[j] = [(Fraction(1) / c) * r for r in new_rep]
            leads[j] = elements[j].leading_word(order)

    return LeftGroebnerBasis(g, order, elements, reps)
