"""Left Groebner bases: interreduction, normal forms, membership, truncation."""

import random
from fractions import Fraction

import pytest

from ncreal.algebra import MonomialOrder, Poly, words_up_to
from ncreal.groebner import left_groebner
from ncreal.parsing import parse_generators, parse_poly

from util import rand_poly, rank_exact, truncated_basis


def _basis_for(text, order=None):
    return left_groebner(parse_generators(text), order=order)


CUBIC_GENS = "x1^3 + 1\nx1^2 + x1*^2\nx1 x1* - x1*^2\nx1* x1 - 5"


def test_interreduced_cubic_ideal():
    # the generators above rewrite to a 4-element monic basis whose leads
    # (x1^2, x1 x1*, x1* x1, x1 x1*^2) are pairwise suffix-free
    basis = _basis_for(CUBIC_GENS)
    expect = [
        parse_poly("x1 x1*^2 - 1"),
        parse_poly("x1^2 + x1*^2"),
        parse_poly("x1 x1* - x1*^2"),
        parse_poly("x1* x1 - 5"),
    ]
    assert len(basis.elements) == len(expect)
    for p in expect:
        assert p in basis.elements
    leads = basis.leads
    for i, li in enumerate(leads):
        for j, lj in enumerate(leads):
            if i != j and len(li) <= len(lj):
                assert lj[len(lj) - len(li):] != li


def test_normal_form_idempotent_and_linear():
    basis = _basis_for(CUBIC_GENS)
    rng = random.Random(31)
    for _ in range(30):
        p = rand_poly(rng, 1, 4, nterms=5)
        q = rand_poly(rng, 1, 4, nterms=5)
        nfp = basis.normal_form(p)
        assert basis.normal_form(nfp) == nfp
        assert basis.normal_form(p + q) == nfp + basis.normal_form(q)
        assert basis.normal_form(Fraction(-3, 2) * p) == Fraction(-3, 2) * nfp
        assert all(basis.is_irreducible_word(w) for w in nfp.terms)


def test_membership_of_left_multiples():
    gens = parse_generators(CUBIC_GENS)
    basis = left_groebner(gens)
    rng = random.Random(32)
    for _ in range(20):
        member = Poly.zero(1)
        for b in gens:
            member = member + rand_poly(rng, 1, 2, nterms=3) * b
        assert basis.contains(member)
    assert not basis.contains(parse_poly("x1"))
    assert not basis.contains(parse_poly("x1* + 1"))
    assert basis.contains(Poly.zero(1))


def test_basis_elements_represented_over_generators():
    gens = parse_generators(CUBIC_GENS)
    basis = left_groebner(gens)
    for i, elt in enumerate(basis.elements):
        rep = basis.reps[i]
        assert len(rep) == len(gens)
        combo = Poly.zero(1)
        for c, b in zip(rep, gens):
            combo = combo + c * b
        assert combo == elt


def test_irreducible_words_are_normal_forms():
    basis = _basis_for(CUBIC_GENS)
    for w in words_up_to(1, 4, basis.order):
        mono = Poly.from_word(1, w)
        assert basis.is_irreducible_word(w) == (basis.normal_form(mono) == mono)


def _span_dim(polys, e, order):
    cols = {w: i for i, w in enumerate(words_up_to(polys[0].g, e, order))}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(cols)
        for w, c in p.terms.items():
            row[cols[w]] = c
        rows.append(row)
    return rank_exact(rows)


@pytest.mark.parametrize("text,g", [(CUBIC_GENS, 1), ("x1 x2 - 1\nx2 x1* + x2", 2)])
def test_truncated_basis_spans_low_degree_slice(text, g):
    # dim(I cap P_{<=e}) equals: all words minus irreducible words, because
    # the normal-form map is a linear projection with kernel I cap P_{<=e}
    basis = _basis_for(text)
    order = basis.order
    for e in range(max(p.degree() for p in basis.elements), 5):
        trunc = truncated_basis(basis, e)
        assert all(p.degree() <= e for p in trunc)
        assert all(basis.contains(p) for p in trunc)
        total = sum(1 for _ in words_up_to(g, e, order))
        irred = sum(1 for w in words_up_to(g, e, order) if basis.is_irreducible_word(w))
        assert _span_dim(trunc, e, order) == total - irred


def test_truncation_below_basis_degree_rejected():
    basis = _basis_for(CUBIC_GENS)
    with pytest.raises(ValueError):
        truncated_basis(basis, 2)


def test_unit_ideal_collapses_to_one():
    basis = _basis_for("x1\nx1 + 1")
    assert len(basis.elements) == 1
    assert basis.elements[0] == Poly.constant(1, Fraction(1))
    assert basis.contains(parse_poly("x1* x1 - 7"))


def test_zero_generators_give_zero_ideal():
    basis = left_groebner([Poly.zero(1), Poly.zero(1)])
    assert len(basis.elements) == 0
    p = parse_poly("x1 + 2")
    assert basis.normal_form(p) == p
    assert not basis.contains(p)
    assert basis.contains(Poly.zero(1))


def test_custom_order_changes_leads_not_ideal():
    gens = parse_generators("x1 + x1*\nx1* x1 - 1")
    default = left_groebner(gens)
    flipped = left_groebner(gens, order=MonomialOrder(1, ranking=[1, 0]))
    assert default.leads != flipped.leads
    rng = random.Random(34)
    for _ in range(20):
        member = rand_poly(rng, 1, 2) * gens[0] + rand_poly(rng, 1, 2) * gens[1]
        assert default.contains(member) and flipped.contains(member)
        outsider = member + parse_poly("x1* + 3")
        assert default.contains(outsider) == flipped.contains(outsider)


def test_generator_validation():
    with pytest.raises(ValueError):
        left_groebner([])
    with pytest.raises(ValueError):
        left_groebner([parse_poly("x1"), Poly.gen(2, 1)])


def test_order_over_fewer_variables_is_rejected():
    gens = [parse_poly("x1 x2* + x2 x1* + 1")]
    with pytest.raises(ValueError, match="order ranks 1 variable"):
        left_groebner(gens, order=MonomialOrder(1))
    # an order over more variables ranks every letter the generators use
    wide = left_groebner(gens, order=MonomialOrder(3))
    assert wide.elements == left_groebner(gens).elements
