import random
from fractions import Fraction

import pytest

from ncreal.algebra import (
    MonomialOrder,
    Poly,
    iter_words,
    letter,
    letter_str,
    letter_var,
    shrink_length,
    word_star,
    word_str,
    words_of_degree,
    words_up_to,
)
from ncreal.factor import factor_homogeneous, is_irreducible_homogeneous, rank_one_split
from ncreal.gram import is_sos_homogeneous, pm_sos_kind
from ncreal.parsing import parse_poly, poly_str
from ncreal.realness import real_principal_homogeneous, realness_prefilter_principal

from util import (
    brute_shrinkable,
    greater,
    is_antianalytic,
    rand_poly,
    rand_word,
    sorted_words_of_degree,
)


def test_letter_codes():
    assert letter(1) == 0 and letter(1, True) == 1
    assert letter(2) == 2 and letter(2, True) == 3
    for code in range(8):
        assert letter(letter_var(code), bool(code & 1)) == code
    assert letter_str(0) == "x1" and letter_str(3) == "x2*"


def test_letter_rejects_variable_index_below_1():
    with pytest.raises(ValueError, match="variable index must be >= 1, got 0"):
        letter(0)


def test_word_star_involution_and_antihomomorphism():
    rng = random.Random(7)
    for _ in range(200):
        u = rand_word(rng, 3, rng.randint(0, 6))
        v = rand_word(rng, 3, rng.randint(0, 6))
        assert word_star(word_star(u)) == u
        assert word_star(u + v) == word_star(v) + word_star(u)


def test_word_str_groups_powers():
    assert word_str(()) == "1"
    assert word_str((0, 0, 1, 2)) == "x1^2 x1* x2"
    assert word_str((3, 3, 3)) == "x2*^3"


def test_default_order_ranking():
    order = MonomialOrder(2)
    # degree first, then x1 > x1* > x2 > x2* read left to right
    assert greater(order, (0, 0), (1,))
    assert greater(order, (0,), (1,))
    assert greater(order, (1,), (2,))
    assert greater(order, (2,), (3,))
    assert greater(order, (0, 1), (0, 2))
    assert not greater(order, (0,), (0,))


def test_order_is_left_and_right_compatible():
    rng = random.Random(11)
    order = MonomialOrder(2)
    for _ in range(300):
        u = rand_word(rng, 2, rng.randint(1, 4))
        v = rand_word(rng, 2, rng.randint(1, 4))
        w = rand_word(rng, 2, rng.randint(0, 3))
        if greater(order, u, v):
            assert greater(order, w + u, w + v)
            assert greater(order, u + w, v + w)


def test_custom_ranking():
    order = MonomialOrder(1, ranking=[1, 0])  # x1* above x1
    assert greater(order, (1,), (0,))
    assert order.max_word([(0,), (1,)]) == (1,)
    with pytest.raises(ValueError):
        MonomialOrder(1, ranking=[0, 0])


def test_order_needs_a_variable_and_reads_as_its_ranking():
    with pytest.raises(ValueError, match="need at least one variable, got g=0"):
        MonomialOrder(0)
    assert repr(MonomialOrder(2)) == "MonomialOrder(g=2, x1 > x1* > x2 > x2*)"
    assert repr(MonomialOrder(1, ranking=[1, 0])) == "MonomialOrder(g=1, x1* > x1)"


def test_words_of_degree_counts_and_sorting():
    order = MonomialOrder(2)
    for d in range(4):
        ws = words_of_degree(2, d)
        assert len(ws) == 4**d
        assert len(set(ws)) == len(ws)
        for a, b in zip(ws, ws[1:]):
            assert greater(order, a, b)
    upto = words_up_to(2, 3)
    assert len(upto) == 1 + 4 + 16 + 64
    degs = [len(w) for w in upto]
    assert degs == sorted(degs)


def test_words_of_degree_matches_sorting_by_the_order_key():
    rng = random.Random(12)
    for _ in range(20):
        g = rng.randint(1, 3)
        ranking = list(range(2 * g))
        rng.shuffle(ranking)
        order = MonomialOrder(g, ranking)
        for d in range(4):
            ws = words_of_degree(g, d, order)
            # letter_key orders the words of one length as key does
            assert ws == sorted_words_of_degree(g, d, order) == sorted(ws[::-1], key=order.letter_key)
    # an order may rank more letters than the algebra has; those never occur
    assert words_of_degree(1, 2, MonomialOrder(2)) == words_of_degree(1, 2)
    assert words_of_degree(1, 2, MonomialOrder(2, [3, 1, 2, 0])) == [(1, 1), (1, 0), (0, 1), (0, 0)]
    # one that ranks fewer would drop the letters it does not rank
    with pytest.raises(ValueError, match="order ranks 1 variable"):
        words_of_degree(2, 1, MonomialOrder(1))


SYMMETRIC = "x1 x2* + x2 x1*"
PRODUCT = "x1 x2* x2 x1*"


@pytest.mark.parametrize("call, text", [
    (is_sos_homogeneous, SYMMETRIC),
    (pm_sos_kind, SYMMETRIC),
    (factor_homogeneous, PRODUCT),
    (lambda p, order: rank_one_split(p, 2, order), PRODUCT),
    (is_irreducible_homogeneous, PRODUCT),
    (is_irreducible_homogeneous, "x2"),  # degree 1: no split to try
    (poly_str, PRODUCT),
    (Poly.leading_word, PRODUCT),
    (Poly.leading_coeff, PRODUCT),
    (Poly.monic, PRODUCT),
    (real_principal_homogeneous, PRODUCT),
    (realness_prefilter_principal, PRODUCT + " + 1"),
], ids=["is_sos_homogeneous", "pm_sos_kind", "factor_homogeneous", "rank_one_split",
        "is_irreducible_homogeneous", "is_irreducible_homogeneous_degree_1", "poly_str",
        "leading_word", "leading_coeff", "monic", "real_principal_homogeneous",
        "realness_prefilter_principal"])
def test_every_entry_point_rejects_an_order_over_fewer_variables(call, text):
    # one range check (checked_order) for every entry point that takes an order
    with pytest.raises(ValueError, match="order ranks 1 variable"):
        call(parse_poly(text, 2), MonomialOrder(1))


def test_iter_words_matches_words_up_to():
    assert list(iter_words(2, 3)) == words_up_to(2, 3)


def test_poly_basic_arithmetic():
    x = Poly.gen(1, 1)
    xs = x.star()
    p = x * xs - xs * x - 1
    assert p.coefficient((0, 1)) == 1
    assert p.coefficient((1, 0)) == -1
    assert p.constant_coeff() == -1
    assert p.degree() == 2
    assert (p - p) == Poly.zero(1)
    assert not (p - p)
    assert Poly.zero(1).degree() is None
    assert (2 * x - x - x) == Poly.zero(1)
    assert x**3 == x * x * x
    assert x**0 == Poly.one(1)
    assert 3 - x == Poly.constant(1, 3) - x and (3 - x).coefficient((0,)) == -1
    assert Fraction(1, 2) - p == -p + Fraction(1, 2)
    assert Poly.constant(1, 3) == 3 and x != 3 and Poly.zero(1) == Fraction(0)
    with pytest.raises(ValueError, match="negative powers"):
        x**-1


def test_poly_needs_a_variable_and_reads_as_its_string():
    with pytest.raises(ValueError, match="need at least one variable, got g=0"):
        Poly(0)
    x = Poly.gen(1, 1)
    assert repr(x * x.star() - 2) == "Poly(x1 x1* - 2)"
    assert repr(Poly.zero(2)) == "Poly(0)"


def test_poly_mixed_g_rejected():
    with pytest.raises(ValueError):
        Poly.gen(1, 1) + Poly.gen(2, 2)
    with pytest.raises(ValueError):
        Poly(1, {(2,): 1})  # letter x2 outside g=1


def test_star_is_an_antiautomorphism():
    rng = random.Random(3)
    for _ in range(100):
        p = rand_poly(rng, 2, 3)
        q = rand_poly(rng, 2, 3)
        assert (p * q).star() == q.star() * p.star()
        assert (p + q).star() == p.star() + q.star()
        assert p.star().star() == p
    sym = p + p.star()
    assert sym.is_symmetric()


def test_ring_axioms_spot_check():
    rng = random.Random(19)
    for _ in range(50):
        a = rand_poly(rng, 2, 2)
        b = rand_poly(rng, 2, 2)
        c = rand_poly(rng, 2, 2)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_homogeneous_parts_sum_back():
    rng = random.Random(23)
    for _ in range(50):
        p = rand_poly(rng, 2, 4, nterms=6)
        if not p:
            continue
        total = Poly.zero(2)
        for d in range(p.degree() + 1):
            part = p.homogeneous_part(d)
            if part:
                assert part.is_homogeneous()
            total = total + part
        assert total == p


def test_leading_data_and_monic():
    order = MonomialOrder(1)
    x = Poly.gen(1, 1)
    xs = x.star()
    p = 3 * x * xs + 2 * xs * x + x
    assert p.leading_word(order) == (0, 1)
    assert p.leading_coeff(order) == 3
    assert p.monic(order).leading_coeff(order) == 1
    assert p.leading_part() == 3 * x * xs + 2 * xs * x
    assert p.monic(order) * 3 == p


def test_zero_has_no_leading_word_and_is_its_own_leading_part():
    zero = Poly.zero(1)
    with pytest.raises(ValueError, match="the zero polynomial has no leading word"):
        zero.leading_word(MonomialOrder(1))
    with pytest.raises(ValueError):
        zero.leading_coeff(MonomialOrder(1))
    assert zero.leading_part() == zero and not zero.leading_part()


def test_relabel_variable():
    p = Poly.gen(3, 2) * Poly.gen(3, 2, star=True) + 5
    q = p.relabel_variable(2, 1, g=1)
    x = Poly.gen(1, 1)
    assert q == x * x.star() + 5
    assert q.relabel_variable(1, 2, g=3) == p


def test_variables_used():
    p = Poly.gen(3, 1) + Poly.gen(3, 3, star=True)
    assert p.variables_used() == {1, 3}
    assert p.is_analytic() is False
    assert Poly.gen(2, 1).is_analytic()
    assert is_antianalytic(Poly.gen(2, 1, star=True))


def test_shrinkability_against_definition_scan():
    for w in iter_words(1, 5):
        if not w:
            continue
        assert (shrink_length(w) is None) == (not brute_shrinkable(w))
    rng = random.Random(5)
    for _ in range(300):
        w = rand_word(rng, 2, rng.randint(1, 7))
        assert (shrink_length(w) is None) == (not brute_shrinkable(w))


def test_shrink_length_is_minimal_and_consistent():
    assert shrink_length((0, 1)) == 1            # x x*
    assert shrink_length((1, 0)) == 1            # x* x
    assert shrink_length((0, 1, 3)) == 1
    assert shrink_length((0,)) is None
    assert shrink_length((0, 0)) is None
    rng = random.Random(13)
    for _ in range(300):
        w = rand_word(rng, 2, rng.randint(1, 8))
        k = shrink_length(w)
        if k is None:
            assert not brute_shrinkable(w)
            continue
        assert word_star(w[:k]) == w[k : 2 * k]
        for j in range(1, k):
            assert word_star(w[:j]) != w[j : 2 * j]
