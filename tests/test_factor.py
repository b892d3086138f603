import random
from fractions import Fraction

import pytest

from ncreal.algebra import MonomialOrder, Poly
from ncreal.factor import (
    factor_homogeneous,
    is_irreducible_homogeneous,
    rank_one_split,
)
from ncreal.parsing import parse_poly

from util import (
    dense_factor_homogeneous,
    dense_rank_one_split,
    rand_coeff,
    rand_homogeneous,
    rand_irreducible,
    rand_linear_factor,
    rand_product,
    scalar_multiple_of,
)


def test_rank_one_split_basic():
    p = parse_poly("x1 x2 + x1 x1", g=2)  # x1 (x1 + x2)
    got = rank_one_split(p, 1)
    assert got is not None
    p1, p2 = got
    assert p1 * p2 == p
    assert p1.degree() == 1 and p2.degree() == 1


def test_rank_one_split_refuses_full_rank():
    assert rank_one_split(parse_poly("x1^2 + x1*^2"), 1) is None
    assert rank_one_split(parse_poly("x1 x1* - x1* x1"), 1) is None
    with pytest.raises(ValueError):
        rank_one_split(parse_poly("x1"), 1)
    with pytest.raises(ValueError):
        rank_one_split(Poly.zero(1), 1)


def test_irreducibility_of_degree_one():
    rng = random.Random(73)
    for _ in range(30):
        f = rand_linear_factor(rng, 2)
        assert is_irreducible_homogeneous(f)


def test_known_irreducibles():
    assert is_irreducible_homogeneous(parse_poly("x1^2 + x1*^2"))
    assert is_irreducible_homogeneous(parse_poly("x1 x1* - x1* x1"))
    assert not is_irreducible_homogeneous(parse_poly("x1 x1*"))
    assert not is_irreducible_homogeneous(parse_poly("x1^2"))


def test_factor_monomials():
    fac = factor_homogeneous(parse_poly("6 x1 x2* x2", g=2))
    assert fac.scalar == 6
    assert [str(f) for f in fac.factors] == ["x1", "x2*", "x2"]
    assert fac.product(2) == parse_poly("6 x1 x2* x2", g=2)


def test_factor_round_trip_random_products():
    rng = random.Random(79)
    order = MonomialOrder(2)
    for _ in range(60):
        k = rng.randint(1, 4)
        factors = [rand_linear_factor(rng, 2, order) for _ in range(k)]
        c = rand_coeff(rng)
        p = Poly.constant(2, c)
        for f in factors:
            p = p * f
        fac = factor_homogeneous(p, order)
        assert fac.scalar == c
        assert fac.factors == factors
        assert fac.product(2) == p


def test_factor_with_higher_degree_irreducibles():
    rng = random.Random(83)
    order = MonomialOrder(1)
    for _ in range(20):
        parts = []
        for _ in range(rng.randint(1, 2)):
            parts.append(rand_irreducible(rng, 1, rng.randint(1, 2), order))
        p = Poly.one(1)
        for f in parts:
            p = p * f
        fac = factor_homogeneous(p, order)
        assert fac.factors == parts
        assert fac.scalar == 1


def test_factor_rejects_nonhomogeneous_and_constants():
    with pytest.raises(ValueError):
        factor_homogeneous(parse_poly("x1 + 1"))
    with pytest.raises(ValueError):
        factor_homogeneous(Poly.zero(1))
    with pytest.raises(ValueError):
        factor_homogeneous(Poly.constant(1, Fraction(5, 2)))


def test_factor_scalar_invariance():
    rng = random.Random(89)
    for _ in range(20):
        f = rand_linear_factor(rng, 2)
        g = rand_linear_factor(rng, 2)
        p = f * g
        fac1 = factor_homogeneous(p)
        fac7 = factor_homogeneous(7 * p)
        assert fac7.factors == fac1.factors
        assert fac7.scalar == 7 * fac1.scalar


def test_scalar_multiple_of():
    p = parse_poly("x1 x2 + x1 x1", g=2)
    assert scalar_multiple_of(3 * p, p) == 3
    assert scalar_multiple_of(p, 3 * p) == Fraction(1, 3)
    assert scalar_multiple_of(p, p + Poly.one(2)) is None
    assert scalar_multiple_of(Poly.zero(2), p) == 0
    assert scalar_multiple_of(Poly.zero(2), Poly.zero(2)) == 1


def _random_homogeneous_cases(rng, count):
    """Seeded homogeneous polynomials, g in {1, 2, 3}, degree 2-6 (2-5 at
    g = 3, where one dense degree-6 Gram matrix has 46,656 entries): random
    sums of terms and scaled products of irreducibles, some starting with f f*."""
    out = []
    for case in range(count):
        g = rng.randint(1, 3)
        d = rng.randint(2, 6 if g < 3 else 5)
        if case % 3 == 0:
            out.append(rand_homogeneous(rng, g, d, nterms=rng.randint(1, 5)))
        else:
            out.append(rand_product(rng, g, d, star_pair=case % 3 == 2))
    return out


def _same_fractions(p, q):
    return p.terms == q.terms and all(type(c) is Fraction for c in (*p.terms.values(), *q.terms.values()))


def test_rank_one_split_matches_the_dense_gram_oracle():
    rng = random.Random(97)
    splits = 0
    for p in _random_homogeneous_cases(rng, 90):
        for d1 in range(1, p.degree()):
            got, want = rank_one_split(p, d1), dense_rank_one_split(p, d1)
            assert (got is None) == (want is None), (str(p), d1)
            if got is not None:
                splits += 1
                assert _same_fractions(got[0], want[0]) and _same_fractions(got[1], want[1])
    assert splits > 100


def test_factor_homogeneous_matches_the_dense_gram_oracle():
    rng = random.Random(101)
    # a degree-6 product at g = 3 as well: the dense oracle's largest Gram matrix is 6 x 7,776
    cases = _random_homogeneous_cases(rng, 60) + [
        rand_linear_factor(rng, 3) ** 2 * rand_irreducible(rng, 3, 2) * rand_irreducible(rng, 3, 2)
    ]
    for p in cases:
        fac = factor_homogeneous(p)
        scalar, factors = dense_factor_homogeneous(p)
        assert fac.scalar == scalar and type(fac.scalar) is Fraction
        assert len(fac.factors) == len(factors)
        assert all(_same_fractions(f, h) for f, h in zip(fac.factors, factors))
