import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ncreal.algebra import MonomialOrder, Poly, words_of_degree
from ncreal.gram import (
    decompose_quadratic_univariate,
    is_sos_homogeneous,
    pm_sos_kind,
    quad_coeffs,
    quad_poly,
    sos_quadratic_univariate,
)
from ncreal.parsing import parse_poly

from util import dense_pm_sos_kind, gram_matrix, rand_homogeneous, rand_poly


def test_gram_matrix_reconstructs():
    rng = random.Random(47)
    for _ in range(60):
        g = rng.randint(1, 2)
        d = rng.randint(2, 4)
        d1 = rng.randint(1, d - 1)
        p = rand_homogeneous(rng, g, d)
        gm = gram_matrix(p, d1, d - d1)
        assert gm.reconstruct() == p
        assert gm.row_words == words_of_degree(g, d1)
        assert gm.col_words == words_of_degree(g, d - d1)


def test_gram_matrix_entry_convention():
    # p = x1 x2  ->  entry 1 at (row word_star(x1), col x2) = (x1*, x2)
    p = parse_poly("x1 x2", g=2)
    gm = gram_matrix(p, 1, 1)
    i = gm.row_words.index((1,))
    j = gm.col_words.index((2,))
    assert gm.entries[i][j] == 1
    assert sum(bool(a) for row in gm.entries for a in row) == 1


def test_sos_accepts_squares_with_certificate():
    rng = random.Random(53)
    for _ in range(40):
        g = rng.randint(1, 2)
        d = rng.randint(1, 2)
        qs = [rand_homogeneous(rng, g, d) for _ in range(rng.randint(1, 3))]
        p = Poly.zero(g)
        for q in qs:
            p = p + q.star() * q
        res = is_sos_homogeneous(p)
        assert res
        cert = res.certificate
        assert all(w > 0 for w in cert.weights)
        assert cert.expand(g) == p


def test_sos_rejects_with_exact_witness():
    for text in ["x1^2 + x1*^2", "x1 x1* - x1* x1", "-x1 x1*", "x1 x2* + x2 x1*"]:
        p = parse_poly(text, g=2)
        res = is_sos_homogeneous(p)
        assert not res
        if res.witness is not None:
            # witness v has v^T A v < 0 for the (d,d)-Gram matrix A
            d = p.degree() // 2
            gm = gram_matrix(p, d, d)
            w = res.witness
            val = sum(
                w[i] * gm.entries[i][j] * w[j]
                for i in range(len(w))
                for j in range(len(w))
            )
            assert val < 0


def test_sos_odd_degree_and_asymmetric_rejected():
    assert not is_sos_homogeneous(parse_poly("x1 x1* x1"))
    assert not is_sos_homogeneous(parse_poly("x1 x2", g=2))
    with pytest.raises(ValueError):
        is_sos_homogeneous(parse_poly("x1*^2 x1^2") - parse_poly("x1 x1*"))


def test_pm_sos_kind_cases():
    kind, cert = pm_sos_kind(Poly.zero(1))
    assert kind == "zero" and cert is None
    p = parse_poly("x1 x1* + x1* x1")
    kind, cert = pm_sos_kind(p)
    assert kind == "plus" and cert.expand(1) == p
    kind, cert = pm_sos_kind(-p)
    assert kind == "minus" and cert.expand(1) == p
    kind, cert = pm_sos_kind(parse_poly("x1^2 + x1*^2"))
    assert kind == "neither" and cert is None
    with pytest.raises(ValueError):
        pm_sos_kind(parse_poly("x1^2"))  # not symmetric


def test_quad_poly_coeffs_round_trip():
    rng = random.Random(59)
    for _ in range(100):
        b = tuple(Fraction(rng.randint(-3, 3)) for _ in range(5))
        p = quad_poly(*b)
        assert quad_coeffs(p) == b
    with pytest.raises(ValueError):
        quad_coeffs(parse_poly("x1^2"))  # not symmetric
    with pytest.raises(ValueError):
        quad_coeffs(parse_poly("x1^3 + x1*^3"))


def test_sos_quadratic_closed_form_known_cases():
    assert sos_quadratic_univariate(1, 0, 0, 1, 1)
    assert sos_quadratic_univariate(0, 0, 0, 1, 0)       # x x*
    assert sos_quadratic_univariate(1, 1, 0, 1, 1)       # (x+1)*(x+1) like
    assert not sos_quadratic_univariate(0, 1, 0, 1, 1)   # linear term, no constant
    assert not sos_quadratic_univariate(1, 0, 1, 0, 0)   # x^2+x*^2 block not psd
    assert not sos_quadratic_univariate(-1, 0, 0, 1, 1)
    assert not sos_quadratic_univariate(1, 2, 0, 1, 1)   # -b1^2 + b0*sigma < 0


def test_sos_quadratic_soundness_on_random_squares():
    # sums of squares of degree-<=1 polynomials must pass the closed form
    rng = random.Random(61)
    x = Poly.gen(1, 1)
    for _ in range(80):
        p = Poly.zero(1)
        for _ in range(rng.randint(1, 3)):
            q = (
                Fraction(rng.randint(-2, 2)) * x
                + Fraction(rng.randint(-2, 2)) * x.star()
                + Fraction(rng.randint(-2, 2))
            )
            p = p + q.star() * q
        b = quad_coeffs(p)
        assert sos_quadratic_univariate(*b)
        cert = decompose_quadratic_univariate(*b)
        assert cert is not None
        assert cert.expand(1) == p
        assert all(w > 0 for w in cert.weights)


def test_decompose_matches_closed_form_on_random_coeffs():
    rng = random.Random(67)
    hits = 0
    for _ in range(200):
        # bias the diagonal entries nonnegative so both outcomes show up often
        b0, b3, b4 = (Fraction(rng.randint(0, 3)) for _ in range(3))
        b1, b2 = (Fraction(rng.randint(-2, 2)) for _ in range(2))
        b = (b0, b1, b2, b3, b4)
        cert = decompose_quadratic_univariate(*b)
        if sos_quadratic_univariate(*b):
            hits += 1
            assert cert is not None
            assert cert.expand(1) == quad_poly(*b)
            assert len(cert.polys) <= 3
        else:
            assert cert is None
    assert 20 < hits < 180


def test_non_sos_quadratic_refuted_at_a_matrix_point():
    # b = (1, 2, 0, 1, 1) fails the closed form; find a 2x2 refutation
    p = quad_poly(1, 2, 0, 1, 1)
    from ncreal.evaluation import MatrixPoint, evaluate

    rng = random.Random(71)
    found = False
    for _ in range(500):
        X = np.array([[rng.uniform(-3, 3) for _ in range(2)] for _ in range(2)])
        val = np.linalg.eigvalsh(evaluate(p, MatrixPoint([X]))).min()
        if val < -1e-8:
            found = True
            break
    assert found


def _symmetric_cases(rng, count):
    """Seeded symmetric homogeneous polynomials, g in {1, 2, 3}, degree 2-6:
    signed sums of hermitian squares, their differences, and P + P^*."""
    out = []
    for case in range(count):
        g = rng.randint(1, 3)
        h = rng.randint(1, 3 if g < 3 else 2)
        squares = [rand_homogeneous(rng, g, h, nterms=rng.randint(1, 4)) for _ in range(2)]
        sos = [q.star() * q for q in squares]
        kind = case % 4
        if kind == 0:
            out.append(sos[0] + Fraction(rng.randint(1, 3)) * sos[1])
        elif kind == 1:
            out.append(-sos[0])
        elif kind == 2:
            out.append(sos[0] - sos[1])
        else:
            p = rand_homogeneous(rng, g, 2 * h, nterms=rng.randint(1, 6))
            out.append(p + p.star())
    return out


def _full_gram_value(p, witness):
    h = p.degree() // 2
    A = gram_matrix(p, h, h).entries
    n = len(A)
    return sum(witness[i] * A[i][j] * witness[j] for i in range(n) for j in range(n))


def test_sos_kinds_match_the_dense_gram_oracle():
    rng = random.Random(103)
    kinds = Counter()
    for p in _symmetric_cases(rng, 120) + [parse_poly("x1 x2* + x2 x1*", g=2)]:
        kind, cert = pm_sos_kind(p)
        assert kind == dense_pm_sos_kind(p), str(p)
        kinds[kind] += 1
        if kind == "plus":
            assert cert.expand(p.g) == p
        elif kind == "minus":
            assert cert.expand(p.g) == -p
        for s in (p, -p):
            res = is_sos_homogeneous(s)
            if not res:
                assert len(res.witness) == len(words_of_degree(p.g, p.degree() // 2))
                assert _full_gram_value(s, res.witness) < 0
    assert min(kinds[k] for k in ("plus", "minus", "neither")) >= 15, kinds


def test_zero_diagonal_in_a_nonzero_row_is_refuted_on_the_full_gram_matrix():
    # the Gram rows of x1 x2* + x2 x1* are x1* and x2*, with zero diagonal
    p = parse_poly("x1 x2* + x2 x1*", g=2)
    res = is_sos_homogeneous(p)
    assert not res and res.reason == "gram matrix not psd"
    words = words_of_degree(2, 1)
    assert len(res.witness) == len(words)
    assert all(not c for u, c in zip(words, res.witness) if u not in {(1,), (3,)})
    assert _full_gram_value(p, res.witness) < 0


def test_sos_witness_under_a_wider_order_has_only_the_algebras_words():
    # MonomialOrder(2) also ranks the letters of x2; a g = 1 witness has none
    p = parse_poly("x1^2 x1*^2 - x1 x1* x1 x1*", g=1)
    res = is_sos_homogeneous(p, MonomialOrder(2))
    assert not res and len(res.witness) == len(words_of_degree(1, 2)) == 4
    assert res.witness == is_sos_homogeneous(p).witness
