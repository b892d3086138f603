"""Matrix evaluation: *-representation property, vectors, joint kernels."""

import json
import random

import numpy as np
import pytest

from ncreal.algebra import Poly, word_star
from ncreal.evaluation import MatrixPoint, apply_to_vector, common_kernel, evaluate
from ncreal.parsing import parse_poly

from util import rand_poly, rand_word


def _rand_point(rng, g, n, with_vector=False):
    mats = [np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]) for _ in range(g)]
    v = np.array([rng.uniform(-2, 2) for _ in range(n)]) if with_vector else None
    return MatrixPoint(mats, v)


def test_evaluate_matches_manual_products():
    X = np.array([[1.0, 2.0], [0.0, 1.0]])
    Y = np.array([[0.0, 1.0], [1.0, 0.0]])
    point = MatrixPoint([X, Y])
    assert np.allclose(evaluate(parse_poly("x1 x2"), point), X @ Y)
    assert np.allclose(evaluate(parse_poly("x2* x1"), point), Y.T @ X)
    assert np.allclose(evaluate(parse_poly("x1^2 - 3 x2 + 1"), point), X @ X - 3 * Y + np.eye(2))
    assert np.allclose(evaluate(Poly.zero(2), point), np.zeros((2, 2)))


def test_evaluation_is_star_representation():
    rng = random.Random(41)
    for _ in range(25):
        g = rng.randint(1, 3)
        point = _rand_point(rng, g, rng.randint(2, 4))
        p = rand_poly(rng, g, 3, nterms=4)
        q = rand_poly(rng, g, 3, nterms=4)
        assert np.allclose(evaluate(p + q, point), evaluate(p, point) + evaluate(q, point))
        assert np.allclose(evaluate(p * q, point), evaluate(p, point) @ evaluate(q, point))
        assert np.allclose(evaluate(p.star(), point), evaluate(p, point).T)
        w = rand_word(rng, g, 3)
        assert np.allclose(
            evaluate(Poly.from_word(g, word_star(w)), point),
            evaluate(Poly.from_word(g, w), point).T,
        )


def test_apply_to_vector():
    rng = random.Random(42)
    point = _rand_point(rng, 2, 3, with_vector=True)
    p = rand_poly(rng, 2, 3, nterms=5)
    assert np.allclose(apply_to_vector(p, point), evaluate(p, point) @ point.vector)
    no_vec = MatrixPoint(point.matrices)
    with pytest.raises(ValueError):
        apply_to_vector(p, no_vec)


def test_point_validation():
    with pytest.raises(ValueError):
        MatrixPoint([])
    with pytest.raises(ValueError):
        MatrixPoint([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        MatrixPoint([np.eye(2)], np.ones(3))
    with pytest.raises(ValueError):
        evaluate(parse_poly("x2"), MatrixPoint([np.eye(2)]))
    # polynomials in fewer variables than the point are fine
    assert np.allclose(evaluate(parse_poly("x1"), MatrixPoint([np.eye(2), np.eye(2)])), np.eye(2))


def test_point_from_json():
    text = json.dumps({"n": 2, "X": [[[1, 2], [3, 4]], [[0, 1], [1, 0]]], "v": [1, -1]})
    point = MatrixPoint.from_json(text)
    assert point.g == 2 and point.n == 2
    assert np.allclose(point.matrices[0], [[1, 2], [3, 4]])
    assert np.allclose(point.vector, [1, -1])
    no_vec = MatrixPoint.from_json(json.dumps({"X": [[[2]]]}))
    assert no_vec.vector is None and no_vec.n == 1
    with pytest.raises(ValueError):
        MatrixPoint.from_json(json.dumps({"n": 3, "X": [[[1, 0], [0, 1]]]}))


def test_a_first_matrix_that_is_not_2d_is_rejected_by_its_shape():
    with pytest.raises(ValueError, match=r"matrices must be square, got shape \(\)"):
        MatrixPoint([5.0])
    with pytest.raises(ValueError, match=r"malformed point: matrices must be square, got shape \(1,\)"):
        MatrixPoint.from_json('{"X": [[5]]}')
    with pytest.raises(ValueError, match=r"malformed point: matrices must be square, got shape \(\)"):
        MatrixPoint.from_json('{"X": [5]}')


@pytest.mark.parametrize("n", [2.7, 2.0, "2", True, None, [2]])
def test_point_from_json_rejects_an_n_that_is_not_an_int(n):
    text = json.dumps({"n": n, "X": [[[1, 0], [0, 1]]]})
    with pytest.raises(ValueError, match='malformed point: "n" must be an integer'):
        MatrixPoint.from_json(text)


def test_common_kernel_of_constructed_matrices():
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randint(3, 5)
        k = np.array([rng.uniform(-1, 1) for _ in range(n)])
        k /= np.linalg.norm(k)
        proj = np.eye(n) - np.outer(k, k)
        mats = [
            np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]) @ proj
            for _ in range(3)
        ]
        K = common_kernel(mats)
        assert K.shape[1] >= 1
        for M in mats:
            assert np.linalg.norm(M @ K) <= 1e-8 * np.linalg.norm(M)
        # the constructed direction lies in the returned span
        assert np.linalg.norm(K @ (K.T @ k) - k) <= 1e-8


def test_common_kernel_empty_and_degenerate():
    rng = random.Random(44)
    n = 4
    mats = [np.eye(n) + 0.01 * np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])]
    assert common_kernel(mats).shape == (n, 0)
    assert common_kernel([np.zeros((n, n))]).shape == (n, n)
    with pytest.raises(ValueError):
        common_kernel([])
