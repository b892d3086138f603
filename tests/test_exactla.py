import random
from fractions import Fraction

import numpy as np
import pytest

from ncreal.exactla import (
    ExactAffineSystem,
    Inconsistent,
    psd_check_exact,
    to_fraction_matrix,
)

from util import rank_exact


def _rand_int_matrix(rng, n, m=None, lo=-4, hi=4):
    m = n if m is None else m
    return [[Fraction(rng.randint(lo, hi)) for _ in range(m)] for _ in range(n)]


def _sym_product(A):
    """A^T A as Fractions: positive semidefinite by construction."""
    n = len(A[0])
    return [
        [sum(A[k][i] * A[k][j] for k in range(len(A))) for j in range(n)]
        for i in range(n)
    ]


def _reconstructs(res, M):
    """Check M[perm[i]][perm[j]] == sum_k L[i][k] D[k] L[j][k]."""
    n = len(M)
    for i in range(n):
        for j in range(n):
            s = sum(
                res.lower[i][k] * res.diag[k] * res.lower[j][k] for k in range(n)
            )
            if M[res.perm[i]][res.perm[j]] != s:
                return False
    return True


def test_psd_identity_and_diagonal():
    res = psd_check_exact([[1, 0], [0, 2]])
    assert res.is_psd
    assert res.diag == [1, 2]
    assert _reconstructs(res, to_fraction_matrix([[1, 0], [0, 2]]))


def test_psd_needs_pivoting():
    # zero leading diagonal entry with a positive one below
    M = to_fraction_matrix([[0, 0], [0, 4]])
    res = psd_check_exact(M)
    assert res.is_psd
    assert _reconstructs(res, M)
    M2 = to_fraction_matrix([[1, 1], [1, 2]])
    res2 = psd_check_exact(M2)
    assert res2.is_psd
    assert _reconstructs(res2, M2)


def test_psd_zero_diagonal_with_offdiagonal_is_not_psd():
    M = to_fraction_matrix([[0, 1], [1, 0]])
    res = psd_check_exact(M)
    assert not res.is_psd
    w = res.witness
    val = sum(w[i] * M[i][j] * w[j] for i in range(2) for j in range(2))
    assert val < 0


def test_psd_random_gram_matrices():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        A = _rand_int_matrix(rng, rng.randint(1, 5), n)
        M = _sym_product(A)
        res = psd_check_exact(M)
        assert res.is_psd
        assert all(d >= 0 for d in res.diag)
        assert _reconstructs(res, M)


def test_psd_witness_on_random_indefinite():
    rng = random.Random(37)
    found = 0
    for _ in range(120):
        n = rng.randint(2, 5)
        M = _rand_int_matrix(rng, n)
        for i in range(n):
            for j in range(i):
                M[i][j] = M[j][i]
        res = psd_check_exact(M)
        ev = np.linalg.eigvalsh(np.array(M, dtype=float))
        if res.is_psd:
            assert ev.min() > -1e-9
            assert _reconstructs(res, M)
        else:
            found += 1
            w = res.witness
            val = sum(w[i] * M[i][j] * w[j] for i in range(n) for j in range(n))
            assert val < 0
    assert found > 40  # random symmetric integer matrices are mostly indefinite


def test_rank_exact_matches_numpy():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        r = rng.randint(0, min(n, m))
        # build a matrix of known rank r
        B = _rand_int_matrix(rng, n, r) if r else [[Fraction(0)] * 0 for _ in range(n)]
        C = _rand_int_matrix(rng, r, m)
        M = [
            [sum(B[i][k] * C[k][j] for k in range(r)) for j in range(m)]
            for i in range(n)
        ]
        assert rank_exact(M) <= r
        assert rank_exact(M) == np.linalg.matrix_rank(np.array(M, dtype=float))


def test_affine_system_pins_and_expressions():
    sys = ExactAffineSystem()
    sys.add_row({"a": Fraction(1), "b": Fraction(1)}, Fraction(3))
    sys.add_row({"b": Fraction(1)}, Fraction(1))
    assert sys.pinned_value("b") == 1
    assert sys.pinned_value("a") == 2
    expr, c0 = sys.expression("a")
    assert expr == {} and c0 == 2


def test_affine_system_free_variables_and_evaluate():
    sys = ExactAffineSystem()
    sys.add_row({"x": Fraction(1), "y": Fraction(2), "z": Fraction(-1)}, Fraction(4))
    free = sys.free_variables()
    assert len(free) == 2
    assign = {v: Fraction(i + 1) for i, v in enumerate(free)}
    vals = {v: sys.evaluate(v, assign) for v in ("x", "y", "z")}
    assert vals["x"] + 2 * vals["y"] - vals["z"] == 4


def test_affine_system_detects_inconsistency():
    sys = ExactAffineSystem()
    sys.add_row({"a": Fraction(1)}, Fraction(1))
    with pytest.raises(Inconsistent):
        sys.add_row({"a": Fraction(2)}, Fraction(3))
    sys2 = ExactAffineSystem()
    with pytest.raises(Inconsistent):
        sys2.add_row({}, Fraction(1))  # 0 = 1


def test_affine_system_priority_and_copy():
    plain = ExactAffineSystem()
    sys = ExactAffineSystem(priority=lambda v: 0 if v.startswith("q") else 1)
    for s in (plain, sys):
        s.add_row({"g1": 1, "q1": 1}, 2)
    # first mention pivots on g1, which then depends on q1
    assert plain.expression("g1") == ({"q1": Fraction(-1)}, Fraction(2))
    assert sys.expression("q1") == ({"g1": Fraction(-1)}, Fraction(2))
    sys.add_row({"g1": 1, "g2": 1, "q1": -1}, 0)
    # q first: the solved g1 involves free g unknowns only
    assert set(sys.solved) == {"q1", "g1"}
    assert sys.expression("g1") == ({"g2": Fraction(-1, 2)}, Fraction(1))
    assert sys.expression("q1") == ({"g2": Fraction(1, 2)}, Fraction(1))
    other = sys.copy()
    other.add_row({"g2": 1}, 4)
    assert other.pinned_value("g1") == -1 and other.pinned_value("q1") == 3
    assert sys.pinned_value("g2") is None
    assert sys.expression("g1") == ({"g2": Fraction(-1, 2)}, Fraction(1))
    with pytest.raises(Inconsistent) as exc:
        other.add_row({"g1": 2, "q1": 2}, 5)
    assert exc.value.const == 1
    assert not sys.inconsistent


def test_affine_system_random_consistency():
    rng = random.Random(43)
    for _ in range(30):
        nvars = rng.randint(1, 5)
        names = [f"v{i}" for i in range(nvars)]
        target = {v: Fraction(rng.randint(-3, 3)) for v in names}
        sys = ExactAffineSystem()
        rows = []
        for _ in range(rng.randint(1, 6)):
            row = {
                v: Fraction(rng.randint(-2, 2))
                for v in names
                if rng.random() < 0.7
            }
            rhs = sum(c * target[v] for v, c in row.items())
            rows.append((row, rhs))
            sys.add_row(dict(row), rhs)  # consistent by construction
        free = [v for v in names if v not in sys.solved]
        assign = {v: target[v] for v in free}
        sol = {v: sys.evaluate(v, assign) for v in names}
        for row, rhs in rows:
            assert sum(c * sol[v] for v, c in row.items()) == rhs
