import copy
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

from util import FractionAffineSystem, near_psd, rank_exact


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


def test_psd_rejects_a_non_square_or_non_symmetric_matrix():
    with pytest.raises(ValueError, match="must be square"):
        psd_check_exact([[1, 0], [0]])
    with pytest.raises(ValueError, match="must be symmetric"):
        psd_check_exact([[1, 2], [0, 1]])


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


def test_psd_witness_after_several_pivots():
    # the witness is pulled back through every computed column of L; a
    # refutation at pivot k >= 2 is the case that needs all of them, and
    # near-PSD matrices (util.near_psd) reach it for both refutation kinds
    rng = random.Random(3)
    kinds = {1: 0, 2: 0}  # late refutations: a negative Schur diagonal, a zero diagonal block
    for _ in range(1500):
        A = near_psd(rng)
        n = len(A)
        res = psd_check_exact(A)
        if res.is_psd:
            assert _reconstructs(res, A)
            continue
        w = res.witness
        assert sum(w[i] * A[i][j] * w[j] for i in range(n) for j in range(n)) < 0
        k = sum(1 for d in res.diag if d)  # pivots taken before the refutation
        if k >= 2:
            # the reduced witness sits unchanged on the active block: one
            # entry for a negative diagonal, two for a zero diagonal block
            kinds[sum(1 for i in range(k, n) if w[res.perm[i]])] += 1
    assert min(kinds.values()) >= 20, kinds


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


def test_the_pivot_rank_is_one_int_that_sorts_as_priority_then_mention():
    # a reduced row pivots on its unknown of least (priority, first mention),
    # for negative and positive classes and hundreds of mentions
    rng = random.Random(83)
    for _ in range(30):
        names = [f"v{k}" for k in range(rng.randint(2, 400))]
        klass = {v: rng.choice((-3, -1, 0, 1, 2, 7)) for v in names}
        sys = ExactAffineSystem(priority=klass.__getitem__)
        for v in names:
            sys.add_row({v: 0}, 0)  # mentioned, not solved
        assert sys.free_variables() == names
        assert all(type(rank) is int for rank in sys._order.values())
        for _ in range(20):
            row = {v: rng.choice((-2, -1, 1, 3)) for v in rng.sample(names, rng.randint(1, 6))}
            other = sys.copy()
            other.add_row(row, 1)
            assert list(other.solved) == [min(row, key=lambda v: (klass[v], names.index(v)))]


def test_affine_system_stores_integer_rows_over_a_denominator():
    sys = ExactAffineSystem()
    # a negative pivot and a gcd of 2: -2a + 4b = 6 is stored as a = 2b - 3
    sys.add_row({"a": -2, "b": 4}, 6)
    assert sys._rows["a"] == ({"b": 2}, -3, 1)
    sys.add_row({"c": 3, "d": 1}, 1)
    assert sys._rows["c"] == ({"d": -1}, 1, 3)
    # d = -e/2 closes into c, a row over 3: c = (e + 2)/6
    sys.add_row({"d": 2, "e": 1}, 0)
    assert sys._rows["d"] == ({"e": -1}, 0, 2) and sys._rows["c"] == ({"e": 1}, 2, 6)
    assert sys.expression("c") == ({"e": Fraction(1, 6)}, Fraction(1, 3))
    # c/2 - e/12 = 1/6 on the solved form: 0 = 1/3 - 1/6, in the row's own scale
    with pytest.raises(Inconsistent) as exc:
        sys.add_row({"c": Fraction(1, 2), "e": Fraction(-1, 12)}, Fraction(1, 3))
    assert exc.value.const == Fraction(1, 6)


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


def _stored_values(sys):
    for expr, c0 in sys.solved.values():
        yield c0
        yield from expr.values()


def _rand_value(rng):
    """A nonzero rational in one of the forms a caller may pass."""
    c = Fraction(rng.randint(-4, 4) or 1, rng.choice([1, 1, 1, 2, 3, 6]))
    return rng.choice([c, c, int(c) if c.denominator == 1 else c])


def test_affine_system_matches_the_fraction_oracle():
    rng = random.Random(59)
    for trial in range(150):
        names = [(rng.choice("gq"), k) for k in range(rng.randint(2, 9))]
        priority = (lambda v: 0 if v[0] == "q" else 1) if trial % 3 else None
        sys, ref = ExactAffineSystem(priority), FractionAffineSystem(priority)
        target = {v: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for v in names}
        for _ in range(rng.randint(1, 12)):
            # sparse rows, consistent with target unless the constant is bent
            row = {v: _rand_value(rng) for v in rng.sample(names, rng.randint(0, min(4, len(names))))}
            const = sum((c * target[v] for v, c in row.items()), Fraction(0))
            if rng.random() < 0.15:
                const += rng.choice([1, Fraction(1, 2)])
            raised = []
            for s in (sys, ref):
                try:
                    s.add_row(dict(row), const)
                except Inconsistent as exc:
                    raised.append(exc.const)
            assert len(raised) in (0, 2) and len(set(raised)) <= 1
            assert sys.inconsistent == ref.inconsistent
            assert sys.solved == ref.solved and list(sys.solved) == list(ref.solved)
            assert sys.free_variables() == ref.free_variables()
            for value in _stored_values(sys):
                assert type(value) is int or (type(value) is Fraction and value.denominator > 1)
            assign = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for v in sys.free_variables()}
            for var, (expr, c0) in ref.solved.items():
                assert sys.pinned_value(var) == (None if expr else c0)
                assert sys.evaluate(var, assign) == c0 + sum(assign[f] * e for f, e in expr.items())


def test_affine_system_expression_is_a_copy():
    sys = ExactAffineSystem()
    sys.add_row({"a": 1, "b": 2, "c": Fraction(1, 3)}, 5)
    expr, c0 = sys.expression("a")
    expr["b"] = 7
    expr["d"] = 1
    assert sys.expression("a") == ({"b": -2, "c": Fraction(-1, 3)}, 5)
    free, c0 = sys.expression("b")
    free["b"] = 3
    assert sys.expression("b") == ({"b": 1}, 0)
    # neither a free variable nor one no row mentions is pinned
    assert sys.pinned_value("b") is None and sys.pinned_value("never") is None


def _add_to_both(sys, ref, row, const):
    """Add a row to the system and to the Fraction oracle; both must agree."""
    raised = []
    for s in (sys, ref):
        try:
            s.add_row(dict(row), const)
        except Inconsistent as exc:
            raised.append(exc.const)
    assert len(raised) in (0, 2) and len(set(raised)) <= 1
    assert sys.solved == ref.solved and list(sys.solved) == list(ref.solved)
    assert sys.free_variables() == ref.free_variables()
    assert {v: u for v, u in sys._uses.items() if u} == {v: u for v, u in ref._uses.items() if u}


def test_one_unknown_rows_match_the_fraction_oracle():
    priority = lambda v: 0 if v[0] == "q" else 1  # noqa: E731
    sys, ref = ExactAffineSystem(priority), FractionAffineSystem(priority)
    # a fresh unknown is pinned; a zero coefficient registers "g0" and pins nothing
    _add_to_both(sys, ref, {"g9": 3}, 0)
    _add_to_both(sys, ref, {"g0": 0}, 0)
    assert sys._rows["g9"] == ({}, 0, 1) and "g0" not in sys._rows
    # q0 = -(g1 + 2 g2) / 2 and q1 = (g1 - g2) / 3 hold g1 over a denominator
    _add_to_both(sys, ref, {"q0": 2, "g1": 1, "g2": 2}, 0)
    _add_to_both(sys, ref, {"q1": -3, "g1": 1, "g2": -1}, Fraction(0))
    assert sys._rows["q0"] == ({"g1": -1, "g2": -2}, 0, 2)
    # pinning g1 deletes it from both users; q0 = -2 g2 / 2 gcd-reduces to -g2
    _add_to_both(sys, ref, {"g1": Fraction(-1, 2)}, Fraction(0))
    assert sys._rows["q0"] == ({"g2": -1}, 0, 1) and sys._rows["q1"] == ({"g2": -1}, 0, 3)
    # an already solved unknown goes through the general step: q1 = 0 pins g2
    _add_to_both(sys, ref, {"q1": 5}, 0)
    assert sys._rows["g2"] == ({}, 0, 1) and sys.pinned_value("q0") == 0
    # and with a constant, a fresh unknown is not pinned to 0
    _add_to_both(sys, ref, {"g3": 2}, 1)
    assert sys.pinned_value("g3") == Fraction(1, 2)
    with pytest.raises(Inconsistent):
        sys.add_row({"g9": 1}, 1)


def test_a_copy_shares_pinned_rows_and_leaves_them_unchanged():
    sys, ref = ExactAffineSystem(), FractionAffineSystem()
    for row, const in (({"a": 2, "b": 1, "c": 1}, 0), ({"d": 1}, 0), ({"c": 1, "e": 1}, 4)):
        _add_to_both(sys, ref, row, const)
    before = {var: (dict(expr), c, den) for var, (expr, c, den) in sys._rows.items()}
    other, other_ref = sys.copy(), copy.deepcopy(ref)
    assert other._rows["d"] is sys._rows["d"]
    assert other._rows["a"] is not sys._rows["a"] and other._rows["a"][0] is not sys._rows["a"][0]
    for row, const in (({"e": 1}, 0), ({"b": 1}, 0), ({"d": 3, "f": 1}, 0), ({"f": 1}, 0)):
        _add_to_both(other, other_ref, row, const)
    assert other.pinned_value("a") == -2 and other.pinned_value("f") == 0
    assert sys._rows == before and sys.solved == ref.solved
    assert sys.free_variables() == ref.free_variables() == ["b", "e"]


def test_random_one_unknown_rows_match_the_fraction_oracle():
    rng = random.Random(71)
    for trial in range(120):
        names = [(rng.choice("gq"), k) for k in range(rng.randint(2, 8))]
        priority = (lambda v: 0 if v[0] == "q" else 1) if trial % 2 else None
        sys, ref = ExactAffineSystem(priority), FractionAffineSystem(priority)
        kept = []
        for _ in range(rng.randint(1, 14)):
            if rng.random() < 0.6:
                # one unknown, fresh or solved, zero coefficients included
                row = {rng.choice(names): rng.choice([0, 1, -2, Fraction(3, 2), Fraction(0)])}
                const = rng.choice([0, 0, Fraction(0), 1])
            else:
                row = {v: _rand_value(rng) for v in rng.sample(names, rng.randint(2, min(4, len(names))))}
                const = rng.choice([0, 1, Fraction(-1, 2)])
            if rng.random() < 0.2:
                # rows go on into a copy; the system copied must not change
                kept.append((sys, ref.solved, ref.free_variables()))
                sys, ref = sys.copy(), copy.deepcopy(ref)
            _add_to_both(sys, ref, row, const)
            assert sys.inconsistent == ref.inconsistent
        for old, solved, free in kept:
            assert old.solved == solved and old.free_variables() == free
