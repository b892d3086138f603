"""Numeric SDP layer: svec coordinates, alternating projections, and the
assembly of the realness SDP against the dense construction it replaced."""

import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ncreal import realness, sdp, sdp_build
from ncreal.algebra import MonomialOrder, word_star, words_up_to
from ncreal.exactla import ExactAffineSystem, Inconsistent
from ncreal.groebner import left_groebner
from ncreal.parsing import parse_generators, parse_poly
from ncreal.realness import NOT_REAL, REAL, real_test
from ncreal.sdp import _alternating_projections, _component_rows, solve_feasibility
from ncreal.sdp_build import (
    SdpProblem,
    _exact_system,
    _coded_words,
    _propagate,
    build_real_sdp,
    exact_infeasibility_check,
    exact_lift,
)

from util import (
    dense_rows,
    eigen_sym,
    full_sdp_rows,
    loop_arrays,
    problem_slice,
    project_affine,
    propagate_named,
    project_psd,
    rand_poly,
    recover_multipliers,
    reference_build,
    slice_from_dense,
    svec,
    svec_inverse,
    svec_layout,
    unknown_name,
    zero_diagonals,
)


def _rand_sym(rng, n, scale=2.0):
    M = np.array([[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(n)])
    return (M + M.T) / 2.0


def _solve(case, tol=1e-8, max_iter=20000):
    """solve_feasibility on a built problem, its loop on a hand-built slice."""
    if isinstance(case, SdpProblem):
        return solve_feasibility(case, tol, max_iter)
    return _alternating_projections(*loop_arrays(case), tol, max_iter)


def test_svec_round_trip_and_inner_products():
    rng = random.Random(51)
    for _ in range(20):
        n = rng.randint(1, 6)
        S = _rand_sym(rng, n)
        T = _rand_sym(rng, n)
        assert np.allclose(svec_inverse(svec(S), n), S)
        assert np.isclose(float(svec(S) @ svec(T)), float(np.trace(S @ T)))
        assert len(svec(S)) == n * (n + 1) // 2


def test_eigen_sym_matches_lapack():
    rng = random.Random(52)
    for _ in range(15):
        n = rng.randint(2, 6)
        S = _rand_sym(rng, n)
        w, V = eigen_sym(S)
        assert np.allclose(S @ V, V * w, atol=1e-8)
        assert np.allclose(V.T @ V, np.eye(n), atol=1e-8)
        assert np.allclose(w, np.linalg.eigvalsh(S), atol=1e-8)
        assert all(w[i] <= w[i + 1] + 1e-12 for i in range(n - 1))
    with pytest.raises(ValueError):
        eigen_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_project_psd():
    rng = random.Random(53)
    for _ in range(15):
        n = rng.randint(2, 5)
        S = _rand_sym(rng, n)
        P = project_psd(S)
        assert np.linalg.eigvalsh(P)[0] >= -1e-10
        assert np.allclose(project_psd(P), P, atol=1e-10)
        # projection is the positive part: S = P - N with N psd and tr(P N) = 0
        N = P - S
        assert np.linalg.eigvalsh(N)[0] >= -1e-10
        assert abs(float(np.trace(P @ N))) <= 1e-8
    already = np.diag([3.0, 0.5, 0.0])
    assert np.allclose(project_psd(already), already)


def _normalized_rows(rows, b):
    A = np.array(rows, dtype=float)
    Q, R = np.linalg.qr(A.T)
    rank = A.shape[0]
    A_on = Q[:, :rank].T
    b_on = np.linalg.solve(R[:rank, :rank].T, np.array(b, dtype=float))
    return A_on, b_on


def _trace_only_problem(n, value=1.0):
    row = svec(np.eye(n))
    A, b = _normalized_rows([row], [value])
    return slice_from_dense(n, A, b)


def test_trace_only_problem_is_immediately_feasible():
    prob = _trace_only_problem(4)
    res = _solve(prob)
    assert res.status == "feasible"
    assert res.iterations <= 1
    assert np.isclose(float(np.trace(res.G)), 1.0)
    assert np.linalg.eigvalsh(res.G)[0] >= -1e-8


def test_forced_negative_diagonal_is_infeasible():
    # single constraint G[0,0] = -1 cannot meet the psd cone
    n = 3
    E = np.zeros((n, n))
    E[0, 0] = 1.0
    A, b = _normalized_rows([svec(E)], [-1.0])
    res = _solve(slice_from_dense(n, A, b))
    assert res.status == "likely_infeasible"
    assert res.final_gap > 1e-7
    assert res.G is None


def test_inconsistent_flag_short_circuits():
    # x1 in I: the trace row over the empty face reads 0 = 1, so the
    # affine set is empty
    prob = build_real_sdp(left_groebner([parse_poly("x1")]))
    res = solve_feasibility(prob)
    assert res.status == "likely_infeasible"
    assert res.iterations == 0 and res.gaps == []
    assert res.final_gap == float("inf")


def test_exactly_feasible_system_is_found():
    # constraints pin G to be close to a known psd matrix's affine slice
    rng = random.Random(54)
    n = 4
    L = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
    target = L @ L.T
    rows, rhs = [], []
    for _ in range(6):
        C = _rand_sym(rng, n)
        rows.append(svec(C))
        rhs.append(float(svec(C) @ svec(target)))
    A, b = _normalized_rows(rows, rhs)
    res = _solve(slice_from_dense(n, A, b))
    assert res.status == "feasible"
    assert np.linalg.norm(A @ svec(res.G) - b) <= 1e-6
    assert np.linalg.eigvalsh(res.G)[0] >= -1e-8


def test_project_affine_is_a_projection():
    rng = random.Random(55)
    prob = _trace_only_problem(4, value=2.0)
    S = _rand_sym(rng, 4)
    H = project_affine(prob, S)
    assert np.isclose(float(np.trace(H)), 2.0)
    assert np.allclose(project_affine(prob, H), H)
    # empty systems project to the input unchanged
    empty = slice_from_dense(3, np.zeros((0, 6)), np.zeros(0))
    T = _rand_sym(rng, 3)
    assert np.allclose(project_affine(empty, T), T)


# ---------------------------------------------------------------------------
# differential check of the projection loop against its first version
# ---------------------------------------------------------------------------

def _reference_svec(S):
    n = S.shape[0]
    iu = np.triu_indices(n)
    x = S[iu].copy()
    x[iu[0] != iu[1]] *= np.sqrt(2.0)
    return x


def _reference_svec_inverse(x, n):
    S = np.zeros((n, n))
    iu = np.triu_indices(n)
    vals = x.copy()
    vals[iu[0] != iu[1]] /= np.sqrt(2.0)
    S[iu] = vals
    S.T[iu] = vals
    return S


def _reference_project_affine(problem, S):
    x = _reference_svec(S)
    if problem.A.shape[0]:
        x = x - problem.A.T @ (problem.A @ x - problem.b)
    return _reference_svec_inverse(x, problem.n)


def _reference_solve(problem, tol=1e-8, max_iter=20000, stall_window=500):
    """The projection loop as first written: svec rebuilt and the residual
    computed twice per step, after the exact presolve's verdict, which
    _dense_view records.  Returns (status, G, iterations, final_gap, gaps)."""
    if problem.presolve == "infeasible":
        return "likely_infeasible", None, 0, float("inf"), []
    if problem.presolve == "feasible":  # the point is carried, not a G
        return "feasible", None, 0, 0.0, []
    n = problem.n
    G = np.eye(n) / n
    gaps = []
    for it in range(1, max_iter + 1):
        H = _reference_project_affine(problem, G)
        w, V = np.linalg.eigh((H + H.T) / 2.0)
        if w[0] >= -tol:
            return "feasible", H, it, 0.0, gaps
        G = (V * np.clip(w, 0.0, None)) @ V.T
        G = (G + G.T) / 2.0
        res = np.linalg.norm(problem.A @ _reference_svec(G) - problem.b) if problem.A.shape[0] else 0.0
        if res <= tol:
            return "feasible", G, it, 0.0, gaps
        gaps.append(np.linalg.norm(H - G))
        if len(gaps) > stall_window:
            old, new = gaps[-stall_window - 1], gaps[-1]
            if new > 10.0 * tol and abs(new - old) <= tol * old:
                return "likely_infeasible", None, it, new, gaps
    return "max_iterations", None, max_iter, gaps[-1] if gaps else 0.0, gaps


def _boundary_problem():
    """G[0,0] = 0 and 2 G[0,1] + G[1,1] = 1: the only feasible G is
    diag(0, 1), on the boundary of the cone with no interior point nearby,
    so the projections creep towards it and do not reach tol for 20,000
    steps."""
    E = np.diag([1.0, 0.0])
    F = np.array([[0.0, 1.0], [1.0, 1.0]])
    A, b = _normalized_rows([svec(E), svec(F)], [0.0, 1.0])
    return slice_from_dense(2, A, b)


def _random_affine_problem(rng, n, k):
    L = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
    target = L @ L.T if rng.random() < 0.5 else _rand_sym(rng, n)
    rows = [svec(_rand_sym(rng, n)) for _ in range(k)]
    A, b = _normalized_rows(rows, [float(row @ svec(target)) for row in rows])
    return slice_from_dense(n, A, b)


def _differential_cases():
    def built(text, g=1):
        return build_real_sdp(left_groebner(parse_generators(text, g)))

    n = 3
    E = np.zeros((n, n))
    E[0, 0] = 1.0
    negative = slice_from_dense(n, *_normalized_rows([svec(E)], [-1.0]))
    rng = random.Random(54)
    L = np.array([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)])
    rows, rhs = [], []
    for _ in range(6):
        C = _rand_sym(rng, 4)
        rows.append(svec(C))
        rhs.append(float(svec(C) @ svec(L @ L.T)))
    pinned = slice_from_dense(4, *_normalized_rows(rows, rhs))
    rng = random.Random(56)
    cases = [
        ("criterion 1", built("x1 x1* - x1* x1 - 1"), {}),
        ("quartic, n = 15", built("x1^2 x1*^2 + x1* x1 - 1"), {"max_iter": 300}),
        ("face 2 of n = 5", built("x2 x1* x1\nx1* x1", 2), {}),
        ("trace only", _trace_only_problem(4), {}),
        ("pinned near a psd point", pinned, {}),
        ("negative diagonal stalls", negative, {}),
        ("empty system", slice_from_dense(3, np.zeros((0, 6)), np.zeros(0)), {}),
        ("boundary to max_iter", _boundary_problem(), {"max_iter": 400}),
    ]
    for i in range(6):
        n = rng.randint(2, 6)
        k = rng.randint(1, n * (n + 1) // 2 - 1)
        cases.append((f"random {i}", _random_affine_problem(rng, n, k), {"max_iter": 600}))
    return cases


def _dense_view(case):
    """A case on its face, with its affine slice as the dense A the
    reference reads, and the exact check's status on a built case (an
    inconsistent one among them); a hand-built slice has none."""
    if isinstance(case, SdpProblem):
        A, b = dense_rows(problem_slice(case))
        presolve = exact_infeasibility_check(case)[0]
        return SimpleNamespace(n=len(case.face), A=A, b=b, presolve=presolve)
    A, b = dense_rows(case)
    return SimpleNamespace(n=case[0], A=A, b=b, presolve=None)


def test_solve_feasibility_matches_reference_loop_exactly():
    # The loop sums A x and A^T r by np.bincount, the reference by BLAS dot,
    # in other orders: steps agree to rounding, so the trajectories agree to
    # a tolerance fixed beforehand (2,000 nonexpansive steps at float64 eps
    # give about 4e-13), while status and iteration count agree exactly.
    statuses = set()
    for name, case, kwargs in _differential_cases():
        res = _solve(case, **kwargs)
        status, G, iterations, final_gap, gaps = _reference_solve(_dense_view(case), **kwargs)
        statuses.add(status)
        assert res.status == status, name
        assert res.iterations == iterations, name
        # a refuted case has gap inf on both sides, and inf - inf is nan
        assert res.final_gap == final_gap or abs(res.final_gap - final_gap) <= 1e-10, name
        assert len(res.gaps) == len(gaps), name
        assert np.abs(np.subtract(res.gaps, gaps)).max(initial=0.0) <= 1e-10, name
        if G is None:
            assert res.G is None, name
        else:
            # solve_feasibility returns G as the k x k block on the face
            assert res.G.shape == G.shape, name
            assert np.abs(res.G - G).max() <= 1e-10, name
    assert statuses == {"feasible", "likely_infeasible", "max_iterations"}


def test_feasible_exits_return_an_exactly_symmetric_G():
    # the loop updates and reads only the lower triangle of its iterate;
    # exact_lift reads the upper one.  A presolve point carries no G.
    feasible = 0
    for name, case, kwargs in _differential_cases():
        res = _solve(case, **kwargs)
        if res.status == "feasible" and res.point is None:
            feasible += 1
            assert np.array_equal(res.G, res.G.T), name
    assert feasible >= 3


def test_slice_is_built_once_per_solve_and_never_inside_the_step_loop(monkeypatch):
    # the coordinates are read off the G unknowns by one _component_rows call
    # per solve that reaches the loop, at any step count; no svec layout is built
    stalls = build_real_sdp(left_groebner(parse_generators(
        "-2 x1^2 - 2 x1 x1* - x1* x1 - 3 x1*^2 + 2 x1 + x1* - 2", 1)))
    layouts, sliced = [], []
    monkeypatch.setattr(np, "triu_indices", lambda *args, **kwargs: layouts.append(args))

    def recording(problem):
        sliced.append(problem)
        return _component_rows(problem)

    monkeypatch.setattr(sdp, "_component_rows", recording)
    steps = set()
    for max_iter in (20, 2000):
        sliced.clear()
        res = solve_feasibility(stalls, max_iter=max_iter)
        assert sliced == [stalls]
        steps.add(res.iterations)
    assert steps == {20, res.iterations} and res.iterations > 500
    assert res.status == "likely_infeasible" and layouts == []


# ---------------------------------------------------------------------------
# the exact elimination against the dense SVD assembly it replaced
# ---------------------------------------------------------------------------

def _reference_build(basis, face):
    """build_real_sdp as first written, with G zero off the face words: one
    exact row per word, the multipliers removed by an SVD of C_q and the
    rank of the rest read off a second SVD.  A is in the svec coordinates
    of G on the face.  Returns (A, b, inconsistent, residual, row words)."""
    g = basis.g
    order = basis.order
    d = max(p.degree() for p in basis.elements)
    words = [w for w in words_up_to(g, d - 1, order) if basis.is_irreducible_word(w)]
    m = len(words)
    qvars = [
        (j, v)
        for j, p in enumerate(basis.elements)
        for v in words_up_to(g, 2 * d - 1 - p.degree(), order)
    ]

    # Exact rows: one per word w, sum gcoef * G[i][j]  -  sum qcoef * q = rhs.
    rows = {}

    def row(w):
        if w not in rows:
            rows[w] = ({}, {})
        return rows[w]

    for a in range(m):
        wa = word_star(words[a])
        for b in range(m):
            gdict, _ = row(wa + words[b])
            if a in face and b in face:
                key = (min(a, b), max(a, b))
                gdict[key] = gdict.get(key, Fraction(0)) + 1
    for j, v in qvars:
        for u, c in basis.elements[j].terms.items():
            for w in (v + u, word_star(v + u)):
                _, qdict = row(w)
                qdict[(j, v)] = qdict.get((j, v), Fraction(0)) + c

    word_order = sorted(rows, key=order.key)
    exact_rows = [({(i, i): Fraction(1) for i in face}, {}, Fraction(1))]
    exact_rows += [(rows[w][0], rows[w][1], Fraction(0)) for w in word_order]

    gvars = [(i, j) for a, i in enumerate(face) for j in face[a:]]
    gindex = {v: k for k, v in enumerate(gvars)}
    qindex = {v: k for k, v in enumerate(qvars)}
    sqrt2 = np.sqrt(2.0)
    C_G = np.zeros((len(exact_rows), len(gvars)))
    C_q = np.zeros((len(exact_rows), len(qvars)))
    rhs = np.zeros(len(exact_rows))
    for r, (gdict, qdict, const) in enumerate(exact_rows):
        for (i, j), c in gdict.items():
            # svec coordinate for i < j is sqrt(2) * G[i][j]
            C_G[r, gindex[(i, j)]] = float(c) if i == j else float(c) / sqrt2
        for key, c in qdict.items():
            C_q[r, qindex[key]] = -float(c)
        rhs[r] = float(const)

    # Eliminate the multipliers: project rows onto range(C_q)^perp.
    if qvars and np.abs(C_q).max() > 0:
        U, s, _ = np.linalg.svd(C_q, full_matrices=False)
        Q1 = U[:, s > s[0] * 1e-12]
        A0 = C_G - Q1 @ (Q1.T @ C_G)
        b0 = rhs - Q1 @ (Q1.T @ rhs)
    else:
        A0, b0 = C_G, rhs

    inconsistent = False
    residual = 0.0
    if np.abs(A0).max() == 0:
        A = np.zeros((0, len(gvars)))
        b = np.zeros(0)
        residual = float(np.linalg.norm(b0))
        inconsistent = residual > 1e-8
    else:
        U2, s2, V2t = np.linalg.svd(A0, full_matrices=False)
        r = int((s2 > s2[0] * 1e-12).sum())
        A = V2t[:r]
        x0 = V2t[:r].T @ ((U2[:, :r].T @ b0) / s2[:r])
        residual = float(np.linalg.norm(A0 @ x0 - b0))
        inconsistent = residual > 1e-8 * max(1.0, float(np.linalg.norm(b0)))
        b = A @ x0
    return A, b, inconsistent, residual, word_order


ASSEMBLY_CASES = {
    "criterion 1": (["x1 x1* - x1* x1 - 1"], 1),
    "cubic4": (["x1 x1*^2 - 1", "x1^2 + x1*^2", "x1 x1* - x1*^2", "x1* x1 - 5"], 1),
    "quartic15": (["x1^2 x1*^2 + x1* x1 - 1"], 1),
    "mixed21": (["x1 x2 x1* - x2 + 2", "x2* x2 x1 + x1*"], 2),
    "large n = 48": ([
        "-2 x1^2 x1*^2 x1^2 + 2 x1 x1* x1^4 + 3 x1*^6 + 2 x1* x1 x1* x1^2"
        " - 1/2 x1* x1^2 x1* - 3 x1^2",
        "1/2 x1* x1 + x1*",
    ], 1),
    "large n = 31": (["-3 x1 x1*^2 x1 x1* - 3 x1* x1^3 - 1/2 x1*^2 - 1"], 1),
}


@pytest.mark.parametrize("name", sorted(ASSEMBLY_CASES))
def test_exact_assembly_matches_svd_assembly(name):
    texts, g = ASSEMBLY_CASES[name]
    basis = left_groebner([parse_poly(t, g) for t in texts])
    problem = build_real_sdp(basis)
    A_ref, b_ref, inconsistent, _, word_order = _reference_build(basis, problem.face)
    assert not inconsistent and not problem.system.inconsistent
    A, b = dense_rows(problem_slice(problem))
    assert A.shape == A_ref.shape
    assert np.abs(A.T @ A - A_ref.T @ A_ref).max() <= 1e-12
    assert np.abs(A.T @ b - A_ref.T @ b_ref).max() <= 1e-12
    # one exact row per pair {w, w*} that holds an unknown still live when
    # the descent reaches its length, besides the trace row
    pairs = {min(w, word_star(w)) for w in word_order}
    _, _, fed = reference_build(basis)
    assert len(fed) == 1 + len(pairs) < 1 + len(word_order)
    assert len(problem.exact_rows) == 1 + sum(1 for row in fed[:-1] if row)


# (generators, number of variables, face size)
FACE_CASES = {
    "criterion 1": (["x1 x1* - x1* x1 - 1"], 1, 3),
    "quartic15": (["x1^2 x1*^2 + x1* x1 - 1"], 1, 4),
    "mixed21": (["x1 x2 x1* - x2 + 2", "x2* x2 x1 + x1*"], 2, 6),
    "large n = 48": (ASSEMBLY_CASES["large n = 48"][0], 1, 2),
    "large n = 31": (ASSEMBLY_CASES["large n = 31"][0], 1, 16),
    "large n = 63": ([
        "-1/2 x1^2 x1* x1 x1* x1 - 3/2 x1 x1* x1 x1* x1 x1* - 1/2 x1* x1 x1* + 2 x1 x1*",
    ], 1, 0),
    "g = 2, d = 4": (["x1 x2 x1* x2* - x2 x1 + 2"], 2, 0),
    # without multipliers first, a G pivot's expression would hold one
    "multiplier priority": (["x1* x1 x1*"], 1, 4),
}


@pytest.mark.parametrize("name", sorted(FACE_CASES))
def test_face_build_drops_only_words_the_full_system_pins_to_zero(name):
    texts, g, k = FACE_CASES[name]
    basis = left_groebner([parse_poly(t, g) for t in texts])
    problem = build_real_sdp(basis)
    assert len(problem.face) == k and problem.system.inconsistent == (k == 0)
    words, exact_rows = full_sdp_rows(basis)
    assert words == problem.words
    # the cone over every word: all rows but the trace row, which only scales G
    system = ExactAffineSystem()
    for row, const in exact_rows[1:]:
        system.add_row(row, const)
    dropped = set(range(problem.n)) - set(problem.face)
    assert dropped <= zero_diagonals(system, problem.n)


def _assert_same_elimination(basis):
    """build_real_sdp solves the G unknowns as util.reference_build does."""
    problem = build_real_sdp(basis)
    face, ref, _ = reference_build(basis)
    assert problem.face == face
    assert problem.system.inconsistent == ref.inconsistent
    # the same free unknowns in the same order, the multipliers by (j, v)
    sys = _exact_system(problem)
    names = {("q", n): ("q", j, v) for n, (j, v, _) in enumerate(problem.qvars)}
    assert [names.get(v, v) for v in sys.free_variables()] == ref.free_variables()
    for i in range(problem.n):
        for j in range(i, problem.n):
            assert sys.expression(("g", i, j)) == ref.expression(("g", i, j))
    # multipliers first: a solved G unknown is an expression in G unknowns
    # alone, which sdp._component_rows relies on
    for var, (expr, _) in problem.system.solved.items():
        assert var < 0 or all(f >= 0 for f in expr)
    return problem


@pytest.mark.parametrize("name", sorted(FACE_CASES))
def test_layered_build_solves_as_the_sorted_build(name):
    texts, g, _ = FACE_CASES[name]
    _assert_same_elimination(left_groebner([parse_poly(t, g) for t in texts]))


def test_layered_build_solves_as_the_sorted_build_on_random_bases():
    rng = random.Random(61)
    built = dropped = 0
    while built < 20:
        g = rng.choice((1, 2))
        basis = left_groebner([rand_poly(rng, g, rng.randint(2, 4)) for _ in range(rng.randint(1, 2))])
        if not basis.elements or any(p.degree() == 0 for p in basis.elements):
            continue
        problem = _assert_same_elimination(basis)
        built += 1
        dropped += len(problem.face) < problem.n
    assert dropped


def test_layered_build_solves_as_the_sorted_build_under_random_rankings():
    # each layer's rows go in as order.key sorts them, for any ranking and
    # for letter codes past 255 (x129 and x130 are codes 256..259)
    rng = random.Random(67)
    built = reranked = 0
    while built < 20:
        g = rng.choice((1, 2))
        ranking = list(range(2 * g))
        rng.shuffle(ranking)
        gens = [rand_poly(rng, g, rng.randint(2, 4)) for _ in range(rng.randint(1, 2))]
        basis = left_groebner(gens, MonomialOrder(g, ranking))
        if not basis.elements or any(p.degree() == 0 for p in basis.elements):
            continue
        _assert_same_elimination(basis)
        built += 1
        reranked += ranking != sorted(ranking)
    assert reranked
    ranking = list(range(260))
    rng.shuffle(ranking)
    for order in (MonomialOrder(130), MonomialOrder(130, ranking)):
        _assert_same_elimination(left_groebner([parse_poly("x130 + x129 - 1", 130)], order))


def test_coded_words_follow_words_up_to_with_their_base_B_codes():
    def value(digits, B):
        return sum(x * B**e for e, x in enumerate(reversed(digits)))

    rng = random.Random(73)
    for g in (1, 2, 3):
        orders = [MonomialOrder(g)]
        for _ in range(3):
            ranking = list(range(2 * g))
            rng.shuffle(ranking)
            orders.append(MonomialOrder(g, ranking))
        # an order may rank more letters than the words use: B = 2 order.g
        orders.append(MonomialOrder(g + 1, rng.sample(range(2 * g + 2), 2 * g + 2)))
        for order in orders:
            B = 2 * order.g
            for d in range(6):
                coded = _coded_words(g, d, order)
                assert [w for w, *_ in coded] == words_up_to(g, d, order)
                for w, r, rs in coded:
                    assert (r, rs) == (value(order.letter_key(w), B),
                                       value(order.letter_key(word_star(w)), B))
                # inside one length, rank codes sort as letter_key, greatest
                # word first: the pair choice and the layer sort
                of_length = [cw for cw in coded if len(cw[0]) == d]
                assert (sorted(of_length, key=lambda cw: cw[1])
                        == sorted(of_length, key=lambda cw: order.letter_key(cw[0])))


def test_propagation_asks_no_off_diagonal_pair_twice(monkeypatch):
    # a pair with an earlier zero diagonal was forced when that one was
    asked = []
    pinned_value = ExactAffineSystem.pinned_value

    def recorded(self, var):
        asked.append(var)
        return pinned_value(self, var)

    def off_diagonal(n):  # the pairs (i, j), i != j, of the G unknowns i n + j asked
        return [(i, j) for i, j in (divmod(var, n) for var in asked) if i != j]

    monkeypatch.setattr(ExactAffineSystem, "pinned_value", recorded)
    sys = ExactAffineSystem()
    sys.add_row({0: 1}, 0)  # G[0][0] = 0, names i 3 + j
    sys.add_row({4: 1, 1: -1}, 0)  # G[1][1] = G[0][1]
    assert _propagate(sys, [0, 1, 2], 3) == {0, 1}
    assert sorted(off_diagonal(3)) == [(0, 1), (0, 2), (1, 2)]
    problem = build_real_sdp(left_groebner(parse_generators(LIFTED_ON_A_FACE, 2)))
    asked.clear()
    zeros = _propagate(problem.system.copy(), range(problem.n), problem.n)
    pairs = off_diagonal(problem.n)
    assert len(zeros) >= 2 and pairs and len(pairs) == len(set(pairs))


def test_the_elimination_ranks_each_unknown_once(monkeypatch):
    # the pivot rank (priority, first mention) is fixed when an unknown is
    # first mentioned, not recomputed per candidate per row
    calls = {}

    def counting(priority):
        def counted(var):
            calls[var] = calls.get(var, 0) + 1
            return priority(var)
        return ExactAffineSystem(counted)

    monkeypatch.setattr(sdp_build, "ExactAffineSystem", counting)
    problem = build_real_sdp(left_groebner([parse_poly("x1 x1* - x1* x1 - 1")]))
    assert set(calls) == set(problem.system.solved) | set(problem.system.free_variables())
    assert set(calls.values()) == {1}


def _propagation_outcome(propagate, *args):
    """The zero diagonals a propagation finds, or the const of the Inconsistent it raises."""
    try:
        return propagate(*args)
    except Inconsistent as exc:
        return exc.const


def test_unknowns_are_ints_that_decode_to_gvars_pairs_and_qvars_indices():
    # G[i][j], i <= j, is the unknown i n + j and the k-th multiplier is
    # -1 - k; _exact_system is the same system under ("g", i, j) and ("q", k)
    for name in sorted(FACE_CASES):
        texts, g, _ = FACE_CASES[name]
        problem = build_real_sdp(left_groebner([parse_poly(t, g) for t in texts]))
        n, face, sys = problem.n, problem.face, problem.system
        solved = sys.solved
        names = [*solved, *sys.free_variables(), *(f for expr, _ in solved.values() for f in expr),
                 *(var for row, _ in problem.exact_rows for var in row)]
        assert names and all(type(var) is int for var in [*names, *problem.gvars])
        assert [divmod(var, n) for var in problem.gvars] == [
            (i, j) for a, i in enumerate(face) for j in face[a:]]
        assert all(i <= j < n for i, j in (divmod(var, n) for var in names if var >= 0))
        assert {-1 - var for var in names if var < 0} <= set(range(len(problem.qvars)))
        assert any(var < 0 for var in names)

        def named(var):
            return unknown_name(problem, var)

        decoded = _exact_system(problem)
        assert decoded.inconsistent == sys.inconsistent
        assert decoded.free_variables() == [named(var) for var in sys.free_variables()]
        assert list(decoded.solved) == [named(var) for var in solved]
        for var, (expr, c0) in solved.items():
            assert decoded.expression(named(var)) == ({named(f): e for f, e in expr.items()}, c0)
        # both go on alike: propagation over every word mentions new unknowns
        if not sys.inconsistent:
            copied = sys.copy()
            assert (_propagation_outcome(_propagate, copied, range(n), n)
                    == _propagation_outcome(propagate_named, decoded, range(n)))
            assert decoded.free_variables() == [named(var) for var in copied.free_variables()]
            assert decoded.solved == {named(var): ({named(f): e for f, e in expr.items()}, c0)
                                      for var, (expr, c0) in copied.solved.items()}


def test_inconsistent_constraints_are_found_exactly():
    # x1 in I: the constant coefficient pins G = 0, so the face is empty
    # and the trace row over it reads 0 = 1
    problem = build_real_sdp(left_groebner([parse_poly("x1")]))
    assert problem.system.inconsistent and problem.exact_rows[-1] == ({}, 1)
    assert problem.face == [] and dense_rows(problem_slice(problem))[0].shape == (0, 0)
    assert exact_infeasibility_check(problem) == ("infeasible", None)
    assert exact_lift(problem, np.zeros((0, 0))) is None


def test_the_zero_and_the_unit_ideal_have_no_sdp():
    with pytest.raises(ValueError, match="empty basis"):
        build_real_sdp(left_groebner([parse_poly("0", 1)]))
    with pytest.raises(ValueError, match="contains a unit"):
        build_real_sdp(left_groebner([parse_poly("x1 + 1"), parse_poly("x1")]))


# the presolve leaves this problem open, and the projections lift it
OPEN_CASE = "-x1 x1* - x1* x1 - 3/2 x1 - x1* - 3/2"


def test_a_free_entry_far_outside_the_psd_cone_lifts_to_no_point():
    # one free G unknown, off the diagonal; the diagonal is pinned below 1,
    # so 100 rounds to no PSD point at any denominator
    problem = build_real_sdp(left_groebner([parse_poly(OPEN_CASE)]))
    assert _exact_system(problem).free_variables() == [("g", 0, 2)]
    assert exact_lift(problem, np.full((3, 3), 100.0)) is None


def test_problem_holds_no_second_infeasibility_record():
    names = set(SdpProblem.__slots__)
    assert names == {"n", "words", "face", "exact_rows", "gvars", "qvars", "system"}
    # slots and no __dict__: a built problem takes no attribute beyond them
    problem = build_real_sdp(left_groebner([parse_poly(OPEN_CASE)]))
    assert not hasattr(problem, "__dict__")


def test_negative_pinned_diagonal_raises_in_propagation():
    # criterion 1: the rows pin G[x1*, x1*] to -1
    problem = build_real_sdp(left_groebner([parse_poly("x1 x1* - x1* x1 - 1")]))
    sys = problem.system.copy()
    with pytest.raises(Inconsistent):
        _propagate(sys, problem.face, problem.n)


# (x2 + x2*)^2 (2 x1 - x1*): the presolve leaves it open, the projections lift it
LIFTED_ON_A_FACE = ("2 x2^2 x1 - x2^2 x1* + 2 x2 x2* x1 - x2 x2* x1*"
                    " + 2 x2* x2 x1 - x2* x2 x1* + 2 x2*^2 x1 - x2*^2 x1*")


def test_route_carries_G_on_the_face_only():
    # n = 21 Gram words, of which the face keeps 9
    problem = build_real_sdp(left_groebner(parse_generators(LIFTED_ON_A_FACE, 2)))
    assert problem.n == 21 and len(problem.face) == 9
    assert exact_infeasibility_check(problem) == ("unknown", None)
    res = solve_feasibility(problem)
    assert res.status == "feasible" and res.G.shape == (9, 9) and res.point is None
    # n = 5 Gram words, of which the face keeps 1 and x1; the presolve's point
    presolved = build_real_sdp(left_groebner(parse_generators("x2 x1* x1\nx1* x1", 2)))
    assert presolved.n == 5 and len(presolved.face) == 2
    found = solve_feasibility(presolved)
    assert (found.status, found.iterations, found.G) == ("feasible", 0, None)
    # each point is the exact PSD test's factorization of the rational face block
    for (psd, _), k in ((exact_lift(problem, res.G), 9), (found.point, 2)):
        assert psd.is_psd and len(psd.perm) == len(psd.diag) == len(psd.lower) == k
        assert all(isinstance(x, Fraction) for row in psd.lower for x in (*row, *psd.diag))


def test_multiplier_unknowns_are_eliminated_first():
    problem = build_real_sdp(left_groebner([parse_poly("x1^2 x1*^2 + x1* x1 - 1")]))
    sys = _exact_system(problem)
    solved = sys.solved
    on_face = {unknown_name(problem, var) for var in problem.gvars}
    gpivots = [var for var in solved if var in on_face]
    A, b = dense_rows(problem_slice(problem))
    assert len(gpivots) == A.shape[0] > 0
    assert all(f in on_face and f not in solved for var in gpivots for f in solved[var][0])
    # a G unknown off the face is never free, and pinned to 0 when solved
    assert all(var in on_face for var in sys.free_variables() if var[0] == "g")
    assert all(solved[var] == ({}, 0) for var in solved if var[0] == "g" and var not in on_face)
    # at a point of the affine slice, the recovered multipliers meet every row
    face = np.ix_(problem.face, problem.face)
    G = np.zeros((problem.n, problem.n))
    G[face] = svec_inverse(A.T @ b, len(problem.face))
    q = recover_multipliers(problem, G)
    for row, const in problem.exact_rows:
        lhs = 0.0
        for var, c in row.items():
            var = unknown_name(problem, var)
            if var[0] == "g":
                lhs += float(c) * G[var[1], var[2]]
            else:
                # ("q", n) is the coefficient of v in q_j over D
                j, v, D = problem.qvars[var[1]]
                lhs += float(c) * q.get(j, {}).get(v, 0.0) / D
        assert abs(lhs - float(const)) <= 1e-9


def test_affine_rows_are_factored_per_component(monkeypatch):
    shapes = []
    qr = np.linalg.qr

    def recording(M, *args, **kwargs):
        shapes.append(M.shape)
        return qr(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording)
    problem = build_real_sdp(left_groebner([parse_poly("-3 x1* x1 x1* x1 - 2 x2^2 x1 - 3 x1", 2)]))
    # the exact build factors nothing; the slice is solve_feasibility's work
    assert shapes == []
    _, rows, cols, vals, b = problem_slice(problem)
    monkeypatch.setattr(np.linalg, "qr", qr)
    N = len(problem.gvars)
    assert (problem.n, len(problem.face), N, len(b)) == (85, 22, 253, 194)
    # one factorization per component, none wider than the largest, 16 coordinates
    assert len(shapes) == 184 and max(max(shape) for shape in shapes) == 16
    AAt = np.zeros((len(b), len(b)))
    for k in range(N):
        at = cols == k
        AAt[np.ix_(rows[at], rows[at])] += np.outer(vals[at], vals[at])
    assert np.abs(AAt - np.eye(len(b))).max() <= 1e-12
    # each row's support lies inside one component of the solved system;
    # the G unknowns are numbered by their svec columns
    (i, j), _ = svec_layout(len(problem.face))
    gindex = {("g", problem.face[a], problem.face[c]): k for k, (a, c) in enumerate(zip(i, j))}
    parent = list(range(N))

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for var, (expr, _) in _exact_system(problem).solved.items():
        if var in gindex:
            for f in expr:
                parent[find(gindex[f])] = find(gindex[var])
    roots = np.array([find(k) for k in cols])
    for r in range(len(b)):
        assert len(set(roots[rows == r])) == 1


def test_component_rows_match_the_dense_svec_reference(monkeypatch):
    # A svec(G) and A^T r on the loop's flat indices and scaled values agree
    # with the dense A written in the tests' own svec layout, on every
    # seed-1 sdp_small problem that reaches the loop and two builds at
    # n = 85: the frontier ideal, whose face is empty, and one on 22 words
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import corpora

    problems = []
    for ideal in corpora.build_corpus(corpora.WORKLOADS["sdp_small"], 1):
        basis = left_groebner(ideal.parse())
        if basis.elements and not any(p.is_constant() for p in basis.elements):
            problem = build_real_sdp(basis)
            if exact_infeasibility_check(problem)[0] == "unknown":
                problems.append(problem)
    assert problems
    for text in ("x1 x2 x1* x2* - x2 x1 + 2", "-3 x1* x1 x1* x1 - 2 x2^2 x1 - 3 x1"):
        problems.append(build_real_sdp(left_groebner([parse_poly(text)])))
    assert [(p.n, len(p.face)) for p in problems[-2:]] == [(85, 0), (85, 22)]
    rng = np.random.default_rng(31)
    for problem in problems:
        k = len(problem.face)
        rows, flat, a_in, a_out, b = _component_rows(problem)
        A, _ = dense_rows(problem_slice(problem))
        G = rng.standard_normal((k, k))
        G += G.T
        r = rng.standard_normal(len(b))
        Ax = np.bincount(rows, a_in * G.ravel()[flat], minlength=len(b))
        assert np.abs(Ax - A @ svec(G)).max(initial=0.0) <= 1e-12
        # A^T r lands on the lower triangle
        Atr = np.bincount(flat, a_out * r[rows], minlength=k * k).reshape(k, k)
        Atr = np.tril(Atr) + np.tril(Atr, -1).T
        assert np.abs(Atr - svec_inverse(A.T @ r, k)).max(initial=0.0) <= 1e-12


def _count_systems(monkeypatch):
    built = []
    init = ExactAffineSystem.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExactAffineSystem, "__init__", counting)
    return built


@pytest.mark.parametrize("text,route", [
    ("x1 x1* - x1* x1 - 1", "exact check"),
    ("-x1 x1* - x1* x1 - 3/2 x1 - x1* - 3/2", "lift"),
])
def test_one_exact_system_per_problem(monkeypatch, text, route):
    built = _count_systems(monkeypatch)
    problems, lifts = [], []

    def recording(basis):
        problems.append(build_real_sdp(basis))
        return problems[-1]

    def lifting(problem, G_num):
        lifts.append(exact_lift(problem, G_num))
        return lifts[-1]

    monkeypatch.setattr(realness, "build_real_sdp", recording)
    monkeypatch.setattr(realness, "exact_lift", lifting)
    verdict = real_test(parse_generators(text), method="sdp")
    assert verdict.method == "sdp-exact"
    assert verdict.status == (REAL if route == "exact check" else NOT_REAL)
    # only the lift case reaches the lift, and the lift gives its witness
    assert (route == "lift") == any(point is not None for point in lifts)
    # the one system is the problem's own; the check and the lift build none
    assert len(problems) == 1 and built == [problems[0].system]


def test_exact_check_leaves_the_system_unchanged():
    # x1* x1 pins G[x1*, x1*] = 0, so PSD propagation adds rows to its copy
    problem = build_real_sdp(left_groebner([parse_poly("x1* x1 + x1*")]))
    before = {var: (dict(expr), c0) for var, (expr, c0) in problem.system.solved.items()}
    first = exact_infeasibility_check(problem)
    second = exact_infeasibility_check(problem)
    assert first == second and first[0] != "unknown"
    assert problem.system.solved == before


# ---------------------------------------------------------------------------
# the exact presolve in solve_feasibility
# ---------------------------------------------------------------------------

# the exact check refutes the first five; cubic4 it leaves open
PRESOLVE_CASES = ["criterion 1", "quartic15", "mixed21", "large n = 31", "large n = 48", "cubic4"]
# the exact check finds a verified point for these
POINT_CASES = {
    "-1/3 x1* x1 x1*": (["-1/3 x1* x1 x1*"], 1),
    "x2 x1* x1 ; x1* x1": (["x2 x1* x1", "x1* x1"], 2),
}


def _assembly_basis(name):
    texts, g = ASSEMBLY_CASES[name] if name in ASSEMBLY_CASES else POINT_CASES[name]
    return left_groebner([parse_poly(t, g) for t in texts])


@pytest.mark.parametrize("name", [*PRESOLVE_CASES, *POINT_CASES])
def test_presolve_takes_no_step_exactly_when_it_decides(monkeypatch, name):
    sliced = []

    def recording(*args):
        sliced.append(args)
        return _component_rows(*args)

    monkeypatch.setattr(sdp, "_component_rows", recording)
    problem = build_real_sdp(_assembly_basis(name))
    decided = exact_infeasibility_check(problem)[0]
    assert decided == ("feasible" if name in POINT_CASES
                       else "unknown" if name == "cubic4" else "infeasible")
    res = solve_feasibility(problem, max_iter=2000)
    assert (res.iterations == 0) == (decided != "unknown")
    assert (res.status == "likely_infeasible") == (decided == "infeasible")
    if decided == "infeasible":
        # the refutation builds no float slice
        assert (res.G, res.point, res.final_gap, res.gaps, sliced) == (None, None, float("inf"), [], [])
    elif decided == "feasible":
        # nor does the point, which is the result's own
        assert (res.status, res.G, sliced) == ("feasible", None, []) and res.point is not None
    else:
        assert res.point is None and len(sliced) == 1


@pytest.mark.parametrize("kwargs", [
    {"max_iter": -3}, {"max_iter": 50.0}, {"max_iter": True},
    {"tol": float("nan")}, {"tol": -1.0}, {"tol": 0.0}, {"tol": float("inf")}, {"tol": True},
])
def test_solve_feasibility_rejects_a_bad_tol_or_max_iter_before_the_presolve(monkeypatch, kwargs):
    problem = build_real_sdp(left_groebner([parse_poly(OPEN_CASE)]))
    checks = []

    def recording(p):
        checks.append(p)
        return exact_infeasibility_check(p)

    monkeypatch.setattr(sdp_build, "exact_infeasibility_check", recording)
    with pytest.raises(ValueError, match="tol must be|max_iter must be"):
        solve_feasibility(problem, **{"max_iter": 50, **kwargs})
    assert checks == []


@pytest.mark.parametrize("name", [*PRESOLVE_CASES, *POINT_CASES])
def test_route_reads_the_presolve_refutation_without_a_second_check(monkeypatch, name):
    # one exact check per problem, whether it refutes, finds a point or
    # leaves the problem open, and one factorization per certificate
    def recording(module, attr, results):
        found = getattr(module, attr)

        def recorded(*args, **kwargs):
            results.append(found(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(module, attr, recorded)

    presolve, route, factored, sliced, results = [], [], [], [], []
    # solve_feasibility looks the check up in sdp_build, the route in realness
    recording(sdp_build, "exact_infeasibility_check", presolve)
    recording(realness, "exact_infeasibility_check", route)
    recording(realness, "psd_check_exact", factored)
    recording(sdp, "_component_rows", sliced)
    recording(realness, "solve_feasibility", results)
    v = realness._sdp_route(_assembly_basis(name), 1e-8, 2000)
    assert len(presolve) == 1 and route == [] and factored == []
    (res,) = results
    if name in POINT_CASES:
        assert (v.status, v.detail) == (NOT_REAL, "exact elimination produced a feasible witness")
        # the point takes no step and builds no float slice
        assert (res.iterations, res.G, sliced) == (0, None, [])
    elif name == "cubic4":
        assert (v.status, v.detail) == (NOT_REAL, "numeric solution lifted to an exact rational witness")
        assert res.iterations > 0 and res.point is None and len(sliced) == 1
    else:
        assert v.status == REAL and (res.iterations, sliced) == (0, [])
    assert v.method == "sdp-exact"
