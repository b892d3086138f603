"""Numeric SDP layer: svec coordinates, eigensolvers, alternating projections."""

import random

import numpy as np
import pytest

from ncreal.groebner import left_groebner
from ncreal.parsing import parse_poly
from ncreal.sdp import (
    SdpProblem,
    eigen_sym,
    project_affine,
    project_psd,
    solve_feasibility,
    svec,
    svec_inverse,
)
from ncreal.sdp_build import build_real_sdp


def _rand_sym(rng, n, scale=2.0):
    M = np.array([[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(n)])
    return (M + M.T) / 2.0


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
    return SdpProblem(n, list(range(n)), A, b)


def test_trace_only_problem_is_immediately_feasible():
    prob = _trace_only_problem(4)
    res = solve_feasibility(prob)
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
    res = solve_feasibility(SdpProblem(n, list(range(n)), A, b))
    assert res.status == "likely_infeasible"
    assert res.final_gap > 1e-7
    assert res.G is None


def test_inconsistent_flag_short_circuits():
    prob = _trace_only_problem(3)
    prob.inconsistent = True
    prob.affine_residual = 0.25
    res = solve_feasibility(prob)
    assert res.status == "likely_infeasible"
    assert res.iterations == 0
    assert res.final_gap == 0.25


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
    res = solve_feasibility(SdpProblem(n, list(range(n)), A, b))
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
    empty = SdpProblem(3, list(range(3)), np.zeros((0, 6)), np.zeros(0))
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
    computed twice per step.  Returns (status, G, iterations, final_gap, gaps)."""
    if problem.inconsistent:
        return "likely_infeasible", None, 0, problem.affine_residual, []
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
    return SdpProblem(2, [0, 1], A, b)


def _random_affine_problem(rng, n, k):
    L = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
    target = L @ L.T if rng.random() < 0.5 else _rand_sym(rng, n)
    rows = [svec(_rand_sym(rng, n)) for _ in range(k)]
    A, b = _normalized_rows(rows, [float(row @ svec(target)) for row in rows])
    return SdpProblem(n, list(range(n)), A, b)


def _differential_cases():
    def built(text):
        return build_real_sdp(left_groebner([parse_poly(text)]))

    n = 3
    E = np.zeros((n, n))
    E[0, 0] = 1.0
    negative = SdpProblem(n, list(range(n)), *_normalized_rows([svec(E)], [-1.0]))
    rng = random.Random(54)
    L = np.array([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)])
    rows, rhs = [], []
    for _ in range(6):
        C = _rand_sym(rng, 4)
        rows.append(svec(C))
        rhs.append(float(svec(C) @ svec(L @ L.T)))
    pinned = SdpProblem(4, list(range(4)), *_normalized_rows(rows, rhs))
    rng = random.Random(56)
    cases = [
        ("criterion 1", built("x1 x1* - x1* x1 - 1"), {}),
        ("quartic, n = 15", built("x1^2 x1*^2 + x1* x1 - 1"), {"max_iter": 300}),
        ("trace only", _trace_only_problem(4), {}),
        ("pinned near a psd point", pinned, {}),
        ("negative diagonal stalls", negative, {}),
        ("empty system", SdpProblem(3, list(range(3)), np.zeros((0, 6)), np.zeros(0)), {}),
        ("boundary to max_iter", _boundary_problem(), {"max_iter": 400}),
    ]
    for i in range(6):
        n = rng.randint(2, 6)
        k = rng.randint(1, n * (n + 1) // 2 - 1)
        cases.append((f"random {i}", _random_affine_problem(rng, n, k), {"max_iter": 600}))
    return cases


def test_solve_feasibility_matches_reference_loop_exactly():
    statuses = set()
    for name, problem, kwargs in _differential_cases():
        res = solve_feasibility(problem, **kwargs)
        status, G, iterations, final_gap, gaps = _reference_solve(problem, **kwargs)
        statuses.add(status)
        assert res.status == status, name
        assert res.iterations == iterations, name
        assert res.final_gap == final_gap, name
        assert res.gaps == gaps, name
        if G is None:
            assert res.G is None, name
        else:
            assert np.array_equal(res.G, G), name
    assert statuses == {"feasible", "likely_infeasible", "max_iterations"}


def test_svec_layout_is_built_once_per_side(monkeypatch):
    calls = []
    triu_indices = np.triu_indices

    def counting(n, *args, **kwargs):
        calls.append(n)
        return triu_indices(n, *args, **kwargs)

    monkeypatch.setattr(np, "triu_indices", counting)
    res = solve_feasibility(_boundary_problem(), max_iter=2000)
    assert res.status == "max_iterations" and res.iterations == 2000
    S = _rand_sym(random.Random(57), 5)
    assert np.array_equal(svec_inverse(svec(S), 5), svec_inverse(svec(S), 5))
    assert all(calls.count(n) <= 1 for n in set(calls))
