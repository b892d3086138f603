"""Numeric semidefinite feasibility by alternating projections.

The feasibility set is the intersection of the PSD cone with an affine
subspace of symmetric matrices, described in scaled vector coordinates
(svec) by an orthonormal-row system A x = b, so the affine projection is
x - A^T (A x - b).  Alternating projections converge to a point of the
intersection when it is nonempty; when it is empty the gap between the two
projections stabilizes at the positive distance between the sets, which is
what the stall detector looks for.

The svec layout of each side length n (upper-triangle indices and the
sqrt(2) off-diagonal scale) is built once and cached by _svec_index.  Each
step of solve_feasibility keeps the PSD iterate G in svec coordinates x
together with its residual r = A x - b, and that one residual serves twice:
||r|| <= tol is the feasibility test for G, and x - A^T r is the next
affine projection.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _svec_index(n):
    """The svec layout of n x n matrices: (triu_indices(n), scale).

    scale is 1 on the diagonal and sqrt(2) off it, so that svec(S) is
    S[iu] * scale.  The arrays are shared and read-only.
    """
    iu = np.triu_indices(n)
    scale = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    for arr in (*iu, scale):
        arr.flags.writeable = False
    return iu, scale


def svec(S):
    """Upper-triangle vectorization with sqrt(2) on off-diagonal entries.

    Preserves inner products: <svec(S), svec(T)> == trace(S T).
    """
    iu, scale = _svec_index(S.shape[0])
    return S[iu] * scale


def svec_inverse(x, n):
    iu, scale = _svec_index(n)
    vals = x / scale
    S = np.empty((n, n))
    S[iu] = vals
    S.T[iu] = vals
    return S


def eigen_sym(S, tol=1e-12, max_sweeps=60):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (w, V) with w ascending and S V = V diag(w).  Written against the
    plain definition for checkability; the inner projection loop uses LAPACK
    through numpy instead, which computes the same thing faster.
    """
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    if S.shape != (n, n) or not np.allclose(S, S.T, atol=1e-10 * (1.0 + np.abs(S).max(initial=0.0))):
        raise ValueError("input must be a square symmetric matrix")
    A = S.copy()
    V = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt(max(0.0, (A * A).sum() - (np.diag(A) ** 2).sum()))
        if off <= tol * max(1.0, np.abs(np.diag(A)).max(initial=0.0)):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:  # theta^2 would overflow; t ~ 1/(2 theta)
                    t = 1.0 / (2.0 * theta)
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p, rot_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * rot_p - s * rot_q
                A[:, q] = s * rot_p + c * rot_q
                rot_p, rot_q = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rot_p - s * rot_q
                A[q, :] = s * rot_p + c * rot_q
                rot_p, rot_q = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * rot_p - s * rot_q
                V[:, q] = s * rot_p + c * rot_q
    w = np.diag(A).copy()
    idx = np.argsort(w, kind="stable")
    return w[idx], V[:, idx]


def project_psd(S):
    """Nearest (Frobenius) positive semidefinite matrix: clip negative eigenvalues."""
    w, V = np.linalg.eigh((S + S.T) / 2.0)
    w = np.clip(w, 0.0, None)
    out = (V * w) @ V.T
    return (out + out.T) / 2.0


@dataclass(eq=False)
class SdpProblem:
    """Feasibility problem: find G psd with A svec(G) = b.

    n            -- side length of G
    words        -- labels of the rows/columns of G
    A, b         -- orthonormal-row affine system in svec coordinates
    inconsistent -- True when the raw constraints admit no solution at all
                    (the affine residual of the least-squares solution stays
                    above tolerance); the caller should fall back to the
                    exact checker.
    affine_residual -- that least-squares residual

    build_real_sdp also fills in the data of the exact post-checks and of
    multiplier recovery: the number of variables g and the word order, the
    exact rows (gdict, qdict, const), the G and q unknowns, and the float
    system C_G svec(G) + C_q q = rhs before the multipliers are eliminated.
    """

    n: int
    words: list
    A: np.ndarray
    b: np.ndarray
    inconsistent: bool = False
    affine_residual: float = 0.0
    g: int | None = None
    order: object = None
    exact_rows: list = field(default_factory=list)
    gvars: list = field(default_factory=list)
    qvars: list = field(default_factory=list)
    C_G: np.ndarray | None = None
    C_q: np.ndarray | None = None
    rhs: np.ndarray | None = None


def project_affine(problem, S):
    """Project S onto the affine subspace {G : A svec(G) = b}."""
    x = svec(S)
    if problem.A.shape[0]:
        x = x - problem.A.T @ (problem.A @ x - problem.b)
    return svec_inverse(x, problem.n)


class FeasibilityResult:
    def __init__(self, status, G, iterations, final_gap, gaps):
        self.status = status  # "feasible" | "likely_infeasible" | "max_iterations"
        self.G = G
        self.iterations = iterations
        self.final_gap = final_gap
        self.gaps = gaps


def solve_feasibility(problem, tol=1e-8, max_iter=20000, stall_window=500):
    """Alternate affine and PSD projections from G0 = I/n.

    feasible          -- an iterate satisfies both constraints to tol
    likely_infeasible -- the projection gap stabilizes above 10*tol
                         (relative change below tol across stall_window
                         iterations)
    max_iterations    -- neither happened within max_iter
    """
    if problem.inconsistent:
        return FeasibilityResult(
            "likely_infeasible", None, 0, problem.affine_residual, []
        )
    n = problem.n
    A, b = problem.A, problem.b
    G = np.eye(n) / n
    x = svec(G)
    r = A @ x - b  # with no rows, r is empty: norm 0 and A^T r == 0
    gaps = []
    for it in range(1, max_iter + 1):
        # H is assembled exactly symmetric, so eigh needs no symmetrisation
        H = svec_inverse(x - A.T @ r, n)
        w, V = np.linalg.eigh(H)
        if w[0] >= -tol:
            return FeasibilityResult("feasible", H, it, 0.0, gaps)
        G = (V * np.clip(w, 0.0, None)) @ V.T
        G = (G + G.T) / 2.0
        x = svec(G)
        r = A @ x - b
        if np.linalg.norm(r) <= tol:
            return FeasibilityResult("feasible", G, it, 0.0, gaps)
        gaps.append(np.linalg.norm(H - G))
        if len(gaps) > stall_window:
            old, new = gaps[-stall_window - 1], gaps[-1]
            if new > 10.0 * tol and abs(new - old) <= tol * old:
                return FeasibilityResult("likely_infeasible", None, it, new, gaps)
    return FeasibilityResult(
        "max_iterations", None, max_iter, gaps[-1] if gaps else 0.0, gaps
    )
