"""Numeric semidefinite feasibility by alternating projections.

The feasibility set is the intersection of the PSD cone with an affine
subspace of symmetric matrices, described in scaled vector coordinates
(svec) by an orthonormal-row system A x = b, so the affine projection is
x - A^T (A x - b).  A is kept sparse, as coordinate triples (rows, cols,
vals): build_real_sdp makes it from one small QR per component of the
exact system, so it is block-diagonal up to a permutation of the
coordinates, and A x and A^T r are one np.bincount each.  Alternating
projections converge to a point of the intersection when it is nonempty;
when it is empty the gap between the two projections stabilizes at the
positive distance between the sets, which is what the stall detector looks
for.

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


@dataclass(eq=False)
class SdpProblem:
    """Feasibility problem: find G psd with A svec(G) = b.

    n            -- side length of G
    words        -- labels of the rows/columns of G
    rows, cols, vals -- the nonzeros of A, whose rows are orthonormal, in
                    svec coordinates: A[rows[k], cols[k]] = vals[k]; the
                    index arrays are integer-typed even when empty
    b            -- right-hand side, one entry per row of A
    inconsistent -- True when the constraints admit no solution at all;
                    solve_feasibility then stops at once
    affine_residual -- for inconsistent constraints, the size of the
                    contradiction they imply

    build_real_sdp also records the number of variables g and the word
    order, the exact rows (gdict, qdict, const), the G and q unknowns, and
    system: the rows solved exactly with the multipliers q eliminated
    first (an ExactAffineSystem), from whose components A and b were
    derived.  The exact post-checks and multiplier recovery read that one
    system.
    """

    n: int
    words: list
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray
    inconsistent: bool = False
    affine_residual: float = 0.0
    g: int | None = None
    order: object = None
    exact_rows: list = field(default_factory=list)
    gvars: list = field(default_factory=list)
    qvars: list = field(default_factory=list)
    system: object = None


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
    rows, cols, vals, b = problem.rows, problem.cols, problem.vals, problem.b
    m, N = len(b), n * (n + 1) // 2

    def residual(x):  # A x - b
        return np.bincount(rows, vals * x[cols], minlength=m) - b

    G = np.eye(n) / n
    x = svec(G)
    r = residual(x)  # with no rows, r is empty: norm 0 and A^T r == 0
    gaps = []
    for it in range(1, max_iter + 1):
        # H is assembled exactly symmetric, so eigh needs no symmetrisation
        H = svec_inverse(x - np.bincount(cols, vals * r[rows], minlength=N), n)
        w, V = np.linalg.eigh(H)
        if w[0] >= -tol:
            return FeasibilityResult("feasible", H, it, 0.0, gaps)
        G = (V * np.clip(w, 0.0, None)) @ V.T
        G = (G + G.T) / 2.0
        x = svec(G)
        r = residual(x)
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
