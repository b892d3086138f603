"""Numeric semidefinite feasibility by alternating projections.

The feasibility set is the intersection of the PSD cone with an affine
subspace of symmetric matrices, described in scaled vector coordinates
(svec: the upper triangle, off-diagonal entries times sqrt(2)) by an
orthonormal-row system A x = b, so the affine projection is
x - A^T (A x - b).  A is kept sparse, as coordinate triples (rows, cols,
vals): build_real_sdp makes it from one small QR per component of the
exact system, so it is block-diagonal up to a permutation of the
coordinates.  Alternating projections converge to a point of the
intersection when it is nonempty; when it is empty the gap between the two
projections stabilizes at the positive distance between the sets, which is
what the stall detector looks for.

G is 0 off a face of k of its n words (build_real_sdp's facial
reduction), and A is written in the svec coordinates of the k x k block
on the face.  solve_feasibility works on that k x k iterate itself, never
forms svec, and returns a feasible G zero-padded to n x n.
Once per solve it maps each nonzero of A to the flat index of its entry in
the lower triangle and folds the svec scale into two copies of the values,
so A x and A^T r are one np.bincount each, read from and written to that
triangle.  np.linalg.eigh reads only the lower triangle, so the upper one
is left stale between steps.  The PSD projection is built from the
nonnegative eigenpairs, and the gap between the two projections is the
norm of the negative eigenvalues.  The residual r = A x - b of the PSD
iterate serves twice: ||r|| <= tol is the feasibility test for G, and it
gives the next affine projection.

This module, sdp_build and evaluation are the only ones that use numpy,
and each imports it inside the functions that need it.  Importing the
package, parsing, the Groebner basis, the closed forms and certificate
verification never load numpy; the first SDP assembly or matrix
evaluation does.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from math import hypot, sqrt


@lru_cache(maxsize=None)
def _svec_index(n):
    """The svec layout of n x n matrices: (triu_indices(n), scale).

    scale is 1 on the diagonal and sqrt(2) off it, so that svec(S) is
    S[iu] * scale.  The arrays are shared and read-only.
    """
    import numpy as np

    iu = np.triu_indices(n)
    scale = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    for arr in (*iu, scale):
        arr.flags.writeable = False
    return iu, scale


@lru_cache(maxsize=None)
def _lower_flat_index(n):
    """For each svec coordinate of n x n matrices, the flat index of its
    lower-triangle entry in a C-ordered array.  Shared and read-only."""
    iu, _ = _svec_index(n)
    flat = iu[1] * n + iu[0]
    flat.flags.writeable = False
    return flat


def _padded(problem, S):
    """The n x n matrix over all words that is 0 off the face and, on it,
    the symmetric matrix with S's lower triangle on both sides."""
    import numpy as np

    out = np.zeros((problem.n, problem.n))
    out[np.ix_(problem.face, problem.face)] = np.tril(S) + np.tril(S, -1).T
    return out


@dataclass(eq=False)
class SdpProblem:
    """Feasibility problem: find G psd, 0 off the face, with A svec(G_F) = b
    for its block G_F on the face.

    n            -- side length of G
    words        -- labels of the rows/columns of G
    face         -- the indices of the k words G may be nonzero on,
                    ascending
    rows, cols, vals -- the nonzeros of A, whose rows are orthonormal, in
                    the svec coordinates of the k x k block G_F:
                    A[rows[k], cols[k]] = vals[k]; the index arrays are
                    integer-typed even when empty
    b            -- right-hand side, one entry per row of A
    inconsistent -- True when the constraints admit no solution on the
                    face; solve_feasibility then stops at once
    affine_residual -- for inconsistent constraints, the size of the
                    contradiction they imply

    build_real_sdp also records exact_rows, the rows as (row, const) pairs
    in the order they were solved, each row a dict over the unknowns;
    gvars, the G unknowns ("g", i, j) on the face, i <= j, in svec order;
    qvars, the multiplier unknowns ("q", j, v), the coefficient of the word
    v in the multiplier of basis element j; and system: the rows solved
    exactly with the multipliers eliminated first (an ExactAffineSystem),
    from whose components A and b were derived.  The exact post-checks read
    that one system.  The names index the full word list; the system holds
    a G unknown off the face only when it pins it to 0.
    """

    n: int
    words: list
    face: list
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray
    inconsistent: bool = False
    affine_residual: float = 0.0
    exact_rows: list = field(default_factory=list)
    gvars: list = field(default_factory=list)
    qvars: list = field(default_factory=list)
    system: object = None


STALL_WINDOW = 500  # steps over which a stalled gap changes by at most tol


class FeasibilityResult:
    def __init__(self, status, G, iterations, final_gap, gaps):
        self.status = status  # "feasible" | "likely_infeasible" | "max_iterations"
        self.G = G
        self.iterations = iterations
        self.final_gap = final_gap
        self.gaps = gaps


def solve_feasibility(problem, tol=1e-8, max_iter=20000):
    """Alternate affine and PSD projections on the face from G0 = I/k.

    A feasible G is returned zero-padded to n x n.

    feasible          -- an iterate satisfies both constraints to tol
    likely_infeasible -- the projection gap stabilizes above 10*tol
                         (relative change below tol across STALL_WINDOW
                         iterations)
    max_iterations    -- neither happened within max_iter
    """
    import numpy as np

    if problem.inconsistent:
        return FeasibilityResult(
            "likely_infeasible", None, 0, problem.affine_residual, []
        )
    n = len(problem.face)  # the iterate is the k x k block on the face
    rows, cols, b = problem.rows, problem.cols, problem.b
    m = len(b)
    _, scale = _svec_index(n)
    flat = _lower_flat_index(n)[cols]
    # A x = sum a_in * G[flat], and A^T r lands on G[flat] as a_out * r[rows]
    a_in = problem.vals * scale[cols]
    a_out = problem.vals / scale[cols]

    def residual(G):  # A svec(G) - b, read from the lower triangle
        return np.bincount(rows, a_in * G.ravel()[flat], minlength=m) - b

    G = np.eye(n) / n
    r = residual(G)  # with no rows, r is empty: norm 0 and A^T r == 0
    gaps = []
    for it in range(1, max_iter + 1):
        # only the lower triangle of H is updated, and only it is read by eigh
        H = G - np.bincount(flat, a_out * r[rows], minlength=n * n).reshape(n, n)
        w, V = np.linalg.eigh(H)
        ws = w.tolist()  # n floats: cheaper to search and sum than w itself
        if ws[0] >= -tol:
            return FeasibilityResult("feasible", _padded(problem, H), it, 0.0, gaps)
        k = bisect_left(ws, 0.0)  # w[k:] are the nonnegative eigenvalues
        V = V[:, k:]
        G = (V * w[k:]) @ V.T
        r = residual(G)
        if sqrt(r.dot(r)) <= tol:
            return FeasibilityResult("feasible", _padded(problem, G), it, 0.0, gaps)
        gaps.append(hypot(*ws[:k]))  # ||H - G||_F
        if len(gaps) > STALL_WINDOW:
            old, new = gaps[-STALL_WINDOW - 1], gaps[-1]
            if new > 10.0 * tol and abs(new - old) <= tol * old:
                return FeasibilityResult("likely_infeasible", None, it, new, gaps)
    return FeasibilityResult(
        "max_iterations", None, max_iter, gaps[-1] if gaps else 0.0, gaps
    )
