"""Numeric semidefinite feasibility by alternating projections, after an
exact presolve: solve_feasibility first runs sdp_build's exact check and
returns its answer, a refutation or a verified rational point, at 0 steps.
Only a problem the check leaves open reaches the projections.

The feasibility set is the intersection of the PSD cone with an affine
subspace of symmetric matrices, described in scaled vector coordinates
(svec: the upper triangle, off-diagonal entries times sqrt(2)) by an
orthonormal-row system A x = b, so the affine projection is
x - A^T (A x - b).  Alternating projections converge to a point of the
intersection when it is nonempty; when it is empty the gap between the two
projections stabilizes at the positive distance between the sets, which is
what the stall detector looks for.

solve_feasibility derives A and b from the problem's exact system
(sdp_build), where every solved G unknown on the face is an expression
G_p - sum_f e_f G_f = c over free G unknowns of the face alone.  In the
svec coordinates of the k x k face these rows form a full-row-rank matrix
B = [I | -E], which is almost empty: joining each pivot with the free
unknowns of its expression splits the coordinates into many small
independent components.  One QR factorization B_c^T = Q_c R_c per
component gives the orthonormal rows A_c = Q_c^T and b_c = R_c^-T c_c,
kept sparse, one entry per nonzero, so A is block-diagonal up to a
permutation of the coordinates; no dense A and no QR over all of B is
ever formed.  The rank is the number of G pivots; no
float threshold decides it.

G is 0 off a face of k of its n words (build_real_sdp's facial
reduction), and the svec coordinates of A are the G unknowns of the k x k
block on the face, problem.gvars.  _component_rows reads each one's entry
and scale off the unknown itself and folds the scale into two copies of
the values, so the projection loop works on the k x k iterate, never forms
svec, and computes A x and A^T r as one np.bincount each; a feasible G is
returned as that k x k block.  np.linalg.eigh reads only the lower
triangle, so the upper one is left stale between steps.  The PSD
projection is built from the nonnegative eigenpairs, and the gap between
the two projections is the norm of the negative eigenvalues.  The
residual r = A x - b of the PSD iterate serves twice: ||r|| <= tol is the
feasibility test for G, and it gives the next affine projection.

This module and evaluation import numpy inside the functions that use it,
so only the first projection or matrix evaluation loads it: the exact path,
a presolve that decides the problem included, never does.
"""

from bisect import bisect_left
from math import hypot, inf, sqrt
from numbers import Real


def _component_rows(problem):
    """The orthonormal rows of the solved G pivots of the face, one QR per
    component, in svec coordinates: the G unknown i n + j of problem.gvars,
    n = problem.n, is the entry of words i and j in the lower triangle of
    the k x k face, with scale 1 on the diagonal and sqrt(2) off it.

    A G pivot's expression holds free G unknowns only, so joining each pivot
    with the unknowns of its expression splits the coordinates into
    independent components.  Each component that holds a pivot gives
    B_c = [I | -E_c] in svec scaling and one QR B_c^T = Q_c R_c, so that
    A_c = Q_c^T and b_c = R_c^-T c_c; a component without a pivot adds no
    rows.  Returns, per nonzero of the A_c, its row, the flat C-order index
    of its entry and its value times and over the scale, then the stacked b.
    """
    import numpy as np

    gvars = problem.gvars
    gindex = {v: k for k, v in enumerate(gvars)}
    at = {w: a for a, w in enumerate(problem.face)}
    pairs = [divmod(v, problem.n) for v in gvars]
    flat = np.array([at[j] * len(at) + at[i] for i, j in pairs], dtype=np.intp)
    scale = np.array([1.0 if i == j else sqrt(2.0) for i, j in pairs])
    parent = list(range(len(gvars)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    # a G pivot off the face is pinned to the 0 it has in G; solved is
    # divided out on every read, so it is read once
    solved = problem.system.solved
    pivots = sorted(gindex[var] for var in solved if var in gindex)
    for p in pivots:
        for f in solved[gvars[p]][0]:
            parent[find(gindex[f])] = find(p)
    components = {}
    for p in pivots:
        components.setdefault(find(p), []).append(p)

    # empty seeds keep the index arrays integer-typed when there is no
    # pivot: np.bincount rejects float indices
    rows, cols = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    vals, b = [np.zeros(0)], [np.zeros(0)]
    nrows = 0
    for cpivots in components.values():
        exprs = [solved[gvars[p]] for p in cpivots]
        coords = sorted({*cpivots, *(gindex[f] for expr, _ in exprs for f in expr)})
        local = {k: i for i, k in enumerate(coords)}
        B = np.zeros((len(cpivots), len(coords)))
        c = np.empty(len(cpivots))
        for r, (p, (expr, c0)) in enumerate(zip(cpivots, exprs)):
            # G_p - sum e_f G_f = c0 in svec coordinates x_k = scale_k G_k
            B[r, local[p]] = 1.0
            for f, e in expr.items():
                k = gindex[f]
                B[r, local[k]] = -float(e) * scale[p] / scale[k]
            c[r] = float(c0) * scale[p]
        Q, R = np.linalg.qr(B.T)
        rows.append(np.repeat(np.arange(nrows, nrows + len(cpivots)), len(coords)))
        cols.append(np.tile(coords, len(cpivots)))
        vals.append(Q.T.ravel())
        b.append(np.linalg.solve(R.T, c))
        nrows += len(cpivots)
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return rows, flat[cols], vals * scale[cols], vals / scale[cols], np.concatenate(b)


STALL_WINDOW = 500  # steps over which a stalled gap changes by at most tol


class FeasibilityResult:
    """The outcome of solve_feasibility.

    At 0 steps it is the exact presolve's answer: likely_infeasible (gap
    inf, no gaps) its refutation, feasible its point, the (psd, qdicts) of
    sdp_build._exact_point, with G None.  Projection results have no point.
    """

    def __init__(self, status, G, iterations, final_gap, gaps, point=None):
        self.status = status  # "feasible" | "likely_infeasible" | "max_iterations"
        self.G = G
        self.iterations = iterations
        self.final_gap = final_gap
        self.gaps = gaps
        self.point = point


def _check_tol_and_max_iter(tol, max_iter):
    """ValueError unless tol is a finite real > 0 and max_iter an int >= 0, neither a bool."""
    if isinstance(tol, bool) or not isinstance(tol, Real) or not 0 < tol < inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, int) or max_iter < 0:
        raise ValueError(f"max_iter must be an int >= 0, got {max_iter!r}")


def solve_feasibility(problem, tol=1e-8, max_iter=20000):
    """Alternate affine and PSD projections on the face from G0 = I/k.

    Presolve: when exact_infeasibility_check decides the problem, the
    result is its answer at 0 steps, with no float slice built and numpy
    not loaded.  Otherwise the affine slice is taken from the problem's
    exact system on each call (_component_rows), and a feasible G is the
    k x k block on the face, its rows and columns in problem.face order.

    feasible          -- the exact presolve finds a point (0 steps), or an
                         iterate satisfies both constraints to tol
    likely_infeasible -- the exact presolve refutes the problem (0 steps),
                         or the projection gap stabilizes above 10*tol
                         (relative change below tol across STALL_WINDOW
                         iterations)
    max_iterations    -- neither happened within max_iter

    A bad tol or max_iter raises ValueError first (_check_tol_and_max_iter).
    """
    from .sdp_build import exact_infeasibility_check

    _check_tol_and_max_iter(tol, max_iter)
    status, point = exact_infeasibility_check(problem)
    if status == "infeasible":
        return FeasibilityResult("likely_infeasible", None, 0, float("inf"), [])
    if status == "feasible":
        return FeasibilityResult("feasible", None, 0, 0.0, [], point)
    return _alternating_projections(len(problem.face), *_component_rows(problem), tol, max_iter)


def _alternating_projections(n, rows, flat, a_in, a_out, b, tol, max_iter):
    """solve_feasibility's loop on n x n matrices, from G0 = I/n, for the
    orthonormal-row system A svec(G) = b in the form _component_rows
    returns it: A x is bincount(rows, a_in * x[flat]) over the flat
    iterate, and A^T r lands on it at flat as a_out * r[rows].

    Returns a FeasibilityResult whose feasible G is exactly symmetric,
    n x n.
    """
    import numpy as np

    m = len(b)

    def residual(G):  # A svec(G) - b, read from the lower triangle
        return np.bincount(rows, a_in * G.ravel()[flat], minlength=m) - b

    def feasible(S, it):  # S's lower triangle on both sides
        return FeasibilityResult("feasible", np.tril(S) + np.tril(S, -1).T, it, 0.0, gaps)

    G = np.eye(n) / n
    r = residual(G)  # with no rows, r is empty: norm 0 and A^T r == 0
    gaps = []
    for it in range(1, max_iter + 1):
        # only the lower triangle of H is updated, and only it is read by eigh
        H = G - np.bincount(flat, a_out * r[rows], minlength=n * n).reshape(n, n)
        w, V = np.linalg.eigh(H)
        ws = w.tolist()  # n floats: cheaper to search and sum than w itself
        if ws[0] >= -tol:
            return feasible(H, it)
        k = bisect_left(ws, 0.0)  # w[k:] are the nonnegative eigenvalues
        V = V[:, k:]
        G = (V * w[k:]) @ V.T
        r = residual(G)
        if sqrt(r.dot(r)) <= tol:
            return feasible(G, it)
        gaps.append(hypot(*ws[:k]))  # ||H - G||_F
        if len(gaps) > STALL_WINDOW:
            old, new = gaps[-STALL_WINDOW - 1], gaps[-1]
            if new > 10.0 * tol and abs(new - old) <= tol * old:
                return FeasibilityResult("likely_infeasible", None, it, new, gaps)
    return FeasibilityResult(
        "max_iterations", None, max_iter, gaps[-1] if gaps else 0.0, gaps
    )
