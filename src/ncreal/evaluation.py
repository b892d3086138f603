"""Evaluating polynomials on tuples of real matrices.

A point is (X_1, ..., X_g, v): square matrices of one common size plus an
optional vector.  Starred letters evaluate to transposes, so p |-> p(X) is
a *-representation.  Evaluation works in floating point, as does the SDP
route's projection loop (sdp); the rest of the core is exact.  numpy, and
json for from_json, are imported inside the functions here, so importing
this module loads neither.
"""

from __future__ import annotations

from .algebra import Poly


class MatrixPoint:
    def __init__(self, matrices: list[np.ndarray], vector: np.ndarray | None = None):
        import numpy as np

        if not matrices:
            raise ValueError("a point needs at least one matrix")
        mats = [np.asarray(X, dtype=float) for X in matrices]
        if mats[0].ndim != 2:
            raise ValueError(f"matrices must be square, got shape {mats[0].shape}")
        n = mats[0].shape[0]
        for X in mats:
            if X.shape != (n, n):
                raise ValueError(f"matrices must all be {n}x{n}, got {X.shape}")
        if vector is not None:
            vector = np.asarray(vector, dtype=float).reshape(-1)
            if vector.shape != (n,):
                raise ValueError(f"vector must have length {n}, got {vector.shape}")
        self.matrices, self.vector = mats, vector

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def g(self) -> int:
        return len(self.matrices)

    @classmethod
    def from_json(cls, text: str) -> "MatrixPoint":
        """Load {"n": ..., "X": [matrix, ...], "v": [...]} (v optional)."""
        import json

        import numpy as np

        data = json.loads(text)
        if not isinstance(data, dict) or not isinstance(data.get("X"), list):
            raise ValueError('malformed point: need an object with a list "X" of matrices')
        n = data.get("n")
        if "n" in data and type(n) is not int:
            raise ValueError(f'malformed point: "n" must be an integer, got {n!r}')
        try:
            point = cls([np.array(X, dtype=float) for X in data["X"]],
                        np.array(data["v"], dtype=float) if "v" in data else None)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed point: {exc}") from None
        if "n" in data and n != point.n:
            raise ValueError(f"point says n={n} but a matrix is {point.matrices[0].shape}")
        return point


def evaluate(p: Poly, point: MatrixPoint) -> np.ndarray:
    """p(X): words become matrix products, x_i* becomes X_i^T."""
    import numpy as np

    if p.g > point.g:
        raise ValueError(f"polynomial uses {p.g} variables, point has {point.g}")
    n = point.n
    out = np.zeros((n, n))
    for word, coeff in p.terms.items():
        M = np.eye(n)
        for code in word:
            X = point.matrices[code // 2]
            M = M @ (X.T if code & 1 else X)
        out += float(coeff) * M
    return out


def apply_to_vector(p: Poly, point: MatrixPoint) -> np.ndarray:
    """p(X) v for a point that carries a vector."""
    if point.vector is None:
        raise ValueError("point has no vector")
    return evaluate(p, point) @ point.vector


def common_kernel(mats: list[np.ndarray], tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (columns) of the joint approximate kernel.

    Every returned column k satisfies ||M k|| <= tol * ||M||_F for each M:
    the matrices are stacked after Frobenius normalization and the right
    singular vectors with singular value <= tol are returned.  Zero
    matrices are skipped (their kernel is everything); if nothing is left
    the whole space comes back.
    """
    import numpy as np

    mats = [np.asarray(M, dtype=float) for M in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].shape[1]
    blocks = []
    for M in mats:
        norm = np.linalg.norm(M)
        if norm > 0:
            blocks.append(M / norm)
    if not blocks:
        return np.eye(n)
    stack = np.vstack(blocks)
    _, sing, vt = np.linalg.svd(stack)
    sing = np.concatenate([sing, np.zeros(n - len(sing))])
    keep = sing <= tol
    return vt[keep].T
