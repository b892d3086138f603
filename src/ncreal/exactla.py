"""Exact rational linear algebra: LDL^T with symmetric pivoting and a
sparse Gauss-Jordan eliminator for affine systems.

Everything here is exact rational arithmetic; a verdict from this module
is a proof, not an approximation.  The LDL^T works on Fractions.  The
affine eliminator keeps every integral value as a Python int and only the
others as Fractions, so on the mostly integral SDP rows it does little
Fraction work.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction

Matrix = list[list[Fraction]]


def to_fraction_matrix(A) -> Matrix:
    return [[Fraction(x) for x in row] for row in A]


@dataclass
class PsdResult:
    """Outcome of the exact PSD check.

    When is_psd, perm/lower/diag give A[perm[i]][perm[j]] = (L D L^T)[i][j]
    with L unit lower triangular and D = diag(diag) >= 0.  Otherwise
    witness is a rational vector with witness^T A witness < 0.
    """
    is_psd: bool
    perm: list[int]
    lower: Matrix
    diag: list[Fraction]
    witness: list[Fraction] | None


def psd_check_exact(A) -> PsdResult:
    """Decide A >= 0 for an exactly symmetric rational matrix.

    Pivots on the first positive diagonal entry of the active block; a
    negative diagonal or a nonzero off-diagonal entry in an all-zero
    diagonal block refutes PSD, and the refuting vector of the reduced
    block is pulled back through the partial factorization.
    """
    M = to_fraction_matrix(A)
    n = len(M)
    for i, row in enumerate(M):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j in range(n):
            if M[i][j] != M[j][i]:
                raise ValueError("matrix must be symmetric")

    perm = list(range(n))
    L: Matrix = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag: list[Fraction] = [Fraction(0)] * n

    def pull_back(k: int, reduced: list[Fraction]) -> list[Fraction]:
        # Reduced witness y lives in permuted coordinates k..n-1.  Solve
        # L11^T z1 = -L21^T y (back substitution) so that (z1, y) tests the
        # original quadratic form with the same negative value, then undo
        # the permutation.
        rhs = [-sum(L[i][c] * reduced[i - k] for i in range(k, n)) for c in range(k)]
        z = [Fraction(0)] * n
        # back substitution on the unit upper-triangular system L11^T z1 = rhs
        for c in range(k - 1, -1, -1):
            acc = rhs[c]
            for r in range(c + 1, k):
                acc -= L[r][c] * z[r]
            z[c] = acc
        for i in range(k, n):
            z[i] = reduced[i - k]
        out = [Fraction(0)] * n
        for pos, orig in enumerate(perm):
            out[orig] = z[pos]
        return out

    for k in range(n):
        neg = next((i for i in range(k, n) if M[i][i] < 0), None)
        if neg is not None:
            y = [Fraction(0)] * (n - k)
            y[neg - k] = Fraction(1)
            return PsdResult(False, perm, L, diag, pull_back(k, y))
        piv = next((i for i in range(k, n) if M[i][i] > 0), None)
        if piv is None:
            # diagonal of the active block is identically zero
            for i in range(k, n):
                for j in range(i + 1, n):
                    if M[i][j]:
                        y = [Fraction(0)] * (n - k)
                        y[i - k] = Fraction(1)
                        y[j - k] = Fraction(-1 if M[i][j] > 0 else 1)
                        return PsdResult(False, perm, L, diag, pull_back(k, y))
            break
        if piv != k:
            perm[k], perm[piv] = perm[piv], perm[k]
            M[k], M[piv] = M[piv], M[k]
            for row in M:
                row[k], row[piv] = row[piv], row[k]
            # swap only the computed multiplier columns; columns >= k of L
            # are still identity and must stay that way
            for c in range(k):
                L[k][c], L[piv][c] = L[piv][c], L[k][c]
        d = M[k][k]
        diag[k] = d
        for i in range(k + 1, n):
            f = M[i][k] / d
            L[i][k] = f
            if f:
                # only the active block is kept current; its Schur update stays symmetric
                for j in range(k + 1, n):
                    M[i][j] -= f * M[k][j]
    return PsdResult(True, perm, L, diag, None)


def ldl_squares(res: PsdResult, labels) -> tuple[list[Fraction], list[list]]:
    """The weighted squares of a PSD result: A = sum_k weights[k] r_k r_k^T.

    labels names the rows of A.  Each r_k is a list of (label, coefficient)
    pairs, the nonzero entries of column k of L with labels[perm[i]] on row
    i; pivots with a zero diagonal are left out.
    """
    n = len(res.diag)
    keep = [k for k in range(n) if res.diag[k]]
    rows = [[(labels[res.perm[i]], res.lower[i][k]) for i in range(n) if res.lower[i][k]]
            for k in keep]
    return [res.diag[k] for k in keep], rows


# ---------------------------------------------------------------------------
# sparse exact affine systems
# ---------------------------------------------------------------------------

class Inconsistent(Exception):
    """The affine system has no solution (the exact infeasibility proof).

    const is the c of the contradiction 0 = c that a row reduced to, or,
    from PSD propagation, the negative value a diagonal entry is pinned to.
    """

    def __init__(self, const):
        super().__init__(f"0 = {const}")
        self.const = const


def _exact(x):
    """x, an int or a Fraction, as an int when it is integral."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


def _accumulate(d: dict, key, val) -> bool:
    """d[key] += val, stored as _exact gives it or dropped at 0; True if key stays."""
    val = d.get(key, 0) + val
    if type(val) is not int and val.denominator == 1:
        val = val.numerator
    if val:
        d[key] = val
        return True
    d.pop(key, None)
    return False


def _quotient(a, b):
    """a / b for exact values a and b != 0, as _exact gives it."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _exact(a / b)


class ExactAffineSystem:
    """Rows sum(coeff * var) = const over named variables, kept in solved
    form var -> (expression over free variables, constant).

    Every stored value is an int when it is integral and a Fraction
    otherwise, so the elimination runs on Python ints wherever it can; a
    sum or product that leaves a denominator of 1 is turned back into an
    int at once.

    Rows can keep arriving after a solve (the PSD-propagation loop feeds
    forced zeros back in); expressions stay closed under the current set
    of pivots.

    priority maps a variable to a sort key: a reduced row pivots on its
    variable of least key, ties going to the variable mentioned first.
    Variables of low key are thus eliminated first, and the solved form of
    a pivot of higher key never involves them.  Without priority, first
    mention alone decides.
    """

    def __init__(self, priority=None):
        self.solved: dict = {}          # var -> (dict free-var -> value, value)
        self._order: dict = {}          # deterministic pivot tie-break
        self._uses: dict = {}           # free var -> solved vars whose expression holds it
        self._priority = priority or (lambda var: 0)
        self.inconsistent = False

    def copy(self) -> ExactAffineSystem:
        """An independent copy: rows added to it leave this system as it is."""
        other = copy.copy(self)
        other.solved = {var: (dict(expr), c0) for var, (expr, c0) in self.solved.items()}
        other._order = dict(self._order)
        other._uses = {var: set(users) for var, users in self._uses.items()}
        return other

    def _substitute(self, row: dict, const) -> tuple[dict, object]:
        out: dict = {}
        solved = self.solved
        for var, coeff in row.items():
            if var in solved:
                expr, c0 = solved[var]
                const = const - coeff * c0
                for fv, fc in expr.items():
                    _accumulate(out, fv, coeff * fc)
            else:
                _accumulate(out, var, coeff)
        return out, _exact(const)

    def add_row(self, row: dict, const) -> None:
        """Insert sum(coeff*var) = const, in ints and Fractions, and re-close the solved form."""
        for var in row:
            self._order.setdefault(var, len(self._order))
        reduced, const = self._substitute(row, const)
        if not reduced:
            if const:
                self.inconsistent = True
                raise Inconsistent(const)
            return
        pivot = min(reduced, key=lambda v: (self._priority(v), self._order[v]))
        pc = reduced.pop(pivot)
        if pc == 1:
            expr, c0 = {v: -c for v, c in reduced.items()}, const
        elif pc == -1:
            expr, c0 = reduced, -const
        else:
            expr = {v: _quotient(-c, pc) for v, c in reduced.items()}
            c0 = _quotient(const, pc)
        self.solved[pivot] = (expr, c0)
        for fv in expr:
            self._uses.setdefault(fv, set()).add(pivot)
        # eliminate the new pivot from every stored expression that holds it
        for var in self._uses.pop(pivot, ()):
            vexpr, vc = self.solved[var]
            f = vexpr.pop(pivot)
            for fv, fc in expr.items():
                if _accumulate(vexpr, fv, f * fc):
                    self._uses[fv].add(var)
                else:
                    self._uses[fv].discard(var)
            if c0:
                vc = _exact(vc + f * c0)
            self.solved[var] = (vexpr, vc)

    def expression(self, var) -> tuple[dict, object]:
        """Solved form of var: a copy of (free-variable coefficients, constant)."""
        if var in self.solved:
            expr, c0 = self.solved[var]
            return dict(expr), c0
        return ({var: 1}, 0)

    def pinned_value(self, var):
        """The value the rows pin var to, or None while var is not pinned."""
        entry = self.solved.get(var)
        return entry[1] if entry is not None and not entry[0] else None

    def evaluate(self, var, assignment: dict) -> Fraction:
        """Value of var once every free variable is assigned."""
        expr, c0 = self.solved.get(var, ({var: 1}, 0))
        return c0 + sum((assignment[fv] * fc for fv, fc in expr.items()), Fraction(0))

    def free_variables(self) -> list:
        """Every variable ever mentioned and not solved, in order of mention."""
        return [v for v in self._order if v not in self.solved]
