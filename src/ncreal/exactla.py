"""Exact rational linear algebra: LDL^T with symmetric pivoting and a
sparse Gauss-Jordan eliminator for affine systems.

Everything here is exact rational arithmetic; a verdict from this module
is a proof, not an approximation.  The LDL^T works on Fractions.  The
affine eliminator is fraction-free: it stores each solved variable as an
integer row over a positive integer denominator and divides only when a
value is read, so on the integer SDP rows it does no Fraction work.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from math import gcd

Matrix = list[list[Fraction]]


def to_fraction_matrix(A) -> Matrix:
    return [[Fraction(x) for x in row] for row in A]


class PsdResult:
    """Outcome of the exact PSD check.

    When is_psd, perm/lower/diag give A[perm[i]][perm[j]] = (L D L^T)[i][j]
    with L unit lower triangular and D = diag(diag) >= 0.  Otherwise
    witness is a rational vector with witness^T A witness < 0.
    """

    __slots__ = ("is_psd", "perm", "lower", "diag", "witness")

    def __init__(self, is_psd: bool, perm: list[int], lower: Matrix, diag: list[Fraction],
                 witness: list[Fraction] | None):
        self.is_psd, self.perm, self.lower, self.diag = is_psd, perm, lower, diag
        self.witness = witness


def psd_check_exact(A) -> PsdResult:
    """Decide A >= 0 for an exactly symmetric rational matrix.

    Pivots on the first positive diagonal entry of the active block; a
    negative diagonal or a nonzero off-diagonal entry in an all-zero
    diagonal block refutes PSD, and the refuting vector y of the reduced
    block is pulled back through the partial factorization by one
    back-substitution, z = L^-T (0, y).
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
        # Reduced witness y lives in permuted coordinates k..n-1.  One back
        # substitution on the unit upper-triangular L^T gives z = L^-T (0, y),
        # which tests the original quadratic form with the same negative
        # value; then undo the permutation.
        z = [Fraction(0)] * k + reduced
        for c in range(k - 1, -1, -1):
            z[c] = -sum(L[r][c] * z[r] for r in range(c + 1, n))
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


def _ratio(a: int, den: int):
    """a / den for ints a and den > 0: an int when den divides a, else a Fraction."""
    if den == 1:
        return a
    q, r = divmod(a, den)
    return Fraction(a, den) if r else q


def _lowest_terms(x: int, y: int, expr: dict, c: int, den: int):
    """Bring x / y to lowest terms x' / m and scale the row expr, c over den
    by m, expr in place: adding x / y times integers to the old numerators
    is adding x' times them to the new.  Returns (x', c * m, den * m)."""
    g = gcd(x, y)
    m = y // g
    if m != 1:
        for v in expr:
            expr[v] *= m
        c *= m
        den *= m
    return x // g, c, den


def _gcd_reduced(expr: dict, c: int, den: int):
    """The row expr, c over den with the factor common to all three divided out."""
    g = gcd(den, c, *expr.values())
    return (expr, c, den) if g == 1 else ({v: e // g for v, e in expr.items()}, c // g, den // g)


class ExactAffineSystem:
    """Rows sum(coeff * var) = const over named variables, kept in solved
    form var -> (expression over free variables, constant).

    The elimination is fraction-free (Bareiss's integer-preserving
    elimination): each solved variable is a row of ints over a positive int
    denominator with no factor common to all of them (_gcd_reduced), and
    substitution, into the new row as into every stored one, multiplies
    through by denominators instead of dividing (_lowest_terms).
    A row given with Fraction coefficients is scaled to ints as it is read.
    Values are divided out only when read: solved, expression,
    pinned_value and Inconsistent.const give an int where a value is
    integral and a Fraction otherwise, and evaluate a Fraction.

    Rows can keep arriving after a solve (the PSD-propagation loop feeds
    forced zeros back in); expressions stay closed under the current set
    of pivots.

    priority maps a variable to an int class: a reduced row pivots on its
    variable of least class, ties going to the variable mentioned first.
    Variables of low class are thus eliminated first, and the solved form
    of a pivot of higher class never involves them.  Without priority,
    first mention alone decides.  The pivot rank, one int class * 2^32 +
    first mention, is fixed at first mention: priority runs once per variable.
    A homogeneous row of one unsolved unknown pins it by a short path
    (add_row); a pinned row holds no free variable, so no row changes it
    and copy() shares it.
    """

    def __init__(self, priority=None):
        self._rows: dict = {}           # var -> (dict free-var -> int, int, int denominator > 0)
        self._order: dict = {}          # var -> its pivot rank, priority * 2^32 + first mention
        self._uses: dict = {}           # free var -> solved vars whose expression holds it
        self._priority = priority or (lambda var: 0)
        self.inconsistent = False

    def copy(self) -> ExactAffineSystem:
        """An independent copy: rows added to it leave this system as it is.
        Pinned rows, which no row can change, are shared, not copied."""
        other = copy.copy(self)
        other._rows = {var: (dict(row[0]), row[1], row[2]) if row[0] else row
                       for var, row in self._rows.items()}
        other._order = dict(self._order)
        other._uses = {var: set(users) for var, users in self._uses.items()}
        return other

    def renamed(self, name, priority) -> ExactAffineSystem:
        """A copy, each variable var named name(var) and ranked as here; priority ranks new ones."""
        other = ExactAffineSystem(priority)
        other.inconsistent = self.inconsistent
        other._rows = {name(var): ({name(f): e for f, e in expr.items()}, c, den)
                       for var, (expr, c, den) in self._rows.items()}
        other._order = {name(var): rank for var, rank in self._order.items()}
        other._uses = {name(var): set(map(name, users)) for var, users in self._uses.items()}
        return other

    @property
    def solved(self) -> dict:
        """var -> (free-variable coefficients, constant) of every solved
        variable, in order of solution: a new dict, divided out, per read."""
        return {var: self.expression(var) for var in self._rows}

    def add_row(self, row: dict, const) -> None:
        """Insert sum(coeff*var) = const, in ints and Fractions, and re-close the solved form.
        A row a var = 0, var unsolved, skips to the general step's result: var registered
        and, if a != 0, pinned ({}, 0, 1) and deleted from its users (gcd-reduced if den > 1)."""
        order, rows = self._order, self._rows
        if len(row) == 1 and not const:
            (var, a), = row.items()
            if var not in rows:
                if var not in order:
                    order[var] = (self._priority(var) << 32) + len(order)
                if a:
                    rows[var] = ({}, 0, 1)
                    for user in self._uses.pop(var, ()):
                        vexpr, vc, vden = rows[user]
                        del vexpr[var]
                        if vden != 1:
                            rows[user] = _gcd_reduced(vexpr, vc, vden)
                return
        # substitute the solved forms: out and rhs hold s times the reduced row
        s, rhs = (1, const) if type(const) is int else (const.denominator, const.numerator)
        out: dict = {}
        for var, a in row.items():
            entry = rows.get(var)
            expr, c, den = entry or (None, 0, 1)
            x, y = (a * s, den) if type(a) is int else (a.numerator * s, a.denominator * den)
            if y != 1:
                x, rhs, s = _lowest_terms(x, y, out, rhs, s)
            if entry is None:
                if var not in order:
                    order[var] = (self._priority(var) << 32) + len(order)
                out[var] = out.get(var, 0) + x
            else:
                rhs -= x * c
                for f, e in expr.items():
                    out[f] = out.get(f, 0) + x * e
        reduced = {v: c for v, c in out.items() if c} if 0 in out.values() else out
        if not reduced:
            if rhs:
                self.inconsistent = True
                raise Inconsistent(_ratio(rhs, s))
            return
        pivot = min(reduced, key=order.__getitem__)
        pc = reduced.pop(pivot)
        if pc < 0:
            expr, c0, den = reduced, -rhs, -pc
        else:
            expr, c0, den = {v: -c for v, c in reduced.items()}, rhs, pc
        if den != 1:
            expr, c0, den = _gcd_reduced(expr, c0, den)
        rows[pivot] = (expr, c0, den)
        uses = self._uses
        for fv in expr:
            uses.setdefault(fv, set()).add(pivot)
        # eliminate the new pivot from every stored expression that holds it:
        # var = (vexpr + f pivot + vc) / vden with pivot = (expr + c0) / den
        for var in uses.pop(pivot, ()):
            vexpr, vc, vden = rows[var]
            f = vexpr.pop(pivot)
            if den != 1:
                f, vc, vden = _lowest_terms(f, den, vexpr, vc, vden)
            for fv, fc in expr.items():
                val = vexpr.get(fv, 0) + f * fc
                if val:
                    vexpr[fv] = val
                    uses[fv].add(var)
                else:
                    del vexpr[fv]
                    uses[fv].discard(var)
            vc += f * c0
            if vden != 1:
                vexpr, vc, vden = _gcd_reduced(vexpr, vc, vden)
            rows[var] = (vexpr, vc, vden)

    def expression(self, var) -> tuple[dict, object]:
        """Solved form of var: a copy of (free-variable coefficients, constant)."""
        if var in self._rows:
            expr, c, den = self._rows[var]
            return {f: _ratio(e, den) for f, e in expr.items()}, _ratio(c, den)
        return ({var: 1}, 0)

    def pinned_value(self, var):
        """The value the rows pin var to, or None while var is not pinned."""
        entry = self._rows.get(var)
        return _ratio(entry[1], entry[2]) if entry is not None and not entry[0] else None

    def evaluate(self, var, assignment: dict) -> Fraction:
        """Value of var once every free variable is assigned."""
        expr, c, den = self._rows.get(var, ({var: 1}, 0, 1))
        return (c + sum((assignment[fv] * fc for fv, fc in expr.items()), Fraction(0))) / den

    def free_variables(self) -> list:
        """Every variable ever mentioned and not solved, in order of mention."""
        return [v for v in self._order if v not in self._rows]
