"""Shared random generators and reference implementations for the test suite.

The generators take an explicit random.Random so individual tests stay
reproducible; near_psd draws the barely indefinite matrices that an exact
PSD refutation reaches only after several pivots.  The references (eigen_sym, project_psd, project_affine,
rank_exact, truncated_basis, scalar_multiple_of) are plain-definition
oracles that only the tests need, and greater and is_antianalytic the
predicates on words and polynomials that only the tests ask;
sorted_words_of_degree sorts every word of a degree by the order's key,
the oracle for the library's enumeration in order.  svec and
svec_inverse are the scaled vector coordinates the projection loop's
affine slice is written in, in the layout svec_layout states.  A slice is
the coordinate form (k, rows, cols, vals, b) of A svec(G) = b on k x k
matrices: slice_from_dense writes a dense A in it, problem_slice reads a
built problem's slice off its exact system by the library's own slice
function, dense_rows gives such a slice back as the dense (A, b), and
loop_arrays gives it in the form the projection loop takes;
recover_multipliers reads the multipliers that go with a numeric G off the
solved system, and unknown_name gives the tuple name, ("g", i, j) or
("q", k), of a built problem's int unknown.  full_sdp_rows
is the realness SDP's row assembly over every Gram word, and zero_diagonals
the PSD propagation run on it: the oracle for the words the face build
drops; reference_build solves those rows sorted and filtered for dropped
words, in Fractions, as the build once did, with propagate_named, the
build's layer propagation over tuple names: the oracle for its layered,
integer elimination.  gram_matrix fills the whole
(d1, d2)-Gram matrix of a homogeneous polynomial, and
dense_rank_one_split, dense_factor_homogeneous, dense_is_sos and
dense_pm_sos_kind work on it,
and copying_defect forms the certificate defect on every word with a fresh
dict per sum: the library's support-only versions are checked against them.
monomial_oracle decides a monomial ideal by scanning its generating words
for the survivors, the words the left Groebner basis keeps, and
analytic_antianalytic_oracle decides p = c + a + b* by splitting off its
analytic part a and antianalytic part b*: the reference for the library's
"p + p* is a nonzero constant" test.
FractionAffineSystem is the sparse exact eliminator in Fraction arithmetic
throughout, the oracle for the library's fraction-free one.  rand_text
draws parser input from TEXT_PIECES, most of it malformed.
star_automorphism applies the real affine change of variables
x_i -> sum_j U_ij x_j + c_i, a *-automorphism, which keeps realness.
"""

from fractions import Fraction

import numpy as np

from ncreal.algebra import (
    MonomialOrder,
    Poly,
    word_dict_add,
    word_dict_mul,
    word_dict_star,
    word_star,
    words_of_degree,
    words_up_to,
)
from ncreal.exactla import Inconsistent, psd_check_exact, to_fraction_matrix
from ncreal.factor import is_irreducible_homogeneous
from ncreal.realness import NOT_REAL, REAL, NonRealCertificate, RealnessVerdict
from ncreal.sdp import _component_rows
from ncreal.sdp_build import _exact_system


def rand_word(rng, g, d):
    return tuple(rng.randrange(2 * g) for _ in range(d))


def rand_coeff(rng, lo=-3, hi=3, den=2):
    c = 0
    while c == 0:
        c = Fraction(rng.randint(lo, hi), rng.randint(1, den))
    return c


def rand_poly(rng, g, max_deg, nterms=4):
    terms = {}
    for _ in range(nterms):
        w = rand_word(rng, g, rng.randint(0, max_deg))
        terms[w] = terms.get(w, 0) + rand_coeff(rng)
    return Poly(g, {w: c for w, c in terms.items() if c})


def rand_homogeneous(rng, g, d, nterms=3):
    words = words_of_degree(g, d)
    terms = {}
    for _ in range(nterms):
        w = words[rng.randrange(len(words))]
        terms[w] = terms.get(w, 0) + rand_coeff(rng)
    p = Poly(g, {w: c for w, c in terms.items() if c})
    return p if p else Poly.from_word(g, words[0])


def rand_linear_factor(rng, g, order=None):
    """Random monic homogeneous degree-1 polynomial (always irreducible)."""
    order = order or MonomialOrder(g)
    while True:
        terms = {}
        for code in range(2 * g):
            if rng.random() < 0.5:
                terms[(code,)] = rand_coeff(rng)
        if terms:
            return Poly(g, terms).monic(order)


def rand_irreducible(rng, g, d, order=None, tries=40):
    """Random monic irreducible homogeneous polynomial of degree d."""
    order = order or MonomialOrder(g)
    if d == 1:
        return rand_linear_factor(rng, g, order)
    for _ in range(tries):
        p = rand_homogeneous(rng, g, d, nterms=rng.randint(2, 4)).monic(order)
        if is_irreducible_homogeneous(p, order):
            return p
    # x^d + (x*)^d has full-rank Gram matrices at every split
    w1 = (0,) * d
    w2 = (1,) * d
    return Poly(g, {w1: Fraction(1), w2: Fraction(1)})


def rand_product(rng, g, d, star_pair=False):
    """A random scalar times monic irreducibles of degree 1-2, total degree d;
    with star_pair the product starts with f f* for a linear f."""
    factors = []
    if star_pair:
        f = rand_linear_factor(rng, g)
        factors = [f, f.star()]
    while sum(f.degree() for f in factors) < d:
        left = d - sum(f.degree() for f in factors)
        factors.append(rand_irreducible(rng, g, rng.randint(1, min(2, left))))
    p = Poly.constant(g, rand_coeff(rng))
    for f in factors:
        p = p * f
    return p


def star_automorphism(p, U, c):
    """phi(p) for phi(x_i) = sum_j U[i][j] x_j + c[i] and phi(x_i*) its adjoint.

    For U invertible and real (a rational orthogonal U keeps the image's
    coefficients small) phi is a *-automorphism: it maps I onto phi(I),
    sums of squares onto sums of squares, and a certificate (q, w, r) of
    non-realness of I onto (phi(q), w, phi(r)) for phi(I).
    """
    g = p.g
    images = []
    for i in range(g):
        x = sum((U[i][j] * Poly.gen(g, j + 1) for j in range(g)), Poly.constant(g, c[i]))
        images += [x, x.star()]
    out = Poly.zero(g)
    for word, coeff in p.terms.items():
        term = Poly.constant(g, coeff)
        for code in word:
            term = term * images[code]
        out = out + term
    return out


# pieces of parser input: grammar tokens, stray characters, Unicode spaces
# (no-break, em, ideographic, the file separator) and non-ASCII digits
# (superscript two, Arabic-Indic one, fullwidth one)
TEXT_PIECES = (
    ["x1", "x2", "x3", "x1*", "x2*", "x1 ", "x2* "] * 3
    + [" + ", " - ", "+", "-", "^2", "^", " ", "2 ", "1", "3/2 ", "1/"] * 2
    + ["x", "x0", "*", "/", "0", "10", "007", "/0", "^0", "\t", "\n",
       "\u00a0", "\u2003", "\u3000", "\x1c", "\u00b2", "\u0661", "\uff11",
       "(", ".", "y", "#", "**"]
)


def rand_text(rng, max_pieces=8):
    """A random string of 1..max_pieces TEXT_PIECES, most of them malformed.
    A piece that would lengthen a run of ASCII digits is skipped, so no run
    is longer than three digits and no power is large."""
    text = ""
    for _ in range(rng.randint(1, max_pieces)):
        piece = rng.choice(TEXT_PIECES)
        if not (text[-1:].isascii() and text[-1:].isdigit()
                and piece[0].isascii() and piece[0].isdigit()):
            text += piece
    return text


def near_psd(rng):
    """B B^T for an n x r integer B with entries in -2..2 (n in 2..7, r in
    1..n), with s in {0, -1, -1/2, 1} added to the whole diagonal or to one
    off-diagonal pair, as Fractions."""
    n = rng.randint(2, 7)
    r = rng.randint(1, n)
    B = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
    A = [[Fraction(sum(B[i][t] * B[j][t] for t in range(r))) for j in range(n)] for i in range(n)]
    s = rng.choice((0, -1, Fraction(-1, 2), 1))
    pairs = [(i, i) for i in range(n)] if rng.random() < 0.5 else [tuple(rng.sample(range(n), 2))]
    for i, j in pairs:
        A[i][j] += s
        A[j][i] += s if i != j else 0
    return A


def brute_shrinkable(w):
    """Definition-level scan: w = u u* v with u nonempty."""
    return brute_shrink_length(w) is not None


def brute_shrink_length(w):
    """The smallest k >= 1 with w = u u* v for u = w[:k], or None."""
    for k in range(1, len(w) // 2 + 1):
        u = w[:k]
        ustar = tuple(c ^ 1 for c in reversed(u))
        if w[k : 2 * k] == ustar:
            return k
    return None


def monomial_oracle(gens):
    """The monomial decider by its own survivor scan: (status, multipliers).

    A generating word survives unless another generating word is a proper
    suffix of it or an equal word comes earlier.  The ideal is NotReal iff
    some survivor w = u u* v with u nonempty; the first such c*w, at index
    i, gives the multipliers q_i = v^*/(2c) and q_t = 0 otherwise.
    """
    g = gens[0].g
    words = [next(iter(p.terms)) for p in gens]
    for i, w in enumerate(words):
        if any(j != i and (len(u) < len(w) and w[len(w) - len(u):] == u or u == w and j < i)
               for j, u in enumerate(words)):
            continue
        k = brute_shrink_length(w)
        if k is not None:
            mult = [Poly.zero(g) for _ in gens]
            mult[i] = Poly.from_word(g, word_star(w[2 * k:]), Fraction(1, 2) / gens[i].terms[w])
            return "NotReal", mult
    return "Real", None


# ---------------------------------------------------------------------------
# reference implementations: plain-definition oracles for the library
# ---------------------------------------------------------------------------

def analytic_antianalytic_oracle(p, method):
    """The analytic + antianalytic closed form by decomposition.

    Splits nonconstant p into c + a + b* (a analytic, b* antianalytic) and
    answers NotReal iff c != 0 and b* = -a*, with the certificate q = sign(c),
    weight 2|c| and member 1; it takes and raises what the library's
    decider does.
    """
    g = p.g
    const = p.constant_coeff()
    analytic, anti = {}, {}
    for w, c in p.terms.items():
        if not w:
            continue
        if all(not (code & 1) for code in w):
            analytic[w] = c
        elif all(code & 1 for code in w):
            anti[w] = c
        else:
            raise ValueError("generator mixes plain and starred letters inside a word")
    a = Poly(g, analytic)
    b_star = Poly(g, anti)
    if p.is_constant():
        raise ValueError("generator must be nonconstant")
    if const and b_star == -a.star():
        sign = Fraction(1 if const > 0 else -1)
        cert = NonRealCertificate([Poly.constant(g, sign)], [2 * abs(const)], [Poly.one(g)])
        return RealnessVerdict(
            NOT_REAL, method, cert,
            detail="p = a - a* + c with c nonzero, so p + p* = 2c",
        )
    return RealnessVerdict(REAL, method)


def eigen_sym(S, tol=1e-12, max_sweeps=60):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (w, V) with w ascending and S V = V diag(w).  Written against the
    plain definition for checkability; the projection loop uses LAPACK
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


def svec_layout(n):
    """The svec layout of n x n matrices: (iu, scale), iu = triu_indices(n)
    the upper triangle row by row and scale 1 on the diagonal and sqrt(2)
    off it, so that svec(S) = S[iu] * scale."""
    iu = np.triu_indices(n)
    return iu, np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))


def svec(S):
    """Upper-triangle vectorization with sqrt(2) on off-diagonal entries.

    Preserves inner products: <svec(S), svec(T)> == trace(S T).
    """
    iu, scale = svec_layout(S.shape[0])
    return S[iu] * scale


def svec_inverse(x, n):
    iu, scale = svec_layout(n)
    vals = x / scale
    S = np.empty((n, n))
    S[iu] = vals
    S.T[iu] = vals
    return S


def slice_from_dense(n, A, b):
    """The slice of side n whose affine system is A svec(G) = b, with the
    nonzeros of the dense A in coordinate form."""
    A = np.asarray(A, dtype=float)
    rows, cols = np.nonzero(A)
    return n, rows, cols, A[rows, cols], np.asarray(b, dtype=float)


def loop_arrays(slice_):
    """A slice as the projection loop takes it, (k, rows, flat, a_in, a_out, b):
    per nonzero, the flat C-order index of its lower-triangle entry and its
    value times and over the svec scale."""
    k, rows, cols, vals, b = slice_
    (i, j), scale = svec_layout(k)
    return k, rows, (j * k + i)[cols], vals * scale[cols], vals / scale[cols], b


def problem_slice(problem):
    """The slice that solve_feasibility projects a built problem onto, in
    the svec coordinates of G on the face: _component_rows's flat indices
    mapped back to svec columns, its values taken out of the svec scale."""
    k = len(problem.face)
    rows, flat, a_in, _, b = _component_rows(problem)
    (i, j), scale = svec_layout(k)
    column = np.full(k * k, -1)  # the svec column of each lower-triangle entry
    column[j * k + i] = np.arange(len(scale))
    cols = column[flat]
    assert (cols >= 0).all()
    return k, rows, cols, a_in / scale[cols], b


def dense_rows(slice_):
    """The dense (A, b) of a slice's affine system A svec(G) = b."""
    k, rows, cols, vals, b = slice_
    A = np.zeros((len(b), k * (k + 1) // 2))
    A[rows, cols] = vals
    return A, b


def full_sdp_rows(basis):
    """The realness SDP's exact rows over every Gram word, as build_real_sdp
    wrote them before it moved to the face.

    Returns (words, exact_rows): the irreducible words of degree < d, and
    the trace row {("g", i, i): 1} = 1 followed by one homogeneous row per
    pair {w, w*}, kept under its greater word and sorted by the basis
    order, each a dict over ("g", i, j) with i <= j and ("q", j, v), the
    coefficient of v in the multiplier of basis element j.
    """
    words, rows = _sdp_rows_by_word(basis)
    exact_rows = [({("g", i, i): 1 for i in range(len(words))}, 1)]
    exact_rows += [(rows[w], 0) for w in sorted(rows, key=basis.order.key)]
    return words, exact_rows


def _sdp_rows_by_word(basis):
    """full_sdp_rows' words and homogeneous rows, the rows keyed by w: each
    pair {w, w*} is kept under its greater word."""
    g, order = basis.g, basis.order

    def kept(w):
        return not greater(order, word_star(w), w)

    d = max(p.degree() for p in basis.elements)
    words = [w for w in words_up_to(g, d - 1, order) if basis.is_irreducible_word(w)]
    m = len(words)
    rows = {}
    for a in range(m):
        wa = word_star(words[a])
        for b in range(m):
            w = wa + words[b]
            if kept(w):
                row = rows.setdefault(w, {})
                var = ("g", min(a, b), max(a, b))
                row[var] = row.get(var, 0) + 1
    for j, p in enumerate(basis.elements):
        for v in words_up_to(g, 2 * d - 1 - p.degree(), order):
            var = ("q", j, v)
            for u, c in p.terms.items():
                for w in (v + u, word_star(v + u)):
                    if kept(w):
                        row = rows.setdefault(w, {})
                        row[var] = row.get(var, 0) - c
    return words, rows


def reference_build(basis):
    """build_real_sdp's elimination as it was when it sorted every row of
    full_sdp_rows by the basis order and filtered each for dropped words,
    solved in Fractions (FractionAffineSystem).

    The rows go in by decreasing word length, multipliers eliminated first;
    after the rows of length >= 2t, PSD propagation over the words of
    length t drops those pinned to 0 and later rows leave their G unknowns
    out.  Returns (face, system, fed): fed lists the rows as fed, an
    all-dropped row as {}, and the trace row on the face last.
    """
    words, rows = _sdp_rows_by_word(basis)
    pending = sorted(rows, key=basis.order.key)
    system = FractionAffineSystem(priority=lambda var: 0 if var[0] == "q" else 1)
    dropped, fed = set(), []

    def feed(row, const):
        fed.append({v: c for v, c in row.items() if v[0] == "q" or not dropped & {v[1], v[2]}})
        system.add_row(fed[-1], const)

    at = 0
    for t in range(max(p.degree() for p in basis.elements) - 1, -1, -1):
        for w in pending[at:]:
            if len(w) < 2 * t:
                break
            feed(rows[w], 0)
            at += 1
        layer = [i for i, w in enumerate(words) if len(w) == t]
        zeros = propagate_named(system, layer)
        dropped |= zeros
        if len(zeros) < len(layer):
            break
    for w in pending[at:]:
        feed(rows[w], 0)
    face = [i for i in range(len(words)) if i not in dropped]
    try:
        feed({("g", i, i): 1 for i in face}, 1)
    except Inconsistent:
        pass
    return face, system, fed


def greater(order, u, v):
    """u > v in the monomial order: u sorts before v under order.key."""
    return order.key(u) < order.key(v)


def sorted_words_of_degree(g, d, order):
    """Every word of degree d over the 2g letters, generated and then sorted
    by order.key: the oracle for words_of_degree's ordered enumeration."""
    words = [()]
    for _ in range(d):
        words = [w + (c,) for w in words for c in range(2 * g)]
    return sorted(words, key=order.key)


def is_antianalytic(p):
    """Every letter of every term of p is starred (constants count)."""
    return all(c & 1 for w in p.terms for c in w)


def propagate_named(sys, indices):
    """sdp_build._propagate over the tuple names ("g", i, j): PSD propagation
    over the words among indices, to a fixed point, each off-diagonal pair
    asked at most once; returns the indices whose diagonal is pinned to 0."""
    zeros = set()
    progress = True
    while progress:
        progress = False
        for i in indices:
            if i in zeros:
                continue
            val = sys.pinned_value(("g", i, i))
            if val is None:
                continue
            if val < 0:
                raise Inconsistent(val)
            if val == 0:
                zeros.add(i)
                progress = True
                for j in indices:
                    if j not in zeros:
                        key = ("g", min(i, j), max(i, j))
                        if sys.pinned_value(key) != 0:
                            sys.add_row({key: 1}, 0)
    return zeros


def unknown_name(problem, var):
    """The tuple name of a built problem's int unknown: ("g", i, j) for the
    G unknown i n + j, n = problem.n, and ("q", k) for the multiplier -1 - k."""
    if var < 0:
        return ("q", -1 - var)
    return ("g", var // problem.n, var % problem.n)


def zero_diagonals(sys, m):
    """The indices i < m whose G[i][i] sys pins to 0 once PSD forces every
    row and column of a zero diagonal entry to 0, repeated to a fixed
    point.  Rows are added to sys."""
    zeros = set()
    while True:
        new = {i for i in range(m) if i not in zeros and sys.pinned_value(("g", i, i)) == 0}
        if not new:
            return zeros
        zeros |= new
        for i in new:
            for j in range(m):
                key = ("g", min(i, j), max(i, j))
                if sys.pinned_value(key) != 0:
                    sys.add_row({key: Fraction(1)}, Fraction(0))


def recover_multipliers(problem, G):
    """Multipliers for a numeric G: the solved q expressions at G, free q = 0.

    One float word-dict per basis element.
    """
    out = {}
    sys = _exact_system(problem)
    for n, (j, v, D) in enumerate(problem.qvars):
        # the unknown ("q", n) is the coefficient of v in q_j over D
        expr, c0 = sys.expression(("q", n))
        val = float(c0) + sum(
            float(e) * float(G[f[1], f[2]]) for f, e in expr.items() if f[0] == "g"
        )
        if val:
            out.setdefault(j, {})[v] = D * val
    return out


def project_affine(slice_, S):
    """Project S onto a slice's affine subspace {G : A svec(G) = b}."""
    A, b = dense_rows(slice_)
    x = svec(S)
    if A.shape[0]:
        x = x - A.T @ (A @ x - b)
    return svec_inverse(x, slice_[0])


def rank_exact(A):
    """Rank of a rational matrix by plain Gaussian elimination."""
    M = to_fraction_matrix(A)
    if not M:
        return 0
    rows, cols = len(M), len(M[0])
    rank = 0
    col = 0
    while rank < rows and col < cols:
        piv = next((r for r in range(rank, rows) if M[r][col]), None)
        if piv is None:
            col += 1
            continue
        M[rank], M[piv] = M[piv], M[rank]
        prow = M[rank]
        inv = 1 / prow[col]
        for r in range(rank + 1, rows):
            f = M[r][col] * inv
            if f:
                row = M[r]
                for c in range(col, cols):
                    row[c] -= f * prow[c]
        rank += 1
        col += 1
    return rank


class FractionAffineSystem:
    """ExactAffineSystem as it was in Fraction arithmetic throughout: the
    oracle for the fraction-free kernel.

    Rows sum(coeff * var) = const are kept in solved form var ->
    (expression over free variables, constant); a reduced row pivots on its
    variable of least priority key, ties going to the variable mentioned
    first.
    """

    def __init__(self, priority=None):
        self.solved: dict = {}
        self._order: dict = {}
        self._uses: dict = {}
        self._priority = priority or (lambda var: 0)
        self.inconsistent = False

    def _substitute(self, row, const):
        out: dict = {}
        for var, coeff in row.items():
            if var in self.solved:
                expr, c0 = self.solved[var]
                const = const - coeff * c0
                for fv, fc in expr.items():
                    val = out.get(fv, Fraction(0)) + coeff * fc
                    if val:
                        out[fv] = val
                    else:
                        out.pop(fv, None)
            else:
                val = out.get(var, Fraction(0)) + coeff
                if val:
                    out[var] = val
                else:
                    out.pop(var, None)
        return out, const

    def add_row(self, row, const):
        const = Fraction(const)
        for var in row:
            self._order.setdefault(var, len(self._order))
        reduced, const = self._substitute({v: Fraction(c) for v, c in row.items()}, const)
        if not reduced:
            if const:
                self.inconsistent = True
                raise Inconsistent(const)
            return
        pivot = min(reduced, key=lambda v: (self._priority(v), self._order[v]))
        pc = reduced.pop(pivot)
        expr = {v: -c / pc for v, c in reduced.items()}
        c0 = const / pc
        self.solved[pivot] = (expr, c0)
        for fv in expr:
            self._uses.setdefault(fv, set()).add(pivot)
        for var in self._uses.pop(pivot, ()):
            vexpr, vc = self.solved[var]
            f = vexpr.pop(pivot)
            for fv, fc in expr.items():
                val = vexpr.get(fv, Fraction(0)) + f * fc
                if val:
                    vexpr[fv] = val
                    self._uses[fv].add(var)
                else:
                    vexpr.pop(fv, None)
                    self._uses[fv].discard(var)
            self.solved[var] = (vexpr, vc + f * c0)

    def free_variables(self):
        return [v for v in self._order if v not in self.solved]

    def expression(self, var):
        expr, c0 = self.solved.get(var, ({var: 1}, 0))
        return dict(expr), c0

    def pinned_value(self, var):
        entry = self.solved.get(var)
        return entry[1] if entry is not None and not entry[0] else None


def truncated_basis(basis, e):
    """All left word multiples v * p_i of basis elements with degree <= e."""
    if basis.elements and e < max(p.degree() for p in basis.elements):
        raise ValueError("truncation degree below the maximal basis degree")
    out = []
    for p in basis.elements:
        for v in words_up_to(basis.g, e - p.degree(), basis.order):
            out.append(Poly(basis.g, {v: Fraction(1)}) * p)
    return out


def scalar_multiple_of(p, q):
    """Return c with p == c * q, or None if no such scalar exists."""
    if not q:
        return Fraction(1) if not p else None
    if not p:
        return Fraction(0)
    w = next(iter(q.terms))
    c = p.coefficient(w) / q.terms[w]
    return c if p == c * q else None


class GramMatrix:
    """Exact (d1, d2)-Gram matrix of a homogeneous polynomial."""

    def __init__(self, row_words, col_words, entries, g):
        self.row_words = row_words
        self.col_words = col_words
        self.entries = entries  # list of rows of Fractions
        self.g = g

    def reconstruct(self):
        """Return sum A[i][j] * (row_i)^* col_j, which must equal the input."""
        terms = {}
        for i, u in enumerate(self.row_words):
            for j, v in enumerate(self.col_words):
                c = self.entries[i][j]
                if c:
                    terms[word_star(u) + v] = c
        return Poly(self.g, terms)


def gram_matrix(p, d1, d2, order=None):
    """Gram matrix of p with row degree d1 and column degree d2.

    p must be zero or homogeneous of degree d1 + d2.
    """
    if order is None:
        order = MonomialOrder(p.g)
    if p and (not p.is_homogeneous() or p.degree() != d1 + d2):
        raise ValueError("polynomial is not homogeneous of degree %d" % (d1 + d2))
    rows = words_of_degree(p.g, d1, order)
    cols = words_of_degree(p.g, d2, order)
    col_index = {w: j for j, w in enumerate(cols)}
    row_index = {w: i for i, w in enumerate(rows)}
    entries = [[Fraction(0)] * len(cols) for _ in rows]
    for w, c in p.terms.items():
        u, v = w[:d1], w[d1:]
        entries[row_index[word_star(u)]][col_index[v]] = c
    return GramMatrix(rows, cols, entries, p.g)


def dense_rank_one_split(p, d1, order=None):
    """rank_one_split over the full (d1, d - d1)-Gram matrix: the pivot is the
    first nonzero entry in row-major order, and every entry is compared."""
    d = p.degree()
    gm = gram_matrix(p, d1, d - d1, order)
    A = gm.entries
    i0, j0 = next((i, j) for i, row in enumerate(A) for j, a in enumerate(row) if a)
    alpha = [A[i][j0] / A[i0][j0] for i in range(len(gm.row_words))]
    beta = A[i0]
    for i in range(len(alpha)):
        for j in range(len(beta)):
            if A[i][j] != alpha[i] * beta[j]:
                return None
    p1 = Poly(p.g, {word_star(u): a for u, a in zip(gm.row_words, alpha) if a})
    p2 = Poly(p.g, {v: b for v, b in zip(gm.col_words, beta) if b})
    return p1, p2


def dense_factor_homogeneous(p, order=None):
    """(scalar, factors) of factor_homogeneous, split by dense_rank_one_split."""
    order = order or MonomialOrder(p.g)
    scalar, factors, current = Fraction(1), [], p
    while True:
        split = next((s for s in (dense_rank_one_split(current, d1, order)
                                  for d1 in range(1, current.degree())) if s), None)
        head = current if split is None else split[0]
        c = head.leading_coeff(order)
        scalar *= c
        factors.append((Fraction(1) / c) * head)
        if split is None:
            return scalar, factors
        current = split[1]


def dense_is_sos(p, order=None):
    """is_sos_homogeneous's answer from the PSD test of the full (h, h)-Gram matrix."""
    if not p:
        return True
    d = p.degree()
    if d % 2 or not p.is_symmetric():
        return False
    return psd_check_exact(gram_matrix(p, d // 2, d // 2, order).entries).is_psd


def dense_pm_sos_kind(p, order=None):
    """pm_sos_kind's kind from dense_is_sos."""
    if not p:
        return "zero"
    if dense_is_sos(p, order):
        return "plus"
    return "minus" if dense_is_sos(-p, order) else "neither"


def copying_defect(gens, multipliers, weights, members):
    """The certificate defect on every word, each sum a fresh dict."""
    acc = {}
    for q, p in zip(multipliers, gens):
        qp = word_dict_mul(q, p.terms)
        acc = word_dict_add(word_dict_add(acc, qp), word_dict_star(qp))
    for w, r in zip(weights, members):
        acc = word_dict_add(acc, word_dict_mul(word_dict_star(r), r), -w)
    return acc
