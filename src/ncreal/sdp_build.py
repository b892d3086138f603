"""Assembly of the realness feasibility SDP on its face, and its exact
rational post-checks.

For a left ideal with monic basis p_1, .., p_s of maximal degree d, index a
symmetric matrix G by the words of degree < d that are irreducible for the
basis (no leading word is a suffix).  The ideal fails to be real iff there
are G psd, nonzero (normalized by trace G = 1), and multipliers q_j with
deg(q_j p_j) < 2d such that

    M^* G M  ==  sum_j ( q_j p_j + p_j^* q_j^* ) ,

where M is the column vector of the indexing words.  Matching coefficients
word by word gives exact linear constraints, one row per pair {w, w^*}
(the rows of w and w^* are the same row).

build_real_sdp writes each row once, as a dict over the unknowns of the
system, ("g", i, j) for G[i][j] with i <= j and ("q", j, v) for the
coefficient of the word v in q_j, and feeds the rows into one sparse exact
elimination (ExactAffineSystem, on ints wherever a value is integral) that
pivots on multiplier unknowns first, top-down by decreasing word length.
Once every row of length >= 2t is in, PSD propagation over the words of
length t (t = d - 1 first) finds the words whose diagonal entry the rows
pin to 0.  Such a word z leaves the face: G_zz = 0 forces its whole row
and column of a psd G to 0, so every later row, and the trace row, which
comes last, leaves out the G unknowns of z.  The build descends to layer t - 1 only when all of layer t left.
Rows are only ever added, and a subset of the rows implies nothing the
whole system does not, so the reduction is sound.  It is a degree-layered
partial facial reduction: the free-algebra analogue of the Newton chip
method (Burgdorf, Klep and Povh, Optimization of Polynomials in
Non-Commuting Variables, 2016) and of Permenter and Parrilo's partial
facial reduction.  The k words that stay are the face; problem.words,
problem.n and the names ("g", i, j) still index the full word list, but G
is 0 off the face: every G after the build is the k x k block on it, in
problem.face order.

Every solved G unknown on the face is then an expression
G_p - sum_f e_f G_f = c over free G unknowns of the face alone: these rows
cut out exactly the G on the face for which some multipliers exist, and
solve_feasibility (sdp) derives its float slice from them.  A row that
reduces to 0 = c proves the constraints inconsistent on the face; the
trace row over an empty face does so with c = 1.

The solved system is stored on the problem and serves the rest:

* exact_infeasibility_check: PSD propagation over the face on a copy of
  the system, by the routine the build descends with (a pinned negative
  diagonal raises Inconsistent; a pinned zero diagonal forces its row and
  column to zero), at any problem size.  When the system pins G
  completely, an exact PSD test decides feasibility outright.
  solve_feasibility runs it once, as its presolve.
* exact_lift: rounds a numeric face block G to small rationals along the
  free G unknowns of the solved system and sets the free multipliers to 0,
  producing an exactly feasible point when the rounded G is PSD.

Both read their point through one routine, _exact_point: evaluate the
solved system at an assignment of its free unknowns, keep it when the k x k
rational G on the face passes the exact PSD test, as that test's result
(its LDL^T gives the certificate's squares) and the multipliers.
"""

from dataclasses import dataclass
from fractions import Fraction

from .algebra import word_star, words_up_to
from .exactla import ExactAffineSystem, Inconsistent, _exact, psd_check_exact


@dataclass(eq=False)
class SdpProblem:
    """Feasibility problem: find G psd, 0 off the face, that meets the
    exact rows for some multipliers.

    n            -- the number of Gram words
    words        -- the Gram words, which the names ("g", i, j) index
    face         -- the indices of the k words G may be nonzero on,
                    ascending; G itself is the k x k block on them

    build_real_sdp also records exact_rows, the rows as (row, const) pairs
    in the order they were solved, each row a dict over the unknowns;
    gvars, the G unknowns ("g", i, j) on the face, i <= j, in svec order;
    qvars, the multiplier unknowns ("q", j, v), the coefficient of the word
    v in the multiplier of basis element j; and system: the rows solved
    exactly with the multipliers eliminated first (an ExactAffineSystem).
    solve_feasibility and the exact post-checks read that one system; its
    inconsistent flag is set when the constraints admit no solution on the
    face.  The system holds a G unknown off the face only when it pins it
    to 0.
    """

    n: int
    words: list
    face: list
    exact_rows: list
    gvars: list
    qvars: list
    system: object


def build_real_sdp(basis):
    """Build the feasibility SDP for the ideal of a left Groebner basis, on its face."""
    if not basis.elements:
        raise ValueError("empty basis: the zero ideal needs no SDP")
    if any(p.degree() == 0 for p in basis.elements):
        raise ValueError("basis contains a unit: the ideal is the whole algebra")
    g = basis.g
    order = basis.order
    d = max(p.degree() for p in basis.elements)
    words = [w for w in words_up_to(g, d - 1, order) if basis.is_irreducible_word(w)]
    stars = [word_star(w) for w in words]
    m = len(words)
    qvars = [
        ("q", j, v)
        for j, p in enumerate(basis.elements)
        for v in words_up_to(g, 2 * d - 1 - p.degree(), order)
    ]

    # Exact rows: one per pair {w, w*}, kept under w <= w*, as dicts over
    # the system's unknowns; a row's G unknowns precede its q unknowns,
    # since the elimination breaks pivot ties by first mention.
    rows = {}
    for a in range(m):
        for b in range(m):
            w = stars[a] + words[b]
            if w <= stars[b] + words[a]:  # the right side is w*
                row = rows.setdefault(w, {})
                var = ("g", min(a, b), max(a, b))
                row[var] = row.get(var, 0) + 1
    # the basis coefficients as the elimination stores them, int when integral
    terms = [[(u, _exact(c)) for u, c in p.terms.items()] for p in basis.elements]
    for var in qvars:
        _, j, v = var
        for u, c in terms[j]:
            # the term c vu of q_j p_j and its adjoint c (vu)* of p_j^* q_j^*
            w = v + u
            ws = word_star(w)
            row = rows.setdefault(min(w, ws), {})
            row[var] = row.get(var, 0) - (2 * c if w == ws else c)

    # Feed the rows by decreasing word length, multipliers eliminated
    # first.  Once the rows of length >= 2t are in, propagation over the
    # words of length t drops those whose diagonal is pinned to 0; later
    # rows and the trace row leave their G unknowns out.  Every row but the
    # trace row is homogeneous, so until it comes, every pinned value is 0:
    # the descent meets neither a negative diagonal nor a contradiction.
    system = ExactAffineSystem(priority=lambda var: 0 if var[0] == "q" else 1)
    exact_rows = []
    dropped = set()

    def feed(row, const):
        if dropped:
            row = {v: c for v, c in row.items()
                   if v[0] == "q" or (v[1] not in dropped and v[2] not in dropped)}
        exact_rows.append((row, const))
        system.add_row(row, const)

    pending = sorted(rows, key=order.key)  # longest words first
    fed = 0
    for t in range(d - 1, -1, -1):
        while fed < len(pending) and len(pending[fed]) >= 2 * t:
            feed(rows[pending[fed]], 0)
            fed += 1
        layer = [i for i in range(m) if len(words[i]) == t]
        zeros = _propagate(system, layer)
        dropped |= zeros
        if len(zeros) < len(layer):
            break
    for w in pending[fed:]:
        feed(rows[w], 0)
    face = [i for i in range(m) if i not in dropped]
    gvars = [("g", i, j) for a, i in enumerate(face) for j in face[a:]]
    try:
        feed({("g", i, i): 1 for i in face}, 1)
    except Inconsistent:
        pass  # system.inconsistent records it
    return SdpProblem(m, words, face, exact_rows, gvars, qvars, system)


def _exact_system(problem):
    """A copy of the problem's solved exact system, free to take more rows."""
    return problem.system.copy()


def _propagate(sys, indices):
    """PSD propagation over the G unknowns among indices, to a fixed point.

    A diagonal entry pinned to 0 forces the rest of its row and column
    among indices to 0, which may pin more diagonal entries.  Returns the
    set of indices whose diagonal is pinned to 0.  Raises Inconsistent as
    soon as a diagonal entry is pinned negative, or when a forced zero
    contradicts sys.
    """
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
                    key = ("g", min(i, j), max(i, j))
                    if j != i and sys.pinned_value(key) != 0:
                        sys.add_row({key: Fraction(1)}, Fraction(0))
    return zeros


def exact_infeasibility_check(problem):
    """Decide feasibility exactly, by PSD propagation on the solved system.

    Returns ("infeasible", None), ("feasible", point) with _exact_point's
    point, or ("unknown", None).  Sound in both decided directions:
    "infeasible" comes with a rational proof (inconsistency, a negative
    pinned diagonal after PSD propagation, a contradiction met while forcing
    zeros, or a fully pinned non-PSD G), "feasible" returns an exactly
    verified point.  Runs in rational arithmetic at any problem size, on a
    copy of the problem's system, which is not changed, and over the face
    alone: G is zero off it.
    """
    if problem.system.inconsistent:
        return "infeasible", None
    sys = _exact_system(problem)
    try:
        _propagate(sys, problem.face)
    except Inconsistent:
        return "infeasible", None
    if any(sys.pinned_value(v) is None for v in problem.gvars):
        return "unknown", None
    point = _exact_point(problem, sys, {v: Fraction(0) for v in sys.free_variables()})
    return ("infeasible", None) if point is None else ("feasible", point)


def exact_lift(problem, G_face):
    """Round a numeric G to an exactly feasible rational point, or None.

    G_face is the k x k block on the face, in problem.face order.  The free
    G unknowns of the solved system take its entries, rounded to
    denominators 10, 100, 10^4 and 10^6 in turn; the free multipliers are 0.
    The point is _exact_point's (psd, qdicts).
    """
    sys = problem.system
    if sys.inconsistent:
        return None
    at = {i: a for a, i in enumerate(problem.face)}
    numeric = {v: float(G_face[at[v[1]]][at[v[2]]]) if v[0] == "g" else 0.0
               for v in sys.free_variables()}
    for den in (10, 100, 10**4, 10**6):
        assignment = {v: Fraction(x).limit_denominator(den) for v, x in numeric.items()}
        point = _exact_point(problem, sys, assignment)
        if point is not None:
            return point
    return None


def _exact_point(problem, sys, assignment):
    """The point of sys at an assignment of its free unknowns, when G is PSD.

    Returns (psd, qdicts): psd the PsdResult, LDL^T included, of the k x k
    rational Gram matrix on the face, in problem.face order, and qdicts, per
    basis element index, the word-dict of its nonzero multiplier
    coefficients.  Returns None when G is not PSD.
    """
    at = {i: a for a, i in enumerate(problem.face)}
    G = [[None] * len(at) for _ in at]
    for var in problem.gvars:
        _, i, j = var
        G[at[i]][at[j]] = G[at[j]][at[i]] = sys.evaluate(var, assignment)
    psd = psd_check_exact(G)
    if not psd.is_psd:
        return None
    qdicts = {}
    for var in problem.qvars:
        c = sys.evaluate(var, assignment)
        if c:
            _, j, v = var
            qdicts.setdefault(j, {})[v] = c
    return psd, qdicts
