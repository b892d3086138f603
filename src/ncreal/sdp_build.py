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

build_real_sdp writes each row once, as a dict of ints over the unknowns
of the system, each named by an int: i n + j for G[i][j] with i <= j and
n = problem.n, and -1 - k for the coefficient of v in q_j over D_j, with
problem.qvars[k] = (j, v, D_j) and D_j the lcm of p_j's denominators, so
that D_j p_j has integer terms.  It builds the rows one word length at a
time, top-down, as the descent reaches that length, and feeds them into
one fraction-free exact elimination (ExactAffineSystem) that pivots on
multiplier unknowns, the negative names, first.
The words of a layer are integers, not tuples: a word's letter ranks
under the basis order, read as digits in base B = 2 order.g, so that
among words of one length the smaller code is the greater word; each pair
{w, w^*} is kept under its greater word, and the layer's rows sort by
that code, greatest word first.
Once every row of length >= 2t is in, PSD propagation over the words of
length t (t = d - 1 first) finds the words whose diagonal entry the rows
pin to 0.  Such a word z leaves the face: G_zz = 0 forces its whole row
and column of a psd G to 0, so no later row, nor the trace row, which
comes last, holds a G unknown of z, and a row of none but such unknowns
is never built.  The build descends to layer t - 1 only when all of layer
t left.
Rows are only ever added, and a subset of the rows implies nothing the
whole system does not, so the reduction is sound.  It is a degree-layered
partial facial reduction: the free-algebra analogue of the Newton chip
method (Burgdorf, Klep and Povh, Optimization of Polynomials in
Non-Commuting Variables, 2016) and of Permenter and Parrilo's partial
facial reduction.  The k words that stay are the face; problem.words,
problem.n and the G names i n + j still index the full word list, but G
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
(its LDL^T gives the certificate's squares) and the multipliers, each
unknown -1 - k times its D_j.
"""

from fractions import Fraction
from math import lcm

from .algebra import word_star
from .exactla import ExactAffineSystem, Inconsistent, psd_check_exact


class SdpProblem:
    """Feasibility problem: find G psd, 0 off the face, that meets the
    exact rows for some multipliers.

    n            -- the number of Gram words
    words        -- the Gram words, which the G names i n + j index
    face         -- the indices of the k words G may be nonzero on,
                    ascending; G itself is the k x k block on them

    build_real_sdp also records exact_rows, the rows as (row, const) pairs
    in the order they were solved, each row a dict of ints over the
    unknowns that were live when it was built, the trace row last; gvars,
    the G unknowns, ints i n + j on the face, i <= j, the coordinates of the
    float slice (sdp._component_rows); qvars, one triple (j, v, D_j) per
    multiplier unknown, the int -1 - k, k its index: the unknown is the
    coefficient of the word v in the multiplier of basis element j over D_j;
    and system: the rows solved exactly with the multipliers, the negative
    names, eliminated first (an ExactAffineSystem).
    solve_feasibility and the exact post-checks read that one system; its
    inconsistent flag is set when the constraints admit no solution on the
    face.  The system holds a G unknown off the face only when it pins it
    to 0.
    """

    __slots__ = ("n", "words", "face", "exact_rows", "gvars", "qvars", "system")

    def __init__(self, n, words, face, exact_rows, gvars, qvars, system):
        self.n, self.words, self.face, self.exact_rows = n, words, face, exact_rows
        self.gvars, self.qvars, self.system = gvars, qvars, system


def build_real_sdp(basis):
    """Build the feasibility SDP for the ideal of a left Groebner basis, on its face.

    Inside the build a word is one integer in base B = 2 order.g
    (_coded_words), its rank code: its letter ranks (letter_key) as digits.
    A product is one multiply-add, code(xy) = code(x) B^|y| + code(y), and
    Gram words, terms and multiplier words carry the code of their adjoint
    too.  Among words of one length rank-code order is letter_key order, the
    basis order, greatest word first, so the pair {w, w*} is kept under the
    smaller code, its greater word, and a layer's rows, keyed by that code
    (all of one length, so no two share a code), go in as sorted(rows).
    Words become tuples only where they leave the build:
    problem.words and the v of problem.qvars.  The elimination fixes each
    unknown's pivot rank (multipliers first, then first mention) when it is
    first mentioned.
    """
    if not basis.elements:
        raise ValueError("empty basis: the zero ideal needs no SDP")
    if any(p.degree() == 0 for p in basis.elements):
        raise ValueError("basis contains a unit: the ideal is the whole algebra")
    g = basis.g
    order = basis.order
    d = max(p.degree() for p in basis.elements)
    B = 2 * order.g
    power = [B**k for k in range(2 * d)]
    gram = [cw for cw in _coded_words(g, d - 1, order) if basis.is_irreducible_word(cw[0])]
    words, rank, star_rank = map(list, zip(*gram))
    m = len(words)
    # per basis element: its multiplier unknowns (name, codes of v and v*) by
    # the length of v, and the integer terms (codes of u and u*, c) of D_j p_j
    # by the length of u
    qvars, qblocks = [], []
    for j, p in enumerate(basis.elements):
        D = lcm(*(c.denominator for c in p.terms.values()))
        terms = {}
        for u, c in p.terms.items():
            codes = [_value(order.letter_key(x), B) for x in (u, word_star(u))]
            terms.setdefault(len(u), []).append((*codes, c.numerator * (D // c.denominator)))
        unknowns = {}
        for v, *codes in _coded_words(g, 2 * d - 1 - p.degree(), order):
            unknowns.setdefault(len(v), []).append((-1 - len(qvars), *codes))
            qvars.append((j, v, D))
        qblocks.append((unknowns, terms))

    # The rows of each word length L, top-down, built when the descent
    # reaches L: one per pair {w, w*}, kept and keyed under the smaller
    # code, its greater word, so sorted(rows) is the basis order; G unknowns
    # of the face first, in (a, b) order, then multipliers, since the
    # elimination breaks pivot ties by first mention.  After
    # the rows of length 2t, propagation over the words of length t drops
    # those pinned to 0.  Every row but the trace row is homogeneous, so the
    # descent meets neither a negative diagonal nor a contradiction.
    system = ExactAffineSystem(priority=lambda var: 0 if var < 0 else 1)
    exact_rows = []
    face = list(range(m))
    descending = True
    for L in range(2 * d - 1, -1, -1):
        rows = {}
        on_face = {}
        for i in face:
            on_face.setdefault(len(words[i]), []).append(i)
        for a in face:
            la = len(words[a])
            bs = on_face.get(L - la)
            if bs is None:
                continue
            # w = a* b and w* = b* a: a*'s code shifted past b, plus b's
            pa, pb = power[la], power[L - la]
            head = star_rank[a] * pb
            for b in bs:
                key = head + rank[b]
                if key <= star_rank[b] * pa + rank[a]:
                    row = rows.setdefault(key, {})
                    var = a * m + b if a <= b else b * m + a
                    row[var] = row.get(var, 0) + 1
        for unknowns, terms in qblocks:
            for lv, named in unknowns.items():
                if L - lv in terms:
                    # the term c vu of q_j p_j and its adjoint c u*v* of p_j^* q_j^*
                    pu, pv = power[L - lv], power[lv]
                    scaled = [(ru, rus * pv, c) for ru, rus, c in terms[L - lv]]
                    for var, rv, rvs in named:
                        rv *= pu
                        for ru, rus, c in scaled:
                            w, ws = rv + ru, rus + rvs
                            if w < ws:
                                row = rows.setdefault(w, {})
                            else:
                                row = rows.setdefault(ws, {})
                                if w == ws:
                                    c *= 2
                            row[var] = row.get(var, 0) - c
        for key in sorted(rows):
            exact_rows.append((rows[key], 0))
            system.add_row(rows[key], 0)
        if descending and L % 2 == 0:
            layer = [i for i in face if len(words[i]) == L // 2]
            zeros = _propagate(system, layer, m)
            face = [i for i in face if i not in zeros]
            descending = len(zeros) == len(layer)
    gvars = [i * m + j for a, i in enumerate(face) for j in face[a:]]
    trace = {i * m + i: 1 for i in face}
    exact_rows.append((trace, 1))
    try:
        system.add_row(trace, 1)
    except Inconsistent:
        pass  # system.inconsistent records it
    return SdpProblem(m, words, face, exact_rows, gvars, qvars, system)


def _coded_words(g, k, order):
    """(w, rank, star rank) for each w of words_up_to(g, k, order), in its
    order.  The rank code of w reads its letter ranks (letter_key(w)) as
    digits in base B = 2 order.g; the star rank is that of w*.  Each length
    is built from the one below, one multiply-add per code: w c is w's code
    times B plus c's, and (w c)* = c* w* is c*'s code times B^|w| plus w*'s."""
    B = 2 * order.g
    rank = order.letter_key(range(B))
    letters = [(c, rank[c], rank[c ^ 1]) for c in order.ranking if c < 2 * g]
    layer = [((), 0, 0)]
    coded = layer[:]
    scale = 1  # B^n, n the length of the words of layer
    for _ in range(k):
        layer = [(w + (c,), r * B + rc, rcs * scale + rs)
                 for w, r, rs in layer for c, rc, rcs in letters]
        scale *= B
        coded += layer
    return coded


def _value(digits, base):
    """The integer whose base-`base` digits are digits, most significant first."""
    x = 0
    for digit in digits:
        x = x * base + digit
    return x


def _exact_system(problem):
    """A copy of the problem's solved exact system, free to take more rows,
    its unknowns named ("g", i, j) for i n + j and ("q", k) for -1 - k."""
    return problem.system.renamed(
        lambda v: ("q", -1 - v) if v < 0 else ("g", *divmod(v, problem.n)),
        lambda var: 0 if var[0] == "q" else 1)


def _propagate(sys, indices, n):
    """PSD propagation over the G unknowns i n + j among indices, to a fixed point.

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
            val = sys.pinned_value(i * n + i)
            if val is None:
                continue
            if val < 0:
                raise Inconsistent(val)
            if val == 0:
                zeros.add(i)
                progress = True
                # a pair with an earlier zero was forced when that one was
                for j in indices:
                    if j not in zeros:
                        key = i * n + j if i < j else j * n + i
                        if sys.pinned_value(key) != 0:
                            sys.add_row({key: 1}, 0)
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
    sys = problem.system.copy()
    try:
        _propagate(sys, problem.face, problem.n)
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
    at, n = {i: a for a, i in enumerate(problem.face)}, problem.n
    numeric = {v: float(G_face[at[v // n]][at[v % n]]) if v >= 0 else 0.0
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
        i, j = divmod(var, problem.n)
        G[at[i]][at[j]] = G[at[j]][at[i]] = sys.evaluate(var, assignment)
    psd = psd_check_exact(G)
    if not psd.is_psd:
        return None
    qdicts = {}
    for k, (j, v, D) in enumerate(problem.qvars):
        c = sys.evaluate(-1 - k, assignment)
        if c:
            qdicts.setdefault(j, {})[v] = D * c
    return psd, qdicts
