"""Assembly of the realness feasibility SDP and its exact rational post-checks.

For a left ideal with monic basis p_1, .., p_s of maximal degree d, index a
symmetric matrix G by the words of degree < d that are irreducible for the
basis (no leading word is a suffix).  The ideal fails to be real iff there
are G psd, nonzero (normalized by trace G = 1), and multipliers q_j with
deg(q_j p_j) < 2d such that

    M^* G M  ==  sum_j ( q_j p_j + p_j^* q_j^* ) ,

where M is the column vector of the indexing words.  Matching coefficients
word by word gives exact linear constraints; the multipliers are eliminated
by projecting onto the orthogonal complement of their column space, leaving
an affine slice of the PSD cone for the alternating-projection solver.

The same rows, kept as exact fractions, feed two rational procedures:

* exact_infeasibility_check: Gauss-Jordan elimination plus PSD propagation
  (a pinned negative diagonal kills feasibility; a pinned zero diagonal
  forces its row and column to zero).  When the system pins G completely,
  an exact PSD test decides feasibility outright.
* exact_lift: rounds a numeric solution to small rationals along the free
  variables of the solved system, producing an exactly feasible pair (G, q)
  when the rounding verifies.
"""

from fractions import Fraction

import numpy as np

from .algebra import word_star, words_up_to
from .exactla import ExactAffineSystem, Inconsistent, psd_check_exact, to_fraction_matrix
from .sdp import SdpProblem, svec


def build_real_sdp(basis):
    """Build the feasibility SDP for the ideal of a left Groebner basis."""
    if not basis.elements:
        raise ValueError("empty basis: the zero ideal needs no SDP")
    if any(p.degree() == 0 for p in basis.elements):
        raise ValueError("basis contains a unit: the ideal is the whole algebra")
    g = basis.g
    order = basis.order
    d = max(p.degree() for p in basis.elements)
    words = [w for w in words_up_to(g, d - 1, order) if basis.is_irreducible_word(w)]
    m = len(words)
    qvars = [
        (j, v)
        for j, p in enumerate(basis.elements)
        for v in words_up_to(g, 2 * d - 1 - p.degree(), order)
    ]

    # Exact rows: one per word w, sum gcoef * G[i][j]  -  sum qcoef * q = rhs.
    rows = {}

    def row(w):
        if w not in rows:
            rows[w] = ({}, {})
        return rows[w]

    for a in range(m):
        wa = word_star(words[a])
        for b in range(m):
            gdict, _ = row(wa + words[b])
            key = (min(a, b), max(a, b))
            gdict[key] = gdict.get(key, Fraction(0)) + 1
    for j, v in qvars:
        for u, c in basis.elements[j].terms.items():
            for w in (v + u, word_star(v + u)):
                _, qdict = row(w)
                qdict[(j, v)] = qdict.get((j, v), Fraction(0)) + c

    word_order = sorted(rows, key=order.key)
    exact_rows = [({(i, i): Fraction(1) for i in range(m)}, {}, Fraction(1))]
    exact_rows += [(rows[w][0], rows[w][1], Fraction(0)) for w in word_order]

    gvars = [(i, j) for i in range(m) for j in range(i, m)]
    gindex = {v: k for k, v in enumerate(gvars)}
    qindex = {v: k for k, v in enumerate(qvars)}
    sqrt2 = np.sqrt(2.0)
    C_G = np.zeros((len(exact_rows), len(gvars)))
    C_q = np.zeros((len(exact_rows), len(qvars)))
    rhs = np.zeros(len(exact_rows))
    for r, (gdict, qdict, const) in enumerate(exact_rows):
        for (i, j), c in gdict.items():
            # svec coordinate for i < j is sqrt(2) * G[i][j]
            C_G[r, gindex[(i, j)]] = float(c) if i == j else float(c) / sqrt2
        for key, c in qdict.items():
            C_q[r, qindex[key]] = -float(c)
        rhs[r] = float(const)

    # Eliminate the multipliers: project rows onto range(C_q)^perp.
    if qvars and np.abs(C_q).max() > 0:
        U, s, _ = np.linalg.svd(C_q, full_matrices=False)
        Q1 = U[:, s > s[0] * 1e-12]
        A0 = C_G - Q1 @ (Q1.T @ C_G)
        b0 = rhs - Q1 @ (Q1.T @ rhs)
    else:
        A0, b0 = C_G, rhs

    inconsistent = False
    residual = 0.0
    if np.abs(A0).max() == 0:
        A = np.zeros((0, len(gvars)))
        b = np.zeros(0)
        residual = float(np.linalg.norm(b0))
        inconsistent = residual > 1e-8
    else:
        U2, s2, V2t = np.linalg.svd(A0, full_matrices=False)
        r = int((s2 > s2[0] * 1e-12).sum())
        A = V2t[:r]
        x0 = V2t[:r].T @ ((U2[:, :r].T @ b0) / s2[:r])
        residual = float(np.linalg.norm(A0 @ x0 - b0))
        inconsistent = residual > 1e-8 * max(1.0, float(np.linalg.norm(b0)))
        b = A @ x0

    return SdpProblem(
        m, words, A, b, inconsistent, residual, g=g, order=order,
        exact_rows=exact_rows, gvars=gvars, qvars=qvars, C_G=C_G, C_q=C_q, rhs=rhs,
    )


def recover_multipliers(problem, G):
    """Least-squares multipliers for a numeric G: one float word-dict per basis element."""
    if not problem.qvars:
        return {}
    target = problem.rhs - problem.C_G @ svec(G)
    sol, *_ = np.linalg.lstsq(problem.C_q, target, rcond=None)
    out = {}
    for k, (j, v) in enumerate(problem.qvars):
        if abs(sol[k]) > 0:
            out.setdefault(j, {})[v] = float(sol[k])
    return out


def _exact_system(problem):
    sys = ExactAffineSystem()
    for gdict, qdict, const in problem.exact_rows:
        rowvars = {("g",) + key: c for key, c in gdict.items()}
        for key, c in qdict.items():
            rowvars[("q",) + key] = -c
        sys.add_row(rowvars, const)
    return sys


def exact_infeasibility_check(problem, max_unknowns=120):
    """Decide feasibility exactly when the system is small or rigid enough.

    Returns ("infeasible", None), ("feasible", (G, qdicts)), or
    ("unknown", None).  Sound in both decided directions: "infeasible" comes
    with a rational proof (inconsistency, a negative pinned diagonal after
    PSD propagation, or a fully pinned non-PSD G), "feasible" returns an
    exactly verified point.
    """
    if len(problem.gvars) + len(problem.qvars) > max_unknowns:
        return "unknown", None
    try:
        sys = _exact_system(problem)
    except Inconsistent:
        return "infeasible", None
    m = problem.n
    forced = set()
    while True:
        progress = False
        for i in range(m):
            val = sys.pinned_value(("g", i, i))
            if val is None:
                continue
            if val < 0:
                return "infeasible", None
            if val == 0:
                # psd forces the whole row and column to vanish
                for j in range(m):
                    if j == i:
                        continue
                    key = ("g", min(i, j), max(i, j))
                    if key in forced:
                        continue
                    forced.add(key)
                    if sys.pinned_value(key) == 0:
                        continue
                    try:
                        sys.add_row({key: Fraction(1)}, Fraction(0))
                    except Inconsistent:
                        return "infeasible", None
                    progress = True
        if not progress:
            break
    values = {}
    for i, j in problem.gvars:
        v = sys.pinned_value(("g", i, j))
        if v is None:
            return "unknown", None
        values[(i, j)] = v
    G = [[values[(min(i, j), max(i, j))] for j in range(m)] for i in range(m)]
    res = psd_check_exact(G)
    if not res.is_psd:
        return "infeasible", None
    assignment = {v: Fraction(0) for v in sys.free_variables()}
    qdicts = {}
    for j, v in problem.qvars:
        c = sys.evaluate(("q", j, v), assignment)
        if c:
            qdicts.setdefault(j, {})[v] = c
    return "feasible", (G, qdicts)


def exact_lift(problem, G_num, q_num, denominators=(10, 100, 10**4, 10**6)):
    """Round a numeric solution to an exactly feasible rational (G, q), or None."""
    try:
        sys = _exact_system(problem)
    except Inconsistent:
        return None
    free = sys.free_variables()
    numeric = {}
    for var in free:
        if var[0] == "g":
            numeric[var] = float(G_num[var[1]][var[2]])
        else:
            numeric[var] = q_num.get(var[1], {}).get(var[2], 0.0)
    m = problem.n
    for den in denominators:
        assignment = {v: Fraction(numeric[v]).limit_denominator(den) for v in free}
        values = {
            (i, j): sys.evaluate(("g", i, j), assignment) for i, j in problem.gvars
        }
        G = [[values[(min(i, j), max(i, j))] for j in range(m)] for i in range(m)]
        if not psd_check_exact(to_fraction_matrix(G)).is_psd:
            continue
        qdicts = {}
        for j, v in problem.qvars:
            c = sys.evaluate(("q", j, v), assignment)
            if c:
                qdicts.setdefault(j, {})[v] = c
        return G, qdicts
    return None
