"""Deciding whether a finitely generated left ideal is real.

A left ideal I is real when sum_i a_i^* a_i in I + I^* forces every a_i
into I; for finitely generated ideals this is equivalent to the left
Nullstellensatz for I.  A verdict is one of

    Real             -- proved real (exact reasoning)
    NotReal          -- proved not real, with a certificate
    NumericallyReal  -- the SDP stalled the way infeasible problems do, but
                        no exact proof was extracted
    Inconclusive     -- nothing could be certified

A NonRealCertificate consists of multipliers q_t (one per input generator)
and a weighted SOS such that

    sum_t ( q_t gen_t + gen_t^* q_t^* )  ==  sum_k w_k r_k^* r_k ,

with some member r_k outside the ideal: the sum of squares lands in
I + I^* while a square root escapes I, which is exactly non-realness.
Every certificate is exact: Poly multipliers and members, Fraction
weights.  The SDP route reports NotReal only with a rational witness, a
lifted numeric solution or a point the exact check pins down; projections
that converge without one are Inconclusive.  Its exact check runs at any
problem size.

verify_nonreal_certificate(gens, cert, basis=None) forms the defect,
lhs - rhs, as one coefficient dict on the canonical words w <= w^* (both
sides are symmetric, so these decide it) and accepts only an empty defect,
positive weights, rational numbers throughout and some member of nonzero
normal form; basis= takes a precomputed left Groebner basis.  Every
decider returns an unchecked certificate against what it was given: the
closed forms against their own input, the SDP route against the Groebner
basis, with the squares read off the exact LDL^T of its rational G.
real_test realigns each onto its generators and verifies it once, at one
site, and an SDP certificate that fails is an internal error there just
as a closed-form one is.  Direct callers of a decider use the verifier.

Dispatch tries exact closed forms first -- monomial ideals, purely
analytic generators, linear, univariate quadratic, homogeneous principal,
analytic + antianalytic -- and falls back to the semidefinite feasibility
route with exact rational post-processing.
"""

from fractions import Fraction
from numbers import Rational

from .algebra import (
    MonomialOrder,
    Poly,
    shrink_length,
    word_star,
    word_str,
)
from .exactla import ldl_squares, psd_check_exact
from .factor import factor_homogeneous
from .gram import decompose_quadratic_univariate, pm_sos_kind, quad_coeffs
from .groebner import left_groebner
from .parsing import parse_poly, poly_str
from .sdp import solve_feasibility
from .sdp_build import build_real_sdp, exact_infeasibility_check, exact_lift

REAL = "Real"
NOT_REAL = "NotReal"
NUMERICALLY_REAL = "NumericallyReal"
INCONCLUSIVE = "Inconclusive"


# ---------------------------------------------------------------------------
# certificates and verdicts
# ---------------------------------------------------------------------------

class NonRealCertificate:
    """Witness of non-realness; see the module docstring for the identity.

    Multipliers and members are Polys, weights Fractions.  exact is always
    True; saved documents carry it as "exact": true.
    """

    exact = True

    def __init__(self, multipliers, weights, members):
        self.multipliers = list(multipliers)
        self.weights = list(weights)
        self.members = list(members)

    def to_json(self):
        return {
            "exact": True,
            "multipliers": [poly_str(q) for q in self.multipliers],
            "sos": {
                "weights": [str(w) for w in self.weights],
                "polys": [poly_str(r) for r in self.members],
            },
        }

    @classmethod
    def from_json(cls, data, g):
        """Inverse of to_json; raises ValueError on a malformed document."""
        if _field(data, "exact", bool) is not True:
            raise ValueError("malformed certificate: only exact certificates exist")
        multipliers = _field(data, "multipliers", list)
        sos = _field(data, "sos", dict)
        weights, polys = _field(sos, "weights", list), _field(sos, "polys", list)
        try:
            return cls(
                [parse_poly(q, g) for q in multipliers],
                [Fraction(w) for w in weights],
                [parse_poly(r, g) for r in polys],
            )
        except (AttributeError, TypeError, OverflowError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed certificate: {exc}") from None


def _field(data, key, kind):
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, kind):
        raise ValueError(f"malformed certificate: {key!r} must be a {kind.__name__}")
    return value


class RealnessVerdict:
    def __init__(self, status, method, certificate=None, residual=None, detail=""):
        self.status = status
        self.method = method
        self.certificate = certificate
        self.residual = residual
        self.detail = detail

    def to_json(self):
        return {
            "status": self.status,
            "method": self.method,
            "detail": self.detail,
            "residual": self.residual,
            "certificate": self.certificate.to_json() if self.certificate else None,
        }

    def __repr__(self):
        return f"RealnessVerdict({self.status}, method={self.method!r})"


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------

def _terms(p):
    return p.terms if isinstance(p, Poly) else p


def _defect(gens, multipliers, weights, members):
    """sum_t (q_t gen_t + gen_t^* q_t^*) - sum_k w_k r_k^* r_k as one coefficient dict.

    Both sides are symmetric, so the defect vanishes iff its coefficients
    on the canonical words, w <= w^* as tuples, do; only those are kept.  A
    summand c w of Y + Y^* lands on the canonical word min(w, w^*), with 2c
    when w = w^*.  Y is q_t gen_t on the left, and on the right the pairs
    u^* v of member terms with u before v (r^* r = Y + Y^* + the diagonal
    sum of c_u^2 u^* u).  Neither product is formed.
    """
    acc = {}

    def add(w, ws, c):
        if w < ws:
            acc[w] = acc.get(w, 0) + c
        elif w == ws:
            acc[w] = acc.get(w, 0) + 2 * c
        else:
            acc[ws] = acc.get(ws, 0) + c

    for q, p in zip(multipliers, gens):
        gen_terms = [(b, word_star(b), cb) for b, cb in p.terms.items()]
        for a, ca in q.items():
            a_star = word_star(a)
            for b, b_star, cb in gen_terms:
                add(a + b, b_star + a_star, ca * cb)
    for wk, r in zip(weights, members):
        terms = [(u, word_star(u), cu) for u, cu in r.items()]
        for i, (u, u_star, cu) in enumerate(terms):
            scaled = -wk * cu
            diag = u_star + u  # symmetric, hence canonical
            acc[diag] = acc.get(diag, 0) + scaled * cu
            for v, v_star, cv in terms[i + 1:]:
                add(u_star + v, v_star + u, scaled * cv)
    return {w: c for w, c in acc.items() if c}


def verify_nonreal_certificate(gens, cert, tol=None, basis=None):
    """Check a NonRealCertificate against the generators it claims to refute.

    The certificate must hold rational numbers only, its defect (lhs - rhs
    of the identity, on the canonical words) must be empty, its weights
    positive, and some member must have a nonzero normal form.  basis, when
    given, is a left Groebner basis of the ideal generated by gens;
    otherwise one is computed.  tol is accepted for compatibility and
    unused: the check is exact.
    """
    gens = list(gens)
    if not gens or len(cert.multipliers) != len(gens):
        return False
    if len(cert.weights) != len(cert.members):
        return False
    qs = [_terms(q) for q in cert.multipliers]
    rs = [_terms(r) for r in cert.members]
    numbers = [*cert.weights, *(c for d in qs + rs for c in d.values())]
    if not all(isinstance(c, Rational) for c in numbers):
        return False
    if _defect(gens, qs, cert.weights, rs) or any(w <= 0 for w in cert.weights):
        return False
    if basis is None:
        basis = left_groebner(gens)
    return any(any(basis.reduce(r).values()) for r in rs)


# ---------------------------------------------------------------------------
# exact deciders
# ---------------------------------------------------------------------------

def real_monomial_ideal(gens):
    """Realness of an ideal generated by (nonconstant) monomials.

    After discarding generators that are left multiples of others, the
    ideal is real iff every surviving word w avoids the shape w = u u* v
    with u nonempty.  A shrinkable survivor yields the certificate
    q = v^*/(2c) against c*w, with member u^* v:
    q (c w) + (c w)^* q^* = v^* w = (u^* v)^* (u^* v).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    g = gens[0].g
    words = []
    for p in gens:
        if not p.is_monomial() or p.is_constant():
            raise ValueError("generators must be nonconstant monomials")
        (w, _), = p.terms.items()
        words.append(w)
    survivors = []
    for i, w in enumerate(words):
        redundant = False
        for j, u in enumerate(words):
            if j == i:
                continue
            if len(u) < len(w) and w[len(w) - len(u):] == u:
                redundant = True
                break
            if u == w and j < i:
                redundant = True
                break
        if not redundant:
            survivors.append(i)
    for i in survivors:
        w = words[i]
        k = shrink_length(w)
        if k is None:
            continue
        v = w[2 * k:]
        member = Poly.from_word(g, w[k:])
        c = gens[i].terms[w]
        mult = [Poly.zero(g) for _ in gens]
        mult[i] = Poly.from_word(g, word_star(v), Fraction(1, 2) / c)
        cert = NonRealCertificate(mult, [Fraction(1)], [member])
        return RealnessVerdict(
            NOT_REAL, "monomial", cert,
            detail=f"generator {word_str(w)} shrinks at length {k}",
        )
    return RealnessVerdict(
        REAL, "monomial",
        detail="all minimal generating words are left unshrinkable",
    )


def _analytic_antianalytic_core(p, method):
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


def real_linear(p):
    """Realness of a principal ideal with a degree-1 generator."""
    if p.degree() != 1:
        raise ValueError("generator must have degree 1")
    return _analytic_antianalytic_core(p, "linear")


def real_analytic_antianalytic(p):
    """Realness of (p) for p = analytic + antianalytic, nonconstant.

    Not real exactly when p = a - a^* + c with a nonzero constant c.
    """
    return _analytic_antianalytic_core(p, "analytic-antianalytic")


def real_quadratic_univariate(p):
    """Realness of (p) for a univariate quadratic, by closed form.

    With p = a0 + a1 x + a2 x* + a3 x^2 + a4 x x* + a5 x* x + a6 x*^2:

    * if a4 + a6 != 0 or a3 + a5 != 0, the ideal is not real iff
      +(p + p*) or -(p + p*) is a nonzero sum of squares (constant
      multiplier certificate);
    * otherwise a5 = -a3 and a6 = -a4, and a degree-one multiplier
      q = q0 + t(a4 x + a3 x*) decides, split on a3 + a4.
    """
    if p.g != 1 or p.variables_used() not in (set(), {1}):
        raise ValueError("generator must be univariate (relabel to x1 first)")
    if p.degree() != 2:
        raise ValueError("generator must have degree 2")
    a0, a1, a2, a3, a4, a5, a6 = (
        p.coefficient(w) for w in [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    )
    if a4 + a6 != 0 or a3 + a5 != 0:
        sym = p + p.star()
        if sym:
            for sign in (Fraction(1), Fraction(-1)):
                cert = _quadratic_certificate(p, Poly.constant(1, sign))
                if cert is not None:
                    return RealnessVerdict(
                        NOT_REAL, "quadratic-univariate", cert,
                        detail=f"{'+' if sign > 0 else '-'}(p + p*) is a nonzero sum of squares",
                    )
        return RealnessVerdict(REAL, "quadratic-univariate")
    if a3 + a4 == 0:
        # quadratic part is -a4 (x - x*)^2 with a4 != 0
        witness = a1 + a2 == 0 and (a2 * a4 != 0 or (a0 * a4 >= 0 and (a0 or a4)))
        if witness:
            if a2 * a4 != 0:
                q0, t = Fraction(0), Fraction(1 if a2 * a4 > 0 else -1)
            else:
                q0, t = Fraction(1 if a4 > 0 else -1), Fraction(0)
        else:
            return RealnessVerdict(REAL, "quadratic-univariate")
    else:
        if a1 + a2 == 0 or a0 * (a3 + a4) ** 2 != (a1 + a2) * (a1 * a4 - a2 * a3):
            return RealnessVerdict(REAL, "quadratic-univariate")
        t = Fraction(1 if (a1 + a2) * (a3 + a4) > 0 else -1)
        q0 = (a1 * a4 - a2 * a3) * t / (a3 + a4)
    x = Poly.gen(1, 1)
    q = Poly.constant(1, q0) + t * a4 * x + t * a3 * x.star()
    cert = _quadratic_certificate(p, q)
    if cert is None:
        raise AssertionError("internal error: constructed multiplier gives no SOS")
    return RealnessVerdict(
        NOT_REAL, "quadratic-univariate", cert,
        detail=f"multiplier q = {poly_str(q)}",
    )


def _quadratic_certificate(p, q):
    """Certificate for a univariate quadratic from multiplier q, or None."""
    s = q * p + p.star() * q.star()
    if not s:
        return None
    sos = decompose_quadratic_univariate(*quad_coeffs(s))
    if sos is None:
        return None
    return NonRealCertificate([q], sos.weights, sos.polys)


def _prefix_products(fac, g):
    prods = []
    cur = Poly.constant(g, fac.scalar)
    for f in fac.factors:
        cur = cur * f
        prods.append(cur)
    return prods


def real_principal_homogeneous(p, order=None):
    """Realness of (p) for nonzero homogeneous p, via the factorization.

    With p = c f_1 ... f_k, the ideal fails to be real iff some prefix
    product P_l = c f_1 ... f_l has +(P_l + P_l^*) or -(P_l + P_l^*) a
    nonzero sum of squares; the multiplier is then +-(f_{l+1} ... f_k)^*
    and the members are r F for the squares r and the tail F.
    """
    if not p or not p.is_homogeneous() or p.degree() < 1:
        raise ValueError("generator must be nonzero homogeneous of degree >= 1")
    g = p.g
    if order is None:
        order = MonomialOrder(g)
    fac = factor_homogeneous(p, order)
    for ell, prod in enumerate(_prefix_products(fac, g), start=1):
        kind, sos = pm_sos_kind(prod + prod.star(), order)
        if kind not in ("plus", "minus"):
            continue
        sign = Fraction(1 if kind == "plus" else -1)
        q = Poly.constant(g, sign)
        for f in reversed(fac.factors[ell:]):
            q = q * f.star()
        tail = Poly.one(g)
        for f in fac.factors[ell:]:
            tail = tail * f
        cert = NonRealCertificate([q], sos.weights, [r * tail for r in sos.polys])
        return RealnessVerdict(
            NOT_REAL, "principal-homogeneous", cert,
            detail=f"prefix product of the first {ell} factor(s) has a signed SOS symmetrization",
        )
    return RealnessVerdict(
        REAL, "principal-homogeneous",
        detail="no signed prefix symmetrization is a nonzero sum of squares",
    )


def realness_prefilter_principal(p, order=None):
    """Cheap exact filter for arbitrary principal ideals.

    Factor the top-degree part; when no signed symmetrized prefix product
    is even a sum of squares (zero included), the ideal is real.  Returns a
    Real verdict or None.
    """
    if not p or p.is_constant():
        raise ValueError("generator must be nonconstant")
    if order is None:
        order = MonomialOrder(p.g)
    fac = factor_homogeneous(p.leading_part(), order)
    for prod in _prefix_products(fac, p.g):
        kind, _ = pm_sos_kind(prod + prod.star(), order)
        if kind != "neither":
            return None
    return RealnessVerdict(
        REAL, "prefilter",
        detail="no signed symmetrized prefix of the leading part is a sum of squares",
    )


# ---------------------------------------------------------------------------
# realignment
# ---------------------------------------------------------------------------

def _realign(multipliers, reps, ngens):
    """{i: q_i} against h_i = sum_t reps[i][t] gens[t] -> [q_t] against gens.

    out[t] = sum_i q_i reps[i][t], on coefficient dicts of any number type;
    q_i and reps[i][t] may be Polys or dicts.
    """
    out = [{} for _ in range(ngens)]
    for i, q in multipliers.items():
        for t, r in enumerate(reps[i]):
            acc = out[t]
            for u, cu in _terms(q).items():
                for v, cv in _terms(r).items():
                    key = u + v
                    acc[key] = acc.get(key, 0) + cu * cv
    return [{w: c for w, c in acc.items() if c} for acc in out]


def _checked(verdict, gens, reps, basis=None):
    """Realign a verdict's certificate onto gens and verify it once.

    reps[i][t] writes the i-th polynomial the certificate's multipliers
    refer to as a combination of gens.  A certificate that fails is an
    internal error, whichever route built it.
    """
    cert = verdict.certificate
    if cert is not None:
        mult = _realign(dict(enumerate(cert.multipliers)), reps, len(gens))
        cert = NonRealCertificate(
            [Poly(gens[0].g, q) for q in mult], cert.weights, cert.members,
        )
        if not verify_nonreal_certificate(gens, cert, basis=basis):
            raise AssertionError(f"internal error: {verdict.method} certificate failed to verify")
        verdict.certificate = cert
    return verdict


# ---------------------------------------------------------------------------
# SDP route
# ---------------------------------------------------------------------------

def _sdp_route(basis, tol, max_iter):
    """The feasibility route; a certificate is against basis.elements."""
    problem = build_real_sdp(basis)
    result = solve_feasibility(problem, tol=tol, max_iter=max_iter)

    point = exact_lift(problem, result.G) if result.status == "feasible" else None
    if point is not None:
        detail = "numeric solution lifted to an exact rational witness"
    else:
        exact_status, point = exact_infeasibility_check(problem)
        if exact_status == "infeasible":
            return RealnessVerdict(
                REAL, "sdp-exact",
                detail="exact elimination refutes the feasibility system",
            )
        detail = "exact elimination produced a feasible witness"
    if point is not None:
        G, qdicts = point
        weights, rows = ldl_squares(psd_check_exact(G), problem.words)
        cert = NonRealCertificate(
            [Poly(basis.g, qdicts.get(j, {})) for j in range(len(basis.elements))],
            weights, [Poly(basis.g, dict(r)) for r in rows],
        )
        return RealnessVerdict(NOT_REAL, "sdp-exact", cert, detail=detail)
    if result.status == "likely_infeasible":
        return RealnessVerdict(
            NUMERICALLY_REAL, "sdp-numeric", residual=result.final_gap,
            detail=f"projection gap stalled at {result.final_gap:.3e} "
                   f"after {result.iterations} steps",
        )
    if result.status == "feasible":
        detail = f"projections converged in {result.iterations} steps, but no rational lift verified"
    else:
        detail = f"no decision within {result.iterations} projection steps"
    return RealnessVerdict(INCONCLUSIVE, "sdp-numeric", residual=result.final_gap, detail=detail)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _decide_single_exact(p, order):
    """Closed-form chain for one nonconstant generator; None when none applies.

    Certificates are against [p] and unverified; real_test checks them.
    """
    if p.degree() == 1:
        return real_linear(p)
    used = p.variables_used()
    if p.degree() == 2 and len(used) == 1:
        var = used.pop()
        verdict = real_quadratic_univariate(p.relabel_variable(var, 1, 1))
        cert = verdict.certificate
        if cert is not None:
            verdict.certificate = NonRealCertificate(
                [q.relabel_variable(1, var, p.g) for q in cert.multipliers],
                cert.weights,
                [r.relabel_variable(1, var, p.g) for r in cert.members],
            )
        return verdict
    if p.is_homogeneous():
        return real_principal_homogeneous(p, order)
    try:
        return _analytic_antianalytic_core(p, "analytic-antianalytic")
    except ValueError:
        pass
    return realness_prefilter_principal(p, order)


def real_test(gens, order=None, method="auto", tol=1e-8, max_iter=20000):
    """Decide realness of the left ideal generated by gens.

    method: "auto" (closed forms, then SDP), "exact" (closed forms only;
    Inconclusive when none applies), or "sdp" (the feasibility route
    directly).  Certificate multipliers always align with the gens list as
    given, including zero entries, and every returned certificate has
    passed verify_nonreal_certificate against gens.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    g = gens[0].g
    if any(p.g != g for p in gens):
        raise ValueError("generators live in algebras with different numbers of variables")
    if method not in ("auto", "exact", "sdp"):
        raise ValueError(f"unknown method {method!r}")
    if order is None:
        order = MonomialOrder(g)

    live = [(t, p) for t, p in enumerate(gens) if p]
    if not live:
        return RealnessVerdict(REAL, "zero-ideal", detail="every generator is zero")
    if any(p.is_constant() for _, p in live):
        return RealnessVerdict(
            REAL, "unit-ideal", detail="a generator is a nonzero constant",
        )

    if method in ("auto", "exact"):
        # reps[i] writes the i-th nonzero generator as a combination of gens
        reps = [[{(): 1} if s == t else {} for s in range(len(gens))] for t, _ in live]
        if all(p.is_monomial() for _, p in live):
            return _checked(real_monomial_ideal([p for _, p in live]), gens, reps)
        if all(p.is_analytic() for _, p in live):
            return RealnessVerdict(
                REAL, "analytic", detail="analytic generators always give a real ideal",
            )
        if len(live) == 1:
            verdict = _decide_single_exact(live[0][1], order)
            if verdict is not None:
                return _checked(verdict, gens, reps)

    basis = left_groebner(gens, order)
    if any(p.is_constant() for p in basis.elements):
        return RealnessVerdict(
            REAL, "unit-ideal", detail="the basis contains a nonzero constant",
        )
    if method in ("auto", "exact") and len(basis.elements) == 1 and len(gens) > 1:
        # several generators collapsed to a principal ideal
        verdict = _decide_single_exact(basis.elements[0], order)
        if verdict is not None:
            return _checked(verdict, gens, basis.reps, basis)

    if method == "exact":
        return RealnessVerdict(
            INCONCLUSIVE, "exact",
            detail="no exact closed form applies to these generators",
        )
    return _checked(_sdp_route(basis, tol, max_iter), gens, basis.reps, basis)
