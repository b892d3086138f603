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
weights.  The SDP route's exact check runs once per problem, at any size,
as solve_feasibility's presolve: a refutation is Real and a point NotReal,
before any projection step or numpy import.  Only the rest reach the
projections, whose feasible G is NotReal only when it lifts to a rational
witness; otherwise they give NumericallyReal or Inconclusive.

verify_nonreal_certificate(gens, cert, basis=None) forms the defect,
lhs - rhs, as one coefficient dict on the canonical words w <= w^* (both
sides are symmetric, so these decide it) and accepts only an empty defect,
positive weights, rational numbers throughout and some member of nonzero
normal form; basis= takes a precomputed left Groebner basis.  Every
decider returns an unchecked certificate against what it was given.
real_test computes the left Groebner basis of its generators once and
decides from it: the closed forms and the SDP route all read
basis.elements, the SDP route with the squares read off the LDL^T that
the exact PSD test of its rational G computed.  real_test realigns each
certificate onto its generators through basis.reps and verifies it once,
at one site, and a certificate that fails is an internal error there
whichever route built it.  Direct callers of a closed form use the
verifier.

Dispatch first answers the zero ideal (an empty basis) and the unit ideal
(a constant element).  It then tries the exact closed forms on the basis,
in one place -- a monomial basis, whose words are the monomial decider's
survivors; an analytic basis; and for a single element p, linear,
univariate quadratic, homogeneous principal, analytic + antianalytic
(every word all plain or all starred; not real iff p + p^* is a nonzero
constant) and the principal prefilter -- and falls back to the
semidefinite feasibility route with exact rational post-processing.
"""

from fractions import Fraction
from numbers import Rational

from .algebra import (
    Poly,
    checked_order,
    shrink_length,
    word_star,
    word_str,
)
# psd_check_exact and exact_infeasibility_check: unused, kept for bench/spans.py (ROADMAP item 1)
from .exactla import ldl_squares, psd_check_exact  # noqa: F401
from .factor import Factorization, factor_homogeneous
from .gram import decompose_quadratic_univariate, pm_sos_kind, quad_coeffs
from .groebner import left_groebner
from .parsing import parse_poly, poly_str
from .sdp import _check_tol_and_max_iter, solve_feasibility
from .sdp_build import build_real_sdp, exact_infeasibility_check, exact_lift  # noqa: F401

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
        if not all(isinstance(w, str) for w in weights):
            raise ValueError("malformed certificate: weights must be strings")
        try:
            return cls(
                [parse_poly(q, g) for q in multipliers],
                [Fraction(w) for w in weights],
                [parse_poly(r, g) for r in polys],
            )
        except (AttributeError, TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
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

    The weights must be rational numbers (a Poly's coefficients always
    are), the defect (lhs - rhs of the identity, on the canonical words)
    must be empty, the weights positive, and some member must have a
    nonzero normal form.  basis, when given, is a left Groebner basis of
    the ideal generated by gens; otherwise one is computed.  tol is
    accepted for compatibility and unused: the check is exact.
    """
    gens = list(gens)
    if not gens or len(cert.multipliers) != len(gens):
        return False
    if len(cert.weights) != len(cert.members):
        return False
    if not all(isinstance(w, Rational) for w in cert.weights):
        return False
    qs = [q.terms for q in cert.multipliers]
    rs = [r.terms for r in cert.members]
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

    The survivors are the words of the left Groebner basis: the generating
    words that no other generating word is a proper suffix of, each once,
    in generator order.  The ideal is real iff every survivor w avoids the
    shape w = u u* v with u nonempty.  The first shrinkable survivor yields
    the certificate q = v^*/2 against the basis element w, with member
    u^* v: q w + w^* q^* = v^* w = (u^* v)^* (u^* v); realigned through
    basis.reps, q is v^*/(2c) against the generator c*w.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    if any(not p.is_monomial() or p.is_constant() for p in gens):
        raise ValueError("generators must be nonconstant monomials")
    basis = left_groebner(gens)
    verdict = _real_monomial_basis(basis)
    if verdict.certificate is not None:
        verdict.certificate = _realigned(verdict.certificate, basis, len(gens))
    return verdict


def _real_monomial_basis(basis):
    """real_monomial_ideal on a monomial basis; a certificate is against basis.elements."""
    g = basis.g
    for i, w in enumerate(basis.leads):
        k = shrink_length(w)
        if k is None:
            continue
        mult = [Poly.zero(g) for _ in basis.elements]
        mult[i] = Poly.from_word(g, word_star(w[2 * k:]), Fraction(1, 2))
        cert = NonRealCertificate(mult, [Fraction(1)], [Poly.from_word(g, w[k:])])
        return RealnessVerdict(
            NOT_REAL, "monomial", cert,
            detail=f"basis word {word_str(w)} shrinks at length {k}",
        )
    return RealnessVerdict(
        REAL, "monomial",
        detail="all basis words are left unshrinkable",
    )


def _unmixed(p):
    """True when every word of p is all plain letters or all starred ones."""
    return all(len({code & 1 for code in w}) < 2 for w in p.terms)


def _analytic_antianalytic_core(p, method):
    """Realness of (p) for p = analytic + antianalytic, nonconstant.

    (p) is not real iff p + p^* is a nonzero constant 2c, that is iff
    p = a - a^* + c with c != 0; then q = sign(c) gives
    q p + p^* q^* = 2|c| = 2|c| 1^* 1 with the member 1 outside (p).
    """
    if not _unmixed(p):
        raise ValueError("generator mixes plain and starred letters inside a word")
    if p.is_constant():
        raise ValueError("generator must be nonconstant")
    sym = p + p.star()
    if sym and sym.is_constant():
        two_c = sym.constant_coeff()
        sign = Poly.constant(p.g, 1 if two_c > 0 else -1)
        cert = NonRealCertificate([sign], [abs(two_c)], [Poly.one(p.g)])
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

    Not real exactly when p + p^* is a nonzero constant.
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
    sos = decompose_quadratic_univariate(*quad_coeffs(s))
    if sos is None:
        return None
    return NonRealCertificate([q], sos.weights, sos.polys)


def _signed_prefix(p, order, kinds):
    """First prefix of p's factorization whose symmetrization has a kind in kinds.

    With p = c f_1 ... f_k homogeneous, scans P_l = c f_1 ... f_l for
    l = 1..k and returns (l, kind, sos, [f_{l+1}, ..., f_k]) for the first
    P_l + P_l^* whose pm_sos_kind is in kinds, or None.
    """
    fac = factor_homogeneous(p, order)
    prod = Poly.constant(p.g, fac.scalar)
    for ell, f in enumerate(fac.factors, start=1):
        prod = prod * f
        kind, sos = pm_sos_kind(prod + prod.star(), order)
        if kind in kinds:
            return ell, kind, sos, fac.factors[ell:]
    return None


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
    hit = _signed_prefix(p, checked_order(g, order), ("plus", "minus"))
    if hit is None:
        return RealnessVerdict(
            REAL, "principal-homogeneous",
            detail="no signed prefix symmetrization is a nonzero sum of squares",
        )
    ell, kind, sos, tail_factors = hit
    tail = Factorization(1, tail_factors).product(g)
    q = tail.star() * (1 if kind == "plus" else -1)
    cert = NonRealCertificate([q], sos.weights, [r * tail for r in sos.polys])
    return RealnessVerdict(
        NOT_REAL, "principal-homogeneous", cert,
        detail=f"prefix product of the first {ell} factor(s) has a signed SOS symmetrization",
    )


def realness_prefilter_principal(p, order=None):
    """Cheap exact filter for arbitrary principal ideals.

    Factor the top-degree part; when no signed symmetrized prefix product
    is even a sum of squares (zero included), the ideal is real.  Returns a
    Real verdict or None.
    """
    if not p or p.is_constant():
        raise ValueError("generator must be nonconstant")
    order = checked_order(p.g, order)
    if _signed_prefix(p.leading_part(), order, ("zero", "plus", "minus")) is not None:
        return None
    return RealnessVerdict(
        REAL, "prefilter",
        detail="no signed symmetrized prefix of the leading part is a sum of squares",
    )


# ---------------------------------------------------------------------------
# realignment
# ---------------------------------------------------------------------------

def _realigned(cert, basis, ngens):
    """cert with multipliers q_i against basis.elements -> [q_t] against the gens.

    basis.elements[i] = sum_t basis.reps[i][t] gens[t], so the multiplier of
    gens[t] is sum_i q_i basis.reps[i][t].
    """
    mult = [sum((q * rep[t] for q, rep in zip(cert.multipliers, basis.reps)), Poly.zero(basis.g))
            for t in range(ngens)]
    return NonRealCertificate(mult, cert.weights, cert.members)


def _checked(verdict, gens, basis):
    """Realign a verdict's certificate onto gens through basis.reps and verify it once.

    The certificate's multipliers refer to basis.elements, a left Groebner
    basis of gens.  A certificate that fails is an internal error,
    whichever route built it.
    """
    if verdict.certificate is not None:
        cert = _realigned(verdict.certificate, basis, len(gens))
        if not verify_nonreal_certificate(gens, cert, basis=basis):
            raise AssertionError(f"internal error: {verdict.method} certificate failed to verify")
        verdict.certificate = cert
    return verdict


# ---------------------------------------------------------------------------
# SDP route
# ---------------------------------------------------------------------------

def _sdp_route(basis, tol, max_iter):
    """The feasibility route; a certificate is against basis.elements.

    solve_feasibility's presolve is the one exact check per problem: a
    likely_infeasible result at 0 steps is its refutation, and result.point
    its witness.  Otherwise a projected feasible G may lift to a witness.
    """
    problem = build_real_sdp(basis)
    result = solve_feasibility(problem, tol=tol, max_iter=max_iter)
    if result.status == "likely_infeasible" and result.iterations == 0:
        return RealnessVerdict(
            REAL, "sdp-exact",
            detail="exact elimination refutes the feasibility system",
        )

    point, detail = result.point, "exact elimination produced a feasible witness"
    if point is None and result.status == "feasible":
        point = exact_lift(problem, result.G)
        detail = "numeric solution lifted to an exact rational witness"
    if point is not None:
        psd, qdicts = point
        weights, rows = ldl_squares(psd, [problem.words[i] for i in problem.face])
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
    """Closed-form chain for a one-element basis {p}; None when none applies.

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
    if _unmixed(p):
        return _analytic_antianalytic_core(p, "analytic-antianalytic")
    return realness_prefilter_principal(p, order)


def real_test(gens, order=None, method="auto", tol=1e-8, max_iter=20000):
    """Decide realness of the left ideal generated by gens.

    Everything is decided from the left Groebner basis of gens: the zero
    ideal has an empty basis, the unit ideal a constant element.  method:
    "auto" (closed forms on the basis, then SDP), "exact" (closed forms
    only; Inconclusive when none applies), or "sdp" (the feasibility route
    directly).  The closed forms run on basis.elements: monomial, analytic,
    then the single-element chain.  Every certificate is realigned onto gens
    through basis.reps, so its multipliers align with the gens list as
    given, including zero entries, and it has passed
    verify_nonreal_certificate against gens.  tol must be finite and > 0,
    max_iter an int >= 0, neither a bool; max_iter = 0 leaves the SDP route
    its exact check alone.
    """
    if method not in ("auto", "exact", "sdp"):
        raise ValueError(f"unknown method {method!r}")
    _check_tol_and_max_iter(tol, max_iter)
    gens = list(gens)
    basis = left_groebner(gens, order)
    elements = basis.elements
    if not elements:
        return RealnessVerdict(REAL, "zero-ideal", detail="every generator is zero")
    if any(p.is_constant() for p in elements):
        return RealnessVerdict(
            REAL, "unit-ideal", detail="the basis contains a nonzero constant",
        )

    if method != "sdp":
        verdict = None
        if all(p.is_monomial() for p in elements):
            verdict = _real_monomial_basis(basis)
        elif all(p.is_analytic() for p in elements):
            verdict = RealnessVerdict(
                REAL, "analytic", detail="an analytic basis always gives a real ideal",
            )
        elif len(elements) == 1:
            verdict = _decide_single_exact(elements[0], basis.order)
        if verdict is not None:
            return _checked(verdict, gens, basis)
        if method == "exact":
            return RealnessVerdict(
                INCONCLUSIVE, "exact",
                detail="no exact closed form applies to this basis",
            )
    return _checked(_sdp_route(basis, tol, max_iter), gens, basis)
