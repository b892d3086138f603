"""Realness deciders: closed forms, dispatch, SDP fallback, certificates."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ncreal import realness, sdp_build
from ncreal.algebra import MonomialOrder, Poly, word_star
from ncreal.groebner import left_groebner
from ncreal.parsing import parse_generators, parse_poly
from ncreal.realness import (
    INCONCLUSIVE,
    NOT_REAL,
    NUMERICALLY_REAL,
    REAL,
    NonRealCertificate,
    real_analytic_antianalytic,
    real_linear,
    real_monomial_ideal,
    real_principal_homogeneous,
    real_quadratic_univariate,
    real_test,
    realness_prefilter_principal,
    verify_nonreal_certificate,
)

from util import (
    analytic_antianalytic_oracle,
    copying_defect,
    monomial_oracle,
    rand_coeff,
    rand_poly,
    rand_product,
    rand_word,
    star_automorphism,
)

ROOT = Path(__file__).resolve().parent.parent


def _gens(text):
    return parse_generators(text)


# ---------------------------------------------------------------------------
# degenerate ideals and input validation
# ---------------------------------------------------------------------------

def test_zero_and_unit_ideals():
    assert real_test([Poly.zero(1)]).status == REAL
    assert real_test([Poly.zero(1)]).method == "zero-ideal"
    assert real_test([parse_poly("3", 1)]).method == "unit-ideal"
    # generators that cancel down to a constant in the basis
    v = real_test(_gens("x1* x1 + 1\nx1* x1"))
    assert v.status == REAL and v.method == "unit-ideal"
    # nonzero generators that reduce to the zero ideal do not happen, but a
    # list of zero polynomials does
    assert real_test([Poly.zero(2), Poly.zero(2)]).status == REAL


def test_input_validation():
    with pytest.raises(ValueError):
        real_test([])
    with pytest.raises(ValueError):
        real_test([parse_poly("x1"), Poly.gen(2, 2)])
    with pytest.raises(ValueError):
        real_test([parse_poly("x1")], method="fancy")


@pytest.mark.parametrize("kwargs", [
    {"max_iter": -3}, {"max_iter": 2000.0}, {"max_iter": "10"},
    {"tol": float("nan")}, {"tol": -1.0}, {"tol": 0.0}, {"tol": float("inf")},
    # not a number: no order comparison may decide these
    {"tol": None}, {"tol": "1e-8"},
    # bool is an int: True would run one step, or at tol 1
    {"max_iter": True}, {"tol": True},
])
@pytest.mark.parametrize("method", ["auto", "sdp"])
def test_tol_and_max_iter_are_validated(method, kwargs):
    with pytest.raises(ValueError, match="tol must be|max_iter must be"):
        real_test(_gens("x1 x1* - x1* x1 - 1"), method=method, **kwargs)


def test_zero_max_iter_runs_the_exact_checks_alone():
    # the presolve refutes criterion 1, finds a point for the second ideal,
    # and leaves the criterion-4 ideal open
    v = real_test(_gens("x1 x1* - x1* x1 - 1"), method="sdp", max_iter=0)
    assert (v.status, v.method) == (REAL, "sdp-exact")
    v = real_test(parse_generators("x2 x1* x1\nx1* x1", 2), method="sdp", max_iter=0)
    assert (v.status, v.detail) == (NOT_REAL, "exact elimination produced a feasible witness")
    v = real_test(_gens("x1 x1*^2 - 1\nx1^2 + x1*^2\nx1 x1* - x1*^2\nx1* x1 - 5"),
                  method="sdp", max_iter=0)
    assert (v.status, v.detail) == (INCONCLUSIVE, "no decision within 0 projection steps")


@pytest.mark.parametrize("method", ["auto", "sdp"])
def test_order_over_fewer_variables_is_rejected(method):
    p = parse_poly("x1 x2* + x2 x1* + 1")
    with pytest.raises(ValueError, match="order ranks 1 variable"):
        real_test([p], order=MonomialOrder(1), method=method)
    assert real_test([p], order=MonomialOrder(3), method=method).status == REAL


@pytest.mark.parametrize("method", ["auto", "sdp"])
@pytest.mark.parametrize("text, sdp_status, auto_status", [
    ("x1 x1* - x1* x1 - 1", REAL, REAL),
    ("x1 x1* + x1* x1", NOT_REAL, NOT_REAL),
    ("2 x1* x1^2 - 2/3 x1* x1 x1*", INCONCLUSIVE, NOT_REAL),  # sdp: 50 steps run out
])
def test_order_over_more_variables_decides_as_the_default(method, text, sdp_status, auto_status):
    # MonomialOrder(2) also ranks the letters of x2, which never enter a g = 1 problem
    gens, wide = parse_generators(text, 1), MonomialOrder(2)
    verdict = real_test(gens, method=method, max_iter=50)
    assert verdict.status == (sdp_status if method == "sdp" else auto_status)
    assert real_test(gens, order=wide, method=method, max_iter=50).to_json() == verdict.to_json()
    build = sdp_build.build_real_sdp
    assert build(left_groebner(gens, wide)).words == build(left_groebner(gens)).words


# ---------------------------------------------------------------------------
# monomial ideals
# ---------------------------------------------------------------------------

def test_monomial_real_and_not_real():
    v = real_monomial_ideal(_gens("x1 x2\nx2 x1"))
    assert v.status == REAL and v.certificate is None
    v = real_monomial_ideal(_gens("x1 x1* x2"))
    assert v.status == NOT_REAL and v.certificate.exact
    assert verify_nonreal_certificate(_gens("x1 x1* x2"), v.certificate)


def test_monomial_redundant_generator_dropped():
    # x1 x1* x2 x1 shrinks, but it is a left multiple of the unshrinkable
    # x2 x1, so the minimal generating set is clean
    gens = _gens("x2 x1\nx1 x1* x2 x1")
    assert real_monomial_ideal(gens).status == REAL
    assert real_test(gens).status == REAL


def test_monomial_certificate_alignment_and_json():
    gens = [Poly.zero(2)] + _gens("x2 x1\n3 x1 x1* x2")
    v = real_test(gens)
    assert v.status == NOT_REAL and v.method == "monomial"
    cert = v.certificate
    assert len(cert.multipliers) == 3
    assert not cert.multipliers[0] and not cert.multipliers[1]
    assert cert.multipliers[2]
    assert verify_nonreal_certificate(gens, cert)
    back = NonRealCertificate.from_json(json.loads(json.dumps(cert.to_json())), 2)
    assert back.exact
    assert verify_nonreal_certificate(gens, back)


def _random_monomial_gens(rng):
    """1-3 words of length 1-4 over g in {1, 2}, then maybe a left multiple
    of one of them (still of length <= 4) and maybe a duplicate word."""
    g = rng.choice([1, 2])
    words = [rand_word(rng, g, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    w = rng.choice(words)
    if len(w) < 4 and rng.random() < 0.5:
        words.append(rand_word(rng, g, rng.randint(1, 4 - len(w))) + w)
    if rng.random() < 0.5:
        words.append(rng.choice(words))
    rng.shuffle(words)
    return [Poly.from_word(g, w, rand_coeff(rng)) for w in words]


def test_monomial_dispatch_matches_the_survivor_scan():
    rng = random.Random(13)
    seen = set()
    for _ in range(60):
        gens = _random_monomial_gens(rng)
        status, mult = monomial_oracle(gens)
        direct = real_monomial_ideal(gens)
        auto = real_test(gens)
        sdp = real_test(gens, method="sdp", max_iter=2000)
        assert direct.status == auto.status == status, gens
        assert auto.method == "monomial"
        assert {status, sdp.status} != {REAL, NOT_REAL}, gens
        if status == NOT_REAL:
            assert direct.certificate.multipliers == mult
        for v in (direct, auto, sdp):
            if v.status == NOT_REAL:
                assert verify_nonreal_certificate(gens, v.certificate)
        words = [next(iter(p.terms)) for p in gens]
        redundant = any(u != w and w[len(w) - len(u):] == u for u in words for w in words)
        seen.add((status, redundant, len(set(words)) < len(words)))
    assert {s for s, _, _ in seen} == {REAL, NOT_REAL}
    assert any(r for _, r, _ in seen) and any(d for _, _, d in seen)


@pytest.mark.parametrize("text, status", [
    ("x2 x1* x1 + x1* x1\nx1* x1\nx2^2", NOT_REAL),
    ("x2 x1 x2* + x1 x2*\nx1 x2*\nx1 x2", REAL),
])
def test_monomial_basis_of_non_monomial_generators(text, status):
    gens = _gens(text)
    assert not all(p.is_monomial() for p in gens)
    v = real_test(gens)
    assert (v.status, v.method) == (status, "monomial")
    sdp = real_test(gens, method="sdp")
    assert sdp.status == status
    for w in (v, sdp):
        if w.status == NOT_REAL:
            assert verify_nonreal_certificate(gens, w.certificate)


def test_monomial_ideal_verifies_its_certificate(monkeypatch):
    decide = realness._real_monomial_basis

    def tampered(basis):
        v = decide(basis)
        v.certificate.weights = [2 * w for w in v.certificate.weights]
        return v

    monkeypatch.setattr(realness, "_real_monomial_basis", tampered)
    with pytest.raises(AssertionError, match="internal error: monomial certificate"):
        real_monomial_ideal(_gens("x1 x1* x2"))


def test_monomial_rejects_non_monomials():
    with pytest.raises(ValueError, match="at least one generator"):
        real_monomial_ideal([])
    with pytest.raises(ValueError):
        real_monomial_ideal(_gens("x1 + x2"))
    with pytest.raises(ValueError):
        real_monomial_ideal([parse_poly("5", 1)])


# ---------------------------------------------------------------------------
# linear and analytic + antianalytic generators
# ---------------------------------------------------------------------------

def test_linear_generators():
    assert real_linear(parse_poly("x1 + x1* + 1")).status == REAL
    assert real_linear(parse_poly("x1 + 2 x2")).status == REAL
    v = real_linear(parse_poly("x1 - x1* + 1"))
    assert v.status == NOT_REAL
    assert v.certificate.weights == [Fraction(2)]
    assert verify_nonreal_certificate([parse_poly("x1 - x1* + 1")], v.certificate)
    v = real_linear(parse_poly("x1 - x1* - 2"))
    assert v.status == NOT_REAL
    assert verify_nonreal_certificate([parse_poly("x1 - x1* - 2")], v.certificate)
    with pytest.raises(ValueError):
        real_linear(parse_poly("x1^2"))


def test_analytic_antianalytic():
    p = parse_poly("x1^3 - x1*^3 + 5")
    v = real_analytic_antianalytic(p)
    assert v.status == NOT_REAL
    assert verify_nonreal_certificate([p], v.certificate)
    assert real_analytic_antianalytic(parse_poly("x1^3 + x1*^3 + 5")).status == REAL
    assert real_analytic_antianalytic(parse_poly("x1 x2 - x2* x1* + 1")).status == NOT_REAL
    assert real_analytic_antianalytic(parse_poly("x1^2 - x1*^2")).status == REAL
    with pytest.raises(ValueError, match="mixes plain and starred"):
        real_analytic_antianalytic(parse_poly("x1 x1* + 1"))
    for text in ("7", "0"):
        with pytest.raises(ValueError, match="nonconstant"):
            real_analytic_antianalytic(parse_poly(text, 1))


def _analytic_antianalytic(rng, g, forced):
    """c + a + b*: a analytic, b* antianalytic or -a* when forced, degree <= 3."""
    a = _analytic(rng, g, 3) if forced or rng.random() < 0.8 else Poly.zero(g)
    if forced:
        b_star = -a.star()
    elif not a or rng.random() < 0.8:
        b_star = _analytic(rng, g, 3).star()
    else:
        b_star = Poly.zero(g)
    c = rand_coeff(rng) if rng.random() < 0.75 else 0
    return a + b_star + Poly.constant(g, c)


def test_analytic_antianalytic_matches_the_decomposition_oracle(monkeypatch):
    # a third of the draws have the shape a - a* + c; the rest are random
    rng = random.Random(29)
    cases = [_analytic_antianalytic(rng, rng.choice([1, 2]), k % 3 == 0) for k in range(1050)]
    for p in cases:
        want = analytic_antianalytic_oracle(p, "analytic-antianalytic").to_json()
        assert real_analytic_antianalytic(p).to_json() == want, p
    got = [real_test([p]).to_json() for p in cases]
    assert sum(v["status"] == NOT_REAL for v in got) >= 200
    monkeypatch.setattr(realness, "_analytic_antianalytic_core", analytic_antianalytic_oracle)
    assert got == [real_test([p]).to_json() for p in cases]


def test_dispatch_lets_an_analytic_antianalytic_error_propagate(monkeypatch):
    def broken(p, method):
        raise ValueError("decider failed")

    monkeypatch.setattr(realness, "_analytic_antianalytic_core", broken)
    with pytest.raises(ValueError, match="decider failed"):
        real_test([parse_poly("x1 x2 - x2* x1* + 1")])
    # a word that mixes plain and starred letters never reaches the decider
    assert real_test([parse_poly("x1 x2* + x1 + 1")]).method == "prefilter"


def test_all_analytic_generators_short_circuit():
    v = real_test(_gens("x1 x2 - 1\nx1^3 + x2"))
    assert v.status == REAL and v.method == "analytic"


# ---------------------------------------------------------------------------
# univariate quadratics
# ---------------------------------------------------------------------------

def test_quadratic_symmetrization_branch():
    p = parse_poly("x1 x1*")
    v = real_quadratic_univariate(p)
    assert v.status == NOT_REAL
    assert verify_nonreal_certificate([p], v.certificate)
    p = parse_poly("- x1 x1* - 3 x1* x1")
    v = real_quadratic_univariate(p)
    assert v.status == NOT_REAL
    assert verify_nonreal_certificate([p], v.certificate)
    # symmetrization nonzero but sign-indefinite
    assert real_quadratic_univariate(parse_poly("x1^2 + x1*^2")).status == REAL


def test_quadratic_difference_square_branch():
    # quadratic part (x - x*)^2, linear part x - x*: a degree-one multiplier works
    p = parse_poly("x1 - x1* + x1^2 - x1 x1* - x1* x1 + x1*^2")
    v = real_quadratic_univariate(p)
    assert v.status == NOT_REAL
    assert v.certificate.multipliers[0].degree() == 1
    assert verify_nonreal_certificate([p], v.certificate)
    # same quadratic part but linear part x alone: real
    assert real_quadratic_univariate(
        parse_poly("x1 + x1^2 - x1 x1* - x1* x1 + x1*^2")
    ).status == REAL


def test_quadratic_general_branch():
    # a0 (a3 + a4)^2 == (a1 + a2)(a1 a4 - a2 a3) picks out the witness line
    p = parse_poly("4 + 2 x1 + x1 x1* - x1*^2")
    v = real_quadratic_univariate(p)
    assert v.status == NOT_REAL
    assert verify_nonreal_certificate([p], v.certificate)
    assert real_quadratic_univariate(parse_poly("5 + 2 x1 + x1 x1* - x1*^2")).status == REAL


def test_quadratic_relabeling_through_dispatch():
    p = parse_poly("x2 - x2* + x2^2 - x2 x2* - x2* x2 + x2*^2")
    v = real_test([p])
    assert v.status == NOT_REAL and v.method == "quadratic-univariate"
    assert v.certificate.multipliers[0].g == 2
    assert verify_nonreal_certificate([p], v.certificate)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        real_quadratic_univariate(parse_poly("x1 x2"))
    with pytest.raises(ValueError):
        real_quadratic_univariate(parse_poly("x1^3"))


# ---------------------------------------------------------------------------
# principal homogeneous generators and the prefilter
# ---------------------------------------------------------------------------

def test_principal_homogeneous():
    v = real_principal_homogeneous(parse_poly("x1* x1"))
    assert v.status == NOT_REAL
    assert verify_nonreal_certificate([parse_poly("x1* x1")], v.certificate)
    # a proper prefix fires: x x* (x + x*) stops at the prefix x x*
    p = parse_poly("x1 x1* x1 + x1 x1*^2")
    v = real_principal_homogeneous(p)
    assert v.status == NOT_REAL
    assert v.certificate.multipliers[0].degree() >= 1
    assert verify_nonreal_certificate([p], v.certificate)
    assert real_principal_homogeneous(parse_poly("x1 + x1*")).status == REAL
    assert real_principal_homogeneous(parse_poly("x1^2 + x1*^2")).status == REAL
    with pytest.raises(ValueError):
        real_principal_homogeneous(parse_poly("x1 + 1"))


def test_principal_homogeneous_at_three_variables_and_degree_8():
    # the statuses that filling every Gram entry gave, at 9-23 s per ideal (2-core host);
    # an f f* start is NotReal by construction
    rng = random.Random(8)
    for star_pair, status in [(True, NOT_REAL), (False, REAL), (False, REAL)]:
        p = rand_product(rng, 3, 8, star_pair)
        v = real_test([p])
        assert (v.status, v.method) == (status, "principal-homogeneous")
        if status == NOT_REAL:
            assert verify_nonreal_certificate([p], v.certificate)


def test_prefilter():
    v = realness_prefilter_principal(parse_poly("x1 x2* + x2* x1 + x1 + 1"))
    assert v is not None and v.status == REAL and v.method == "prefilter"
    assert realness_prefilter_principal(parse_poly("x1 x1* x1 + 1")) is None
    with pytest.raises(ValueError):
        realness_prefilter_principal(parse_poly("5", 1))


def test_prefilter_through_dispatch():
    v = real_test([parse_poly("x1 x2* + x2* x1 + x1 + 1")])
    assert v.status == REAL and v.method == "prefilter"


# ---------------------------------------------------------------------------
# the SDP fallback
# ---------------------------------------------------------------------------

def test_sdp_refutes_to_real():
    v = real_test([parse_poly("x1 x1* x1 - x1")], method="sdp")
    assert v.status == REAL and v.method == "sdp-exact"


def test_sdp_inconsistent_constraints_are_an_exact_proof():
    # x1 in I pins G = 0 against trace G = 1, which is decided exactly
    v = real_test([parse_poly("x1")], method="sdp")
    assert v.status == REAL and v.method == "sdp-exact"


def test_sdp_numerically_real():
    # auto dispatch decides this univariate quadratic exactly; forcing the
    # sdp route exercises the stall detector, whose verdict must stay
    # consistent (the exact check does not decide it)
    p = parse_poly("-3 x1^2 + x1 x1* + x1* x1 + 2 x1*^2 + 2 x1 + 3 x1* + 1")
    v = real_test([p])
    assert v.status == REAL and v.method == "quadratic-univariate"
    v = real_test([p], method="sdp")
    assert v.status == NUMERICALLY_REAL and v.method == "sdp-numeric"
    assert v.residual is not None and v.residual > 0


@pytest.mark.parametrize("text", [
    "x1^2 x1*^2 + x1* x1 - 1",
    "x1 x2 x1* - x2 + 2\nx2* x2 x1 + x1*",
])
def test_sdp_exact_check_decides_above_the_old_unknown_cap(text):
    # 135 and 273 unknowns (G and q), above the 120 that once switched the
    # exact check off and left these NumericallyReal
    gens = _gens(text)
    v = real_test(gens, method="sdp", max_iter=2000)
    assert v.status == REAL and v.method == "sdp-exact"


def test_sdp_route_never_contradicts_the_monomial_decider():
    rng = random.Random(2024)
    seen = set()
    for _ in range(40):
        g = rng.choice([1, 2])
        gens = []
        for _ in range(rng.randint(1, 2)):
            word = tuple(rng.randrange(2 * g) for _ in range(rng.randint(2, 3)))
            gens.append(Poly.from_word(g, word, Fraction(rng.choice([-3, -1, 1, 2]))))
        exact = real_test(gens)
        sdp = real_test(gens, method="sdp", max_iter=2000)
        assert exact.method == "monomial"
        assert {exact.status, sdp.status} != {REAL, NOT_REAL}, gens
        for v in (exact, sdp):
            if v.status == NOT_REAL:
                assert verify_nonreal_certificate(gens, v.certificate)
        seen.add(sdp.status)
    assert {REAL, NOT_REAL} <= seen


def test_sdp_route_never_contradicts_the_quadratic_closed_form():
    words = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    rng = random.Random(7)
    seen = set()
    for _ in range(40):
        coeffs = [0] * len(words)
        while not any(coeffs[3:]):
            coeffs = [rng.randint(-3, 3) for _ in words]
        gens = [Poly(1, {w: Fraction(c) for w, c in zip(words, coeffs) if c})]
        exact = real_test(gens)
        sdp = real_test(gens, method="sdp", max_iter=2000)
        assert exact.method == "quadratic-univariate"
        assert {exact.status, sdp.status} != {REAL, NOT_REAL}, gens
        for v in (exact, sdp):
            if v.status == NOT_REAL:
                assert verify_nonreal_certificate(gens, v.certificate)
        seen.add(exact.status)
    assert {REAL, NOT_REAL} <= seen


def test_sdp_route_never_contradicts_the_principal_homogeneous_closed_form():
    # g = 2 at degree 4 has an n = 85 Gram side; on the face, with the
    # exact presolve, each of its draws here is decided in about 1.3 s or less
    rng = random.Random(1)
    seen = set()
    kept = 0
    while kept < 30:
        g, d = rng.choice([(1, 3), (1, 4), (2, 2), (2, 3), (2, 4)])
        gens = [rand_product(rng, g, d, star_pair=rng.random() < 0.5)]
        exact = real_test(gens)
        if exact.method != "principal-homogeneous":
            continue
        kept += 1
        sdp = real_test(gens, method="sdp", max_iter=2000)
        assert {exact.status, sdp.status} != {REAL, NOT_REAL}, gens
        for v in (exact, sdp):
            if v.status == NOT_REAL:
                assert verify_nonreal_certificate(gens, v.certificate)
        seen.add((exact.status, sdp.status))
    assert {(REAL, REAL), (NOT_REAL, NOT_REAL)} <= seen


def _analytic(rng, g, d):
    """A nonzero analytic polynomial of degree 1 to d without constant term."""
    terms = {
        tuple(2 * rng.randrange(g) for _ in range(rng.randint(1, d))): rand_coeff(rng)
        for _ in range(rng.randint(1, 3))
    }
    return Poly(g, terms)


@pytest.mark.parametrize("method,degree", [("linear", 1), ("analytic-antianalytic", 2)])
def test_sdp_route_never_contradicts_the_analytic_antianalytic_closed_forms(method, degree):
    # p = a + b + c: a analytic, b = -a* or a random antianalytic, c mostly nonzero
    rng = random.Random(7)
    seen = set()
    for _ in range(60):
        g = rng.choice([1, 2])
        a = _analytic(rng, g, degree)
        b = -a.star() if rng.random() < 0.5 else _analytic(rng, g, degree).star()
        c = rand_coeff(rng) if rng.random() < 0.75 else 0
        gens = [a + b + Poly.constant(g, c)]
        exact = real_test(gens)
        if exact.method != method:
            continue
        sdp = real_test(gens, method="sdp", max_iter=2000)
        assert {exact.status, sdp.status} != {REAL, NOT_REAL}, gens
        for v in (exact, sdp):
            if v.status == NOT_REAL:
                assert verify_nonreal_certificate(gens, v.certificate)
        seen.add((exact.status, sdp.status))
    assert {(REAL, REAL), (NOT_REAL, NOT_REAL)} <= seen


# (generators, number of variables, the module and name of the function
# whose point the route reads): the presolve leaves the lift case open, and
# solve_feasibility looks the check up in sdp_build
SDP_ROUTES = {
    "lift": ("-x1 x1* - x1* x1 - 3/2 x1 - x1* - 3/2", 1, realness, "exact_lift"),
    "exact check": ("-1/2 x1* x1 x1*", 1, sdp_build, "exact_infeasibility_check"),
}


def _doubled_multipliers(point):
    psd, qdicts = point
    return psd, {j: {v: 2 * c for v, c in q.items()} for j, q in qdicts.items()}


@pytest.mark.parametrize("route", SDP_ROUTES)
def test_sdp_certificate_is_verified_once_against_the_generators(monkeypatch, route):
    text, g, _, _ = SDP_ROUTES[route]
    gens = parse_generators(text, g)
    calls = []
    verify = realness.verify_nonreal_certificate

    def counting(*args, **kwargs):
        calls.append(args)
        return verify(*args, **kwargs)

    monkeypatch.setattr(realness, "verify_nonreal_certificate", counting)
    v = real_test(gens, method="sdp")
    assert v.status == NOT_REAL and v.method == "sdp-exact"
    assert v.detail.startswith("numeric" if route == "lift" else "exact")
    assert len(calls) == 1
    assert len(v.certificate.multipliers) == len(gens)


@pytest.mark.parametrize("route", SDP_ROUTES)
def test_sdp_certificate_that_fails_verification_is_an_internal_error(monkeypatch, route):
    text, g, module, name = SDP_ROUTES[route]
    found = getattr(module, name)
    if name == "exact_lift":
        def broken(*args, **kwargs):
            point = found(*args, **kwargs)
            return None if point is None else _doubled_multipliers(point)
    else:
        def broken(*args, **kwargs):
            status, point = found(*args, **kwargs)
            return status, None if point is None else _doubled_multipliers(point)

    monkeypatch.setattr(module, name, broken)
    with pytest.raises(AssertionError, match="sdp-exact certificate failed to verify"):
        real_test(parse_generators(text, g), method="sdp")


def test_a_failed_lift_leaves_the_sdp_route_inconclusive(monkeypatch):
    text, g, _, _ = SDP_ROUTES["lift"]
    monkeypatch.setattr(realness, "exact_lift", lambda problem, G: None)
    v = real_test(parse_generators(text, g), method="sdp")
    assert (v.status, v.method, v.certificate) == (INCONCLUSIVE, "sdp-numeric", None)
    assert v.detail.startswith("projections converged in ")
    assert v.detail.endswith(" steps, but no rational lift verified")


@pytest.mark.parametrize("text,g,n", [
    ("x1 x2 x1* x2* - x2 x1 + 2", 2, 85),
    ("x1 x2 x3* x1* - x3 x2 + 2", 3, 259),
])
def test_degree_4_frontier_is_real_on_a_smaller_face(monkeypatch, text, g, n):
    problems = []
    build = realness.build_real_sdp

    def recording(basis):
        problems.append(build(basis))
        return problems[-1]

    monkeypatch.setattr(realness, "build_real_sdp", recording)
    v = real_test(parse_generators(text, g), method="sdp")
    assert v.status == REAL and v.method == "sdp-exact"
    (problem,) = problems
    assert problem.n == n and len(problem.face) < n


def test_sdp_agrees_with_monomial_decider():
    gens = [parse_poly("x1* x1^3")]
    exact = real_test(gens)
    assert exact.status == NOT_REAL and exact.method == "monomial"
    sdp = real_test(gens, method="sdp")
    assert sdp.status == NOT_REAL and sdp.method == "sdp-exact"
    assert verify_nonreal_certificate(gens, sdp.certificate)


def test_exact_method_dead_end_is_inconclusive():
    v = real_test([parse_poly("x1 x1* x1 - x1")], method="exact")
    assert v.status == INCONCLUSIVE and v.method == "exact"


def test_collapsed_generators_realign_certificate():
    gens = _gens("x2 x1* x1\nx1* x1")
    v = real_test(gens)
    assert v.status == NOT_REAL
    cert = v.certificate
    assert len(cert.multipliers) == 2
    assert verify_nonreal_certificate(gens, cert)


# ---------------------------------------------------------------------------
# certificate verification and serialization
# ---------------------------------------------------------------------------

def _good_exact_cert():
    gens = [parse_poly("x1* x1")]
    cert = NonRealCertificate([Poly.constant(1, Fraction(1))], [Fraction(2)], [parse_poly("x1")])
    assert verify_nonreal_certificate(gens, cert)
    return gens, cert


def test_verifier_rejects_tampered_certificates():
    gens, cert = _good_exact_cert()
    bad = NonRealCertificate(cert.multipliers, [Fraction(-2)], cert.members)
    assert not verify_nonreal_certificate(gens, bad)
    bad = NonRealCertificate([parse_poly("x1 + 1")], cert.weights, cert.members)
    assert not verify_nonreal_certificate(gens, bad)
    # members inside the ideal witness nothing
    bad = NonRealCertificate([parse_poly("x1* x1")], [Fraction(1)], [parse_poly("x1* x1")])
    assert not verify_nonreal_certificate(gens, bad)
    assert not verify_nonreal_certificate(gens, NonRealCertificate([], [], []))
    # one weight per member
    bad = NonRealCertificate(cert.multipliers, [*cert.weights, Fraction(1)], cert.members)
    assert not verify_nonreal_certificate(gens, bad)


def test_verdict_json_shape():
    v = real_test([parse_poly("x1 - x1* + 1")])
    data = v.to_json()
    assert data["status"] == NOT_REAL
    assert data["method"] == "linear"
    assert data["certificate"]["exact"] is True
    assert set(data) == {"status", "method", "detail", "residual", "certificate"}
    assert repr(v) == "RealnessVerdict(NotReal, method='linear')"


def test_verifier_rejects_non_finite_and_non_rational_numbers():
    gens, cert = _good_exact_cert()
    for weight in (float("nan"), float("inf"), 2.0):
        bad = NonRealCertificate(cert.multipliers, [weight], cert.members)
        assert not verify_nonreal_certificate(gens, bad)


def test_float_certificates_are_rejected():
    gens, cert = _good_exact_cert()
    data = cert.to_json()
    assert data["exact"] is True
    with pytest.raises(ValueError):
        NonRealCertificate.from_json({**data, "exact": False}, 1)
    # the float image of a valid certificate: the same identity, to the bit
    floats = NonRealCertificate(
        [Poly(1, {w: float(c) for w, c in q.terms.items()}) for q in cert.multipliers],
        [float(w) for w in cert.weights],
        [Poly(1, {w: float(c) for w, c in r.terms.items()}) for r in cert.members],
    )
    assert not verify_nonreal_certificate(gens, floats)


# ---------------------------------------------------------------------------
# the single check point in real_test
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gens, method", [
    ([Poly.zero(2)] + _gens("x2 x1\n3 x1 x1* x2"), "monomial"),
    (_gens("x2 - x2* + x2^2 - x2 x2* - x2* x2 + x2*^2"), "quadratic-univariate"),
    (_gens("x2 x1* x1\nx1* x1"), "monomial"),
    (_gens("x2 x1* x1 + x1* x1\nx1* x1"), "monomial"),
    (_gens("x1 x1* x1 + x1 x1*^2"), "principal-homogeneous"),
    (_gens("x2 x1 x1* - x2 x1*^2 + 2 x2 x1 + 4 x2\nx1 x1* - x1*^2 + 2 x1 + 4"),
     "quadratic-univariate"),
])
def test_real_test_verifies_each_certificate_once(monkeypatch, gens, method):
    verify = realness.verify_nonreal_certificate
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return verify(*args, **kwargs)

    monkeypatch.setattr(realness, "verify_nonreal_certificate", counting)
    v = real_test(gens)
    assert v.status == NOT_REAL and v.method == method
    assert len(calls) == 1
    assert len(v.certificate.multipliers) == len(gens)
    assert verify(gens, v.certificate)


def test_real_test_rejects_a_tampered_decider_certificate(monkeypatch):
    decide = realness.real_linear

    def tampered(p):
        v = decide(p)
        v.certificate.weights = [2 * w for w in v.certificate.weights]
        return v

    monkeypatch.setattr(realness, "real_linear", tampered)
    with pytest.raises(AssertionError):
        real_test([parse_poly("x1 - x1* + 1")])


# ---------------------------------------------------------------------------
# the canonical-word defect against the copying oracle
# ---------------------------------------------------------------------------

def _canonical(defect):
    return {w: c for w, c in defect.items() if w <= word_star(w)}


def _defect_pair(gens, multipliers, weights, members):
    """(library defect, copying oracle's defect); asserts they agree on canonical words."""
    qs = [q.terms for q in multipliers]
    rs = [r.terms for r in members]
    got = realness._defect(gens, qs, weights, rs)
    want = copying_defect(gens, qs, weights, rs)
    assert got == _canonical(want)
    return got, want


def test_defect_matches_the_copying_oracle_on_random_input():
    rng = random.Random(109)
    for _ in range(150):
        g = rng.randint(1, 2)
        gens = [rand_poly(rng, g, 3) or Poly.one(g) for _ in range(rng.randint(1, 2))]
        qs = [rand_poly(rng, g, 2) for _ in gens]
        weights = [rng.choice([1, 2, Fraction(1, 3), Fraction(-5, 2)])
                   for _ in range(rng.randint(0, 3))]
        members = [rand_poly(rng, g, 2, nterms=rng.randint(1, 6)) for _ in weights]
        _defect_pair(gens, qs, weights, members)


def test_defect_sums_symmetric_words_reached_from_distinct_terms():
    # u = 1 and v = x1 x1* give u^* v = v^* u = x1 x1*, a symmetric word, twice
    r = parse_poly("1 + x1 x1*")
    got, _ = _defect_pair([], [], [Fraction(1)], [r])
    assert got[(0, 1)] == -2
    gens = [Fraction(1, 2) * (r.star() * r)]
    cert = NonRealCertificate([Poly.one(1)], [Fraction(1)], [r])
    assert verify_nonreal_certificate(gens, cert)
    assert _defect_pair(gens, cert.multipliers, cert.weights, cert.members)[0] == {}
    bad = NonRealCertificate([Poly.one(1)], [Fraction(1, 2)], [r])
    assert not verify_nonreal_certificate(gens, bad)


def _monomial_certificate():
    # q = x2*/2 against x1 x1* x2: q gen = x2* x1 x1* x2 / 2 is a symmetric word
    gens = _gens("x1 x1* x2\nx3")
    v = real_test(gens)
    assert v.status == NOT_REAL and v.method == "monomial"
    (q, _), cert = v.certificate.multipliers, v.certificate
    (w, c), = (q * gens[0]).terms.items()
    assert w == word_star(w) and c == Fraction(1, 2)
    return gens, cert


def test_defect_doubles_multiplier_terms_on_symmetric_words():
    gens, cert = _monomial_certificate()
    assert _defect_pair(gens, cert.multipliers, cert.weights, cert.members)[0] == {}
    q = Fraction(1, 3) * parse_poly("x2*", g=3)
    got, _ = _defect_pair(gens, [q, Poly.zero(3)], cert.weights, cert.members)
    assert got == {(3, 0, 1, 2): 2 * (Fraction(1, 3) - Fraction(1, 2))}


@pytest.mark.parametrize("extra, canonical", [("x2", True), ("x3", False)])
def test_tampered_multiplier_is_rejected_on_either_side_of_the_star(extra, canonical):
    gens, cert = _monomial_certificate()
    delta = Fraction(2, 7) * parse_poly(extra, g=3)
    mult = [cert.multipliers[0] + delta, cert.multipliers[1]]
    (w, c), = (delta * gens[0]).terms.items()
    assert (w < word_star(w)) == canonical
    got, want = _defect_pair(gens, mult, cert.weights, cert.members)
    assert want == {w: c, word_star(w): c}
    assert got == {min(w, word_star(w)): c}
    assert not verify_nonreal_certificate(gens, NonRealCertificate(mult, cert.weights, cert.members))


def test_tampered_member_is_rejected():
    gens, cert = _monomial_certificate()
    member = cert.members[0] + parse_poly("x3 x1", g=3)
    got, _ = _defect_pair(gens, cert.multipliers, cert.weights, [member])
    assert got
    assert not verify_nonreal_certificate(gens, NonRealCertificate(
        cert.multipliers, cert.weights, [member]))


@pytest.mark.parametrize("name", ["closed_form", "sdp_small", "sdp_large"])
def test_every_benchmark_certificate_verifies(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import corpora

    workload = corpora.WORKLOADS[name]
    not_real = certified = 0
    for ideal in corpora.build_corpus(workload, 1):
        gens = ideal.parse()
        v = real_test(gens, method=workload.method, max_iter=workload.max_iter)
        not_real += v.status == NOT_REAL
        if v.certificate is not None:
            certified += 1
            cert = v.certificate
            assert verify_nonreal_certificate(gens, cert), ideal.ident
            qs = [q.terms for q in cert.multipliers]
            rs = [r.terms for r in cert.members]
            assert copying_defect(gens, qs, cert.weights, rs) == {}, ideal.ident
    assert certified == not_real
    assert certified > 0 or name == "sdp_large"


ROTATION = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]


def test_verdicts_agree_under_a_star_automorphism():
    # phi(x_i) = sum_j U_ij x_j + c_i keeps realness, and the closed forms
    # read supports, so a closed-form preimage sends its image to the SDP
    # route with a known verdict and, for NotReal, a known certificate
    rng = random.Random(131)
    undecided = moved_certificates = 0
    for draw in range(200):
        g = rng.choice((1, 2))
        if draw % 2:
            gens = [rand_product(rng, g, rng.choice((2, 3)))]
        else:
            gens = [Poly.from_word(g, rand_word(rng, g, rng.randint(2, 3)))
                    for _ in range(rng.randint(1, 2))]
        U = ROTATION if g == 2 else [[1]]
        c = [rng.choice((0, 1, -1, 2) if g == 2 else (1, -1, 2)) for _ in range(g)]
        images = [star_automorphism(p, U, c) for p in gens]
        pre = real_test(gens)
        img = real_test(images, method="sdp", max_iter=2000)
        label = (draw, [str(p) for p in gens], c, pre.status, img.status)
        assert {pre.status, img.status} != {REAL, NOT_REAL}, label
        for v, ideal in ((pre, gens), (img, images)):
            if v.certificate is not None:
                assert verify_nonreal_certificate(ideal, v.certificate), label
        if pre.status == NOT_REAL and not pre.method.startswith("sdp"):
            cert = pre.certificate
            moved = NonRealCertificate(
                [star_automorphism(q, U, c) for q in cert.multipliers], cert.weights,
                [star_automorphism(r, U, c) for r in cert.members])
            assert verify_nonreal_certificate(images, moved), label
            moved_certificates += 1
        undecided += img.status not in (REAL, NOT_REAL)
    print(f"{undecided} of 200 images undecided at method='sdp', max_iter=2000; "
          f"{moved_certificates} closed-form certificates carried over by phi")
