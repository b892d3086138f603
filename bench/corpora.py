"""Seeded corpora of left ideals for the realness benchmark.

Every ideal reaches the program as text, one generator per line, together
with its number of variables: what `ncreal real -f FILE --vars G` reads.

The base corpora come from generators with fixed seeds.  With seeds 106
and 107, `criterion_6` and `criterion_7` reproduce the corpora of
acceptance criteria 6 and 7 exactly, so the benchmark's baseline ties to
the numbers quoted in ROADMAP.md.  The run seed changes how each ideal is
written, not which ideal it is (see `present`): a fresh draw of 50
principal ideals changes how many of them run to the iteration cap, and
that count alone moves the corpus time by a quarter from seed to seed.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from ncreal.algebra import MonomialOrder, Poly, iter_words
from ncreal.factor import is_irreducible_homogeneous
from ncreal.groebner import left_groebner
from ncreal.parsing import parse_generators, poly_str
from ncreal.realness import (
    NOT_REAL,
    REAL,
    real_principal_homogeneous,
    real_quadratic_univariate,
)


# ---------------------------------------------------------------------------
# random polynomials (the same draws as the test suite's generators)
# ---------------------------------------------------------------------------

def rand_coeff(rng, lo=-3, hi=3, den=2):
    c = 0
    while c == 0:
        c = Fraction(rng.randint(lo, hi), rng.randint(1, den))
    return c


def rand_homogeneous(rng, g, d, nterms=3):
    words = [w for w in iter_words(g, d) if len(w) == d]
    terms = {}
    for _ in range(nterms):
        w = words[rng.randrange(len(words))]
        terms[w] = terms.get(w, 0) + rand_coeff(rng)
    p = Poly(g, {w: c for w, c in terms.items() if c})
    return p if p else Poly.from_word(g, words[0])


def rand_linear_factor(rng, g, order):
    while True:
        terms = {}
        for code in range(2 * g):
            if rng.random() < 0.5:
                terms[(code,)] = rand_coeff(rng)
        if terms:
            return Poly(g, terms).monic(order)


def rand_irreducible(rng, g, d, tries=40):
    """Random monic irreducible homogeneous polynomial of degree d."""
    order = MonomialOrder(g)
    if d == 1:
        return rand_linear_factor(rng, g, order)
    for _ in range(tries):
        p = rand_homogeneous(rng, g, d, nterms=rng.randint(2, 4)).monic(order)
        if is_irreducible_homogeneous(p, order):
            return p
    return Poly(g, {(0,) * d: Fraction(1), (1,) * d: Fraction(1)})


def product(g, scalar, factors):
    p = Poly.constant(g, scalar)
    for f in factors:
        p = p * f
    return p


# ---------------------------------------------------------------------------
# base corpora
# ---------------------------------------------------------------------------

def _criterion_6_principal(rng, star_pair):
    g = rng.choice([1, 2])
    budget = 4 if g == 1 else 3
    factors = []
    if star_pair:
        f = rand_irreducible(rng, g, 1)
        factors = [f, f.star()]
        budget -= 2
        total = rng.randint(0, budget)
    else:
        total = rng.randint(1, budget)
    while total:
        d = rng.randint(1, min(2, total))
        factors.append(rand_irreducible(rng, g, d))
        total -= d
    return product(g, rand_coeff(rng), factors)


def criterion_6(seed=106, count=50):
    """Principal homogeneous generators of acceptance criterion 6."""
    rng = random.Random(seed)
    return [_criterion_6_principal(rng, case % 3 == 2) for case in range(count)]


def criterion_7(seed=107, count=50):
    """Univariate quadratics of acceptance criterion 7."""
    rng = random.Random(seed)
    x = Poly.gen(1, 1)
    words = [Poly.one(1), x, x.star(), x * x, x * x.star(), x.star() * x,
             x.star() * x.star()]
    out = []
    for _ in range(count):
        while True:
            coeffs = [rng.randint(-3, 3) for _ in range(7)]
            if any(coeffs[3:]):
                break
        p = Poly.zero(1)
        for c, m in zip(coeffs, words):
            p = p + c * m
        out.append(p)
    return out


# Named instances from ROADMAP.md.  cubic4 is the basis ideal of acceptance
# criteria 3 and 4, which the package proves NotReal.
NAMED = {
    "cubic4": (["x1 x1*^2 - 1", "x1^2 + x1*^2", "x1 x1* - x1*^2", "x1* x1 - 5"], NOT_REAL),
    "mixed21": (["x1 x2 x1* - x2 + 2", "x2* x2 x1 + x1*"], None),
    "quartic15": (["x1^2 x1*^2 + x1* x1 - 1"], None),
}


def sdp_large_ideals(seed=205, count=3):
    """g = 1 ideals of degree 5-6 with one or two random generators.

    Draws are kept when the left Groebner basis has no constant and its
    largest degree is 5 or 6, so the SDP route sees a Gram side of 15 to 63.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        top = rng.choice([5, 6])
        degrees = [top] + ([rng.randint(2, top)] if rng.random() < 0.5 else [])
        gens = []
        for d in degrees:
            lead = rand_homogeneous(rng, 1, d, nterms=rng.randint(1, 3))
            tail = Poly.zero(1)
            for _ in range(rng.randint(1, 3)):
                tail = tail + rand_homogeneous(rng, 1, rng.randint(0, d - 1), nterms=1)
            gens.append(lead + tail)
        basis = left_groebner(gens)
        if basis.elements and all(p.degree() > 0 for p in basis.elements) and \
                max(p.degree() for p in basis.elements) in (5, 6):
            out.append(gens)
    return out


def _monomial_ideal(rng):
    g = rng.choice([1, 2])
    gens = []
    for _ in range(rng.randint(1, 3)):
        w = tuple(rng.randrange(2 * g) for _ in range(rng.randint(2, 6)))
        gens.append(Poly.from_word(g, w, rand_coeff(rng)))
    return gens


def _monomial_label(gens):
    """NotReal iff a generating word that no other generating word is a
    proper suffix of has the shape u u* v (the definition, scanned)."""
    words = {next(iter(p.terms)) for p in gens}
    for w in words:
        if any(len(u) < len(w) and w[len(w) - len(u):] == u for u in words):
            continue
        for k in range(1, len(w) // 2 + 1):
            if w[k:2 * k] == tuple(c ^ 1 for c in reversed(w[:k])):
                return NOT_REAL
    return REAL


def closed_form_ideals(seed=301, count=48):
    """Closed-form ideals for method="auto", with their by-construction labels.

    Three in four are principal homogeneous products of random irreducibles
    (g in {1, 2, 3}, degree 4-7); every third of those starts with an f f*
    pair and is NotReal by construction.  The rest alternate between
    monomial ideals and univariate quadratics.
    """
    rng = random.Random(seed)
    quadratics = criterion_7(seed + 1, count)
    out = []
    for case in range(count):
        if case % 4 == 3:
            if case % 8 == 3:
                gens = _monomial_ideal(rng)
                out.append((gens, _monomial_label(gens)))
            else:
                out.append(([quadratics[case]], None))
            continue
        g = rng.choice([1, 2, 3])
        total = rng.randint(4, 7)
        factors = []
        star_pair = case % 3 == 2
        if star_pair:
            f = rand_irreducible(rng, g, 1)
            factors = [f, f.star()]
            total -= 2
        while total:
            d = rng.randint(1, min(2, total))
            factors.append(rand_irreducible(rng, g, d))
            total -= d
        out.append(([product(g, rand_coeff(rng), factors)], NOT_REAL if star_pair else None))
    return out


# ---------------------------------------------------------------------------
# presentation and workloads
# ---------------------------------------------------------------------------

SCALES = tuple(Fraction(s) for s in ("1", "2", "3", "1/2", "3/2", "2/3"))


def present(gens, rng):
    """Write an ideal as text in a seed-chosen but equivalent way.

    Each generator is scaled by a positive rational and the generators are
    shuffled; a single generator also goes through a *-automorphism (a
    permutation of the variables, each optionally swapped with its adjoint).
    None of this changes the monic left Groebner basis up to that
    automorphism, so the cost of deciding the ideal stays the same while
    the text the program parses does not.  Multi-generator ideals are not
    relabelled: a new letter order can give them a different basis.
    """
    g = gens[0].g
    gens = [rng.choice(SCALES) * p for p in gens]
    if len(gens) == 1:
        perm = list(range(g))
        rng.shuffle(perm)
        image = [2 * v + rng.randrange(2) for v in perm]  # letter of x_i after the map
        letters = [code for v in image for code in (v, v ^ 1)]  # x_i* goes to its adjoint
        gens = [Poly(g, {tuple(letters[c] for c in w): a for w, a in p.terms.items()})
                for p in gens]
    rng.shuffle(gens)
    return "\n".join(poly_str(p) for p in gens)


@dataclass
class Ideal:
    ident: str
    g: int
    text: str
    expect: str | None  # oracle verdict: REAL, NOT_REAL, or None when unknown

    def parse(self):
        return parse_generators(self.text, self.g)


@dataclass
class Workload:
    name: str
    method: str
    max_iter: int
    exact_only: bool  # Real/NotReal only with an exact proof
    base: object      # () -> [(ident, gens, expect or oracle)]


def _sdp_small_base():
    out = []
    for k, p in enumerate(criterion_6()):
        out.append((f"crit6-{k:02d}", [p], real_principal_homogeneous))
    for k, p in enumerate(criterion_7()):
        out.append((f"crit7-{k:02d}", [p], real_quadratic_univariate))
    for name, (texts, expect) in NAMED.items():
        out.append((name, parse_generators("\n".join(texts)), expect))
    return out


def _sdp_large_base():
    return [(f"large-{k}", gens, None) for k, gens in enumerate(sdp_large_ideals())]


def _closed_form_base():
    return [(f"closed-{k:02d}", gens, label)
            for k, (gens, label) in enumerate(closed_form_ideals())]


WORKLOADS = {
    "sdp_small": Workload("sdp_small", "sdp", 2000, False, _sdp_small_base),
    "sdp_large": Workload("sdp_large", "sdp", 2000, True, _sdp_large_base),
    "closed_form": Workload("closed_form", "auto", 20000, False, _closed_form_base),
}


def build_corpus(workload, seed):
    """The workload's ideals as text, written for this seed, in seed order.

    The oracle answer of each ideal is computed here, from its presented
    form, by a closed form that does not share the route under test.
    """
    rng = random.Random(seed)
    corpus = []
    for ident, gens, expect in workload.base():
        text = present(gens, rng)
        ideal = Ideal(ident, gens[0].g, text, None)
        if callable(expect):
            (p,) = ideal.parse()
            expect = expect(p).status
        ideal.expect = expect
        corpus.append(ideal)
    rng.shuffle(corpus)
    return corpus
