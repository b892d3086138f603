"""Behaviour dump: print sha256 digests over what a checkout decides, so
that two checkouts can be compared byte for byte.

    python tests/behaviour_dump.py [CHECKOUT]

CHECKOUT is the root of a source checkout, by default the one that holds
this script; its src/ and bench/ are imported, so the package and the
benchmark corpora come from it.  The random generators come from the
util.py next to this script, so every checkout is dumped from the same
draws (util.py's own imports from ncreal must resolve in CHECKOUT).  BLAS
runs on one thread, as in bench/run.py, so the float results are
reproducible.  The digest covers, each record as its repr:

- RealnessVerdict.to_json() of every seed-1 ideal of the three benchmark
  workloads, at the workload's method and at "auto", with its max_iter;
- for every ideal of the workloads run at method "sdp" that reaches the
  SDP route, the built problem's solved system and solve_feasibility's
  status, iterations, final_gap, gaps and the bytes of G, and the face,
  solved system and free unknowns of the problem built under a random
  ranking of the letters (random.Random(13), one per ideal);
- the face, solved system and free unknowns of the problems built for the
  two FRONTIER ideals (n = 85 at g = 2, n = 259 at g = 3), under the
  default order and under a random ranking (random.Random(23));
- RealnessVerdict.to_json() of real_test on 120 random ideals
  (random.Random(11), util.rand_poly: g in {1, 2}, 1-3 generators of
  degree 2-3);
- psd_check_exact's is_psd, perm, lower, diag and witness on 600 near-PSD
  matrices (random.Random(3), util.near_psd), most refuted after pivots;
- factor_homogeneous's scalar and factors, and is_sos_homogeneous on
  p + p* and on -(p + p*), for 200 products (random.Random(5),
  util.rand_product: g in {1, 2, 3}, degree 2-5), under the default order
  and under a random ranking;
- poly_str(quad_poly(*b)) and decompose_quadratic_univariate(*b) for 300
  coefficient sets b (random.Random(7), each coefficient in -1..3 over 1
  or 2, so zeros occur);
- parse_poly(text, g) of 4,000 random strings (random.Random(17),
  util.rand_text: grammar tokens mixed with stray characters, Unicode
  spaces and non-ASCII digits; g in {None, 1, 2, 3}): g and the sorted
  terms, or a ParseError's message and position;
- word_str of every word and poly_str under the default order and under a
  random ranking of 300 polynomials (random.Random(19), util.rand_poly:
  g in {1, 2, 3}, degree <= 5).

A solved system and its free unknowns are solved and free_variables() of
sdp_build._exact_system(problem), the system under the names ("g", i, j)
and ("q", k), whatever names the checkout's build gives its unknowns.
Polynomials are recorded as their sorted terms.  An exception raised
anywhere is recorded as its repr.  The output is one line per kind of
record, in the order above: its name, its number of records and the digest
of those records alone (the workload records are split into verdict,
solved, ranked and solve; then come frontier, random, psd, factor, sos,
quad, text and print); then the number of records and the digest of all of
them, one after another.
"""

import hashlib
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

# two frontier ideals, built at g = 2 (n = 85) and g = 3 (n = 259): more
# letters and longer words than any ideal of the SDP workloads
FRONTIER = ("x1 x2 x1* x2* - x2 x1 + 2", "x1 x2 x3* x1* - x3 x2 + 2")


def records():
    """Every record of the digest, in a fixed order, as (kind, record), the record a str."""
    import corpora
    from util import near_psd, rand_poly, rand_product, rand_text

    from ncreal.algebra import MonomialOrder, word_str
    from ncreal.exactla import psd_check_exact
    from ncreal.factor import factor_homogeneous
    from ncreal.gram import decompose_quadratic_univariate, is_sos_homogeneous, quad_poly
    from ncreal.groebner import left_groebner
    from ncreal.parsing import ParseError, parse_poly, poly_str
    from ncreal.realness import real_test
    from ncreal.sdp import solve_feasibility
    from ncreal.sdp_build import _exact_system, build_real_sdp

    def attempt(f, *args, **kwargs):
        try:
            return f(*args, **kwargs)
        except Exception as exc:
            return exc

    def outcome(describe, f, *args, **kwargs):
        """The repr of describe(f(*args, **kwargs)), or of what it raised."""
        out = attempt(f, *args, **kwargs)
        return repr(out if isinstance(out, Exception) else describe(out))

    def verdict(gens, **kwargs):
        return outcome(lambda v: v.to_json(), real_test, gens, **kwargs)

    def terms(p):
        return sorted(p.terms.items())

    def system(problem):
        named = _exact_system(problem)
        return problem.face, named.solved, named.free_variables()

    def certificate(cert):
        return cert and (cert.weights, [terms(r) for r in cert.polys])

    ranked = random.Random(13)
    for name, workload in corpora.WORKLOADS.items():
        for ideal in corpora.build_corpus(workload, 1):
            gens = ideal.parse()
            for method in dict.fromkeys((workload.method, "auto")):
                yield "verdict", f"{name} {ideal.ident} {method} " + verdict(
                    gens, method=method, max_iter=workload.max_iter)
            if workload.method != "sdp":
                continue
            basis = left_groebner(gens)
            if not basis.elements or any(p.is_constant() for p in basis.elements):
                continue
            problem = build_real_sdp(basis)
            yield "solved", f"{name} {ideal.ident} solved {_exact_system(problem).solved!r}"
            ranking = list(range(2 * basis.g))
            ranked.shuffle(ranking)
            yield "ranked", f"{name} {ideal.ident} ranked {ranking} " + outcome(
                system, lambda: build_real_sdp(left_groebner(gens, MonomialOrder(basis.g, ranking))))
            res = attempt(solve_feasibility, problem, max_iter=workload.max_iter)
            if isinstance(res, Exception):
                yield "solve", f"{name} {ideal.ident} solve {res!r}"
                continue
            G = None if res.G is None else res.G.tobytes().hex()
            yield "solve", (f"{name} {ideal.ident} solve {res.status} {res.iterations} "
                            f"{res.final_gap!r} {res.gaps!r} {G}")

    rng = random.Random(23)
    for text in FRONTIER:
        gens = [parse_poly(text)]
        g = gens[0].g
        ranking = list(range(2 * g))
        rng.shuffle(ranking)
        for order in (MonomialOrder(g), MonomialOrder(g, ranking)):
            yield "frontier", f"frontier {text!r} {order.ranking} " + outcome(
                system, lambda: build_real_sdp(left_groebner(gens, order)))

    rng = random.Random(11)
    for k in range(120):
        g = rng.choice((1, 2))
        gens = [rand_poly(rng, g, rng.randint(2, 3)) for _ in range(rng.randint(1, 3))]
        yield "random", f"random {k} " + verdict(gens)

    rng = random.Random(3)
    for k in range(600):
        yield "psd", f"psd {k} " + outcome(
            lambda r: (r.is_psd, r.perm, r.lower, r.diag, r.witness), psd_check_exact, near_psd(rng))

    rng = random.Random(5)
    for k in range(200):
        g = rng.randint(1, 3)
        p = rand_product(rng, g, rng.randint(2, 5))
        ranking = list(range(2 * g))
        rng.shuffle(ranking)
        for order in (None, MonomialOrder(g, ranking)):
            yield "factor", f"factor {k} {ranking} {order is None} " + outcome(
                lambda fac: (fac.scalar, [terms(f) for f in fac.factors]),
                factor_homogeneous, p, order)
            for sign in (1, -1):
                yield "sos", f"sos {k} {order is None} {sign} " + outcome(
                    lambda r: (r.is_sos, r.reason, r.witness, certificate(r.certificate)),
                    is_sos_homogeneous, sign * (p + p.star()), order)

    rng = random.Random(7)
    for k in range(300):
        # each coefficient is 0 one time in five; about one set in seven is SOS
        b = [Fraction(rng.randint(-1, 3), rng.randint(1, 2)) for _ in range(5)]
        yield "quad", (f"quad {k} {outcome(poly_str, quad_poly, *b)} "
                       + outcome(certificate, decompose_quadratic_univariate, *b))

    rng = random.Random(17)
    for k in range(4000):
        text = rand_text(rng)
        g = rng.choice((None, 1, 2, 3))
        out = attempt(parse_poly, text, g)
        if isinstance(out, ParseError):
            out = (str(out), out.pos)
        elif not isinstance(out, Exception):
            out = (out.g, terms(out))
        yield "text", f"text {k} {text!r} {g} {out!r}"

    rng = random.Random(19)
    for k in range(300):
        g = rng.randint(1, 3)
        p = rand_poly(rng, g, 5, nterms=rng.randint(1, 5))
        ranking = list(range(2 * g))
        rng.shuffle(ranking)
        yield "print", (f"print {k} {ranking} {[word_str(w) for w, _ in terms(p)]} "
                        f"{poly_str(p)!r} {poly_str(p, MonomialOrder(g, ranking))!r}")


def main(argv):
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    if not (checkout / "src" / "ncreal" / "__init__.py").is_file():
        print(f"no ncreal package under {checkout / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # the package and the corpora from the checkout, util from beside this script
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench"),
                    str(Path(__file__).resolve().parent)]
    total, kinds = hashlib.sha256(), {}
    for kind, record in records():
        line = record.encode() + b"\n"
        total.update(line)
        digest, count = kinds.get(kind) or (hashlib.sha256(), 0)
        digest.update(line)
        kinds[kind] = digest, count + 1
    for kind, (digest, count) in kinds.items():
        print(f"{kind:9} {count:5} {digest.hexdigest()}")
    print(f"{sum(count for _, count in kinds.values())} records from {checkout}")
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
