"""Command line front end.

    ncreal parse -e "x1 x2* - 3"
    ncreal factor -e "x1 x2 + x1 x1"
    ncreal sos -e "x1 x1* + x2 x2*"
    ncreal unshrinkable "x1 x2* x2 x1"
    ncreal groebner -f gens.txt
    ncreal real -e "x1 x1* + x1 + x1* + 1" --method auto
    ncreal verify -f gens.txt -c cert.json
    ncreal eval -e "x1 x1*" -p point.json

The seven commands that read polynomials take them from -e and/or -f, with
--vars and --json.  Only parse, factor, sos, groebner and real take --order,
a letter ranking such as x2,x2*,x1,x1*: it may rank more variables than the
input uses, and one that ranks fewer is rejected by the library's
checked_order.  verify and eval print the same under every ranking, so they
take none.

Exit codes: 0 when the command decided (for `real`: status Real or NotReal;
for `verify`: certificate accepted), 2 when it could not decide (status
NumericallyReal or Inconclusive, certificate rejected), 1 on usage or
parse errors.
"""

import argparse
import os
import sys

from .algebra import MonomialOrder, shrink_length, word_str
from .evaluation import MatrixPoint, apply_to_vector, evaluate
from .factor import factor_homogeneous
from .gram import is_sos_homogeneous
from .groebner import left_groebner
from .parsing import ParseError, _line_terms, _polys, _terms, parse_word, poly_str
from .realness import (
    NOT_REAL,
    REAL,
    NonRealCertificate,
    real_test,
    verify_nonreal_certificate,
)


def _load_polys(args):
    """Polynomials from -e options and/or an -f file, built once on a common g."""
    terms = [_terms(text, args.vars) for text in args.expr or []]
    if args.file:
        with open(args.file) as fh:
            terms.extend(_line_terms(fh.read(), args.vars))
    if not terms:
        raise ValueError("no input: use -e EXPR or -f FILE")
    return _polys(terms, args.vars)


def _single_poly(args):
    polys = _load_polys(args)
    if len(polys) != 1:
        raise ValueError("this command takes exactly one polynomial")
    return polys[0]


def _order(args):
    """The order of '--order x2,x2*,x1,x1*' on one variable per two entries, or
    None when the option is absent; checked_order defaults and checks it."""
    if args.order is None:
        return None
    codes = []
    for part in args.order.split(","):
        w = parse_word(part)
        if len(w) != 1:
            raise ValueError(f"ranking entries must be single letters, got {part!r}")
        codes.append(w[0])
    return MonomialOrder((len(codes) + 1) // 2, codes)


def _emit(args, data, text_lines):
    if args.json:
        import json
        print(json.dumps(data, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_parse(args):
    polys, order = _load_polys(args), _order(args)
    strs = [poly_str(p, order) for p in polys]
    _emit(args, {"g": polys[0].g, "polynomials": strs}, strs)
    return 0


def cmd_factor(args):
    p, order = _single_poly(args), _order(args)
    fac = factor_homogeneous(p, order)
    strs = [poly_str(f, order) for f in fac.factors]
    _emit(
        args,
        {"scalar": str(fac.scalar), "factors": strs},
        [f"scalar: {fac.scalar}"] + [f"factor: {s}" for s in strs],
    )
    return 0


def cmd_sos(args):
    p, order = _single_poly(args), _order(args)
    res = is_sos_homogeneous(p, order)
    if res.is_sos:
        lines = ["sum of hermitian squares: yes"]
        lines += [
            f"  {w} * ({poly_str(r, order)})^* ({poly_str(r, order)})"
            for w, r in zip(res.certificate.weights, res.certificate.polys)
        ]
        data = {
            "sos": True,
            "weights": [str(w) for w in res.certificate.weights],
            "polys": [poly_str(r, order) for r in res.certificate.polys],
        }
    else:
        lines = [f"sum of hermitian squares: no ({res.reason})"]
        data = {"sos": False, "reason": res.reason}
        if res.witness is not None:
            lines.append("  gram witness: " + " ".join(str(c) for c in res.witness))
            data["witness"] = [str(c) for c in res.witness]
    _emit(args, data, lines)
    return 0


def cmd_unshrinkable(args):
    w = parse_word(args.word, args.vars)
    k = shrink_length(w)
    if k is None:
        lines = ["left unshrinkable: yes"]
    else:
        lines = [
            "left unshrinkable: no",
            f"  {word_str(w)} = u u* v with u = {word_str(w[:k])}",
        ]
    _emit(
        args,
        {"word": word_str(w), "unshrinkable": k is None, "shrink_length": k},
        lines,
    )
    return 0


def cmd_groebner(args):
    gens, order = _load_polys(args), _order(args)
    basis = left_groebner(gens, order)
    strs = [poly_str(p, order) for p in basis.elements]
    _emit(args, {"g": gens[0].g, "basis": strs}, strs if strs else ["(zero ideal)"])
    return 0


def cmd_real(args):
    gens, order = _load_polys(args), _order(args)
    verdict = real_test(
        gens,
        order=order,
        method=args.method,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    lines = [f"status: {verdict.status}", f"method: {verdict.method}"]
    if verdict.detail:
        lines.append(f"detail: {verdict.detail}")
    if verdict.residual is not None:
        lines.append(f"residual: {verdict.residual:.3e}")
    if verdict.certificate is not None:
        import json  # a certificate, which only NotReal has, is written as JSON
        if not args.json:
            lines.append("certificate: " + json.dumps(verdict.certificate.to_json()))
    _emit(args, verdict.to_json(), lines)
    if args.cert and verdict.certificate is not None:
        with open(args.cert, "w") as fh:
            json.dump(verdict.certificate.to_json(), fh, indent=2)
    return 0 if verdict.status in (REAL, NOT_REAL) else 2


def cmd_verify(args):
    import json

    gens = _load_polys(args)
    with open(args.certificate) as fh:
        cert = NonRealCertificate.from_json(json.load(fh), gens[0].g)
    ok = verify_nonreal_certificate(gens, cert)
    _emit(
        args,
        {"accepted": ok},
        ["certificate accepted" if ok else "certificate rejected"],
    )
    return 0 if ok else 2


def cmd_eval(args):
    import numpy as np

    p = _single_poly(args)
    with open(args.point) as fh:
        point = MatrixPoint.from_json(fh.read())
    M = evaluate(p, point)
    data = {"matrix": M.tolist()}
    lines = [np.array2string(M, precision=6, suppress_small=True)]
    if point.vector is not None:
        v = apply_to_vector(p, point)
        data["vector"] = v.tolist()
        lines.append("applied to vector: " + np.array2string(v, precision=6))
    _emit(args, data, lines)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 like other input errors: 2 means undecided
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    top = _Parser(
        prog="ncreal",
        description="Realness of left ideals in the free *-algebra.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("-e", "--expr", action="append", help="polynomial expression")
    source.add_argument("-f", "--file", help="file with one polynomial per line")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--vars", type=int, help="number of variables g")
    shared.add_argument("--json", action="store_true", help="machine readable output")
    ranks = argparse.ArgumentParser(add_help=False)
    ranks.add_argument("--order", help="letter ranking, e.g. 'x1,x1*,x2,x2*'")
    reads, ranked = [source, shared], [source, shared, ranks]

    def command(name, func, summary, parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    command("parse", cmd_parse, "canonical form of polynomials", ranked)
    command("factor", cmd_factor, "factor a homogeneous polynomial", ranked)
    command("sos", cmd_sos, "sum-of-hermitian-squares check (homogeneous)", ranked)
    p = command("unshrinkable", cmd_unshrinkable, "left unshrinkability of a word", [shared])
    p.add_argument("word", help="word, e.g. 'x1 x2* x2 x1'")
    command("groebner", cmd_groebner, "left Groebner basis of generators", ranked)
    p = command("real", cmd_real, "decide realness of the generated left ideal", ranked)
    p.add_argument("--method", choices=["auto", "exact", "sdp"], default="auto")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=20000)
    p.add_argument("--cert", help="write the certificate (if any) to this file")
    p = command("verify", cmd_verify, "check a non-realness certificate", reads)
    p.add_argument("-c", "--certificate", required=True, help="certificate JSON file")
    p = command("eval", cmd_eval, "evaluate a polynomial at a matrix point", reads)
    p.add_argument("-p", "--point", required=True, help="point JSON file")
    return top


def main(argv=None):
    # numpy is not loaded yet; small matrices want one BLAS thread unless told otherwise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
