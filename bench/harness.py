"""Time to verdict on seeded corpora of left ideals, checked against oracles.

An untraced run (`--trace 0`) sets up, then decides the workload's corpus
(parse_generators + real_test per ideal, timed from outside the package)
in whole passes until about `--seconds` have gone by, and sets up again.
It then re-verifies every certificate of the first pass and checks every
verdict against the ideal's oracle.  A traced run (`--trace 1`) decides the corpus once
untraced and once with spans around each layer, and reports per-layer
self time, counts and the tracing overhead.

The last line printed is the result object; the line before it is the
full report (verdict mix, routes, environment, every metric with its
sample count).  Any failed ideal makes the exit code 1.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ncreal
from ncreal import realness
from ncreal.parsing import parse_generators
from ncreal.realness import NOT_REAL, NUMERICALLY_REAL, REAL

import corpora
from spans import UNMEASURED, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WARMUP = "x1 x1* - x1* x1 - 1"
SETUP_REPEATS = 3  # before timing, and as many again after
CERT_TOL = 1e-6  # numeric certificates, as acceptance criterion 6 checks them
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import ncreal.realness; print(time.perf_counter() - t)"
)


@dataclass
class Outcome:
    ideal: corpora.Ideal
    gens: list | None
    verdict: object  # RealnessVerdict, or the exception real_test raised
    seconds: float


def run_pass(corpus, workload, parse=parse_generators, test=None, tracer=None):
    """Decide every ideal of the corpus once; returns the outcomes and the wall time."""
    test = test or realness.real_test
    outcomes = []
    start = time.perf_counter()
    for ideal in corpus:
        if tracer is not None:
            tracer.ideal = ideal.ident
        t0 = time.perf_counter()
        gens = None
        try:
            gens = parse(ideal.text, ideal.g)
            verdict = test(gens, method=workload.method, max_iter=workload.max_iter)
        except Exception as exc:  # counted as a failed ideal, not fatal to the run
            verdict = exc
        outcomes.append(Outcome(ideal, gens, verdict, time.perf_counter() - t0))
    return outcomes, time.perf_counter() - start


def timed_passes(corpus, workload, seconds):
    """Whole passes until about `seconds` of wall time (at least one).

    Returns all outcomes and the wall time of each pass.
    """
    outcomes, walls = [], []
    while True:
        more, dt = run_pass(corpus, workload)
        outcomes += more
        walls.append(dt)
        if sum(walls) + dt / 2 >= seconds:
            return outcomes, walls


def first_outcomes(outcomes):
    """The first decision of each ideal, in corpus order."""
    first = {}
    for o in outcomes:
        first.setdefault(o.ideal.ident, o)
    return list(first.values())


def verify_certificates(outcomes, tracer=None):
    """Re-verify each certificate; returns ({ident: ok}, seconds)."""
    ok, spent = {}, 0.0
    for o in outcomes:
        v = o.verdict
        if isinstance(v, Exception) or v.certificate is None:
            continue
        if tracer is not None:
            tracer.ideal = o.ideal.ident
        t0 = time.perf_counter()
        ok[o.ideal.ident] = realness.verify_nonreal_certificate(o.gens, v.certificate, tol=CERT_TOL)
        spent += time.perf_counter() - t0
    return ok, spent


def failure(outcome, workload, cert_ok, first):
    """Why this outcome is wrong, or None."""
    v = outcome.verdict
    if isinstance(v, Exception):
        return f"raised {type(v).__name__}: {v}"
    if not isinstance(first, Exception) and (v.status, v.method) != (first.status, first.method):
        return f"verdict changed between decisions: {first.status} then {v.status}"
    expect = outcome.ideal.expect
    if expect == REAL and v.status == NOT_REAL:
        return "NotReal where the oracle says Real"
    if expect == NOT_REAL and v.status in (REAL, NUMERICALLY_REAL):
        return f"{v.status} where the oracle says NotReal"
    if v.status == NOT_REAL and not cert_ok.get(outcome.ideal.ident, False):
        return "certificate fails verify_nonreal_certificate"
    if workload.exact_only and v.status in (REAL, NOT_REAL) and v.method != "sdp-exact":
        return f"{v.status} via {v.method}, without its exact check"
    return None


def check(outcomes, workload, cert_ok):
    """Failure reasons, one entry per failed decision.

    Every decision is held to the oracle and to the first decision of its
    ideal; the certificate checked is the first decision's.
    """
    first = {o.ideal.ident: o.verdict for o in first_outcomes(outcomes)}
    failures = []
    for o in outcomes:
        reason = failure(o, workload, cert_ok, first[o.ideal.ident])
        if reason:
            failures.append({"ideal": o.ideal.ident, "reason": reason})
    return failures


def highest_percentile(values):
    """(label, value) of the highest of p90/p99 with >= 10 samples beyond it."""
    n = len(values)
    for label, q in (("p99", 99), ("p90", 90)):
        if n * (100 - q) / 100 >= 10:
            return label, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None, None


def tally(outcomes):
    mix, routes = {}, {}
    for o in outcomes:
        v = o.verdict
        status = "exception" if isinstance(v, Exception) else v.status
        route = "exception" if isinstance(v, Exception) else v.method
        mix[status] = mix.get(status, 0) + 1
        routes[route] = routes.get(route, 0) + 1
    return dict(sorted(mix.items())), dict(sorted(routes.items()))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def environment():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def prepare(workload, seed):
    """Corpus, oracle answers and one warm-up ideal: everything before timing."""
    corpus = corpora.build_corpus(workload, seed)
    realness.real_test(parse_generators(WARMUP, 1), method=workload.method,
                       max_iter=workload.max_iter)
    return corpus


def measure_setup(workload, seed, repeats):
    """Set-up times: import in a fresh interpreter plus `prepare`, `repeats` times."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=120)
        t0 = time.perf_counter()
        corpus = prepare(workload, seed)
        times.append(float(out.stdout) + time.perf_counter() - t0)
    return corpus, times


def untraced(workload, seed, seconds):
    corpus, setups = measure_setup(workload, seed, SETUP_REPEATS)
    outcomes, walls = timed_passes(corpus, workload, seconds)
    # set up again after timing, so the set-up samples span the run's minute
    setups += measure_setup(workload, seed, SETUP_REPEATS)[1]
    first = first_outcomes(outcomes)
    cert_ok, verify_s = verify_certificates(first)
    failures = check(outcomes, workload, cert_ok)
    # Throughput is a mean over every decision.  On a host whose speed flips
    # between two levels about every second, a median or best time of short
    # decisions jumps between the levels with the share of slow time, while
    # a mean moves with it smoothly; hence no gate on decide_s.p50.
    times = [o.seconds for o in outcomes]
    mix, routes = tally(first)
    decided = mix.get(REAL, 0) + mix.get(NOT_REAL, 0)
    metrics = {
        "setup_s": (statistics.mean(setups), "s"),
        "ideals_per_s": (len(outcomes) / sum(walls), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    extra = {
        "decide_s.p50": (statistics.median(times), "s"),
        "decided_share": (decided / len(first), "ratio"),
        "failed_share": (len(failures) / len(outcomes), "ratio"),
    }
    label, value = highest_percentile(times)
    if label:
        extra[f"decide_s.{label}"] = (value, "s")
    if cert_ok:
        extra["verify_s"] = (verify_s, "s")
    report = {
        "workload": workload.name, "seed": seed, "trace": 0,
        "corpus": len(corpus), "pass_wall_s": walls,
        "samples": {"decide_s": len(times),
                    "setup_s": len(setups), "certificates": len(cert_ok)},
        "verdicts": mix, "routes": routes,
        "metrics": _named({**metrics, **extra}),
        "failures": failures,
        "environment": environment(),
    }
    return metrics, report, len(outcomes), len(failures)


def traced(workload, seed):
    """Each ideal decided untraced and traced, back to back.

    Interleaving puts both timings of an ideal in the same minute, so the
    overhead is not swamped by the host's drift between passes.
    """
    corpus = prepare(workload, seed)
    tracer = Tracer()
    parse = tracer.wrap("parsing", parse_generators)
    test = tracer.wrap("realness", realness.real_test)
    plain, outcomes = [], []
    for k, ideal in enumerate(corpus):
        # alternate which goes first: a repeated decision runs a little faster
        for traced_turn in ((False, True) if k % 2 else (True, False)):
            if traced_turn:
                with tracer.patch():
                    outcomes += run_pass([ideal], workload, parse, test, tracer)[0]
            else:
                plain += run_pass([ideal], workload)[0]
    with tracer.patch():
        cert_ok, _ = verify_certificates(outcomes, tracer)
    tracer.ideal = None
    plain_ok, _ = verify_certificates(plain)
    failures = check(plain, workload, plain_ok) + check(outcomes, workload, cert_ok)
    plain_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in outcomes)
    metrics = layer_metrics(tracer.spans, len(corpus), len(cert_ok))
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "ratio")
    path = OUT / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write(path)
    traced_total = sum(sp.end - sp.start for sp in tracer.spans if sp.parent is None)
    mix, routes = tally(outcomes)
    report = {
        "workload": workload.name, "seed": seed, "trace": 1,
        "corpus": len(corpus), "untraced_s": plain_s, "traced_s": traced_s,
        "spans": len(tracer.spans), "spans_file": os.path.relpath(path, ROOT),
        "verdicts": mix, "routes": routes,
        # self time per layer over the traced parse, real_test and re-verify calls
        "self_share": {
            name: metrics[name][0] / traced_total for name in metrics if name.endswith("self_s")
        },
        "metrics": _named(metrics),
        "unmeasured": UNMEASURED,
        "failures": failures,
        "environment": environment(),
    }
    return metrics, report, 2 * len(corpus), len(failures)


def _named(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path(ncreal.__file__).resolve().is_relative_to(SRC):
        print(f"ncreal was imported from {ncreal.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = corpora.WORKLOADS[args.workload]
    if args.trace:
        metrics, report, attempted, failed = traced(workload, args.seed)
    else:
        metrics, report, attempted, failed = untraced(workload, args.seed, args.seconds)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": _named(metrics)}))
    return 1 if failed else 0
