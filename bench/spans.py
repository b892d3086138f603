"""Spans around the public functions each ncreal module calls into.

The wrapping lives here, outside the package: `Tracer.patch` swaps the
names a module looks up at call time (`ncreal.realness.solve_feasibility`
and so on) for timed wrappers and puts the originals back afterwards.
Spans are kept in memory; `Tracer.write` dumps them as JSON lines.

Layers follow the modules under src/ncreal/.  `algebra` has no call
boundary of its own, so its Poly arithmetic is counted in the self time
of whichever layer called it.  `evaluation` and `cli` are not on the
path to a verdict and are not measured.
"""

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

UNMEASURED = {
    "algebra": "no call boundary; Poly arithmetic counts in its callers' self time",
    "evaluation": "not on the verdict path",
    "cli": "not on the verdict path",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    ideal: str | None = None
    data: dict = field(default_factory=dict)


def _sdp_data(args, kwargs, result):
    return {"iterations": result.iterations, "max_iterations": result.status == "max_iterations"}


def _build_data(args, kwargs, problem):
    return {
        "gram_rows": problem.n,
        "constraint_rows": len(problem.exact_rows),
        "unknowns": len(problem.gvars) + len(problem.qvars),
    }


def _check_data(args, kwargs, result):
    return {"decided": result[0] != "unknown"}


def _lift_data(args, kwargs, result):
    return {"success": result is not None}


# (module, attribute, span name, observer of (args, kwargs, result))
TARGETS = [
    ("ncreal.realness", "solve_feasibility", "sdp", _sdp_data),
    ("ncreal.realness", "build_real_sdp", "sdp_build", _build_data),
    ("ncreal.realness", "exact_infeasibility_check", "sdp_build.exact_check", _check_data),
    ("ncreal.realness", "exact_lift", "sdp_build.lift", _lift_data),
    ("ncreal.realness", "factor_homogeneous", "factor", None),
    ("ncreal.realness", "pm_sos_kind", "gram", None),
    ("ncreal.realness", "psd_check_exact", "exactla.psd", None),
    ("ncreal.gram", "psd_check_exact", "exactla.psd", None),
    ("ncreal.sdp_build", "psd_check_exact", "exactla.psd", None),
    ("ncreal.realness", "left_groebner", "groebner", None),
    ("ncreal.realness", "verify_nonreal_certificate", "realness.verify", None),
]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.ideal = None  # id of the ideal being decided, stamped on each span

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), parent=self.stack[-1] if self.stack else None,
                        ideal=self.ideal)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span.end = self.clock()
            if observe is not None:
                span.data = observe(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def patch(self, targets=TARGETS):
        saved = []
        try:
            for module_name, attr, name, observe in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "ideal": s.ideal, **s.data}) + "\n")


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _root(spans, k):
    while spans[k].parent is not None:
        k = spans[k].parent
    return spans[k].name


def layer_metrics(spans, ideals, certificates):
    """Per-layer metrics of a traced pass; ratios over no calls read 0.

    A call that raised has no observed data and counts as zero work.
    """
    own = self_times(spans)
    total = {}
    calls = {}
    for s, t in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1

    def pick(name):
        return [s for s in spans if s.name == name]

    def share(num, den):
        return num / den if den else 0.0

    sdp = pick("sdp")
    builds = pick("sdp_build")
    checks = pick("sdp_build.exact_check")
    lifts = pick("sdp_build.lift")
    iterations = sum(s.data.get("iterations", 0) for s in sdp)
    verify_in_decide = sum(1 for k, s in enumerate(spans)
                           if s.name == "realness.verify" and _root(spans, k) == "realness")
    return {
        "sdp.self_s": (total.get("sdp", 0.0), "s"),
        "sdp.calls": (len(sdp), "count"),
        "sdp.iterations": (iterations, "count"),
        "sdp.s_per_iter": (share(total.get("sdp", 0.0), iterations), "s"),
        "sdp.max_iter_share": (share(sum(s.data.get("max_iterations", 0) for s in sdp), len(sdp)), "ratio"),
        "sdp_build.self_s": (total.get("sdp_build", 0.0), "s"),
        "sdp_build.gram_rows": (max((s.data.get("gram_rows", 0) for s in builds), default=0), "count"),
        "sdp_build.constraint_rows": (max((s.data.get("constraint_rows", 0) for s in builds), default=0), "count"),
        "sdp_build.unknowns": (max((s.data.get("unknowns", 0) for s in builds), default=0), "count"),
        "sdp_build.exact_check_self_s": (total.get("sdp_build.exact_check", 0.0), "s"),
        "sdp_build.exact_check_decided_ratio": (share(sum(s.data.get("decided", 0) for s in checks), len(checks)), "ratio"),
        "sdp_build.lift_self_s": (total.get("sdp_build.lift", 0.0), "s"),
        "sdp_build.lift_success_ratio": (share(sum(s.data.get("success", 0) for s in lifts), len(lifts)), "ratio"),
        "factor.self_s": (total.get("factor", 0.0), "s"),
        "factor.calls": (calls.get("factor", 0), "count"),
        "gram.self_s": (total.get("gram", 0.0), "s"),
        "gram.calls": (calls.get("gram", 0), "count"),
        "exactla.psd_self_s": (total.get("exactla.psd", 0.0), "s"),
        "exactla.psd_calls": (calls.get("exactla.psd", 0), "count"),
        "groebner.self_s": (total.get("groebner", 0.0), "s"),
        "groebner.calls_per_ideal": (share(calls.get("groebner", 0), ideals), "count"),
        "realness.self_s": (total.get("realness", 0.0), "s"),
        "realness.real_test_s": (sum(s.end - s.start for s in pick("realness")), "s"),
        "realness.verify_self_s": (total.get("realness.verify", 0.0), "s"),
        "realness.verify_calls_per_cert": (share(verify_in_decide, certificates), "count"),
        "parsing.self_s": (total.get("parsing", 0.0), "s"),
    }
