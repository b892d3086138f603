"""Tests of the benchmark's own code: corpora, spans, the correctness gate.

Run from the repository root with `PYTHONPATH=src python -m pytest bench`.
"""

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpora
import harness
from ncreal.parsing import poly_str
from ncreal.realness import REAL, RealnessVerdict
from spans import Span, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# sha256 of the 50 criterion-7 generators, one poly_str per line, as drawn by
# the loop of tests/test_acceptance.py::test_criterion_07 with seed 107
CRITERION_7_SHA256 = "f5e0da2bab38f2cf7bed1715e3983612c76027e0fd882e3964e3a3de1f6e52dd"

SMOKE = {
    "sdp_small": {"crit7-00", "crit6-35", "quartic15"},
    "sdp_large": {"large-1"},
    "closed_form": {"closed-03", "closed-07", "closed-08", "closed-19", "closed-46"},
}


def test_criterion_6_corpus_is_the_acceptance_corpus(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    from test_acceptance import _rand_principal

    rng = random.Random(106)
    gate = [_rand_principal(rng, star_pair=case % 3 == 2) for case in range(50)]
    assert [poly_str(p) for p in corpora.criterion_6(106)] == [poly_str(p) for p in gate]


def test_criterion_7_corpus_is_the_acceptance_corpus():
    text = "\n".join(poly_str(p) for p in corpora.criterion_7(107))
    assert hashlib.sha256(text.encode()).hexdigest() == CRITERION_7_SHA256


def test_corpus_text_depends_only_on_the_seed():
    workload = corpora.WORKLOADS["sdp_small"]
    one = corpora.build_corpus(workload, 1)
    assert [(i.ident, i.text) for i in one] == [
        (i.ident, i.text) for i in corpora.build_corpus(workload, 1)
    ]
    other = {i.ident: i.text for i in corpora.build_corpus(workload, 2)}
    assert sum(i.text != other[i.ident] for i in one) > len(one) // 2


def test_presentation_keeps_the_oracle_verdict():
    workload = corpora.WORKLOADS["sdp_small"]
    verdicts = [{i.ident: i.expect for i in corpora.build_corpus(workload, s)} for s in (3, 4)]
    assert verdicts[0] == verdicts[1]


def test_self_time_subtracts_direct_children():
    spans = [
        Span("realness", 0.0, 10.0),
        Span("sdp_build", 1.0, 4.0, parent=0),
        Span("exactla.psd", 2.0, 3.0, parent=1),
        Span("sdp", 5.0, 9.0, parent=0, data={"iterations": 8, "max_iterations": True}),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    spans[1].data = {"gram_rows": 7, "constraint_rows": 40, "unknowns": 60}
    m = {name: value for name, (value, _) in layer_metrics(spans, 1, 0).items()}
    assert m["realness.self_s"] == 3.0 and m["realness.real_test_s"] == 10.0
    assert m["sdp_build.self_s"] == 2.0 and m["exactla.psd_self_s"] == 1.0
    assert m["sdp.self_s"] == 4.0 and m["sdp.s_per_iter"] == 0.5
    assert m["sdp.max_iter_share"] == 1.0 and m["sdp_build.gram_rows"] == 7
    assert m["factor.calls"] == 0 and m["sdp_build.lift_success_ratio"] == 0.0


def test_tracer_records_parents_and_ideal_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("gram", lambda: None)
    outer = tracer.wrap("realness", lambda: inner() or inner())
    tracer.ideal = "a"
    outer()
    assert [(s.name, s.parent, s.ideal) for s in tracer.spans] == [
        ("realness", None, "a"), ("gram", 0, "a"), ("gram", 0, "a"),
    ]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_tracer_restores_the_package():
    import ncreal.realness

    original = ncreal.realness.solve_feasibility
    with Tracer().patch():
        assert ncreal.realness.solve_feasibility is not original
    assert ncreal.realness.solve_feasibility is original


def _run(capsys, monkeypatch, tmp_path, workload, trace):
    full = corpora.build_corpus
    keep = SMOKE[workload]
    monkeypatch.setattr(corpora, "build_corpus",
                        lambda w, seed: [i for i in full(w, seed) if i.ident in keep])
    monkeypatch.setattr(harness, "OUT", tmp_path)
    code = harness.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(SMOKE))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(capsys, monkeypatch, tmp_path, workload, trace):
    code, report, result = _run(capsys, monkeypatch, tmp_path, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert report["verdicts"] and report["routes"]
    if trace:
        assert (tmp_path / f"spans-{workload}-7.jsonl").is_file()
        sdp_calls = result["metrics"]["sdp.calls"]["value"]
        assert (sdp_calls == 0) == (workload == "closed_form")
    else:
        assert report["metrics"]["failed_share"]["value"] == 0.0


def test_wrong_verdict_fails_the_run(capsys, monkeypatch, tmp_path):
    import ncreal.realness

    monkeypatch.setattr(ncreal.realness, "real_test",
                        lambda gens, **kw: RealnessVerdict(REAL, "injected"))
    code, report, result = _run(capsys, monkeypatch, tmp_path, "closed_form", 0)
    assert code != 0 and not result["correct"] and result["failed"] > 0
    assert report["metrics"]["failed_share"]["value"] > 0
    assert {f["ideal"] for f in report["failures"]} == {"closed-08", "closed-19"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sdp_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
