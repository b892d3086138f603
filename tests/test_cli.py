"""Command line interface, driven through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncreal
from ncreal.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_json(capsys, *argv):
    code, out, _ = _run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_parse_command(capsys):
    code, out, _ = _run(capsys, "parse", "-e", "x1 + x1 x2* - x1")
    assert code == 0
    assert out.strip() == "x1 x2*"
    code, data = _run_json(capsys, "parse", "-e", "x1", "-e", "x2 - 1")
    assert code == 0
    assert data == {"g": 2, "polynomials": ["x1", "x2 - 1"]}


def test_parse_errors_exit_1(capsys):
    code, _, err = _run(capsys, "parse", "-e", "x1 + + x2")
    assert code == 1 and "error:" in err
    code, _, err = _run(capsys, "parse")
    assert code == 1 and "no input" in err
    code, _, err = _run(capsys, "factor", "-e", "x1", "-e", "x2")
    assert code == 1 and "exactly one polynomial" in err
    code, _, err = _run(capsys, "parse", "-e", "x1", "--order", "x1 x1*")
    assert code == 1 and "single letters" in err


def test_the_cli_runs_blas_on_one_thread_unless_told_otherwise(monkeypatch, capsys):
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert _run(capsys, "parse", "-e", "x1")[0] == 0
    assert [os.environ[var] for var in blas] == ["1", "3", "1"]


def test_factor_command(capsys):
    code, data = _run_json(capsys, "factor", "-e", "2 x1 x2")
    assert code == 0
    assert data == {"scalar": "2", "factors": ["x1", "x2"]}
    code, _, err = _run(capsys, "factor", "-e", "x1 + 1")
    assert code == 1 and "error:" in err


def test_sos_command(capsys):
    code, data = _run_json(capsys, "sos", "-e", "x1 x1* + x2 x2*")
    assert code == 0 and data["sos"] is True
    assert len(data["weights"]) == len(data["polys"]) >= 1
    code, data = _run_json(capsys, "sos", "-e", "x1^2 + x1*^2")
    assert code == 0 and data["sos"] is False
    assert "witness" in data
    # one witness entry per degree-1 word, also for the rows the support leaves out
    code, data = _run_json(capsys, "sos", "-e", "x1 x2* + x2 x1*")
    assert code == 0 and data["sos"] is False
    assert data["witness"] == ["0", "1", "0", "-1"]


def test_unshrinkable_command(capsys):
    code, data = _run_json(capsys, "unshrinkable", "x1 x2* x2 x1")
    assert code == 0
    assert data == {"word": "x1 x2* x2 x1", "unshrinkable": True, "shrink_length": None}
    code, out, _ = _run(capsys, "unshrinkable", "x1 x1* x2")
    assert code == 0
    assert "left unshrinkable: no" in out and "u = x1" in out


def test_groebner_command(capsys, tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("x1^3 + 1\nx1^2 + x1*^2\nx1 x1* - x1*^2\nx1* x1 - 5\n")
    code, data = _run_json(capsys, "groebner", "-f", str(gens))
    assert code == 0
    assert sorted(data["basis"]) == sorted(
        ["x1 x1*^2 - 1", "x1^2 + x1*^2", "x1 x1* - x1*^2", "x1* x1 - 5"]
    )


def test_real_command_decided(capsys):
    code, data = _run_json(capsys, "real", "-e", "x1 x1* x1 - x1", "--method", "sdp")
    assert code == 0
    assert data["status"] == "Real" and data["method"] == "sdp-exact"
    code, out, _ = _run(capsys, "real", "-e", "x1 - x1* + 1")
    assert code == 0
    assert "status: NotReal" in out and "certificate:" in out


def test_real_command_undecided_exits_2(capsys):
    code, data = _run_json(
        capsys, "real", "-e", "-3 x1^2 + x1 x1* + x1* x1 + 2 x1*^2 + 2 x1 + 3 x1* + 1",
        "--method", "sdp",
    )
    assert code == 2
    assert data["status"] == "NumericallyReal"
    code, _, _ = _run(capsys, "real", "-e", "x1 x1* x1 - x1", "--method", "exact")
    assert code == 2


def test_real_cert_round_trips_through_verify(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    gens = tmp_path / "gens.txt"
    gens.write_text("x2 x1\n3 x1 x1* x2\n")
    code, _, _ = _run(capsys, "real", "-f", str(gens), "--cert", str(cert))
    assert code == 0
    saved = json.loads(cert.read_text())
    assert saved["exact"] is True
    code, data = _run_json(capsys, "verify", "-f", str(gens), "-c", str(cert))
    assert code == 0 and data == {"accepted": True}
    # the same certificate against the wrong ideal is rejected
    code, out, _ = _run(capsys, "verify", "-e", "x2 x1", "-c", str(cert))
    assert code == 2 and "rejected" in out


def test_custom_order_changes_output(capsys):
    code, out, _ = _run(capsys, "parse", "-e", "x1 + x2", "--order", "x2,x2*,x1,x1*")
    assert code == 0
    assert out.strip() == "x2 + x1"
    code, _, err = _run(capsys, "parse", "-e", "x1", "--order", "x1 x2,x1*,x2*")
    assert code == 1 and "error:" in err


def test_eval_command(capsys, tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"X": [[[0, 1], [0, 0]]], "v": [1, 0]}))
    code, data = _run_json(capsys, "eval", "-e", "x1 x1*", "-p", str(point))
    assert code == 0
    assert data["matrix"] == [[1.0, 0.0], [0.0, 0.0]]
    assert data["vector"] == [1.0, 0.0]
    code, _, err = _run(capsys, "eval", "-e", "x2", "-p", str(point))
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("argv,code", [
    (["verify", "-e", "x1"], 1),
    (["real", "-e", "x1", "--method", "bogus"], 1),
    (["real", "-h"], 0),
])
def test_usage_errors_exit_1_and_help_exits_0(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out = capsys.readouterr()
    assert (out.out if code == 0 else out.err).startswith("usage: ncreal")


@pytest.mark.parametrize("flag", [["--max-iter", "-3"], ["--tol", "nan"], ["--tol", "-1"]])
def test_real_rejects_bad_tol_and_max_iter(capsys, flag):
    code, out, err = _run(capsys, "real", "--vars", "1", "--method", "sdp", *flag,
                          "-e", "-3/2 x1 x1*^2 x1", "-e", "x1 x1* x1", "-e", "3/2 x1*")
    assert code == 1 and out == ""
    assert "error:" in err and ("max_iter" in err or "tol" in err)


def test_missing_file_exits_1(capsys):
    code, _, err = _run(capsys, "real", "-f", "/nonexistent/gens.txt")
    assert code == 1 and "error:" in err


def test_vars_flag_widens_algebra(capsys):
    code, data = _run_json(capsys, "parse", "-e", "x1", "--vars", "3")
    assert code == 0 and data["g"] == 3
    code, _, err = _run(capsys, "parse", "-e", "x2", "--vars", "1")
    assert code == 1 and "error:" in err


def test_verify_rejects_non_finite_certificate(capsys, tmp_path):
    cert = tmp_path / "nan.json"
    cert.write_text('{"exact": false, "multipliers": [{"1": 5.0}], '
                    '"sos": {"weights": [NaN], "polys": [{"x1": 1.0}]}}')
    code, _, err = _run(capsys, "verify", "-e", "x1* x1 + 1", "-c", str(cert))
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("text", [
    "{}",
    "[]",
    '{"exact": true, "multipliers": ["1"]}',
    '{"exact": "yes", "multipliers": [], "sos": {"weights": [], "polys": []}}',
    '{"exact": false, "multipliers": [5], "sos": {"weights": [1.0], "polys": [{"x1": 1.0}]}}',
    '{"exact": true, "multipliers": [1], "sos": {"weights": ["2"], "polys": ["x1"]}}',
    '{"exact": true, "multipliers": ["1"], "sos": {"weights": ["1/0"], "polys": ["x1"]}}',
    '{"exact": false, "multipliers": [{"1": 5.0}], "sos": {"weights": [[1]], "polys": [{"x1": 1.0}]}}',
    '{"exact": true, "multipliers": ["1"], "sos": {"weights": [0.5], "polys": ["x1"]}}',
    '{"exact": true, "multipliers": ["1"], "sos": {"weights": [true], "polys": ["x1"]}}',
])
def test_verify_malformed_certificate_exits_1(capsys, tmp_path, text):
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    code, _, err = _run(capsys, "verify", "-e", "x1* x1", "-c", str(cert))
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("text", ['{"n": 2}', "[1, 2]", '{"X": [[["a"]]]}'])
def test_eval_malformed_point_exits_1(capsys, tmp_path, text):
    point = tmp_path / "point.json"
    point.write_text(text)
    code, _, err = _run(capsys, "eval", "-e", "x1", "-p", str(point))
    assert code == 1 and err.startswith("error: malformed point")


def test_python_m_ncreal_runs_the_cli():
    # a fresh interpreter with only the package's parent directory on its path
    src = Path(ncreal.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "ncreal", "real", "-e", "x1 x1* - x1* x1 - 1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "status: Real" in done.stdout.splitlines()
