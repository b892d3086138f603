"""The package's export list and its import boundary."""

import os
import subprocess
import sys
from pathlib import Path

import ncreal


def test_every_exported_name_resolves():
    # a stale entry breaks only `from ncreal import *`, so check each name
    missing = [name for name in ncreal.__all__ if not hasattr(ncreal, name)]
    assert not missing
    assert len(set(ncreal.__all__)) == len(ncreal.__all__)


EXACT_PATH_WITHOUT_NUMPY = """
import sys

import ncreal
import ncreal.cli
from ncreal import parse_generators, real_test, verify_nonreal_certificate

gens = parse_generators("x1 x1* - x1*^2 + 2 x1 + 4")
v = real_test(gens)
assert (v.status, v.method) == ("NotReal", "quadratic-univariate"), (v.status, v.method)
assert verify_nonreal_certificate(gens, v.certificate)
assert "numpy" not in sys.modules, "the exact path loaded numpy"

# the SDP assembly and its exact check are exact too
from ncreal.groebner import left_groebner
from ncreal.sdp_build import build_real_sdp, exact_infeasibility_check

problem = build_real_sdp(left_groebner(parse_generators("x1 x1* - x1* x1 - 1")))
assert exact_infeasibility_check(problem) == ("infeasible", None)
assert "numpy" not in sys.modules, "the SDP assembly loaded numpy"

# an SDP decision that the exact presolve refutes takes no projection step
v = real_test(parse_generators("x1 x1* - x1* x1 - 1"), method="sdp")
assert (v.status, v.method) == ("Real", "sdp-exact"), (v.status, v.method)
assert "numpy" not in sys.modules, "a refuted SDP decision loaded numpy"

# the float side still loads numpy when it is needed
M = ncreal.evaluate(parse_generators("x1 x1*")[0], ncreal.MatrixPoint([[[0, 1], [0, 0]]]))
assert M.tolist() == [[1.0, 0.0], [0.0, 0.0]]
assert "numpy" in sys.modules
"""


def test_exact_path_never_imports_numpy():
    # a fresh interpreter: this process has numpy loaded already
    src = Path(ncreal.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", EXACT_PATH_WITHOUT_NUMPY],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
