"""Mutation audit: check that the tier-1 tests catch a fixed list of
one-line faults in the exact checks and the command line.

    python tests/mutation_audit.py

Run it from anywhere.  It copies the checkout into a temporary directory,
runs the test modules that the mutants name on the unchanged copy (they
must pass), then applies each mutant in turn: one line of one file under
src/ncreal, edited as listed below, and `pytest -x` on the modules that own
that code.  A mutant is killed when pytest reports a failing test and
survives when every test passes.  A mutant whose line is not in the
source exactly once, or whose run ends in any other way (a collection
error or a run past TIMEOUT, for instance), is an error, because it shows
nothing about the tests.

It prints one line per mutant, its outcome, seconds and name, then a
count.  The exit status is 0 when every mutant is killed, 1 when one
survives and 2 on an error.  It is a script, not a collected test."""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per pytest run; a mutant that makes a loop endless ends as an error

# name, file under src/ncreal, the line's text, its mutated text, the test modules that own it
MUTANTS = [
    ("pivot rank by first mention alone", "exactla.py",
     "self._priority = priority or (lambda var: 0)",
     "self._priority = lambda var: 0",
     ["test_exactla.py", "test_sdp.py"]),
    ("copy() shares every row", "exactla.py",
     "other._rows = {var: (dict(row[0]), row[1], row[2]) if row[0] else row",
     "other._rows = {var: row",
     ["test_exactla.py", "test_sdp.py"]),
    ("one-unknown fast path leaves users unreduced", "exactla.py",
     "for user in self._uses.pop(var, ()):",
     "for user in ():",
     ["test_exactla.py", "test_sdp.py"]),
    ("_coded_words leaves the adjoint's code unreversed", "sdp_build.py",
     "rcs * scale + rs)",
     "rs * B + rcs)",
     ["test_sdp.py"]),
    ("psd_check_exact pulls the witness back over the whole tail", "exactla.py",
     "for r in range(c + 1, n))",
     "for r in range(k, n))",
     ["test_exactla.py"]),
    ("_propagate accepts a negative pinned diagonal", "sdp_build.py",
     "if val < 0:",
     "if False:",
     ["test_sdp.py"]),
    ("_propagate forces no zeros", "sdp_build.py",
     "if sys.pinned_value(key) != 0:",
     "if False:",
     ["test_sdp.py"]),
    ("_defect without the 2c doubling", "realness.py",
     "acc[w] = acc.get(w, 0) + 2 * c",
     "acc[w] = acc.get(w, 0) + c",
     ["test_realness.py"]),
    ("verify_nonreal_certificate accepts a zero weight", "realness.py",
     "any(w <= 0 for w in cert.weights)",
     "any(w < 0 for w in cert.weights)",
     ["test_realness.py"]),
    ("verify_nonreal_certificate accepts members inside the ideal", "realness.py",
     "return any(any(basis.reduce(r).values()) for r in rs)",
     "return True",
     ["test_realness.py"]),
    ("left_groebner reduces by proper suffixes only", "groebner.py",
     "if len(lw) <= len(w) and",
     "if len(lw) < len(w) and",
     ["test_groebner.py"]),
    ("left_groebner leaves the representations unreduced", "groebner.py",
     "new_rep = [reps[j][t] - omega * reps[i][t] for t in range(len(gens))]",
     "new_rep = [reps[j][t] for t in range(len(gens))]",
     ["test_groebner.py"]),
    ("rank_one_split without the fill check", "factor.py",
     "if len(p.terms) != len(rows) * len(cols):",
     "if False:",
     ["test_factor.py"]),
    ("rank_one_split pivots on the last row word", "factor.py",
     "beta = rows[row_words[0]]",
     "beta = rows[row_words[-1]]",
     ["test_factor.py"]),
    ("_exact_system decodes G[i][j] as G[j][i]", "sdp_build.py",
     '("g", *divmod(v, problem.n))',
     '("g", *reversed(divmod(v, problem.n)))',
     ["test_sdp.py"]),
    ("_component_rows scales off-diagonal svec entries by 1", "sdp.py",
     "scale = np.array([1.0 if i == j else sqrt(2.0) for i, j in pairs])",
     "scale = np.array([1.0 if i == j else 1.0 for i, j in pairs])",
     ["test_sdp.py"]),
    ("verify offers --order", "cli.py",
     'p = command("verify", cmd_verify, "check a non-realness certificate", reads)',
     'p = command("verify", cmd_verify, "check a non-realness certificate", ranked)',
     ["test_cli.py"]),
]


def pytest(copy, modules, *args):
    """pytest's exit status on the modules of the copy, and the seconds it took."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args,
             *(f"tests/{m}" for m in modules)],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT,
        ).returncode
    except subprocess.TimeoutExpired:
        status = None
    return status, time.perf_counter() - start


def main():
    counts = {"killed": 0, "survived": 0, "error": 0}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".benchmarks", "*.egg-info"))
        modules = sorted({m for mutant in MUTANTS for m in mutant[4]})
        status, seconds = pytest(copy, modules)
        print(f"{'passed' if status == 0 else 'error':9} {seconds:6.1f} s  unchanged copy")
        if status != 0:
            return 2
        for name, file, line, mutated, owners in MUTANTS:
            path = copy / "src" / "ncreal" / file
            source = path.read_text()
            if source.count(line) != 1:
                outcome, seconds = "error", 0.0
            else:
                path.write_text(source.replace(line, mutated))
                status, seconds = pytest(copy, owners, "-x")
                path.write_text(source)
                outcome = {0: "survived", 1: "killed"}.get(status, "error")
            counts[outcome] += 1
            print(f"{outcome:9} {seconds:6.1f} s  {name} ({file})")
    print(f"{counts['killed']} of {len(MUTANTS)} mutant(s) killed, "
          f"{counts['survived']} survived, {counts['error']} error(s)")
    return 2 if counts["error"] else 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
