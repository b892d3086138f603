"""Statement audit: run the tier-1 suite under sys.settrace and print every
statement of src/ncreal that never ran.

    python tests/statement_audit.py [pytest arguments]

Run it from anywhere; it changes to the repository root.  With no
arguments it runs the tier-1 suite (`pytest -q
--continue-on-collection-errors`); arguments go to pytest as given, for
instance `-k "not criterion_04 and not criterion_08"` to leave out the two
slowest acceptance criteria.  It needs nothing beyond pytest: lines are
collected with sys.settrace, set before the package is first imported, so
module-level statements count too.  A statement counts as run when one of
its own lines (the header, for a compound statement) raised a line event;
statements that compile to no code (docstrings, `global`) are not listed.
Code run in a subprocess is not seen.

Each statement never run is printed as `path:line: source`, then a count.
The exit status is pytest's.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncreal"
TIER_1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def code_lines(code):
    """Every line that an instruction of code or of a nested code object sits on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const)
    return lines


def statements(path):
    """(first line, own lines) of each statement of the module that compiles to code.

    The own lines of a statement are its lines up to its first nested
    statement, decorators included.
    """
    source = path.read_text()
    executable = code_lines(compile(source, str(path), "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        nested = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = min(nested) - 1 if nested else node.end_lineno
        own = set(range(first, last + 1)) & executable
        if own:
            out.append((node.lineno, own))
    return sorted(out)


def run_traced(args):
    """Run pytest with args under a line tracer; returns (exit status, {path: lines run})."""
    hits = {}
    watched = {}  # co_filename -> its set in hits, or None outside the package

    def lines_of(filename):
        if filename not in watched:
            path = Path(os.path.abspath(filename))
            watched[filename] = hits.setdefault(path, set()) if path.parent == PACKAGE else None
        return watched[filename]

    def tracer(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits


def main(argv):
    os.chdir(ROOT)
    status, hits = run_traced(argv or TIER_1)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        ran = hits.get(path, set())
        for line, own in statements(path):
            if not own & ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} statement(s) of src/ncreal never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
