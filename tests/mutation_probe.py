"""Mutation probe: does tier-1 notice when one comparison or one ``if`` changes?

Run by hand from anywhere (pytest does not collect this file):

    python tests/mutation_probe.py --file config.py [--file reports.py ...]

Sites are found with ``ast`` in ``src/ionphoton/<file>``, in source order:
each ``<``, ``<=``, ``>`` or ``>=`` of a comparison is flipped to its
partner (``<`` and ``<=``, ``>`` and ``>=``), and the test of each ``if``
statement or expression is negated.  Each mutant is one edit of the source
text, made in a fresh temporary copy of ``src/``; the working tree is never
written.  Tier-1 then runs with ``-x``, with the copy in place of ``src/`` on
the import path and its own cwd (so hypothesis keeps its example database
there), under a timeout of ``TIMEOUT_S`` per mutant.  A mutant that fails
or times out is killed.  The survivors go to stdout as a JSON list, the kill
rate to stderr.

Before the first mutant, a copy whose package cannot be imported must fail
tier-1 and the unmutated copy must pass it, or the probe stops: otherwise
the tests would not be running the copy.
"""

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ionphoton"
FLIPS = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">"}
_OPERATOR = re.compile(rb"<=|>=|<|>")
TIMEOUT_S = 120   # per tier-1 run; tier-1 takes a few seconds


def _offsets(source: bytes) -> list[int]:
    """Byte offset of the start of each line (1-based: entry 0 is unused)."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def sites(source: bytes) -> list[dict]:
    """Every mutation of ``source``: {line, kind, start, end, text}, in source order."""
    at = _offsets(source)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if type(op) in FLIPS:   # the operator sits between its two operands
                    lo = at[left.end_lineno] + left.end_col_offset
                    hi = at[right.lineno] + right.col_offset
                    match = _OPERATOR.search(source, lo, hi)
                    found.append({"line": node.lineno, "kind": "compare", "start": match.start(),
                                  "end": match.end(), "text": FLIPS[type(op)].encode()})
                left = right
        if isinstance(node, (ast.If, ast.IfExp)):
            test = node.test
            start = at[test.lineno] + test.col_offset
            end = at[test.end_lineno] + test.end_col_offset
            found.append({"line": test.lineno, "kind": "if", "start": start, "end": end,
                          "text": b"not (" + source[start:end] + b")"})
    return sorted(found, key=lambda s: (s["start"], s["kind"]))


def tier1(src: Path) -> str:
    """'passed', 'failed' or 'timeout': tier-1 with -x, importing ionphoton from ``src``."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--rootdir", str(ROOT),
           "-c", str(ROOT / "pyproject.toml"), "-o", f"pythonpath={src}",
           str(ROOT / "tests"), str(ROOT / "perfbench")]
    env = {**os.environ, "PYTHONPATH": str(src)}
    try:
        proc = subprocess.run(cmd, cwd=src.parent, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--file", action="append", required=True,
                        help="module under src/ionphoton to mutate (repeatable)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        src = Path(tmp) / "src"
        package = src / "ionphoton"
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        init = (package / "__init__.py").read_bytes()
        (package / "__init__.py").write_bytes(b"raise ImportError('probe canary')\n")
        if tier1(src) != "failed":
            sys.exit("mutation probe: tier-1 does not import ionphoton from the copy")
        (package / "__init__.py").write_bytes(init)
        if tier1(src) != "passed":
            sys.exit("mutation probe: tier-1 fails on the unmutated copy")

        survivors, total = [], 0
        for name in args.file:
            target = package / name
            source = target.read_bytes()
            for site in sites(source):
                mutant = source[:site["start"]] + site["text"] + source[site["end"]:]
                target.write_bytes(mutant)
                outcome = tier1(src)
                total += 1
                line = site["line"]
                was = source.splitlines()[line - 1].decode().strip()
                now = mutant.splitlines()[line - 1].decode().strip()
                print(f"{name}:{line} {site['kind']}: {outcome}", file=sys.stderr)
                if outcome == "passed":
                    survivors.append({"file": f"src/ionphoton/{name}", "line": line,
                                      "kind": site["kind"], "was": was, "now": now})
            target.write_bytes(source)
    killed = total - len(survivors)
    print(f"killed {killed} of {total} mutants", file=sys.stderr)
    print(json.dumps(survivors, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
