"""Rewrite the reference bundles under tests/golden/bundles/, or check them.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen_bundles.py --check
    PYTHONPATH=src python tests/golden/regen_bundles.py

``--check`` builds every case, lists each reference file whose bytes
differ and writes nothing; it exits 1 if any file differs.  Without it the
references are rewritten.  Rewrite them only in a change that is meant to
move a number, and list in CHANGES.md every reference file that moved and
by how much: run ``tests/test_bundles.py`` first, since its failures name
each moved cell and the size of the change.  Never run it to make a
failing comparison pass.
"""

import argparse
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bundles  # noqa: E402


def built_references() -> dict[Path, bytes]:
    """Every reference file as the current code builds it, by path."""
    written: dict[Path, bytes] = {}
    for case in bundles.cases():
        for name, data in bundles.build(case).items():
            path = case.ref_path(name)
            if written.setdefault(path, data) != data:
                raise SystemExit(f"{path}: cases that share this file disagree")
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="list the reference files whose bytes differ; write nothing",
    )
    args = parser.parse_args(argv)
    written = built_references()
    if args.check:
        moved = bundles.moved(written, bundles.ROOT)
        print("\n".join(moved + [f"{len(moved)} of {len(written)} reference files differ"]))
        return 1 if moved else 0
    shutil.rmtree(bundles.ROOT, ignore_errors=True)
    for path, data in sorted(written.items()):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    total = sum(len(d) for d in written.values())
    print(f"wrote {len(written)} files, {total} bytes, under {bundles.ROOT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
