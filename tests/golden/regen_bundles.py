"""Rewrite the reference bundles under tests/golden/bundles/.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen_bundles.py

Run it only in a change that is meant to move a number, and list in
CHANGES.md every reference file that moved and by how much: run
``tests/test_bundles.py`` first, since its failures name each moved cell
and the size of the change.  Never run it to make a failing comparison
pass.
"""

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bundles  # noqa: E402


def main():
    shutil.rmtree(bundles.ROOT, ignore_errors=True)
    written: dict[Path, bytes] = {}
    for case in bundles.cases():
        for name, data in bundles.build(case).items():
            path = case.ref_path(name)
            if written.setdefault(path, data) != data:
                raise SystemExit(f"{path}: cases that share this file disagree")
    for path, data in sorted(written.items()):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    total = sum(len(d) for d in written.values())
    print(f"wrote {len(written)} files, {total} bytes, under {bundles.ROOT}")


if __name__ == "__main__":
    main()
