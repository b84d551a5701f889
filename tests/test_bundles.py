"""Every preset's bundle against its committed reference.

References are under tests/golden/bundles/ and are rewritten only by
tests/golden/regen_bundles.py, in a change that means to move a number.
"""

import pytest

import bundles

CASES = bundles.cases()


@pytest.fixture(scope="module")
def built():
    return {case: bundles.build(case) for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_bundle_matches_reference(built, case):
    problems = bundles.diff_bundle(built[case], bundles.reference(case))
    assert not problems, f"{case.id}:\n" + "\n".join(problems)


def test_reruns_are_byte_identical(built):
    """A second build writes the same bytes.

    Cases without sampling are built again.  A run case's rebuild is the
    same seed in the other format: its run_report.json does not depend on
    the format, nor its outcome table on the seed, so every file that
    several cases write must be byte-identical in all of them.
    """
    for case in CASES:
        if case.seed is None:
            assert bundles.build(case) == built[case], case.id
    first = {}
    for case in CASES:
        for name, data in built[case].items():
            if name != "manifest.json":
                path = case.ref_path(name)
                assert first.setdefault(path, data) == data, f"{case.id}: {name}"


def test_moved_names_changed_new_and_gone_files(tmp_path):
    """``regen_bundles.py --check`` reports through ``bundles.moved``."""
    (tmp_path / "a").mkdir()
    for name in ("a/same.csv", "a/changed.csv", "gone.csv"):
        (tmp_path / name).write_bytes(b"1")
    built = {
        tmp_path / "a" / "same.csv": b"1",
        tmp_path / "a" / "changed.csv": b"2",
        tmp_path / "new.csv": b"1",
    }
    assert bundles.moved(built, tmp_path) == [
        "changed: a/changed.csv", "gone: gone.csv", "new: new.csv",
    ]
