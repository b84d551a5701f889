"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_prints_its_documented_values():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    j12, unit = lines[0].split()
    tau, p = (float(v) for v in lines[1].split())
    assert (f"{float(j12):.3f}", unit) == ("6.509", "kHz")
    assert f"{tau:.3e}" == "1.114e-10"
    assert f"{p:.4f}" == "0.8986"
    assert len(lines) == 2 + 4   # then one line per row of the two-ion outcome table
