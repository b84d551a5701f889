"""End-to-end and per-layer benchmark of the ionphoton CLI.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the root of a checkout; see ``perfbench/README.md``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Import ionphoton from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "ionphoton" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no ionphoton sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
