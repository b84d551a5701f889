"""Reference bundles: the cases, an in-process builder and a tolerant diff.

Every preset is built through the CLI in process.  Commands with a
``--format`` option are built in both formats; the ``run_*`` presets are
built at three seeds with a short trial count.  References live under
``tests/golden/bundles/``; a file that several cases write the same way
is stored once (see ``Case.ref_path``).

``diff_bundle`` compares file sets, CSV headers, strings and integers
exactly, and every float within ``REL_TOL`` relative or ``ABS_TOL``
absolute.  A manifest is checked against the files that were built, not
against the reference hashes, so a float that moves within tolerance is
not reported twice.
"""

import hashlib
import json
import math
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

from click.testing import CliRunner

from ionphoton import config
from ionphoton.cli import main

ROOT = Path(__file__).parent / "golden" / "bundles"
REL_TOL = 1e-12
ABS_TOL = 1e-14
RUN_SEEDS = (0, 1, 2**32)
RUN_TRIALS = 5000

_COMMANDS = {"table": "couplings", "fig2": "emission", "gates": "gates", "run_": "run"}


@dataclass(frozen=True)
class Case:
    preset: str
    command: str
    fmt: str | None = None      # None: the command has no --format option
    seed: int | None = None     # run cases only

    @property
    def id(self) -> str:
        parts = [self.preset, self.fmt, None if self.seed is None else f"seed{self.seed}"]
        return "-".join(p for p in parts if p)

    def args(self) -> list[str]:
        args = [self.command, "--preset", self.preset]
        if self.fmt is not None:
            args += ["--format", self.fmt]
        if self.seed is not None:
            args += ["--seed", str(self.seed), "--trials", str(RUN_TRIALS)]
        return args

    def ref_path(self, name: str) -> Path:
        """Where the reference of file ``name`` lives: a manifest per case,
        ``run_report.json`` per seed, every other file once per preset (the
        tables do not depend on the seed, and ``--format json`` only adds
        JSON copies beside the CSV tables)."""
        if name == "run_report.json":
            return ROOT / self.preset / f"seed{self.seed}" / name
        if name != "manifest.json":
            return ROOT / self.preset / name
        parts = [None if self.seed is None else f"seed{self.seed}", self.fmt, name]
        return ROOT.joinpath(self.preset, *(p for p in parts if p))


def _command(preset: str) -> str:
    return next(cmd for prefix, cmd in _COMMANDS.items() if preset.startswith(prefix))


def cases() -> list[Case]:
    out = []
    for preset in sorted(config.PRESETS):
        command = _command(preset)
        fmts = [None] if command == "gates" else ["csv", "json"]
        seeds = RUN_SEEDS if command == "run" else [None]
        out += [Case(preset, command, f, s) for s in seeds for f in fmts]
    return out


def build(case: Case) -> dict[str, bytes]:
    """Run the case's CLI command in process; the bundle's files by name."""
    with tempfile.TemporaryDirectory() as tmp:
        result = CliRunner().invoke(main, case.args() + ["--out", tmp])
        if result.exit_code != 0:
            raise RuntimeError(
                f"{case.id}: exit {result.exit_code}: {result.output}{result.exception!r}"
            )
        return {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}


def moved(built: dict[Path, bytes], root: Path) -> list[str]:
    """Reference files under ``root`` whose bytes differ from ``built``:
    changed, new (built but not stored) or gone (stored but not built)."""
    stored = {p for p in root.rglob("*") if p.is_file()}
    out = []
    for path in sorted(stored | built.keys()):
        if path not in stored:
            status = "new"
        elif path not in built:
            status = "gone"
        elif path.read_bytes() != built[path]:
            status = "changed"
        else:
            continue
        out.append(f"{status}: {path.relative_to(root)}")
    return out


def reference(case: Case) -> dict[str, bytes]:
    """The stored reference of a case, by file name (manifest included)."""
    manifest = json.loads(case.ref_path("manifest.json").read_bytes())
    names = sorted(manifest["files"]) + ["manifest.json"]
    return {name: case.ref_path(name).read_bytes() for name in names}


# ---------------------------------------------------------------------------
# comparison

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)")


def _scalar(where: str, got: str, ref: str) -> str | None:
    """Compare one CSV cell or text token: ints and strings exactly, floats
    within tolerance.  Returns a message naming the change, or None."""
    if got == ref:
        return None
    try:
        g, r = float(got), float(ref)
    except ValueError:
        return f"{where}: {got!r} != {ref!r}"
    if _is_int(got) or _is_int(ref):
        return f"{where}: {got} != {ref}"
    return _float(where, g, r)


def _is_int(token: str) -> bool:
    return re.fullmatch(r"[-+]?\d+", token) is not None


def _float(where: str, got: float, ref: float) -> str | None:
    if got == ref or (math.isnan(got) and math.isnan(ref)):
        return None
    diff = abs(got - ref)
    if diff <= ABS_TOL or diff <= REL_TOL * abs(ref):
        return None
    rel = diff / abs(ref) if ref else math.inf
    return f"{where}: {got!r} != {ref!r} (abs {diff:.3g}, rel {rel:.3g})"


def _diff_csv(name: str, got: bytes, ref: bytes) -> list[str]:
    g_lines, r_lines = got.decode().splitlines(), ref.decode().splitlines()
    if g_lines[:1] != r_lines[:1]:
        return [f"{name}: header {g_lines[:1]} != {r_lines[:1]}"]
    if len(g_lines) != len(r_lines):
        return [f"{name}: {len(g_lines) - 1} rows != {len(r_lines) - 1}"]
    header = r_lines[0].split(",")
    out = []
    for i, (g_line, r_line) in enumerate(zip(g_lines[1:], r_lines[1:]), 1):
        g_cells, r_cells = g_line.split(","), r_line.split(",")
        if len(g_cells) != len(r_cells):
            out.append(f"{name}: row {i} has {len(g_cells)} cells, not {len(r_cells)}")
            continue
        for col, g, r in zip(header, g_cells, r_cells):
            out.append(_scalar(f"{name}: row {i}, column {col}", g, r))
    return [m for m in out if m]


def _diff_text(name: str, got: bytes, ref: bytes) -> list[str]:
    g_lines, r_lines = got.decode().splitlines(), ref.decode().splitlines()
    if len(g_lines) != len(r_lines):
        return [f"{name}: {len(g_lines)} lines != {len(r_lines)}"]
    out = []
    for i, (g_line, r_line) in enumerate(zip(g_lines, r_lines), 1):
        g_tok, r_tok = _NUMBER.split(g_line), _NUMBER.split(r_line)
        if len(g_tok) != len(r_tok):
            out.append(f"{name}: line {i}: {g_line!r} != {r_line!r}")
            continue
        out += [_scalar(f"{name}: line {i}", g, r) for g, r in zip(g_tok, r_tok)]
    return [m for m in out if m]


def _diff_json(where: str, got, ref) -> list[str]:
    if type(got) is not type(ref):
        return [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, dict):
        if sorted(got) != sorted(ref):
            return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
        return [m for k in ref for m in _diff_json(f"{where}.{k}", got[k], ref[k])]
    if isinstance(ref, list):
        if len(got) != len(ref):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        return [m for i, (g, r) in enumerate(zip(got, ref))
                for m in _diff_json(f"{where}[{i}]", g, r)]
    if isinstance(ref, float):
        message = _float(where, got, ref)
        return [message] if message else []
    return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]


def _diff_manifest(built: dict[str, bytes], ref: bytes) -> list[str]:
    """The manifest must name the reference's command and files and must
    describe the files that were actually built."""
    got = json.loads(built["manifest.json"])
    want = json.loads(ref)
    out = []
    if got["command"] != want["command"]:
        out.append(f"manifest.json: command {got['command']!r} != {want['command']!r}")
    if sorted(got["files"]) != sorted(want["files"]):
        out.append(f"manifest.json: files {sorted(got['files'])} != {sorted(want['files'])}")
    for name, entry in got["files"].items():
        data = built.get(name, b"")
        actual = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        if entry != actual:
            out.append(f"manifest.json: entry for {name} does not describe the file")
    return out


def diff_bundle(built: dict[str, bytes], ref: dict[str, bytes]) -> list[str]:
    """Every difference between a built bundle and its reference."""
    if sorted(built) != sorted(ref):
        return [f"file set {sorted(built)} != {sorted(ref)}"]
    out = _diff_manifest(built, ref["manifest.json"])
    for name in sorted(ref):
        if name == "manifest.json" or built[name] == ref[name]:
            continue
        if name.endswith(".csv"):
            out += _diff_csv(name, built[name], ref[name])
        elif name.endswith(".json"):
            out += _diff_json(name, json.loads(built[name]), json.loads(ref[name]))
        else:
            out += _diff_text(name, built[name], ref[name])
    return out
