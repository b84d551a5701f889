"""CLI behavior: presets, outputs, exit codes, reproducibility, goldens."""

import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionphoton import config, gates
from ionphoton.cli import main
from ionphoton.errors import ConfigError

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name):
    i = header.index(name)
    return [row[i] for row in rows]


class TestCouplings:
    def test_table1_preset(self, tmp_path):
        result = run_cli(["couplings", "--preset", "table1", "--out", str(tmp_path / "t1")])
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "t1" / "summary.csv")
        assert len(rows) == 5
        refs = [6.328, 4.980, 3.959, 3.370, 2.875]
        for row_vals, ref in zip(rows, refs):
            j = float(row_vals[header.index("j12_kHz")])
            assert abs(j - ref) / ref < 0.10
        for dev in column(header, rows, "dev_j12"):
            assert float(dev) < 0.10

    def test_table2_preset(self, tmp_path):
        result = run_cli(["couplings", "--preset", "table2", "--out", str(tmp_path / "t2")])
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "t2" / "summary.csv")
        assert len(rows) == 5
        refs12 = [1.455, 1.141, 0.922, 0.747, 0.670]
        refs13 = [1.448, 1.149, 0.922, 0.747, 0.672]
        for row_vals, r12, r13 in zip(rows, refs12, refs13):
            j12 = float(row_vals[header.index("j12_kHz")])
            j13 = float(row_vals[header.index("j13_kHz")])
            j23 = float(row_vals[header.index("j23_kHz")])
            assert abs(j12 - r12) / r12 < 0.15
            assert abs(j13 - r13) / r13 < 0.15
            assert abs(j12 - j23) <= 1e-10 * abs(j12)
            assert abs(float(row_vals[header.index("delta_2_um")])) < 1e-6

    def test_zero_gradient_override(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            "[crystal]\nn_ions = 2\nd_um = 6.0\nnu_Mrad_s = 5.55\ndBdz_T_per_m = 0.0\n"
        )
        result = run_cli(["couplings", "--config", str(cfg), "--out", str(tmp_path / "z")])
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "z" / "summary.csv")
        assert all(float(v) == 0.0 for v in column(header, rows, "j12_kHz"))

    def test_solver_failure_exits_3_with_residual(self, tmp_path, monkeypatch):
        from ionphoton import crystal
        monkeypatch.setattr(crystal, "MAX_NEWTON_ITER", 1)
        result = run_cli(["couplings", "--preset", "table1", "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert "residual" in result.output

    def test_centers_as_a_range(self, tmp_path):
        # every number list takes 'a,b,c' or 'start:stop:count'
        summaries = []
        for name, where in (("d", "d_um = 6.0"), ("c", "centers_um = -3:3:2")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"[crystal]\nn_ions = 2\n{where}\nnu_Mrad_s = 5.55\n"
                           "dBdz_T_per_m = 550.0\n")
            result = run_cli(["couplings", "--config", str(cfg), "--out", str(tmp_path / name)])
            assert result.exit_code == 0
            summaries.append(read_csv(tmp_path / name / "summary.csv"))
        (h_d, rows_d), (h_c, rows_c) = summaries
        assert column(h_d, rows_d, "j12_kHz") == column(h_c, rows_c, "j12_kHz")

    def test_single_ion_has_no_couplings(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("[crystal]\nn_ions = 1\nd_um = 6.0\nnu_Mrad_s = 5.55\ndBdz_T_per_m = 1.0\n")
        result = run_cli(["couplings", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "o" / "summary.csv")
        assert column(header, rows, "j12_kHz") == [""]

    def test_manifest_covers_all_files(self, tmp_path):
        run_cli(["couplings", "--preset", "table1", "--out", str(tmp_path / "m")])
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        listed = set(manifest["files"])
        on_disk = {p.name for p in (tmp_path / "m").iterdir()} - {"manifest.json"}
        assert listed == on_disk


class TestEmission:
    def test_fig2_preset_curves(self, tmp_path):
        result = run_cli(["emission", "--preset", "fig2", "--out", str(tmp_path / "f")])
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "f" / "sweep.csv")
        assert header == ["kappa_rad_s", "delta_rad_s", "tau_star_s", "p_single", "p_pair"]
        assert len(rows) == 4 * 41
        by_kappa = {}
        for row_vals in rows:
            kappa = float(row_vals[0])
            by_kappa.setdefault(kappa, []).append((float(row_vals[1]), float(row_vals[4])))
        for kappa, pairs in by_kappa.items():
            ordered = [p for _, p in sorted(pairs)]
            if kappa == 0.0:
                assert all(p == 1.0 for p in ordered)
            else:
                assert all(a > b for a, b in zip(ordered, ordered[1:]))

    def test_low_detuning_preset(self, tmp_path):
        result = run_cli(["emission", "--preset", "fig2_ideal", "--out", str(tmp_path / "i")])
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "i" / "sweep.csv")
        p_single = [float(v) for v in column(header, rows, "p_single")]
        # best achievable at kappa = 1e9 rad/s is exp(-kappa tau*) = 0.99886;
        # the curve is "almost 1" throughout but crosses 0.999 near 8.8e8
        assert min(p_single) >= 0.9988

    def test_underflowing_rabi_rate_squared(self, tmp_path):
        # omega_eff = 1.38e-291 rad/s: omega_eff^2 underflows, yet P(kappa = 0) is 1
        cfg = tmp_path / "tiny_rabi.cfg"
        cfg.write_text(_CAVITY_TEXT.replace("960.0", "0.0")
                       + "[sweep]\nkappa_grid_Mrad_s = 0\ndelta_list_Mrad_s = 1e300\n")
        result = run_cli(["emission", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0
        for name in ("sweep.csv", "summary.csv"):
            header, rows = read_csv(tmp_path / "o" / name)
            assert [float(v) for v in column(header, rows, "p_single")] == [1.0]

    def test_tiny_rates_reach_the_closed_form_optimum(self, tmp_path):
        # omega_eff = kappa = 1e-200 rad/s: underdamped, P* = exp(-kappa tau*) = 0.2984
        cfg = tmp_path / "tiny_rates.cfg"
        cfg.write_text(
            "[cavity]\nOmega_Mrad_s = 1e-103\nh_Mrad_s = 1e-103\ndelta_Mrad_s = 1\n"
            "kappa_Mrad_s = 1e-206\n[sweep]\nkappa_grid_Mrad_s = 1e-206\n"
            "delta_list_Mrad_s = 1\n"
        )
        result = run_cli(["emission", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "o" / "summary.csv")
        kappa, tau, p = (float(column(header, rows, name)[0])
                         for name in ("kappa_rad_s", "tau_star_s", "p_single"))
        assert tau == pytest.approx(1.2092e200, rel=1e-4)
        assert p == pytest.approx(math.exp(-kappa * tau), rel=1e-12)
        assert p == pytest.approx(0.2984, abs=1e-4)

    def test_missing_sweep_section(self, tmp_path):
        cfg = tmp_path / "nosweep.cfg"
        cfg.write_text(
            "[cavity]\nOmega_Mrad_s = 10.0\nh_Mrad_s = 138.0\n"
            "delta_Mrad_s = 0.1\nkappa_Mrad_s = 960.0\n"
        )
        result = run_cli(["emission", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "sweep" in result.output

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cavity_detuning_is_not_read(self, tmp_path, fmt):
        # the detunings come from [sweep], so [cavity] delta_Mrad_s may be left out
        bundles = []
        for name, text in [("with", _CAVITY_TEXT),
                           ("without", _CAVITY_TEXT.replace("delta_Mrad_s = 0.1\n", ""))]:
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text + _SWEEP_TEXT)
            out = tmp_path / name
            result = run_cli(["emission", "--config", str(cfg), "--format", fmt, "--out", str(out)])
            assert result.exit_code == 0
            bundles.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert bundles[0] == bundles[1]


class TestGates:
    def test_default_two_ion_report(self, tmp_path):
        result = run_cli(["gates", "--preset", "gates2", "--out", str(tmp_path / "g2")])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "g2" / "gates.json").read_text())
        assert 1.0 - report["fidelity_product_vs_g_active"] < 1e-12
        assert 1.0 - report["fidelity_variant_vs_e_active"] < 1e-12
        assert gates.POLARITY_DIAGNOSTIC in result.output
        text = (tmp_path / "g2" / "gates_report.txt").read_text()
        assert gates.POLARITY_DIAGNOSTIC in text

    @pytest.mark.parametrize("preset", ["gates2", "gates3"])
    def test_stdout_is_the_report_text(self, tmp_path, preset):
        out = tmp_path / preset
        result = run_cli(["gates", "--preset", preset, "--out", str(out)])
        assert result.exit_code == 0
        *report, wrote = result.stdout.splitlines(keepends=True)
        assert "".join(report).encode() == (out / "gates_report.txt").read_bytes()
        assert wrote == f"wrote 3 files to {out}\n"

    def test_three_ion_refocusing(self, tmp_path):
        result = run_cli(["gates", "--preset", "gates3", "--out", str(tmp_path / "g3")])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "g3" / "gates.json").read_text())
        assert len(report["refocused_cnots"]) == 2
        for entry in report["refocused_cnots"]:
            assert entry["fidelity"] >= 1.0 - 1e-9


class TestRun:
    def test_n2_ideal_outcome_table(self, tmp_path):
        result = run_cli([
            "run", "--preset", "run_n2_ideal", "--out", str(tmp_path / "r2"),
            "--trials", "200",
        ])
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "r2" / "outcome_table.csv")
        expressions = {r[0]: r[2] for r in rows}
        assert expressions["gg"] == "(+|s+ s+> + |s0 s0>)/sqrt2"
        assert expressions["ee"] == "(+|s0 s+> - |s+ s0>)/sqrt2"
        assert expressions["eg"] == "(+|s0 s0> - |s+ s+>)/sqrt2"
        assert expressions["ge"] == "(+|s+ s0> + |s0 s+>)/sqrt2"
        for r in rows:
            assert float(r[1]) == pytest.approx(0.25, abs=1e-12)

    def test_n3_ideal_outcome_table(self, tmp_path):
        result = run_cli([
            "run", "--preset", "run_n3_ideal", "--out", str(tmp_path / "r3"),
            "--trials", "100",
        ])
        assert result.exit_code == 0
        header, rows = read_csv(tmp_path / "r3" / "outcome_table.csv")
        table = {r[0]: r[2] for r in rows}
        assert table["ggg"] == "(+|s+ s+ s+> + |s0 s0 s0>)/sqrt2"
        assert table["egg"] == "(+|s0 s0 s0> - |s+ s+ s+>)/sqrt2"
        assert table["gee"] == "(+|s+ s0 s0> + |s0 s+ s+>)/sqrt2"
        assert table["eee"] == "(+|s0 s+ s+> - |s+ s0 s0>)/sqrt2"
        assert table["geg"] == "(+|s+ s0 s+> + |s0 s+ s0>)/sqrt2"
        assert table["eeg"] == "(+|s0 s+ s0> - |s+ s0 s+>)/sqrt2"
        assert table["gge"] == "(+|s+ s+ s0> + |s0 s0 s+>)/sqrt2"
        assert table["ege"] == "(+|s0 s0 s+> - |s+ s+ s0>)/sqrt2"
        assert all(float(r[1]) == pytest.approx(0.125, abs=1e-12) for r in rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            run_cli([
                "run", "--preset", "run_n2_ideal", "--out", str(tmp_path / name),
                "--trials", "300", "--seed", "55",
            ])
        m_a = (tmp_path / "a" / "manifest.json").read_bytes()
        m_b = (tmp_path / "b" / "manifest.json").read_bytes()
        assert m_a == m_b
        for f in (tmp_path / "a").iterdir():
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_seed_override_changes_counts(self, tmp_path):
        for name, seed in (("s1", "10"), ("s2", "11")):
            run_cli([
                "run", "--preset", "run_n2_ideal", "--out", str(tmp_path / name),
                "--trials", "300", "--seed", seed,
            ])
        r1 = json.loads((tmp_path / "s1" / "run_report.json").read_text())
        r2 = json.loads((tmp_path / "s2" / "run_report.json").read_text())
        assert r1["counts"] != r2["counts"]
        assert r1["seed"] == 10 and r2["seed"] == 11

    def test_json_format_writes_table_json(self, tmp_path):
        run_cli([
            "run", "--preset", "run_n2_ideal", "--out", str(tmp_path / "j"),
            "--trials", "50", "--format", "json",
        ])
        doc = json.loads((tmp_path / "j" / "outcome_table.json").read_text())
        assert doc["n_ions"] == 2
        assert len(doc["rows"]) == 4
        report = json.loads((tmp_path / "j" / "run_report.json").read_text())
        assert any("t1" in note for note in report["notes"])

    def test_g_polarity_flag_changes_table(self, tmp_path):
        cfg = tmp_path / "gpol.cfg"
        cfg.write_text(
            "[crystal]\nn_ions = 2\nd_um = 6.0\nnu_Mrad_s = 5.55\ndBdz_T_per_m = 550.0\n\n"
            "[cavity]\nOmega_Mrad_s = 10.0\nh_Mrad_s = 138.0\ndelta_Mrad_s = 0.1\n"
            "kappa_Mrad_s = 0.0\n\n[protocol]\ncnot_active_on = g\n\n"
            "[run]\ntrials = 50\nseed = 1\n"
        )
        result = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0
        _, rows = read_csv(tmp_path / "o" / "outcome_table.csv")
        table = {r[0]: r[2] for r in rows}
        # the |g>-active gate yields a different pairing than the default
        assert table["ee"] != "(+|s0 s+> - |s+ s0>)/sqrt2"
        report = json.loads((tmp_path / "o" / "run_report.json").read_text())
        assert report["cnot_active_on"] == "g"

    def test_zero_gradient_exits_3(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[crystal]\nn_ions = 2\nd_um = 6.0\nnu_Mrad_s = 5.55\ndBdz_T_per_m = 0.0\n\n"
            "[cavity]\nOmega_Mrad_s = 10.0\nh_Mrad_s = 138.0\ndelta_Mrad_s = 0.1\n"
            "kappa_Mrad_s = 0.0\n\n[run]\ntrials = 10\nseed = 1\n"
        )
        result = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["couplings", "--preset", "table1"],
        ["emission", "--preset", "fig2"],
        ["gates", "--preset", "gates3"],
        ["run", "--preset", "run_n3_ideal", "--trials", "200"],
    ])
    def test_bundles_are_byte_identical_across_reruns(self, tmp_path, args):
        for name in ("a", "b"):
            result = run_cli(args + ["--out", str(tmp_path / name)])
            assert result.exit_code == 0
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_json_format_mirrors(self, tmp_path):
        run_cli(["couplings", "--preset", "table1", "--format", "json",
                 "--out", str(tmp_path / "c")])
        doc = json.loads((tmp_path / "c" / "summary.json").read_text())
        assert len(doc["cases"]) == 5
        run_cli(["emission", "--preset", "fig2", "--format", "json",
                 "--out", str(tmp_path / "e")])
        doc = json.loads((tmp_path / "e" / "sweep.json").read_text())
        assert len(doc["points"]) == 4 * 41


_CAVITY_TEXT = (
    "[cavity]\nOmega_Mrad_s = 10.0\nh_Mrad_s = 138.0\ndelta_Mrad_s = 0.1\n"
    "kappa_Mrad_s = 960.0\n"
)
_SWEEP_TEXT = "[sweep]\nkappa_grid_Mrad_s = 0:1000:3\ndelta_list_Mrad_s = 0.1\n"
_CRYSTAL_N2_TEXT = "[crystal]\nn_ions = 2\nd_um = 6.0\nnu_Mrad_s = 5.55\ndBdz_T_per_m = 550.0\n"
_RUN_N2_TEXT = (
    _CRYSTAL_N2_TEXT + "[cavity]\nOmega_Mrad_s = 10.0\nh_Mrad_s = 138.0\n"
    "delta_Mrad_s = 0.1\nkappa_Mrad_s = 0.0\n[run]\ntrials = 20\nseed = 1\n"
)
# rule -> (values at its bounds that it accepts, values just past them), as written;
# an int key takes only the values that int() reads, and a "> 0" key whose unit
# factor sends 5e-324 to 0 takes the edges of _least_positive instead
_RULE_EDGES = {
    "> 0": (["5e-324"], ["0", "-5e-324"]),
    ">= 0": (["0"], ["-5e-324", "-1"]),
    "in [0, 1]": (["0", "1"], ["-5e-324", "1.0000000000000002"]),
    f"in 1..{config.MAX_CHAIN_IONS}": (["1", str(config.MAX_CHAIN_IONS)],
                                       ["0", str(config.MAX_CHAIN_IONS + 1)]),
    "in 1..2**32": (["1", str(2**32)], ["0", str(2**32 + 1)]),
    "'e' or 'g'": (["e", "g"], ["E", "eg", ""]),
}
# every key that SCHEMA gives a rule, and the keys it matches by pattern or section
_RULED_KEYS = [(section, key, kind, rule) for section, keys in config.SCHEMA.items()
               for key, (kind, rule) in keys.items() if rule is not None]
_RULED_KEYS += [("crystal", "nu_2_mrad_s", config.SCHEMA["crystal"]["nu_mrad_s"][0], "> 0"),
                ("case.1", "n_ions", int, f"in 1..{config.MAX_CHAIN_IONS}")]


def _least_positive(factor: float) -> float:
    """The least float x with x * factor > 0, by bisection on the bits of x
    (positive floats sort as their bits do)."""
    def as_float(bits):
        return float(np.int64(bits).view(np.float64))
    lo, hi = 0, int(np.float64(1.0).view(np.int64))   # the bits of 0.0 and 1.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if as_float(mid) * factor > 0 else (mid, hi)
    return as_float(hi)


def _rule_edges(kind, rule) -> tuple[list, list]:
    accept, reject = _RULE_EDGES.get(rule, ([], []))
    if rule == "> 0" and kind * 5e-324 == 0:   # 5e-324 as written is 0 in SI
        least = _least_positive(kind)
        accept, reject = [repr(least)], reject + ["5e-324", repr(math.nextafter(least, 0))]
    return accept, reject


def _edges(side: int) -> list:
    """pytest params (section, key, value, rule, kind), one per edge value on ``side``."""
    return [pytest.param(section, key, value, rule, kind, id=f"{section}-{key}-{value}")
            for section, key, kind, rule in _RULED_KEYS
            for value in _rule_edges(kind, rule)[side]
            if kind is not int or re.fullmatch(r"-?[0-9]+", value)]


def _chain_sections(sizes) -> str:
    return "".join(f"[case.{i}]\nn_ions = {n}\nd_um = 6.0\nnu_Mrad_s = 5.55\n"
                   f"dBdz_T_per_m = 550.0\n" for i, n in enumerate(sizes, 1))


class TestErrors:
    @pytest.mark.parametrize("section,key,text", [
        ("crystal", "wat", "[crystal]\nn_ions = 2\nd_um = 6.0\nnu_Mrad_s = 5.55\nwat = 1\n"),
        # once a fallback for dBdz_T_per_m; every chain section now sets its own
        ("[gradient]", "unknown section",
         "[crystal]\nn_ions = 2\nd_um = 6.0\nnu_Mrad_s = 5.55\n\n"
         "[gradient]\ndBdz_T_per_m = 1.0\nB0_T = 0.0\n"),
        ("cavity", "radius_um", _CAVITY_TEXT + "radius_um = 10\n"),
    ], ids=["crystal-wat", "gradient-B0_T", "cavity-radius_um"])
    def test_unknown_key_reports_section(self, tmp_path, section, key, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        result = run_cli(["couplings", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert section in result.output and key in result.output

    @pytest.mark.parametrize("command,text", [
        ("emission", _CAVITY_TEXT
         + "[sweep]\nkappa_grid_Mrad_s = 0,nan\ndelta_list_Mrad_s = 0.1\n"),
        ("emission", _CAVITY_TEXT.replace("960.0", "nan")
         + "[sweep]\nkappa_grid_Mrad_s = 0:1000:3\ndelta_list_Mrad_s = 0.1\n"),
        ("couplings", "[crystal]\nn_ions = 2\nd_um = inf\nnu_Mrad_s = 5.55\n"
         "dBdz_T_per_m = 1.0\n"),
        # finite as written, inf after the unit conversion
        ("emission", _CAVITY_TEXT.replace("960.0", "1e305")
         + "[sweep]\nkappa_grid_Mrad_s = 0:1000:3\ndelta_list_Mrad_s = 0.1\n"),
        ("couplings", "[crystal]\nn_ions = 2\nd_um = 6.0\nnu_Mrad_s = 1e303\n"
         "dBdz_T_per_m = 1.0\n"),
    ], ids=["sweep-grid-nan", "kappa-nan", "d_um-inf", "kappa-overflow", "nu-overflow"])
    def test_non_finite_input_rejected(self, tmp_path, command, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        result = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output.startswith("config error:") and "finite" in result.output
        assert result.output.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,text", [
        # kappa**2 overflows in the emission closed form
        ("emission", _CAVITY_TEXT.replace("960.0", "1e300") + _SWEEP_TEXT),
        ("run", _RUN_N2_TEXT.replace("kappa_Mrad_s = 0.0", "kappa_Mrad_s = 1e300")),
        # omega_eff**2 underflows to zero
        ("run", _RUN_N2_TEXT.replace("kappa_Mrad_s = 0.0", "kappa_Mrad_s = 960.0")
         .replace("delta_Mrad_s = 0.1", "delta_Mrad_s = 1e300")),
        ("emission", _CAVITY_TEXT + "[sweep]\nkappa_grid_Mrad_s = 960\ndelta_list_Mrad_s = 1e300\n"),
        # M nu^2 underflows to zero: singular Hessian
        ("couplings", _CRYSTAL_N2_TEXT.replace("5.55", "1e-300")),
        ("gates", _CRYSTAL_N2_TEXT.replace("5.55", "1e-300")),
        ("run", _RUN_N2_TEXT.replace("5.55", "1e-300")),
    ], ids=["emission-kappa-1e300", "run-kappa-1e300", "run-delta-1e300",
            "emission-delta-1e300", "couplings-nu-1e-300", "gates-nu-1e-300", "run-nu-1e-300"])
    @pytest.mark.filterwarnings("error")
    def test_finite_input_beyond_float_range_exits_3(self, tmp_path, command, text):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(text)
        result = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert result.output.startswith("error:") and result.output.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["couplings", "gates", "run"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_couplings_exit_3(self, tmp_path, command):
        # finite, but (d omega/dz)^2 overflows and J turns to nan
        cfg = tmp_path / "grad.cfg"
        cfg.write_text(_RUN_N2_TEXT.replace("550.0", "1e160"))
        result = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert result.output.startswith("error:") and "not finite" in result.output
        assert result.output.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["couplings", "gates", "run"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_trap_stiffness_exits_3(self, tmp_path, command):
        # finite, but M nu^2 overflows in the equilibrium solve
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(_RUN_N2_TEXT.replace("5.55", "1e160"))
        result = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert result.output.startswith("error:") and "M nu^2" in result.output
        assert result.output.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gates", "run"])
    def test_subnormal_coupling_exits_3(self, tmp_path, command):
        # J12 is a nonzero subnormal, so the CNOT time pi/(2 J12) overflows
        cfg = tmp_path / "weak.cfg"
        cfg.write_text(_RUN_N2_TEXT.replace("550.0", "1e-160"))
        result = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert result.output.startswith("error:") and result.output.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,code", [("couplings", 0), ("gates", 3)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_remote_ions_give_no_overflow_warning(self, tmp_path, command, code):
        # d**3 overflows in the Hessian; the Coulomb stiffness is exactly 0
        cfg = tmp_path / "far.cfg"
        cfg.write_text(_CRYSTAL_N2_TEXT.replace("6.0", "1e160"))
        result = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == code
        if code == 0:
            assert result.stderr == ""
        else:
            assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["couplings", "--seed", "1"], ["emission", "--seed", "1"],
        ["gates", "--seed", "1"], ["gates", "--format", "json"],
    ], ids=["couplings-seed", "emission-seed", "gates-seed", "gates-format"])
    def test_option_of_another_command_is_a_usage_error(self, tmp_path, args):
        result = run_cli([args[0], "--preset", "table1", "--out", str(tmp_path / "o")] + args[1:])
        assert result.exit_code == 2
        assert "No such option" in result.output
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_utf8(self, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes((_CRYSTAL_N2_TEXT + "# spacing in \xb5m\n").encode("latin-1"))
        result = run_cli(["couplings", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output.startswith("config error:") and "UTF-8" in result.output

    def test_missing_key_reports_section_and_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[crystal]\nd_um = 6.0\nnu_Mrad_s = 5.55\ndBdz_T_per_m = 1.0\n")
        result = run_cli(["couplings", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "n_ions" in result.output

    def test_unknown_preset(self, tmp_path):
        result = run_cli(["couplings", "--preset", "nope", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_config_and_preset_both_given(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[crystal]\nn_ions = 2\nd_um = 6.0\nnu_Mrad_s = 5.55\ndBdz_T_per_m = 1.0\n")
        result = run_cli([
            "couplings", "--config", str(cfg), "--preset", "table1",
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2

    def test_explain_units(self):
        result = run_cli(["--explain-units"])
        assert result.exit_code == 0
        assert "1 MHz == 1e6 rad/s" in result.output

    @pytest.mark.parametrize("source", ["config", "option"])
    def test_trial_count_above_2_to_the_32_exits_2(self, tmp_path, source):
        cfg = tmp_path / "c.cfg"
        too_many = str(2**32 + 1)
        if source == "config":
            cfg.write_text(_RUN_N2_TEXT.replace("trials = 20", f"trials = {too_many}"))
            extra = []
        else:
            cfg.write_text(_RUN_N2_TEXT)
            extra = ["--trials", too_many]
        result = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")] + extra)
        assert result.exit_code == 2
        assert result.output.startswith("config error:") and result.output.count("\n") == 1
        assert "2**32" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line,option", [("trials = 20", "--trials"), ("seed = 1", "--seed")])
    def test_overridden_config_value_is_still_checked(self, tmp_path, line, option):
        key = line.split()[0]
        out_of_range = {"trials": ("0", "in 1..2**32"), "seed": ("-1", ">= 0")}[key]
        for value, message in [("abc", f"{key}: not an integer: 'abc'"),
                               (out_of_range[0], f"{key} must be {out_of_range[1]}, "
                                                 f"got {out_of_range[0]}")]:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(_RUN_N2_TEXT.replace(line, f"{key} = {value}"))
            result = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                              option, "5"])
            assert result.exit_code == 2
            assert result.output == f"config error: [run] {message}\n"
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit,extra,source", [
        (("trials = 20", "trials = 0"), [], "[run] trials"),
        (None, ["--trials", "0"], "--trials"),
        (("seed = 1", "seed = -1"), [], "[run] seed"),
        (None, ["--seed", "-1"], "--seed"),
    ], ids=["config-trials", "option-trials", "config-seed", "option-seed"])
    def test_out_of_range_value_names_its_source(self, tmp_path, edit, extra, source):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(_RUN_N2_TEXT.replace(*edit) if edit else _RUN_N2_TEXT)
        result = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")] + extra)
        assert result.exit_code == 2
        assert result.output.startswith(f"config error: {source} must be ")
        assert result.output.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gates", "run"])
    @pytest.mark.parametrize("section", ["crystal"])
    def test_more_ions_than_the_register_cap_exit_2(self, tmp_path, command, section):
        # one past the cap: never run a large N, each gate is 16 * 4^N bytes
        cfg = tmp_path / "n7.cfg"
        cfg.write_text(_RUN_N2_TEXT.replace("n_ions = 2", f"n_ions = {gates.MAX_IONS + 1}")
                       .replace("[crystal]", f"[{section}]"))
        result = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output.startswith(f"config error: [{section}] n_ions")
        assert result.output.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gates", "run"])
    @pytest.mark.parametrize("n_ions", [2, gates.MAX_IONS + 1])
    def test_lone_case_section_exits_2(self, tmp_path, command, n_ions):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(_RUN_N2_TEXT.replace("n_ions = 2", f"n_ions = {n_ions}")
                       .replace("[crystal]", "[case.1]"))
        result = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == f"config error: {command} needs exactly one [crystal] section\n"
        assert not (tmp_path / "o").exists()

    def test_single_ion_run_names_crystal_n_ions(self, tmp_path):
        cfg = tmp_path / "n1.cfg"
        cfg.write_text(_RUN_N2_TEXT.replace("n_ions = 2", "n_ions = 1"))
        result = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == "config error: [crystal] n_ions: run needs at least 2 ions, got 1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [
        ["couplings", "--preset", "table1"],
        ["run", "--preset", "run_n2", "--trials", "10", "--format", "json"],
    ], ids=["couplings", "run"])
    def test_unwritable_out_exits_2_with_one_line(self, tmp_path, args):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        out = blocker / "sub"
        result = run_cli(args + ["--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: cannot write the bundle to {out}: ")
        assert result.stderr.count("\n") == 1
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command", ["emission", "run"])
    @pytest.mark.parametrize("key,value", [
        ("Omega_Mrad_s", "-1.0"), ("h_Mrad_s", "-1.0"), ("kappa_Mrad_s", "-1.0"),
        # kappa = 0 is the ideal cavity, but Omega = 0 or h = 0 emits nothing
        ("Omega_Mrad_s", "0.0"), ("h_Mrad_s", "0.0"),
    ], ids=["Omega_Mrad_s", "h_Mrad_s", "kappa_Mrad_s", "Omega_Mrad_s-zero", "h_Mrad_s-zero"])
    def test_negative_cavity_rate_exits_2(self, tmp_path, command, key, value):
        text = _CAVITY_TEXT + _SWEEP_TEXT if command == "emission" else _RUN_N2_TEXT
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(re.sub(rf"{key} = \S+", f"{key} = {value}", text))
        result = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output.startswith("config error: [cavity]")
        assert result.output.count("\n") == 1
        if value == "0.0":
            assert result.output == (f"config error: [cavity] {key.lower()} must be > 0, "
                                     "got 0.0\n")
        assert not (tmp_path / "o").exists()

    def test_negative_detuning_exits_2(self, tmp_path):
        # only run reads [cavity] delta_Mrad_s; emission sweeps [sweep] delta_list_Mrad_s
        cfg = tmp_path / "delta.cfg"
        cfg.write_text(_RUN_N2_TEXT.replace("delta_Mrad_s = 0.1", "delta_Mrad_s = -0.1"))
        result = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == "config error: [cavity] delta_mrad_s must be > 0, got -0.1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,section", [
        ("couplings", "crystal"), ("couplings", "case.1"), ("gates", "crystal"), ("run", "crystal"),
    ])
    def test_negative_eta_laser_exits_2(self, tmp_path, command, section):
        cfg = tmp_path / "eta.cfg"
        cfg.write_text(_RUN_N2_TEXT.replace("[crystal]", f"[{section}]\neta_laser = -1"))
        result = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == f"config error: [{section}] eta_laser must be >= 0, got -1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,text,message", [
        ("couplings", _CRYSTAL_N2_TEXT + "[run]\ntrials = abc\n",
         "[run] trials: not an integer: 'abc'"),
        ("emission", _CAVITY_TEXT + _SWEEP_TEXT + "[crystal]\nn_ions = x\n",
         "[crystal] n_ions: not an integer: 'x'"),
        ("gates", _CRYSTAL_N2_TEXT + "[sweep]\nkappa_grid_Mrad_s = 0:1000\n",
         "[sweep] kappa_grid_mrad_s: bad number list: '0:1000'"),
        ("couplings", _CRYSTAL_N2_TEXT + _CAVITY_TEXT.replace("960.0", "1e305"),
         "[cavity] kappa_mrad_s: values must be finite"),
        ("run", _RUN_N2_TEXT + "[sweep]\ndelta_list_Mrad_s = 0.1,x\n",
         "[sweep] delta_list_mrad_s: bad number list: '0.1,x'"),
        # the count alone would ask numpy for 72.8 TiB
        ("couplings", _CRYSTAL_N2_TEXT + "[sweep]\nkappa_grid_Mrad_s = 0:1:10000000000000\n",
         f"[sweep] kappa_grid_mrad_s: at most {config.MAX_SWEEP_POINTS} values"),
        ("couplings", _CRYSTAL_N2_TEXT
         + f"[sweep]\nkappa_grid_Mrad_s = 0:1:{config.MAX_SWEEP_POINTS + 1}\n",
         f"[sweep] kappa_grid_mrad_s: at most {config.MAX_SWEEP_POINTS} values"),
        ("couplings", _CRYSTAL_N2_TEXT
         + "[sweep]\ndelta_list_Mrad_s = " + ",".join(["1"] * (config.MAX_SWEEP_POINTS + 1)),
         f"[sweep] delta_list_mrad_s: at most {config.MAX_SWEEP_POINTS} values"),
    ], ids=["couplings-run", "emission-crystal", "gates-sweep", "couplings-cavity", "run-sweep",
            "couplings-sweep-count", "couplings-sweep-count-cap", "couplings-list-length-cap"])
    def test_malformed_value_in_an_unread_section_exits_2(self, tmp_path, command, text, message):
        # every value is converted at load, whatever the command reads
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        result = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_trial_cap_is_inclusive(self):
        text = _RUN_N2_TEXT.replace("trials = 20", f"trials = {2**32}")
        assert config.trials_from(config.load_config(text)) == 2**32
        assert config.trials_from(config.load_config(_RUN_N2_TEXT), override=2**32) == 2**32
        assert config.trials_from(config.load_config(_RUN_N2_TEXT), override=1) == 1
        assert config.trials_from(config.load_config(_RUN_N2_TEXT.replace("20", "1"))) == 1
        too_many = _RUN_N2_TEXT.replace("trials = 20", f"trials = {2**32 + 1}")
        for text, override in [(too_many, None), (_RUN_N2_TEXT, 2**32 + 1)]:
            with pytest.raises(ConfigError, match=r"must be in 1\.\.2\*\*32"):
                config.trials_from(config.load_config(text), override=override)

    @pytest.mark.parametrize("text,read,expected", [
        (_CRYSTAL_N2_TEXT.replace("n_ions = 2", f"n_ions = {config.MAX_CHAIN_IONS}"),
         lambda cfg: config.crystal_cases(cfg)[0].traps.n_ions, config.MAX_CHAIN_IONS),
        (_SWEEP_TEXT.replace("0:1000:3", f"0:1000:{config.MAX_SWEEP_POINTS}"),
         lambda cfg: len(config.sweep_grid(cfg)[1]), config.MAX_SWEEP_POINTS),
        (f"[sweep]\nkappa_grid_Mrad_s = 0:1:{config.MAX_SWEEP_POINTS}\n",
         lambda cfg: len(cfg["sweep"]["kappa_grid_mrad_s"]), config.MAX_SWEEP_POINTS),
        ("[sweep]\ndelta_list_Mrad_s = " + ",".join(["1"] * config.MAX_SWEEP_POINTS),
         lambda cfg: len(cfg["sweep"]["delta_list_mrad_s"]), config.MAX_SWEEP_POINTS),
    ], ids=["chain-ions", "sweep-points", "list-values", "list-length"])
    def test_size_cap_is_inclusive(self, text, read, expected):
        # read only: nothing the size of the cap is solved or swept
        assert read(config.load_config(text)) == expected

    @pytest.mark.parametrize("command,text,message", [
        ("couplings",
         _CRYSTAL_N2_TEXT.replace("n_ions = 2", f"n_ions = {config.MAX_CHAIN_IONS + 1}"),
         f"[crystal] n_ions must be in 1..{config.MAX_CHAIN_IONS}, "
         f"got {config.MAX_CHAIN_IONS + 1}"),
        # each list is within its own cap; only their product is not
        ("emission", _CAVITY_TEXT
         + _SWEEP_TEXT.replace("0:1000:3", f"0:1000:{config.MAX_SWEEP_POINTS // 2 + 1}")
         .replace("= 0.1", "= 0.1,0.2"),
         f"[sweep] delta_list_Mrad_s x kappa_grid_Mrad_s: at most {config.MAX_SWEEP_POINTS} "
         f"points, got {2 * (config.MAX_SWEEP_POINTS // 2 + 1)}"),
        ("emission", _SWEEP_TEXT.replace("= 0.1", "= 0.1,0") + _CAVITY_TEXT,
         "[sweep] delta_list_mrad_s must be > 0, got 0.1,0"),
        ("run", _RUN_N2_TEXT.replace("delta_Mrad_s = 0.1", "delta_Mrad_s = 0"),
         "[cavity] delta_mrad_s must be > 0, got 0"),
        ("couplings", "[species]\nmass_amu = 0\n" + _CRYSTAL_N2_TEXT,
         "[species] mass_amu must be > 0, got 0"),
        ("couplings", "[species]\ng_factor = 0\n" + _CRYSTAL_N2_TEXT,
         "[species] g_factor must be > 0, got 0"),
        ("couplings", _CRYSTAL_N2_TEXT.replace("5.55", "0"),
         "[crystal] nu_mrad_s must be > 0, got 0"),
    ], ids=["chain-ions-cap", "sweep-points-cap", "sweep-delta-zero", "cavity-delta-zero",
            "mass-zero", "g-factor-zero", "nu-zero"])
    def test_value_just_outside_its_domain_exits_2(self, tmp_path, command, text, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        result = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,text,name,read", [
        # eta_eff = hypot(eta_laser, eps_max)
        ("couplings", _CRYSTAL_N2_TEXT + "eta_laser = 0\n", "summary.json",
         lambda doc: doc["cases"][0]["eta_eff"] - doc["cases"][0]["eps_max"]),
        ("run", _RUN_N2_TEXT + "[protocol]\nt0_s = 0\n", "run_report.json",
         lambda doc: doc["t0_s"]),
    ], ids=["eta_laser", "t0_s"])
    def test_zero_where_zero_is_allowed_exits_0(self, tmp_path, command, text, name, read):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        result = run_cli([command, "--config", str(cfg), "--format", "json", "--out", str(out)])
        assert result.exit_code == 0 and result.stderr == ""
        assert read(json.loads((out / name).read_text())) == 0.0


class TestRules:
    """One boundary test per ruled key, generated from config.SCHEMA."""

    def test_every_rule_has_its_edges(self):
        assert {rule for *_, rule in _RULED_KEYS} <= set(_RULE_EDGES)

    def test_a_unit_factor_moves_the_least_positive_value(self):
        least = _least_positive(config.SCHEMA["species"]["mass_amu"][0])
        assert 5e-324 < least < 1e-296 and _least_positive(1e6) == 5e-324

    @pytest.mark.parametrize("section,key,value,rule,kind", _edges(0))
    def test_value_at_a_bound_of_its_rule_loads(self, section, key, value, rule, kind):
        # at the reader only: no run of 2**32 trials, no 200-ion solve
        assert key in config.load_config(f"[{section}]\n{key} = {value}\n")[section]

    @pytest.mark.parametrize("section,key,value,rule,kind", _edges(1))
    def test_value_just_past_a_bound_of_its_rule_exits_2(self, tmp_path, section, key, value,
                                                          rule, kind):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        result = run_cli(["couplings", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        shown = repr(value) if kind is str else value
        assert result.output == f"config error: [{section}] {key} must be {rule}, got {shown}\n"
        assert not (tmp_path / "o").exists()

    def test_chain_sections_may_hold_the_ion_cap_in_all(self):
        sizes = [config.MAX_CHAIN_IONS // 4] * 4
        cases = config.crystal_cases(config.load_config(_chain_sections(sizes)))
        assert sum(case.traps.n_ions for case in cases) == config.MAX_CHAIN_IONS

    def test_one_ion_past_the_cap_in_all_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(_chain_sections([config.MAX_CHAIN_IONS // 4] * 4 + [1]))
        result = run_cli(["couplings", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == (f"config error: n_ions: at most {config.MAX_CHAIN_IONS} in all "
                                 f"chain sections, got {config.MAX_CHAIN_IONS + 1}\n")
        assert not (tmp_path / "o").exists()


class TestGolden:
    """Field-wise comparison against committed reference outputs."""

    @pytest.mark.parametrize("preset,command", [
        ("table1", "couplings"), ("table2", "couplings"), ("fig2", "emission"),
    ])
    def test_summary_matches_golden(self, tmp_path, preset, command):
        golden_path = GOLDEN / f"{preset}_summary.csv"
        run_cli([command, "--preset", preset, "--out", str(tmp_path / preset)])
        got_header, got_rows = read_csv(tmp_path / preset / "summary.csv")
        exp_header, exp_rows = read_csv(golden_path)
        assert got_header == exp_header
        assert len(got_rows) == len(exp_rows)
        for got, exp in zip(got_rows, exp_rows):
            for g, e in zip(got, exp):
                try:
                    g_val, e_val = float(g), float(e)
                except ValueError:
                    assert g == e
                    continue
                assert g_val == pytest.approx(e_val, rel=1e-9, abs=1e-300)


# A valid two-ion setup for every command; the fuzz edits, adds or drops keys.
_FUZZ_BASE = {
    ("crystal", "n_ions"): "2", ("crystal", "d_um"): "6.0",
    ("crystal", "nu_mrad_s"): "5.55", ("crystal", "dbdz_t_per_m"): "550.0",
    ("cavity", "omega_mrad_s"): "10.0", ("cavity", "h_mrad_s"): "138.0",
    ("cavity", "delta_mrad_s"): "0.1", ("cavity", "kappa_mrad_s"): "960.0",
    ("sweep", "kappa_grid_mrad_s"): "0:1000:5", ("sweep", "delta_list_mrad_s"): "0.1,1.0",
    ("run", "trials"): "20",
}
_FUZZ_KEYS = sorted(
    {(section, key) for section, keys in config.SCHEMA.items() for key in keys}
    | {("crystal", "nu_2_mrad_s"), ("case.1", "n_ions"), ("case.1", "d_um")}
)
_numbers = st.one_of(
    st.floats(-1e4, 1e4),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e160, 1e300, 1e305, 1.7e308]),
).map(repr)
# Integers only come from -1..8, so n_ions <= 8 and trials <= 20 always.
_values = st.one_of(
    _numbers,
    st.integers(-1, 8).map(str),
    st.sampled_from(["nan", "inf", "-inf", "abc", "", "e", "g"]),
    st.lists(_numbers, min_size=1, max_size=4).map(",".join),
    st.tuples(_numbers, _numbers, st.integers(-1, 50)).map(lambda t: "%s:%s:%d" % t),
)


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["couplings", "emission", "gates", "run"]),
    edits=st.dictionaries(st.sampled_from(_FUZZ_KEYS), st.none() | _values, max_size=4),
)
@example(command="emission", edits={("cavity", "kappa_mrad_s"): "1e305"})
@example(command="couplings", edits={("crystal", "nu_mrad_s"): "1e303"})
@example(command="emission", edits={("cavity", "kappa_mrad_s"): "1e300"})
@example(command="run", edits={("cavity", "kappa_mrad_s"): "1e300"})
@example(command="run", edits={("cavity", "delta_mrad_s"): "1e300"})
@example(command="emission", edits={("sweep", "delta_list_mrad_s"): "1e300",
                                    ("sweep", "kappa_grid_mrad_s"): "960"})
@example(command="emission", edits={("cavity", "omega_mrad_s"): "5e-324"})
@example(command="couplings", edits={("crystal", "nu_mrad_s"): "1e-300"})
@example(command="gates", edits={("crystal", "nu_mrad_s"): "1e-300"})
@example(command="run", edits={("crystal", "nu_mrad_s"): "1e-300"})
@example(command="couplings", edits={("crystal", "dbdz_t_per_m"): "1e160"})
@example(command="gates", edits={("crystal", "dbdz_t_per_m"): "1e160"})
@example(command="run", edits={("crystal", "dbdz_t_per_m"): "1e160"})
@example(command="couplings", edits={("crystal", "n_ions"): "1"})
def test_fuzzed_config_exits_with_a_documented_code(command, edits):
    entries = {**_FUZZ_BASE, **edits}
    if entries[("run", "trials")] is None:   # in place of the default, 100000 trials
        entries[("run", "trials")] = "20"
    sections = {}
    for (section, key), value in entries.items():
        if value is not None:
            sections.setdefault(section, []).append(f"{key} = {value}\n")
    text = "".join(f"[{name}]\n" + "".join(lines) for name, lines in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        result = run_cli([command, "--config", str(cfg), "--out", str(Path(tmp) / "o")])
    assert result.exit_code in (0, 2, 3), result.output
    if result.exit_code == 2:
        assert result.output.startswith("config error:") and result.output.count("\n") == 1
    if result.exit_code == 3:
        assert result.output.startswith("error:") and result.output.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["couplings", "--preset", "table1"], ["couplings", "--preset", "table1", "--format", "json"],
    ["emission", "--preset", "fig2"], ["emission", "--preset", "fig2", "--format", "json"],
    ["gates", "--preset", "gates2"],
    ["run", "--preset", "run_n2", "--trials", "10"],
    ["run", "--preset", "run_n2", "--trials", "10", "--format", "json"],
], ids=["couplings-csv", "couplings-json", "emission-csv", "emission-json", "gates",
        "run-csv", "run-json"])
def test_stdout_ends_with_the_count_of_files_written(tmp_path, args):
    out = tmp_path / "o"
    result = run_cli(args + ["--out", str(out)])
    assert result.exit_code == 0
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted([*json.loads((out / "manifest.json").read_text())["files"],
                              "manifest.json"])
    assert result.stdout.splitlines()[-1] == f"wrote {len(written)} files to {out}"


def test_cli_keeps_no_reference_to_the_streams_it_wrote_to(tmp_path):
    # an embedding process that swaps sys.stdout per call must get every stream back
    refs = []
    for i in range(20):
        args = (["run", "--preset", "run_n2_ideal", "--trials", "10"] if i % 2
                else ["run", "--preset", "nope"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main.main(args=args + ["--out", str(tmp_path / str(i))],
                          prog_name="ionphoton", standalone_mode=False)
            except SystemExit:
                pass
        assert out.getvalue() or err.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_importing_the_cli_leaves_numpy_random_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, ionphoton.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert proc.stdout.strip() == "False"
