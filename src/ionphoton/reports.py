"""Deterministic report artifacts: CSV tables, JSON documents, manifest.

Rules that make bundles byte-identical across reruns and machines:
floats are written with their shortest exact round-trip representation
(Python ``repr``), newlines are always LF, JSON keys are sorted, and no
timestamps or environment data are recorded.  The manifest is written last
and lists every emitted file with its SHA-256 and byte count.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from . import crystal, protocol
from .constants import KRAD_S, MICRON, MRAD_S


def fmt(value) -> str:
    """CSV cell: shortest exact representation for floats, str() otherwise."""
    return repr(float(value)) if isinstance(value, float) else str(value)


def csv_bytes(header: list[str], rows: list[list]) -> bytes:
    lines = [",".join(header)]
    lines += [",".join(fmt(cell) for cell in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def json_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


class ReportBundle:
    """A set of named artifacts plus a manifest, written last."""

    def __init__(self, command: str):
        self.command = command
        self.files: dict[str, bytes] = {}

    def add(self, name: str, payload: bytes):
        self.files[name] = payload

    def manifest(self) -> dict:
        return {
            "command": self.command,
            "files": {
                name: {
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "bytes": len(data),
                }
                for name, data in self.files.items()
            },
        }

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (out / name).write_bytes(data)
        manifest_bytes = json_bytes(self.manifest())
        (out / "manifest.json").write_bytes(manifest_bytes)
        return out


# ---------------------------------------------------------------------------
# couplings command


def _rows_as_json(header: list[str], rows: list[list]) -> list[dict]:
    return [dict(zip(header, row)) for row in rows]


def couplings_bundle(cases, fmt_choice: str) -> ReportBundle:
    """Per-case chain solutions: printed-unit summary plus SI detail tables."""
    bundle = ReportBundle("couplings")
    max_n = max(case.traps.n_ions for case in cases)

    summary_header = ["case", "n_ions", "d_um"]
    summary_header += [f"nu_{k+1}_Mrad_s" for k in range(max_n)]
    summary_header += ["dBdz_T_per_m"]
    summary_header += [f"delta_{k+1}_um" for k in range(max_n)]
    summary_header += ["h_um", "eps_max", "eta_eff", "eps_exceeds_cutoff"]
    summary_header += ["j12_kHz"]
    if max_n >= 3:
        summary_header += ["j13_kHz", "j23_kHz"]
    dev_cols = ["dev_delta", "dev_h", "dev_eps_max", "dev_j12", "dev_j13"]
    has_refs = any(case.refs for case in cases)
    if has_refs:
        summary_header += dev_cols

    summary_rows = []
    eq_rows, mode_rows, vec_rows, j_rows, eps_rows = [], [], [], [], []
    for case in cases:
        eq, modes, coupling, eps = crystal.solve_chain(
            case.traps, case.gradient, case.species
        )
        n = case.traps.n_ions
        eta_eff = crystal.effective_lamb_dicke(case.eta, eps.eps_max)
        row = [case.label, n, "" if case.d_um is None else case.d_um]
        row += [case.traps.frequencies[k] / MRAD_S for k in range(n)]
        row += [""] * (max_n - n)
        row += [case.gradient.dBdz]
        row += [eq.deviations[k] / MICRON for k in range(n)]
        row += [""] * (max_n - n)
        h = eq.gaps[0] if len(eq.gaps) else 0.0
        row += [h / MICRON, eps.eps_max, eta_eff,
                str(eps.eps_max > crystal.EPSILON_CUTOFF).lower()]
        row += [coupling.J[0, 1] / KRAD_S if n >= 2 else ""]
        if max_n >= 3:
            if n >= 3:
                row += [coupling.J[0, 2] / KRAD_S, coupling.J[1, 2] / KRAD_S]
            else:
                row += ["", ""]
        if has_refs:
            refs = case.refs
            row += [
                _rel_dev(abs(eq.deviations[0]), refs.get("delta_m")),
                _rel_dev(h, refs.get("h_m")),
                _rel_dev(eps.eps_max, refs.get("eps_max")),
                _rel_dev(coupling.J[0, 1] if n >= 2 else None, refs.get("j12_rad_s")),
                _rel_dev(coupling.J[0, 2] if n >= 3 else None, refs.get("j13_rad_s")),
            ]
        summary_rows.append(row)

        for k in range(n):
            eq_rows.append([
                case.label, k + 1, case.traps.centers[k], case.traps.frequencies[k],
                eq.positions[k], eq.deviations[k],
                eq.gaps[k] if k < n - 1 else "", eq.residual,
            ])
        for m in range(n):
            mode_rows.append([case.label, m + 1, modes.mode_freqs[m], modes.spreads[m]])
            for k in range(n):
                vec_rows.append([case.label, m + 1, k + 1, modes.mode_matrix[m, k]])
                eps_rows.append([case.label, m + 1, k + 1, eps.eps[m, k]])
        for a in range(n - 1):
            for b in range(a + 1, n):
                j_rows.append([case.label, a + 1, b + 1, coupling.J[a, b]])

    bundle.add("summary.csv", csv_bytes(summary_header, summary_rows))
    if fmt_choice == "json":
        bundle.add("summary.json", json_bytes(
            {"cases": _rows_as_json(summary_header, summary_rows)}
        ))
    bundle.add("equilibrium.csv", csv_bytes(
        ["case", "ion", "trap_center_m", "trap_freq_rad_s", "position_m",
         "deviation_m", "gap_after_m", "residual_N"], eq_rows))
    bundle.add("modes.csv", csv_bytes(
        ["case", "mode", "freq_rad_s", "spread_m"], mode_rows))
    bundle.add("mode_matrix.csv", csv_bytes(
        ["case", "mode", "ion", "component"], vec_rows))
    bundle.add("coupling_matrix.csv", csv_bytes(
        ["case", "i", "j", "j_rad_s"], j_rows))
    bundle.add("epsilon.csv", csv_bytes(
        ["case", "mode", "ion", "eps"], eps_rows))
    return bundle


def _rel_dev(value, ref):
    if value is None or ref is None or ref == 0:
        return ""
    return abs(value - ref) / abs(ref)


# ---------------------------------------------------------------------------
# emission command


def emission_bundle(sweep_rows, summary_rows, fmt_choice: str) -> ReportBundle:
    bundle = ReportBundle("emission")
    sweep_header = ["kappa_rad_s", "delta_rad_s", "tau_star_s", "p_single", "p_pair"]
    sweep_table = [[p.kappa, p.delta, p.tau_star, p.p_single, p.p_pair]
                   for p in sweep_rows]
    summary_header = ["delta_rad_s", "omega_eff_rad_s", "kappa_rad_s",
                      "tau_star_s", "p_single", "p_pair"]
    bundle.add("sweep.csv", csv_bytes(sweep_header, sweep_table))
    bundle.add("summary.csv", csv_bytes(summary_header, summary_rows))
    if fmt_choice == "json":
        bundle.add("sweep.json", json_bytes(
            {"points": _rows_as_json(sweep_header, sweep_table)}
        ))
        bundle.add("summary.json", json_bytes(
            {"curves": _rows_as_json(summary_header, summary_rows)}
        ))
    return bundle


# ---------------------------------------------------------------------------
# gates command


def matrix_lines(u: np.ndarray, labels: list[str]) -> list[str]:
    lines = []
    for i, row in enumerate(u):
        cells = []
        for c in row:
            re = 0.0 if abs(c.real) < 5e-13 else c.real
            im = 0.0 if abs(c.imag) < 5e-13 else c.imag
            if im == 0.0:
                cells.append(f"{re:+.3f}")
            else:
                cells.append(f"{re:+.3f}{im:+.3f}i")
        lines.append(f"  |{labels[i]}>  " + "  ".join(cells))
    return lines


def gates_bundle(report: dict, text_lines: list[str]) -> ReportBundle:
    bundle = ReportBundle("gates")
    bundle.add("gates_report.txt", ("\n".join(text_lines) + "\n").encode())
    bundle.add("gates.json", json_bytes(report))
    return bundle


# ---------------------------------------------------------------------------
# run command


def outcome_table_doc(table: protocol.OutcomeTable) -> dict:
    return {
        "n_ions": table.n_ions,
        "rows": [
            {
                "ions": row.ions,
                "photon_state": row.expression,
                "probability": row.probability,
                "amplitudes": [
                    [amp.real, amp.imag] for amp in row.photon_amplitudes
                ],
            }
            for row in table.rows
        ],
    }


def run_report_doc(report: protocol.RunReport) -> dict:
    notes = []
    if report.t1_s == 0.0:
        notes.append(
            "t1 (Hadamard + readout time) has no reference value and defaults "
            "to 0; set [protocol] t1_s to include measurement overhead"
        )
    if report.t0_compiled_s == report.t0_s:
        notes.append(
            "echo refocusing adds no delay time under the instantaneous-pulse "
            "idealization, so bare and compiled t0 coincide"
        )
    doc = {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.compare}
    doc["notes"] = notes
    return doc


def run_bundle(report: protocol.RunReport, fmt_choice: str) -> ReportBundle:
    bundle = ReportBundle("run")
    table = report.table
    if fmt_choice == "json":
        bundle.add("outcome_table.json", json_bytes(outcome_table_doc(table)))
    else:
        bundle.add("outcome_table.csv", csv_bytes(
            ["ions", "probability", "photon_state"],
            [[row.ions, row.probability, row.expression] for row in table.rows],
        ))
    bundle.add("run_report.json", json_bytes(run_report_doc(report)))
    return bundle
