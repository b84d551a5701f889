"""Output checks for every benchmark job, made from outside the program.

Nothing here imports ionphoton.  Each check recomputes what it verifies
from the job's own inputs (``Job.meta``) with numpy and closed forms:
the manifest hashes, the outcome-table structure and the Monte Carlo
counts (from numpy's ``SeedSequence`` rule, the documented substream
contract), the coupling matrix (from ``np.linalg.eigh`` of a Hessian
built from ``equilibrium.csv``), the CNOT fidelities and the emission
closed form.  A failed check raises ``CheckError``.
"""

import csv
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

from .workloads import G_FACTOR, H_MRAD_S, MASS_AMU, OMEGA_MRAD_S

# CODATA 2018, SI.
HBAR = 1.054571817e-34
MU_B = 9.2740100783e-24
E_CHARGE = 1.602176634e-19
EPSILON_0 = 8.8541878128e-12
AMU = 1.66053906660e-27
K_COULOMB = E_CHARGE**2 / (4.0 * math.pi * EPSILON_0)
MASS = MASS_AMU * AMU

FIDELITY_TOL = 1e-9
PROB_TOL = 1e-9
J_RTOL = 1e-9
CLOSED_FORM_RTOL = 1e-9
# Residual force allowed at equilibrium, relative to the Coulomb force at
# the trap spacing; 1e-6 keeps positions within about 1e-11 m.
FORCE_RTOL = 1e-6


class CheckError(Exception):
    """A job's output is wrong."""


def _require(ok, message: str):
    if not ok:
        raise CheckError(message)


def expected_files(kind: str, fmt: str) -> set:
    files = {
        "run": {"run_report.json", f"outcome_table.{fmt}"},
        "couplings": {"summary.csv", "equilibrium.csv", "modes.csv",
                      "mode_matrix.csv", "coupling_matrix.csv", "epsilon.csv"},
        "gates": {"gates_report.txt", "gates.json"},
        "emission": {"sweep.csv", "summary.csv"},
    }[kind]
    if fmt == "json" and kind == "couplings":
        files |= {"summary.json"}
    if fmt == "json" and kind == "emission":
        files |= {"sweep.json", "summary.json"}
    return files


def read_bundle(out: Path) -> dict:
    """Every file of a bundle, after checking it against ``manifest.json``."""
    manifest_path = out / "manifest.json"
    _require(manifest_path.is_file(), f"{out}: no manifest.json")
    manifest = json.loads(manifest_path.read_bytes())
    listed = manifest["files"]
    present = {p.name for p in out.iterdir()} - {"manifest.json"}
    _require(present == set(listed), f"{out}: files {sorted(present)} != manifest {sorted(listed)}")
    files = {}
    for name, entry in listed.items():
        data = (out / name).read_bytes()
        _require(len(data) == entry["bytes"], f"{out / name}: size differs from manifest")
        _require(hashlib.sha256(data).hexdigest() == entry["sha256"],
                 f"{out / name}: SHA-256 differs from manifest")
        files[name] = data
    files["manifest.json"] = manifest_path.read_bytes()
    return files


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _close(a, b, rtol, atol=0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= atol + rtol * np.abs(np.asarray(b))))


# ---------------------------------------------------------------------------
# emission closed forms (arrays of omega, kappa in rad/s)


def optimal_time(w, kappa):
    """First maximiser of P(t): tan(w't) = 2w'/kappa, tanh when overdamped."""
    w, kappa = np.broadcast_arrays(np.asarray(w, float), np.asarray(kappa, float))
    disc = w * w - kappa * kappa / 4.0
    wp = np.sqrt(np.abs(disc))
    with np.errstate(divide="ignore", invalid="ignore"):
        under = np.arctan(2.0 * wp / kappa) / wp
        over = np.arctanh(2.0 * wp / kappa) / wp
    tau = np.where(disc > 0, under, over)
    return np.where(kappa == 0.0, math.pi / (2.0 * w), tau)


def success_probability(w, kappa, tau):
    """exp(-kappa tau) sin^2(w' tau) (w/w')^2, w' = sqrt(w^2 - kappa^2/4)."""
    w, kappa, tau = (np.asarray(x, float) for x in (w, kappa, tau))
    wp = np.sqrt((w * w - kappa * kappa / 4.0).astype(complex))
    return np.exp(-kappa * tau) * np.abs(np.sin(wp * tau)) ** 2 / np.abs(wp) ** 2 * w * w


def effective_rabi(delta_mrad_s):
    return (OMEGA_MRAD_S * 1e6) * (H_MRAD_S * 1e6) / (np.asarray(delta_mrad_s, float) * 1e6)


def _check_emission_table(rows, w, kappa, label):
    tau = np.array([float(r["tau_star_s"]) for r in rows])
    p1 = np.array([float(r["p_single"]) for r in rows])
    p2 = np.array([float(r["p_pair"]) for r in rows])
    _require(_close(tau, optimal_time(w, kappa), CLOSED_FORM_RTOL),
             f"{label}: tau_star differs from the closed form")
    _require(_close(p1, success_probability(w, kappa, tau), CLOSED_FORM_RTOL, 1e-15),
             f"{label}: p_single differs from the closed form")
    _require(_close(p2, p1 * p1, 1e-12), f"{label}: p_pair != p_single^2")


def check_emission(job, files):
    meta = job.meta
    deltas = np.array(meta["deltas"], float)
    kappas = np.sort(np.linspace(0.0, meta["kappa_max"], meta["n_kappa"]) * 1e6)
    sweep = _csv_rows(files["sweep.csv"])
    _require(len(sweep) == len(deltas) * len(kappas), "sweep.csv: wrong row count")
    delta_col = np.array([float(r["delta_rad_s"]) for r in sweep])
    kappa_col = np.array([float(r["kappa_rad_s"]) for r in sweep])
    _require(_close(delta_col, np.repeat(deltas * 1e6, len(kappas)), 1e-12),
             "sweep.csv: detuning grid differs from the config")
    _require(_close(kappa_col, np.tile(kappas, len(deltas)), 1e-12),
             "sweep.csv: kappa grid differs from the config")
    _require(kappa_col.max() > 2.0 * effective_rabi(deltas).min(),
             "sweep.csv: grid never reaches the overdamped side")
    _check_emission_table(sweep, effective_rabi(delta_col / 1e6), kappa_col, "sweep.csv")

    summary = _csv_rows(files["summary.csv"])
    _require(len(summary) == len(deltas), "summary.csv: wrong row count")
    w = effective_rabi(deltas)
    _require(_close([float(r["omega_eff_rad_s"]) for r in summary], w, 1e-12),
             "summary.csv: effective Rabi rate differs")
    kappa = np.full(len(deltas), meta["setup_kappa"] * 1e6)
    _require(_close([float(r["kappa_rad_s"]) for r in summary], kappa, 1e-12),
             "summary.csv: kappa differs from the config")
    _check_emission_table(summary, w, kappa, "summary.csv")

    if meta["format"] == "json":
        for name, key, rows in (("sweep.json", "points", sweep),
                                ("summary.json", "curves", summary)):
            doc = json.loads(files[name])[key]
            as_csv = [{k: float(v) for k, v in r.items()} for r in rows]
            _require(doc == as_csv, f"{name}: differs from the CSV table")


# ---------------------------------------------------------------------------
# run


_PHOTON = r"(?:s\+|s0)"


def _balanced_state_re(n: int):
    ket = _PHOTON + "(?: " + _PHOTON + "){%d}" % (n - 1)
    return re.compile(r"^\(\+\|%s> [+-] \|%s>\)/sqrt2$" % (ket, ket))


def _ion_strings(n: int) -> set:
    return {"".join("eg"[(s >> (n - 1 - i)) & 1] for i in range(n)) for s in range(2**n)}


def sample_counts(seed: int, trials: int, p_total: float, cum) -> tuple[np.ndarray, int]:
    """Counts per outcome row, recomputed trial by trial from numpy's rule."""
    counts = np.zeros(len(cum), dtype=np.int64)
    failed = 0
    for k in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        if rng.random() >= p_total:
            failed += 1
            continue
        counts[int(np.searchsorted(cum, rng.random(), side="right"))] += 1
    return counts, failed


def check_run(job, files, recompute: bool = False):
    meta = job.meta
    n = meta["chain"]["n"]
    report = json.loads(files["run_report.json"])
    _require(report["trials"] == meta["trials"], "run_report: trial count differs from config")
    _require(report["seed"] == meta["seed"], "run_report: seed differs from config")
    counts = report["counts"]
    _require(set(counts) == _ion_strings(n), "run_report: counts do not cover 2^N ion strings")
    n_success = sum(counts.values())
    _require(n_success == report["n_success"], "run_report: n_success != sum of counts")
    _require(n_success + report["failed_emissions"] == meta["trials"],
             "run_report: counts + failed emissions != trials")

    w = effective_rabi(meta["detuning"])
    kappa = meta["kappa"] * 1e6
    p_ion = float(success_probability(w, kappa, optimal_time(w, kappa)))
    _require(len(report["per_ion_p"]) == n and _close(report["per_ion_p"], p_ion, CLOSED_FORM_RTOL),
             "run_report: per-ion success probability differs from the closed form")
    _require(_close(report["p_total"], math.prod(report["per_ion_p"]), 1e-12),
             "run_report: p_total != product of per-ion probabilities")

    if meta["format"] == "csv":
        rows = _csv_rows(files["outcome_table.csv"])
    else:
        rows = json.loads(files["outcome_table.json"])["rows"]
        for r in rows:
            mags = np.hypot(*np.array(r["amplitudes"], float).T)
            big = mags > 1e-9
            _require(len(mags) == 2**n and big.sum() == 2
                     and _close(mags[big], 1 / math.sqrt(2), 0, PROB_TOL),
                     f"outcome_table.json: row {r['ions']} is not a balanced two-term state")
    _require(len(rows) == 2**n and {r["ions"] for r in rows} == _ion_strings(n),
             "outcome table: rows do not cover 2^N ion strings")
    probs = np.array([float(r["probability"]) for r in rows])
    _require(_close(probs, 1.0 / 2**n, 0, PROB_TOL), "outcome table: probability != 1/2^N")
    pattern = _balanced_state_re(n)
    _require(all(pattern.match(r["photon_state"]) for r in rows),
             "outcome table: photon state is not a balanced two-term state")

    if recompute:
        cum = np.cumsum(probs)
        cum[-1] = max(cum[-1], 1.0)
        expect, failed = sample_counts(meta["seed"], meta["trials"], report["p_total"], cum)
        got = [counts[r["ions"]] for r in rows]
        _require(failed == report["failed_emissions"] and list(expect) == got,
                 "run_report: counts differ from the SeedSequence substream rule")


# ---------------------------------------------------------------------------
# couplings and gates


def coupling_from_positions(z, nu, dbdz) -> np.ndarray:
    """J from eigh of the chain Hessian at the given equilibrium positions."""
    z = np.asarray(z, float)
    nu = np.asarray(nu, float)
    dist = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(dist, np.inf)
    inv3 = 1.0 / dist**3
    hess = -2.0 * K_COULOMB * inv3
    np.fill_diagonal(hess, MASS * nu**2 + 2.0 * K_COULOMB * inv3.sum(axis=1))
    lam, vecs = np.linalg.eigh(hess)
    mode_freq = np.sqrt(lam / MASS)
    spread2 = HBAR / (2.0 * MASS * mode_freq)
    dw = G_FACTOR * MU_B * dbdz / HBAR
    j = (vecs * (dw * dw * spread2 / mode_freq)) @ vecs.T
    np.fill_diagonal(j, 0.0)
    return j


def check_couplings(job, files):
    cases = job.meta["cases"]
    eq_rows = _csv_rows(files["equilibrium.csv"])
    j_rows = _csv_rows(files["coupling_matrix.csv"])
    for label, chain in enumerate(cases, 1):
        n = chain["n"]
        eq = [r for r in eq_rows if r["case"] == str(label)]
        _require(len(eq) == n, f"equilibrium.csv: case {label} has {len(eq)} ions, want {n}")
        nu = np.array([float(r["trap_freq_rad_s"]) for r in eq])
        _require(_close(nu, np.array(chain["nu"]) * 1e6, 1e-12),
                 f"equilibrium.csv: case {label} trap frequencies differ from the config")
        z = np.array([float(r["position_m"]) for r in eq])
        centers = np.array([float(r["trap_center_m"]) for r in eq])
        _require(_close(np.diff(centers), chain["d_um"] * 1e-6, 1e-12),
                 f"equilibrium.csv: case {label} trap spacing differs from the config")
        gaps = z[:, None] - z[None, :]
        np.fill_diagonal(gaps, np.inf)
        force = MASS * nu**2 * (z - centers) - K_COULOMB * np.sum(np.sign(gaps) / gaps**2, axis=1)
        scale = K_COULOMB / (chain["d_um"] * 1e-6) ** 2
        _require(np.max(np.abs(force)) <= FORCE_RTOL * scale,
                 f"equilibrium.csv: case {label} positions are not in force balance")

        j = np.full((n, n), np.nan)
        np.fill_diagonal(j, 0.0)
        for r in (r for r in j_rows if r["case"] == str(label)):
            a, b = int(r["i"]) - 1, int(r["j"]) - 1
            _require(a < b and np.isnan(j[a, b]), f"coupling_matrix.csv: case {label} pair listed twice")
            j[a, b] = j[b, a] = float(r["j_rad_s"])
        _require(not np.isnan(j).any(), f"coupling_matrix.csv: case {label} misses a pair")
        _require(np.array_equal(j, j.T) and not np.diag(j).any(),
                 f"coupling_matrix.csv: case {label} J not symmetric with zero diagonal")
        expect = coupling_from_positions(z, nu, chain["dbdz"])
        _require(np.max(np.abs(j - expect)) <= J_RTOL * np.max(np.abs(expect)),
                 f"coupling_matrix.csv: case {label} J differs from the eigh recomputation")
    summary = _csv_rows(files["summary.csv"])
    _require([r["case"] for r in summary] == [str(k) for k in range(1, len(cases) + 1)],
             "summary.csv: case list differs from the config")


def check_gates(job, files):
    n = job.meta["chain"]["n"]
    report = json.loads(files["gates.json"])
    for key in ("fidelity_product_vs_g_active", "fidelity_variant_vs_e_active"):
        _require(report[key] >= 1.0 - FIDELITY_TOL, f"gates.json: {key} = {report[key]!r}")
    cnots = report["refocused_cnots"]
    _require([c["target"] for c in cnots] == list(range(2, n + 1)),
             "gates.json: refocused CNOTs do not cover targets 2..N")
    for c in cnots:
        _require(c["fidelity"] >= 1.0 - FIDELITY_TOL,
                 f"gates.json: CNOT 1->{c['target']} fidelity {c['fidelity']!r}")
        _require(c["duration_s"] > 0, f"gates.json: CNOT 1->{c['target']} has no duration")


def check_job(job, out: Path, recompute: bool = False) -> dict:
    """Check one job's bundle; returns its files.  Raises CheckError."""
    files = read_bundle(out)
    fmt = job.meta.get("format", "csv")
    _require(set(files) - {"manifest.json"} == expected_files(job.kind, fmt),
             f"{out}: unexpected file set {sorted(files)}")
    _require(json.loads(files["manifest.json"])["command"] == job.kind,
             f"{out}: manifest names the wrong command")
    if job.kind == "run":
        check_run(job, files, recompute)
    elif job.kind == "couplings":
        check_couplings(job, files)
    elif job.kind == "gates":
        check_gates(job, files)
    else:
        check_emission(job, files)
    return files
