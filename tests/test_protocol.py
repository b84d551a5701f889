"""End-to-end pipeline, outcome tables, sampling, timing and rates."""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from ionphoton import cavity, crystal, gates, protocol
from ionphoton.errors import DomainError, UncompilableError

import oracles

SQ2 = math.sqrt(2.0)
YB = crystal.IonSpecies()


def ideal_cavity():
    return cavity.CavitySetup(10e6, 138e6, 0.1e6, 0.0)


def lossy_cavity():
    return cavity.CavitySetup(10e6, 138e6, 0.1e6, 960e6)


def make_config(n_ions, setup=None, **kwargs):
    if setup is None:
        setup = ideal_cavity()
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
        setup=setup, **kwargs,
    )


def entangled(cfg, coupling=None):
    """Ion unitary of the entangling stage over the chain's couplings."""
    if coupling is None:
        coupling = protocol.chain_coupling(cfg)
    cnots = [
        gates.cnot_sequence(coupling.J, 0, t, active_on=cfg.cnot_active_on)
        for t in range(1, cfg.n_ions)
    ]
    return protocol.entangle_stage(cnots, coupling.J)


class TestEmission:
    def test_ideal_cavities_succeed_surely(self):
        probs = protocol.emission_stage(make_config(2))
        assert probs == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_reference_pair_probability(self):
        probs = protocol.emission_stage(make_config(2, setup=lossy_cavity()))
        assert math.prod(probs) == pytest.approx(0.807482, abs=1e-6)

    @pytest.mark.parametrize("setup", [ideal_cavity(), lossy_cavity()], ids=["ideal", "lossy"])
    def test_run_probability_is_the_sweep_probability(self, setup):
        report = protocol.sample_run(make_config(2, setup=setup), 10)
        row = cavity.fig2_sweep(setup.omega_laser, setup.g_cav, [setup.detuning], [setup.kappa])[0]
        assert report.per_ion_p == (row.p_single, row.p_single)

    def test_collection_efficiency_scales_probability(self):
        cfg = make_config(2, collection_efficiency=0.5)
        probs = protocol.emission_stage(cfg)
        assert probs == pytest.approx([0.5, 0.5], abs=1e-12)


class TestEntangle:
    def test_two_ion_state_matches_hand_expansion(self):
        u = entangled(make_config(2))
        expected = oracles.hand_table_state(oracles.TWO_PHOTON_TABLE, 2)
        assert np.max(np.abs(u / 2 - expected)) < 1e-10

    def test_three_ion_state_matches_hand_expansion(self):
        u = entangled(make_config(3))
        expected = oracles.hand_table_state(oracles.THREE_PHOTON_TABLE, 3)
        assert np.max(np.abs(u / 2**1.5 - expected)) < 1e-10

    def test_compiled_equals_ideal_gates(self):
        cfg = make_config(3)
        a = entangled(cfg, protocol.chain_coupling(cfg))
        b = oracles.ideal_entangle(3, cfg.cnot_active_on)
        assert np.linalg.norm(a - b) < 1e-9

    def test_g_polarity_differs(self):
        a = entangled(make_config(2, cnot_active_on="e"))
        b = entangled(make_config(2, cnot_active_on="g"))
        assert np.max(np.abs(a - b)) > 0.1

    def test_zero_coupling_uncompilable(self):
        cfg = make_config(2)
        cfg = protocol.ExperimentConfig(
            species=cfg.species, traps=cfg.traps,
            gradient=crystal.FieldGradient(0.0), setup=cfg.setup,
        )
        with pytest.raises(UncompilableError):
            protocol.sample_run(cfg, 1)


class TestOutcomeTable:
    def setup_method(self):
        self.table2 = protocol.outcome_table(entangled(make_config(2)))
        self.table3 = protocol.outcome_table(entangled(make_config(3)))
        self.rows2 = {row.ions: row for row in self.table2.rows}
        self.rows3 = {row.ions: row for row in self.table3.rows}

    def test_row_count_and_uniform_probabilities(self):
        assert len(self.table2.rows) == 4
        assert len(self.table3.rows) == 8
        for table in (self.table2, self.table3):
            n = len(table.rows)
            for row in table.rows:
                assert row.probability == pytest.approx(1.0 / n, abs=1e-12)
            assert sum(r.probability for r in table.rows) == pytest.approx(1.0, abs=1e-12)

    def test_expected_expressions(self):
        assert self.rows2["gg"].expression == "(+|s+ s+> + |s0 s0>)/sqrt2"
        assert self.rows2["ee"].expression == "(+|s0 s+> - |s+ s0>)/sqrt2"
        assert self.rows3["gee"].expression == "(+|s+ s0 s0> + |s0 s+ s+>)/sqrt2"
        assert self.rows3["gee"].probability == pytest.approx(1 / 8, abs=1e-12)

    def test_rows_match_hand_tables(self):
        for rows, hand in (
            (self.rows2, oracles.TWO_PHOTON_TABLE),
            (self.rows3, oracles.THREE_PHOTON_TABLE),
        ):
            for ions, pattern in hand.items():
                row = rows[ions]
                expected = np.zeros(len(row.photon_amplitudes))
                for label, sign in pattern.items():
                    expected[oracles.photon_pattern_index(label)] = sign / SQ2
                assert np.max(np.abs(row.photon_amplitudes - expected)) < 1e-10

    def test_photon_states_maximally_entangled(self):
        for table, n in ((self.table2, 2), (self.table3, 3)):
            for row in table.rows:
                mat = row.photon_amplitudes.reshape(2, 2 ** (n - 1))
                svals = np.linalg.svd(mat, compute_uv=False)
                assert np.allclose(svals, 1 / SQ2, atol=1e-10)

    def test_three_photon_states_orthonormal(self):
        vecs = np.array([row.photon_amplitudes for row in self.table3.rows])
        gram = vecs.conj() @ vecs.T
        assert np.max(np.abs(gram - np.eye(8))) < 1e-10


class TestSampling:
    def test_deterministic_given_seed(self):
        cfg = make_config(2, seed=42)
        a = protocol.sample_run(cfg, 500)
        b = protocol.sample_run(cfg, 500)
        assert a.counts == b.counts
        assert a.frequencies == b.frequencies
        assert a.per_ion_p == b.per_ion_p

    def test_different_seeds_differ(self):
        a = protocol.sample_run(make_config(2, seed=1), 500)
        b = protocol.sample_run(make_config(2, seed=2), 500)
        assert a.counts != b.counts

    def test_ideal_emission_never_fails(self):
        report = protocol.sample_run(make_config(2, seed=7), 2000)
        assert report.failed_emissions == 0
        assert report.n_success == 2000
        assert sum(report.counts.values()) == 2000
        assert all(report.within_3sigma.values())

    def test_zero_collection_never_succeeds(self):
        cfg = make_config(2, seed=3, collection_efficiency=0.0)
        report = protocol.sample_run(cfg, 200)
        assert report.n_success == 0
        assert report.failed_emissions == 200

    def test_lossy_failure_fraction(self):
        cfg = make_config(2, setup=lossy_cavity(), seed=11)
        report = protocol.sample_run(cfg, 4000)
        assert report.p_total == pytest.approx(0.807482, abs=1e-6)
        frac = report.n_success / report.trials
        assert abs(frac - report.p_total) < 3 * math.sqrt(0.807 * 0.193 / 4000)

    def test_chi_square_uniformity(self):
        cfg = make_config(2, seed=123)
        report = protocol.sample_run(cfg, 20000)
        expected = report.n_success / 4
        stat = sum((c - expected) ** 2 / expected for c in report.counts.values())
        assert stat <= chi2.ppf(0.999, df=3)

    def test_trial_substream_rule(self):
        # the documented rule: substream k = SeedSequence(entropy=seed, spawn_key=(k,))
        rng = oracles.trial_rng(99, 5)
        expected = np.random.default_rng(
            np.random.SeedSequence(entropy=99, spawn_key=(5,))
        )
        assert rng.random() == expected.random()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_counts_match_a_trial_by_trial_loop(self, offset):
        # around one sampler block, with failed emissions in the mix
        trials = protocol.TRIAL_CHUNK + offset
        cfg = make_config(3, setup=lossy_cavity(), seed=2**64 + 5)
        report = protocol.sample_run(cfg, trials)
        cum = np.cumsum([row.probability for row in report.table.rows])
        cum[-1] = max(cum[-1], 1.0)
        counts, failed = oracles.sampled_counts(cfg.seed, trials, report.p_total, cum)
        assert 0 < report.failed_emissions == failed
        assert list(report.counts.values()) == counts.tolist()

    def test_trial_count_is_capped(self):
        cfg = make_config(2)
        with pytest.raises(DomainError, match="trials"):
            protocol.sample_run(cfg, protocol.MAX_TRIALS + 1)
        with pytest.raises(DomainError, match="trials"):
            protocol.sample_run(cfg, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            make_config(2, seed=-1)


class TestTimingAndRates:
    def test_formula(self):
        assert protocol.timing_estimate(5, 1e-3, 0.5e-3) == pytest.approx(4.5e-3)
        assert protocol.timing_estimate(2, 0.0, 0.0) == 0.0

    def test_reference_cnot_time(self):
        t0 = math.pi / (2 * 6328.0)
        assert t0 == pytest.approx(2.48e-4, rel=2e-3)
        assert protocol.timing_estimate(2, t0, 0.0) == pytest.approx(t0)

    def test_default_time_from_couplings(self):
        cfg = make_config(2)
        report = protocol.sample_run(cfg, 10)
        bare = math.pi / (2 * protocol.chain_coupling(cfg).J[0, 1])
        assert report.t0_s == report.t0_compiled_s
        assert report.t0_s == pytest.approx(bare, rel=1e-12)

    def test_success_rates(self):
        per_state, any_state = protocol.success_rate(5, [1.0] * 5)
        assert per_state == pytest.approx(1 / 32)
        assert any_state == 1.0
        per_state, _ = protocol.success_rate(2, [1.0, 1.0])
        assert per_state == pytest.approx(1 / 4)
        per_state, _ = protocol.success_rate(2, [0.899, 0.899])
        assert per_state == pytest.approx(0.202, abs=5e-4)

    def test_bad_probability_rejected(self):
        with pytest.raises(DomainError):
            protocol.success_rate(2, [1.2, 0.5])

    def test_report_carries_timing(self):
        report = protocol.sample_run(make_config(2, seed=5, t1=1e-3), 50)
        assert report.timing_s == pytest.approx(report.t0_s + 1e-3)
        assert report.t0_compiled_s == pytest.approx(report.t0_s, rel=1e-12)


class TestExpressionFormat:
    def test_balanced_two_term(self):
        amps = np.zeros(4)
        amps[1] = -1 / SQ2
        amps[2] = 1 / SQ2
        assert protocol.format_photon_state(amps) == "(+|s0 s+> - |s+ s0>)/sqrt2"

    def test_global_phase_removed(self):
        amps = np.zeros(4, complex)
        amps[0] = 1j / SQ2
        amps[3] = 1j / SQ2
        assert protocol.format_photon_state(amps) == "(+|s+ s+> + |s0 s0>)/sqrt2"

    def test_generic_fallback(self):
        amps = np.array([0.8, 0.6, 0.0, 0.0])
        out = protocol.format_photon_state(amps)
        assert "sqrt2" not in out
        assert "|s+ s+>" in out and "|s+ s0>" in out

    def test_zero_state(self):
        assert protocol.format_photon_state(np.zeros(4)) == "0"


@pytest.mark.parametrize("n", [4, 6])
def test_larger_registers_stay_uniform(n):
    cfg = make_config(n)
    u = entangled(cfg) if n == 4 else oracles.ideal_entangle(n, cfg.cnot_active_on)
    table = protocol.outcome_table(u)
    assert len(table.rows) == 2**n
    for row in table.rows:
        assert row.probability == pytest.approx(1.0 / 2**n, abs=1e-12)
        mat = row.photon_amplitudes.reshape(2, 2 ** (n - 1))
        svals = np.linalg.svd(mat, compute_uv=False)
        assert np.allclose(svals, 1 / SQ2, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rows_match_ideal_oracle_for_random_couplings(n):
    rng = np.random.default_rng(40 + n)
    j = rng.uniform(0.5, 3.0, size=(n, n)) * 1e3
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    cnots = [gates.cnot_sequence(j, 0, t) for t in range(1, n)]
    table = protocol.outcome_table(protocol.entangle_stage(cnots, j))
    ideal = oracles.ideal_entangle(n, "e")
    for s, row in enumerate(table.rows):
        assert np.max(np.abs(row.photon_amplitudes - ideal[s])) < 1e-9


class TestFivePhotonCase:
    def test_n5_uniform_table_and_rates(self):
        cfg = make_config(5)
        probs = protocol.emission_stage(cfg)
        table = protocol.outcome_table(oracles.ideal_entangle(5, cfg.cnot_active_on))
        assert len(table.rows) == 32
        for row in table.rows:
            assert row.probability == pytest.approx(1 / 32, abs=1e-12)
        per_state, _ = protocol.success_rate(5, probs)
        assert per_state == pytest.approx(1 / 32, abs=1e-12)
