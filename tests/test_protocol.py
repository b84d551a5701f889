"""End-to-end pipeline, outcome tables, sampling, timing and rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from ionphoton import cavity, crystal, gates, protocol, reports
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
    cnots = gates.cnots_from_first(coupling.J, cfg.cnot_active_on)
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


def assert_counts_match_the_oracle(cfg, trials):
    """sample_run's counts and failed emissions equal the trial-by-trial loop's."""
    report = protocol.sample_run(cfg, trials)
    cum = np.cumsum([row.probability for row in report.table.rows])
    cum[-1] = max(cum[-1], 1.0)
    counts, failed = oracles.sampled_counts(cfg.seed, trials, report.p_total, cum)
    assert report.failed_emissions == failed
    assert list(report.counts.values()) == counts.tolist()
    return report


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**128 - 1),
    trials=st.integers(1, 3 * protocol.TRIAL_CHUNK),
    p_total=st.sampled_from([0.0, 0.37, 1.0]),
)
def test_sampled_counts_match_a_trial_by_trial_loop(seed, trials, p_total):
    cfg = make_config(2, seed=seed, collection_efficiency=math.sqrt(p_total))
    assert_counts_match_the_oracle(cfg, trials)


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
        cfg = make_config(3, setup=lossy_cavity(), seed=2**64 + 5)
        report = assert_counts_match_the_oracle(cfg, protocol.TRIAL_CHUNK + offset)
        assert 0 < report.failed_emissions < report.trials

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("efficiency", [1.0, 0.0])
    def test_sure_and_impossible_emission_match_a_trial_by_trial_loop(self, efficiency, offset):
        # p_total 1 keeps every second draw, p_total 0 none
        cfg = make_config(2, seed=2**64 + 2**40 + 9, collection_efficiency=efficiency)
        report = assert_counts_match_the_oracle(cfg, protocol.TRIAL_CHUNK + offset)
        assert report.p_total == efficiency
        assert report.n_success == (report.trials if efficiency else 0)

    def test_first_draw_equal_to_p_total_fails_emission(self):
        # the rule is u1 < p_total; p_total = efficiency**2 is set to one trial's u1
        seed = 2**64 + 17
        u1 = [oracles.trial_rng(seed, k).random() for k in range(64)]
        k, eff = next((k, math.sqrt(u)) for k, u in enumerate(u1)
                      if math.sqrt(u) * math.sqrt(u) == u)
        cfg = make_config(2, seed=seed, collection_efficiency=eff)
        report = assert_counts_match_the_oracle(cfg, k + 1)
        assert report.p_total == u1[k]

    def test_trial_count_is_capped(self):
        cfg = make_config(2)
        with pytest.raises(DomainError, match="trials"):
            protocol.sample_run(cfg, protocol.MAX_TRIALS + 1)
        with pytest.raises(DomainError, match="trials"):
            protocol.sample_run(cfg, 0)

    def test_trial_cap_is_inclusive(self, monkeypatch):
        # a run of MAX_TRIALS trials is allowed; at 2**32 it is too slow to run here
        monkeypatch.setattr(protocol, "MAX_TRIALS", 10)
        assert protocol.sample_run(make_config(2), 10).trials == 10
        with pytest.raises(DomainError, match="trials"):
            protocol.sample_run(make_config(2), 11)

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
    table = protocol.outcome_table(protocol.entangle_stage(gates.cnots_from_first(j), j))
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


@pytest.mark.parametrize("active_on", ["e", "g"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_table_is_bit_identical_to_the_row_by_row_oracle(n, active_on):
    u = entangled(make_config(n, cnot_active_on=active_on))
    table = protocol.outcome_table(u)
    for row, (ions, photon, expression, probability) in zip(
        table.rows, oracles.outcome_rows_by_row(u), strict=True
    ):
        assert (row.ions, row.expression) == (ions, expression)
        assert type(row.probability) is float and row.probability == probability
        assert row.photon_amplitudes.tobytes() == photon.tobytes()


def test_array_classification_matches_the_row_by_row_oracle():
    rng = np.random.default_rng(17)
    dim = 16
    table = rng.normal(size=(40, dim)) + 1j * rng.normal(size=(40, dim))
    table[0] = 0.0                                   # the zero row prints "0"
    for r in range(1, 30):                           # pairs and near-pairs
        table[r] = 0.0
        i, j = rng.choice(dim, size=2, replace=False)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        mags = (1 / SQ2, 1 / SQ2) if r < 20 else (0.8, 0.6)
        table[r, i] = mags[0] * phase * rng.choice([1, -1, 1j])
        table[r, j] = mags[1] * phase
        if r % 5 == 0:
            table[r, (i + 1) % dim if (i + 1) % dim != j else (i + 2) % dim] = 1e-12
    expressions = protocol._photon_states(table)
    assert expressions == [oracles.photon_state_by_row(row) for row in table]
    assert expressions[0] == "0"
    assert sum(e.endswith("/sqrt2") for e in expressions) >= 10
    assert expressions == [protocol.format_photon_state(row) for row in table]


# outcome_table.json: the template writer against json.dumps of the document


@pytest.mark.parametrize("setup", [None, lossy_cavity()], ids=["ideal", "lossy"])
@pytest.mark.parametrize("active_on", ["e", "g"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_writer_matches_json_dumps_on_run_tables(n, active_on, setup):
    cfg = make_config(n, setup=setup, cnot_active_on=active_on)
    table = protocol.sample_run(cfg, 1).table
    expected = reports.json_bytes(oracles.outcome_table_doc(table))
    assert reports.outcome_table_json(table) == expected


def test_writer_matches_json_dumps_on_edge_values():
    fallback = protocol.format_photon_state(np.array([0.8, 0.6j, 0.0, 0.0]))
    assert "sqrt2" not in fallback
    rows = (
        protocol.OutcomeRow(
            ions="ee",
            photon_amplitudes=np.array([complex(-0.0, 5e-324), complex(1e-17, 1e16),
                                        complex(0.8, -0.0), 0.6]),
            expression=fallback,
            probability=1e16,
        ),
        protocol.OutcomeRow(
            ions="eg",
            photon_amplitudes=np.array([1.5e-323, -1e-17j, -0.0, 123456789.0 + 0j]),
            expression='a "quoted" \\ é string',
            probability=-0.0,
        ),
    )
    table = protocol.OutcomeTable(n_ions=2, rows=rows)
    expected = reports.json_bytes(oracles.outcome_table_doc(table))
    assert b"1e+16" in expected and b"5e-324" in expected and b"-0.0" in expected
    assert reports.outcome_table_json(table) == expected

    # magnitudes repeated with both signs, ±0.0 and subnormals in one row
    signed = protocol.OutcomeRow(
        ions="gg",
        photon_amplitudes=np.array([complex(0.0, -0.0), complex(-0.0, 0.0),
                                    complex(5e-324, -5e-324), complex(-2.5e-310, 2.5e-310)]),
        expression="0",
        probability=5e-324,
    )
    table = protocol.OutcomeTable(n_ions=2, rows=(signed, *rows))
    expected = reports.json_bytes(oracles.outcome_table_doc(table))
    assert b"-5e-324" in expected and b"-2.5e-310" in expected and b"-0.0" in expected
    assert reports.outcome_table_json(table) == expected
