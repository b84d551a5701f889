"""Conditional emission dynamics, optimal times, success rates, scaling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionphoton import cavity
from ionphoton.errors import DomainError

import oracles

W_REF = 13800e6    # rad/s, reference effective Rabi rate
K_REF = 960e6      # rad/s, reference cavity decay


def reference_setup(kappa=K_REF):
    return cavity.CavitySetup(10e6, 138e6, 0.1e6, kappa)


class TestEffectiveRabi:
    def test_reference_values(self):
        assert cavity.effective_rabi(10e6, 138e6, 0.1e6) == pytest.approx(W_REF, rel=1e-12)
        assert reference_setup().omega_eff == cavity.effective_rabi(10e6, 138e6, 0.1e6)

    def test_zero_laser(self):
        assert cavity.effective_rabi(0.0, 138e6, 0.1e6) == 0.0

    def test_linear_in_inverse_detuning(self):
        a = cavity.effective_rabi(10e6, 138e6, 0.1e6)
        b = cavity.effective_rabi(10e6, 138e6, 0.2e6)
        assert a == pytest.approx(2.0 * b, rel=1e-12)

    def test_zero_detuning_rejected(self):
        with pytest.raises(DomainError):
            cavity.effective_rabi(10e6, 138e6, 0.0)


class TestConditionalEvolution:
    def test_zero_time_is_identity(self):
        u = cavity._sector_propagator(W_REF, K_REF, 0.0)
        assert np.allclose(u, np.eye(2), atol=1e-15)

    def test_lossless_half_oscillation(self):
        w = reference_setup(kappa=0.0).omega_eff
        out = cavity._sector_propagator(w, 0.0, math.pi / (2 * w)) @ np.array([1, 0], complex)
        assert abs(out[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(out[0]) < 1e-12

    @pytest.mark.parametrize("ratio", [0.0, 0.1, 1.0, 3.0])
    def test_matches_independent_integrator(self, ratio):
        w = W_REF
        kappa = ratio * w
        tau_ref = cavity.optimal_emission_time(w, kappa)
        horizon = 5.0 * tau_ref
        for frac in (0.1, 0.35, 0.62, 1.0):
            t = horizon * frac
            oracle = oracles.rk4_sector_amplitudes(w, kappa, t)
            prop = cavity._sector_propagator(w, kappa, t)
            ours = prop @ np.array([1.0, 0.0], complex)
            scale = max(1.0, np.max(np.abs(oracle)))
            assert np.max(np.abs(ours - oracle)) / scale < 1e-8

    def test_closed_form_damped_amplitude(self):
        # b(t) = -i (w/w') exp(-kappa t/2) sin(w' t)
        w, kappa = W_REF, K_REF
        wp = math.sqrt(w * w - kappa * kappa / 4.0)
        for t in (1e-11, 5e-11, 1.114e-10, 4e-10):
            expected = -1j * (w / wp) * math.exp(-kappa * t / 2) * math.sin(wp * t)
            got = cavity.photon_amplitude(w, kappa, t)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_norm_monotone_in_time(self):
        start = np.array([1, 0], complex)
        for kappa in (0.0, 0.1 * W_REF, 3.0 * W_REF):
            times = np.linspace(0.0, 8e-10, 60)
            norms = [
                np.sum(np.abs(cavity._sector_propagator(W_REF, kappa, t) @ start) ** 2)
                for t in times
            ]
            diffs = np.diff(norms)
            assert np.all(diffs <= 1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            cavity.success_probability(W_REF, K_REF, -1.0)


class TestOptimalTime:
    def test_lossless_limit(self):
        assert cavity.optimal_emission_time(W_REF, 0.0) == pytest.approx(
            math.pi / (2 * W_REF), rel=1e-14
        )

    def test_reference_point(self):
        wp = math.sqrt(W_REF**2 - K_REF**2 / 4)
        tau = cavity.optimal_emission_time(W_REF, K_REF)
        assert wp * tau == pytest.approx(math.atan(2 * wp / K_REF), rel=1e-12)
        assert tau == pytest.approx(1.1137e-10, rel=1e-3)

    def test_is_local_maximum(self):
        tau = cavity.optimal_emission_time(W_REF, K_REF)
        p_star = cavity.success_probability(W_REF, K_REF, tau)
        assert p_star >= cavity.success_probability(W_REF, K_REF, tau * (1 + 1e-3))
        assert p_star >= cavity.success_probability(W_REF, K_REF, tau * (1 - 1e-3))

    def test_first_maximum_beats_later_ones(self):
        wp = math.sqrt(W_REF**2 - K_REF**2 / 4)
        tau = cavity.optimal_emission_time(W_REF, K_REF)
        later = tau + math.pi / wp
        assert cavity.success_probability(W_REF, K_REF, tau) > cavity.success_probability(
            W_REF, K_REF, later
        )

    @pytest.mark.parametrize("ratio", [0.05, 0.5, 1.0, 1.99, 2.0, 2.5, 10.0])
    def test_matches_dense_scan(self, ratio):
        w = 1.0e7
        kappa = ratio * w
        tau = cavity.optimal_emission_time(w, kappa)
        scan = oracles.dense_scan_argmax(w, kappa)
        assert tau == pytest.approx(scan, rel=1e-6)

    def test_overdamped_current_experiment_numbers(self):
        # kappa far above the effective rate still has a finite optimum
        w = cavity.effective_rabi(0.02e6, 0.02e6, 0.1e6)
        kappa = 0.64e6
        tau = cavity.optimal_emission_time(w, kappa)
        assert math.isfinite(tau) and tau > 0
        p = cavity.success_probability(w, kappa, tau)
        assert p < 0.01

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(DomainError):
            cavity.optimal_emission_time(0.0, K_REF)


class TestSuccessProbability:
    def test_lossless_unit_probability(self):
        tau = math.pi / (2 * W_REF)
        assert cavity.success_probability(W_REF, 0.0, tau) == pytest.approx(1.0, abs=1e-12)

    def test_zero_time(self):
        assert cavity.success_probability(W_REF, K_REF, 0.0) == 0.0

    def test_reference_optimum(self):
        # frozen from the closed form at the tan-condition root:
        # P* = exp(-kappa tau*) = 0.898600, pair 0.807482 (reference values
        # quote the rounded 0.899 and 0.81)
        tau = cavity.optimal_emission_time(W_REF, K_REF)
        p = cavity.success_probability(W_REF, K_REF, tau)
        assert p == pytest.approx(0.898600, abs=1e-6)
        assert p == pytest.approx(0.899, abs=1e-3)
        assert p * p == pytest.approx(0.807482, abs=1e-6)
        assert p * p == pytest.approx(0.81, abs=5e-3)

    def test_agrees_with_closed_form_and_propagator(self):
        for ratio in (0.0, 0.1, 1.0, 3.0):
            kappa = ratio * W_REF
            for t in (0.0, 3e-11, 1.1e-10, 5e-10):
                p = cavity.success_probability(W_REF, kappa, t)
                assert p == pytest.approx(oracles.damped_rabi_probability(W_REF, kappa, t), abs=1e-10)
                evolved = cavity._sector_propagator(W_REF, kappa, t) @ np.array([1, 0], complex)
                assert p == pytest.approx(abs(evolved[1]) ** 2, abs=1e-10)


class TestScaling:
    def test_anchor(self):
        h, kappa = cavity.scale_cavity(10e-6)
        assert h == pytest.approx(138.4e6, rel=1e-12)
        assert kappa == pytest.approx(960e6, rel=1e-12)

    def test_power_laws(self):
        h0, k0 = cavity.scale_cavity(10e-6)
        h, kappa = cavity.scale_cavity(16 * 10e-6)
        assert kappa == pytest.approx(k0 / 16, rel=1e-12)
        assert h == pytest.approx(h0 / 8, rel=1e-12)

    def test_160_micron_point(self):
        h, kappa = cavity.scale_cavity(160e-6)
        assert h == pytest.approx(17.3e6, rel=1e-3)
        assert kappa == pytest.approx(60e6, rel=1e-12)

    def test_custom_anchor(self):
        h, kappa = cavity.scale_cavity(2e-3, anchor=(1e-3, 50e6, 10e6))
        assert kappa == pytest.approx(5e6, rel=1e-12)
        assert h == pytest.approx(50e6 * 2 ** (-0.75), rel=1e-12)

    def test_bad_radius(self):
        with pytest.raises(DomainError):
            cavity.scale_cavity(0.0)


class TestSweep:
    def test_low_detuning_stays_near_unity(self):
        # At the optimum P = exp(-kappa tau*) exactly; for delta = 1e-3
        # (1e6 rad/s units) the curve bottoms out at 0.9988626 when kappa
        # reaches 1e9 rad/s -- near unity, though it dips below 0.999 for
        # kappa > 8.79e8 rad/s (see the acceptance notes).
        rows = cavity.fig2_sweep(10e6, 138e6, [0.001e6], np.linspace(0.0, 1e9, 21))
        p_min = min(r.p_single for r in rows)
        assert p_min >= 0.9988
        last = rows[-1]
        assert last.p_single == pytest.approx(
            math.exp(-last.kappa * last.tau_star), rel=1e-12
        )
        assert last.p_single == pytest.approx(0.9988626515, abs=1e-9)

    def test_zero_kappa_column_is_unity(self):
        rows = cavity.fig2_sweep(10e6, 138e6, [0.1e6, 0.5e6], [0.0, 1e8])
        for r in rows:
            if r.kappa == 0.0:
                assert r.p_single == pytest.approx(1.0, abs=1e-12)

    def test_curve_ordering_in_detuning(self):
        deltas = [0.1e6, 0.25e6, 0.5e6, 1.0e6]
        kappas = np.linspace(0.0, 1e9, 11)
        rows = cavity.fig2_sweep(10e6, 138e6, deltas, kappas)
        by_kappa = {}
        for r in rows:
            by_kappa.setdefault(r.kappa, []).append((r.delta, r.p_single))
        for kappa, pairs in by_kappa.items():
            if kappa == 0.0:
                continue
            ps = [p for _, p in sorted(pairs)]
            assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_monotone_in_kappa(self):
        rows = cavity.fig2_sweep(10e6, 138e6, [0.25e6], np.linspace(0.0, 1e9, 41))
        ps = [r.p_single for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))

    def test_row_order_outer_delta_inner_kappa(self):
        rows = cavity.fig2_sweep(10e6, 138e6, [0.5e6, 0.1e6], [2e8, 0.0, 1e8])
        assert [r.delta for r in rows] == [0.5e6] * 3 + [0.1e6] * 3
        assert [r.kappa for r in rows] == [0.0, 1e8, 2e8] * 2

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            cavity.fig2_sweep(10e6, 138e6, [], [0.0])


@given(
    w_scale=st.floats(min_value=0.1, max_value=10.0),
    ratio=st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=30, deadline=None)
def test_probability_bounded_and_tau_is_argmax(w_scale, ratio):
    w = w_scale * 1e7
    kappa = ratio * w
    tau = cavity.optimal_emission_time(w, kappa)
    p = cavity.success_probability(w, kappa, tau)
    assert 0.0 <= p <= 1.0
    for bump in (0.97, 1.03):
        assert p >= cavity.success_probability(w, kappa, tau * bump) - 1e-12
