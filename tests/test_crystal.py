"""Chain statics, normal modes, couplings and sidebands."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionphoton import crystal
from ionphoton.constants import HBAR, K_COULOMB, KRAD_S, MICRON, MRAD_S
from ionphoton.errors import DomainError, InstabilityError, SolverError

import oracles

YB = crystal.IonSpecies()

TABLE1 = [
    # d_um, nu_Mrad_s, dBdz, delta_um, h_um, eps_max, j_kHz
    (6.0, 5.55, 550.0, 0.521, 7.042, 7.066e-2, 6.328),
    (7.0, 4.50, 400.0, 0.588, 8.176, 7.038e-2, 4.980),
    (8.0, 3.75, 300.0, 0.653, 9.307, 6.939e-2, 3.959),
    (9.0, 3.30, 250.0, 0.681, 10.362, 7.005e-2, 3.370),
    (10.0, 2.35, 150.0, 1.001, 12.001, 6.994e-2, 2.875),
]

TABLE2 = [
    # d_um, nu1, nu2, dBdz, delta_um, h_um, eps_max, j12_kHz, j13_kHz
    (6.0, 2.75, 7.75, 240.0, 2.037, 8.037, 6.994e-2, 1.455, 1.448),
    (7.0, 2.55, 7.25, 210.0, 1.922, 8.922, 7.048e-2, 1.141, 1.149),
    (8.0, 2.05, 5.80, 150.0, 2.252, 10.25, 6.962e-2, 0.922, 0.922),
    (9.0, 1.45, 4.10, 90.0, 3.186, 12.19, 6.810e-2, 0.747, 0.747),
    (10.0, 1.20, 3.40, 70.0, 3.688, 13.69, 6.996e-2, 0.670, 0.672),
]


def two_ion_traps(d_um, nu_mrad):
    return crystal.uniform_traps(2, d_um * MICRON, nu_mrad * MRAD_S)


def three_ion_traps(d_um, nu1, nu2):
    return crystal.uniform_traps(
        3, d_um * MICRON, [nu1 * MRAD_S, nu2 * MRAD_S, nu1 * MRAD_S]
    )


class TestEquilibrium:
    def test_single_ion_sits_at_center(self):
        traps = crystal.TrapArray((3e-6,), (2.0e6,))
        eq = crystal.solve_equilibrium(traps, YB)
        assert eq.deviations[0] == 0.0
        assert eq.positions[0] == 3e-6
        assert eq.gaps.size == 0

    @pytest.mark.parametrize("row", [TABLE1[0], TABLE1[4]])
    def test_two_ion_reference_rows(self, row):
        d, nu, _, delta_ref, h_ref, _, _ = row
        eq = crystal.solve_equilibrium(two_ion_traps(d, nu), YB)
        assert abs(eq.deviations[1]) / MICRON == pytest.approx(delta_ref, rel=0.05)
        assert eq.gaps[0] / MICRON == pytest.approx(h_ref, rel=0.05)

    def test_three_ion_middle_stays_centered(self):
        d, nu1, nu2 = TABLE2[0][:3]
        eq = crystal.solve_equilibrium(three_ion_traps(d, nu1, nu2), YB)
        assert abs(eq.deviations[1]) < 1e-12

    def test_residual_below_tolerance(self):
        eq = crystal.solve_equilibrium(two_ion_traps(6.0, 5.55), YB)
        assert eq.residual < crystal.FORCE_TOL

    def test_gaps_are_position_differences(self):
        eq = crystal.solve_equilibrium(three_ion_traps(8.0, 2.05, 5.80), YB)
        assert np.array_equal(eq.gaps, np.diff(eq.positions))

    def test_solver_failure_reports_residual(self, monkeypatch):
        monkeypatch.setattr(crystal, "MAX_NEWTON_ITER", 1)
        with pytest.raises(SolverError) as err:
            crystal.solve_equilibrium(two_ion_traps(6.0, 5.55), YB)
        assert err.value.residual > 0

    def test_collision_guard(self, monkeypatch):
        monkeypatch.setattr(crystal, "MIN_ION_GAP", 1e-4)
        with pytest.raises(InstabilityError):
            crystal.solve_equilibrium(two_ion_traps(6.0, 5.55), YB)

    def test_bad_traps_rejected(self):
        with pytest.raises(DomainError):
            crystal.TrapArray((1e-6, 1e-6), (1e6, 1e6))
        with pytest.raises(DomainError):
            crystal.TrapArray((0.0, 1e-6), (1e6, -1e6))
        with pytest.raises(DomainError):
            crystal.TrapArray((0.0, 1e-6), (1e6,))

    @pytest.mark.parametrize("row", TABLE1)
    def test_newton_matches_coordinate_descent_table1(self, row):
        d, nu = row[0], row[1]
        traps = two_ion_traps(d, nu)
        eq = crystal.solve_equilibrium(traps, YB)
        oracle = oracles.coordinate_descent_equilibrium(
            traps.centers, traps.frequencies, YB.mass
        )
        assert np.max(np.abs(eq.positions - oracle)) < 1e-9

    @pytest.mark.parametrize("row", TABLE2)
    def test_newton_matches_coordinate_descent_table2(self, row):
        d, nu1, nu2 = row[0], row[1], row[2]
        traps = three_ion_traps(d, nu1, nu2)
        eq = crystal.solve_equilibrium(traps, YB)
        oracle = oracles.coordinate_descent_equilibrium(
            traps.centers, traps.frequencies, YB.mass
        )
        assert np.max(np.abs(eq.positions - oracle)) < 1e-9


class TestNormalModes:
    def setup_method(self):
        self.traps = two_ion_traps(6.0, 5.55)
        self.eq = crystal.solve_equilibrium(self.traps, YB)
        self.modes = crystal.normal_modes(self.eq, self.traps, YB)

    def test_center_of_mass_mode_is_exact(self):
        # analytic 2x2 Hessian [[M nu^2 + k_c, -k_c], [-k_c, M nu^2 + k_c]]
        nu = self.traps.frequencies[0]
        assert self.modes.mode_freqs[0] == pytest.approx(nu, rel=1e-12)
        assert np.allclose(
            np.abs(self.modes.mode_matrix[0]), 1 / math.sqrt(2), atol=1e-12
        )

    def test_stretch_mode_closed_form(self):
        nu = self.traps.frequencies[0]
        k_c = 2 * K_COULOMB / self.eq.gaps[0] ** 3
        expected = math.sqrt(nu**2 + 2 * k_c / YB.mass)
        assert self.modes.mode_freqs[1] == pytest.approx(expected, rel=1e-12)

    def test_spreads_definition(self):
        expected = np.sqrt(HBAR / (2 * YB.mass * self.modes.mode_freqs))
        assert np.allclose(self.modes.spreads, expected, rtol=1e-14)

    def test_modes_do_not_depend_on_gradient(self):
        # the chain potential has no B dependence at all
        j_a = crystal.coupling_matrix(self.modes, crystal.FieldGradient(100.0), YB)
        j_b = crystal.coupling_matrix(self.modes, crystal.FieldGradient(500.0), YB)
        assert j_a.J[0, 1] != j_b.J[0, 1]
        again = crystal.normal_modes(self.eq, self.traps, YB)
        assert np.array_equal(again.mode_freqs, self.modes.mode_freqs)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_orthogonality_and_eigen_residual(self, n):
        traps = crystal.uniform_traps(n, 7e-6, 3.3e6)
        eq = crystal.solve_equilibrium(traps, YB)
        modes = crystal.normal_modes(eq, traps, YB)
        s = modes.mode_matrix
        assert np.max(np.abs(s @ s.T - np.eye(n))) < 1e-10
        hess = crystal.potential_hessian(eq.positions, traps, YB)
        for k in range(n):
            resid = hess @ s[k] - YB.mass * modes.mode_freqs[k] ** 2 * s[k]
            assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(hess)


class TestCouplings:
    def test_zero_gradient_means_zero_coupling(self):
        traps = two_ion_traps(6.0, 5.55)
        eq = crystal.solve_equilibrium(traps, YB)
        modes = crystal.normal_modes(eq, traps, YB)
        j = crystal.coupling_matrix(modes, crystal.FieldGradient(0.0), YB)
        assert np.all(j.J == 0.0)
        eps = crystal.epsilon_matrix(modes, crystal.FieldGradient(0.0), YB)
        assert np.all(eps.eps == 0.0)

    @pytest.mark.parametrize("row", TABLE1)
    def test_two_ion_reference_couplings(self, row):
        d, nu, dbdz, _, _, eps_ref, j_ref = row
        _, _, coupling, eps = crystal.solve_chain(
            two_ion_traps(d, nu), crystal.FieldGradient(dbdz), YB
        )
        assert coupling.J[0, 1] / KRAD_S == pytest.approx(j_ref, rel=0.10)
        assert eps.eps_max == pytest.approx(eps_ref, rel=0.05)

    def test_two_ion_closed_form_reduction(self):
        # J = (hbar (domega/dz)^2 / 4M) (1/nu_com^2 - 1/nu_str^2)
        grad = crystal.FieldGradient(550.0)
        traps = two_ion_traps(6.0, 5.55)
        eq = crystal.solve_equilibrium(traps, YB)
        modes = crystal.normal_modes(eq, traps, YB)
        j = crystal.coupling_matrix(modes, grad, YB)
        dw = grad.domega_dz(YB)
        nu_com, nu_str = modes.mode_freqs
        closed = (HBAR * dw**2 / (4 * YB.mass)) * (1 / nu_com**2 - 1 / nu_str**2)
        assert abs(j.J[0, 1] - closed) <= 1e-10 * abs(closed)

    @pytest.mark.parametrize("row", TABLE2)
    def test_three_ion_reference_couplings(self, row):
        d, nu1, nu2, dbdz, _, _, eps_ref, j12_ref, j13_ref = row
        _, _, coupling, eps = crystal.solve_chain(
            three_ion_traps(d, nu1, nu2), crystal.FieldGradient(dbdz), YB
        )
        assert coupling.J[0, 1] / KRAD_S == pytest.approx(j12_ref, rel=0.15)
        assert coupling.J[0, 2] / KRAD_S == pytest.approx(j13_ref, rel=0.15)
        assert eps.eps_max == pytest.approx(eps_ref, rel=0.05)

    def test_mirror_symmetry(self):
        d, nu1, nu2, dbdz = TABLE2[2][:4]
        eq, _, coupling, _ = crystal.solve_chain(
            three_ion_traps(d, nu1, nu2), crystal.FieldGradient(dbdz), YB
        )
        assert abs(eq.deviations[1]) < 1e-12
        assert eq.deviations[0] == pytest.approx(-eq.deviations[2], rel=1e-10)
        assert coupling.J[0, 1] == pytest.approx(coupling.J[1, 2], rel=1e-10)

    def test_gradient_scaling(self):
        traps = two_ion_traps(8.0, 3.75)
        eq = crystal.solve_equilibrium(traps, YB)
        modes = crystal.normal_modes(eq, traps, YB)
        j1 = crystal.coupling_matrix(modes, crystal.FieldGradient(100.0), YB)
        j3 = crystal.coupling_matrix(modes, crystal.FieldGradient(300.0), YB)
        assert j3.J[0, 1] == pytest.approx(9.0 * j1.J[0, 1], rel=1e-12)
        e1 = crystal.epsilon_matrix(modes, crystal.FieldGradient(100.0), YB)
        e3 = crystal.epsilon_matrix(modes, crystal.FieldGradient(300.0), YB)
        assert e3.eps_max == pytest.approx(3.0 * e1.eps_max, rel=1e-12)

    def test_symmetry_and_zero_diagonal(self):
        _, _, coupling, _ = crystal.solve_chain(
            three_ion_traps(7.0, 2.55, 7.25), crystal.FieldGradient(210.0), YB
        )
        assert np.array_equal(coupling.J, coupling.J.T)
        assert np.all(np.diag(coupling.J) == 0.0)

    @given(shift=st.floats(min_value=-5e-5, max_value=5e-5))
    @settings(max_examples=20, deadline=None)
    def test_translation_invariance(self, shift):
        base = two_ion_traps(6.0, 5.55)
        moved = crystal.TrapArray(
            tuple(c + shift for c in base.centers), base.frequencies
        )
        grad = crystal.FieldGradient(550.0)
        eq_a, modes_a, j_a, _ = crystal.solve_chain(base, grad, YB)
        eq_b, modes_b, j_b, _ = crystal.solve_chain(moved, grad, YB)
        assert np.allclose(eq_a.deviations, eq_b.deviations, atol=1e-10 * MICRON)
        assert np.allclose(modes_a.mode_freqs, modes_b.mode_freqs, rtol=1e-10)
        assert np.allclose(
            np.abs(modes_a.mode_matrix), np.abs(modes_b.mode_matrix), atol=1e-10
        )
        assert np.allclose(j_a.J, j_b.J, rtol=1e-10)


class TestLambDicke:
    def test_pure_laser(self):
        assert crystal.effective_lamb_dicke(0.1, 0.0) == 0.1

    def test_pure_gradient(self):
        assert crystal.effective_lamb_dicke(0.0, 0.0707) == 0.0707

    def test_combined(self):
        assert crystal.effective_lamb_dicke(0.1, 0.0707) == pytest.approx(
            0.1225, abs=5e-5
        )

    def test_warning_over_bound(self):
        with pytest.warns(UserWarning):
            crystal.effective_lamb_dicke(0.1, 0.08)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            crystal.effective_lamb_dicke(-0.1, 0.0)


@given(
    n=st.integers(min_value=2, max_value=5),
    d_um=st.floats(min_value=4.0, max_value=15.0),
    nu=st.floats(min_value=1.0, max_value=8.0),
    dbdz=st.floats(min_value=10.0, max_value=800.0),
)
@settings(max_examples=25, deadline=None)
def test_random_chain_properties(n, d_um, nu, dbdz):
    traps = crystal.uniform_traps(n, d_um * MICRON, nu * MRAD_S)
    grad = crystal.FieldGradient(dbdz)
    eq, modes, coupling, eps = crystal.solve_chain(traps, grad, YB)
    s = modes.mode_matrix
    assert np.max(np.abs(s @ s.T - np.eye(n))) < 1e-10
    assert np.all(modes.mode_freqs > 0)
    assert np.array_equal(coupling.J, coupling.J.T)
    assert np.all(np.diag(coupling.J) == 0.0)
    assert np.all(eps.eps >= 0.0)
    assert eq.residual < crystal.FORCE_TOL
