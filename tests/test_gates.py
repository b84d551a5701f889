"""Ion-register operations, pulse sequences, CNOT polarity, refocusing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionphoton import gates
from ionphoton.errors import DomainError, UncompilableError

import oracles

SQ2 = math.sqrt(2.0)


def basis_state(n_ions, index=0):
    amps = np.zeros(2**n_ions, complex)
    amps[index] = 1.0
    return amps


def random_state(n_ions, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n_ions) + 1j * rng.normal(size=2**n_ions)
    return amps / np.linalg.norm(amps)


def random_coupling(n, seed):
    rng = np.random.default_rng(seed)
    j = rng.uniform(0.5, 3.0, size=(n, n)) * 1e3
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return j


def rotate(amps, ion, axis, angle):
    n = len(amps).bit_length() - 1
    seq = gates.PulseSequence((gates.Rotation(ion, axis, angle),))
    return gates.apply_sequence(amps, seq, np.zeros((n, n)))


def evolve(amps, coupling, t):
    return gates.apply_sequence(amps, gates.PulseSequence((gates.IsingDelay(t),)), coupling)


class TestRotations:
    def test_zero_angle_is_identity(self):
        state = random_state(2, 1)
        out = rotate(state, 0, "x", 0.0)
        assert np.allclose(out, state, atol=1e-15)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_rotation_inverse(self, axis):
        state = random_state(2, 2)
        theta = 0.7321
        out = rotate(state, 1, axis, theta)
        out = rotate(out, 1, axis, -theta)
        assert np.max(np.abs(out - state)) < 1e-14

    def test_z_pi_phase_on_e(self):
        # exp(-i pi/2 sigma_z)|e> = -i |e>
        state = basis_state(1, index=0)   # |e>
        out = rotate(state, 0, "z", math.pi)
        assert out[0] == pytest.approx(-1j, abs=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            rotate(basis_state(2), 2, "x", 0.1)

    def test_unknown_axis(self):
        with pytest.raises(DomainError):
            rotate(basis_state(1), 0, "q", 0.1)


class TestHadamard:
    def test_involution(self):
        state = random_state(2, 3)
        out = gates.apply_hadamard(gates.apply_hadamard(state, 0), 0)
        assert np.max(np.abs(out - state)) < 1e-14

    def test_g_maps_to_plus(self):
        # |g> -> (|g> + |e>)/sqrt2
        state = basis_state(1, index=1)   # |g>
        out = gates.apply_hadamard(state, 0)
        assert out[0] == pytest.approx(1 / SQ2, abs=1e-14)
        assert out[1] == pytest.approx(1 / SQ2, abs=1e-14)

    def test_e_maps_to_minus(self):
        # |e> -> (|g> - |e>)/sqrt2
        state = basis_state(1, index=0)
        out = gates.apply_hadamard(state, 0)
        assert out[0] == pytest.approx(-1 / SQ2, abs=1e-14)
        assert out[1] == pytest.approx(1 / SQ2, abs=1e-14)


class TestIsingEvolve:
    def test_zero_time_identity(self):
        state = random_state(2, 4)
        out = evolve(state, random_coupling(2, 0), 0.0)
        assert np.allclose(out, state, atol=1e-15)

    def test_two_ion_pi_phases(self):
        # J t = pi -> phases (i, -i, -i, i) on (ee, eg, ge, gg)
        j = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = math.pi
        expected = {(0, 0): 1j, (0, 1): -1j, (1, 0): -1j, (1, 1): 1j}
        for (s1, s2), phase in expected.items():
            idx = 2 * s1 + s2
            out = evolve(basis_state(2, index=idx), j, t)
            assert out[idx] == pytest.approx(phase, abs=1e-12)

    def test_diagonal_probabilities_invariant(self):
        state = random_state(3, 5)
        out = evolve(state, random_coupling(3, 1), 0.37)
        assert np.allclose(np.abs(out) ** 2, np.abs(state) ** 2, atol=1e-14)

    def test_commutes_with_z_rotation(self):
        state = random_state(3, 6)
        j = random_coupling(3, 2)
        a = rotate(evolve(state, j, 0.9), 1, "z", 0.53)
        b = evolve(rotate(state, 1, "z", 0.53), j, 0.9)
        assert np.max(np.abs(a - b)) < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            evolve(basis_state(2), random_coupling(3, 3), 1.0)


class TestCnotProducts:
    def test_plain_product_is_g_active(self):
        u = gates.cnot_product_matrix("g")
        ideal = gates.ideal_cnot(2, 0, 1, "g")
        assert np.max(np.abs(u - ideal)) < 1e-12
        assert 1.0 - gates.gate_fidelity(u, ideal) < 1e-12

    def test_control_negated_variant_is_e_active(self):
        u = gates.cnot_product_matrix("e")
        ideal = gates.ideal_cnot(2, 0, 1, "e")
        assert np.max(np.abs(u - ideal)) < 1e-12
        assert 1.0 - gates.gate_fidelity(u, ideal) < 1e-12

    def test_ideal_cnot_matches_basis_state_loop(self):
        for n in range(2, gates.MAX_IONS + 1):
            for control, target in itertools.permutations(range(n), 2):
                for active in ("e", "g"):
                    assert np.array_equal(
                        gates.ideal_cnot(n, control, target, active),
                        oracles.cnot_by_basis_state(n, control, target, active),
                    )

    def test_negating_all_z_angles_keeps_g_polarity(self):
        # flipping every z-type angle only changes the global phase: the
        # gate stays active on |g>
        i2 = np.eye(2, dtype=complex)

        def zrot(theta):
            return np.diag([np.exp(1j * theta), np.exp(-1j * theta)])

        def yrot(theta):
            return math.cos(theta) * i2 + 1j * math.sin(theta) * gates._SIGMA["y"]

        first = np.kron(i2, yrot(math.pi / 4))
        last = np.kron(i2, yrot(-math.pi / 4))
        zz = np.diag(np.exp(1j * math.pi / 4 * np.array([1, -1, -1, 1])))
        z_c = np.kron(zrot(-math.pi / 4), i2)
        z_t = np.kron(i2, zrot(-math.pi / 4))
        u = np.exp(-1j * math.pi / 4) * last @ z_c @ z_t @ zz @ first
        fid_g = gates.gate_fidelity(u, gates.ideal_cnot(2, 0, 1, "g"))
        fid_e = gates.gate_fidelity(u, gates.ideal_cnot(2, 0, 1, "e"))
        assert 1.0 - fid_g < 1e-12
        assert fid_e < 0.9

    def test_reversed_reading_order_keeps_g_polarity(self):
        # multiplying the six factors in the opposite order still flips the
        # target only when the control is |g> (with an extra conditional
        # phase, so it is not a plain CX)
        i2 = np.eye(2, dtype=complex)

        def zrot(theta):
            return np.diag([np.exp(1j * theta), np.exp(-1j * theta)])

        def yrot(theta):
            return math.cos(theta) * i2 + 1j * math.sin(theta) * gates._SIGMA["y"]

        first = np.kron(i2, yrot(math.pi / 4))
        last = np.kron(i2, yrot(-math.pi / 4))
        zz = np.diag(np.exp(-1j * math.pi / 4 * np.array([1, -1, -1, 1])))
        z_c = np.kron(zrot(math.pi / 4), i2)
        z_t = np.kron(i2, zrot(math.pi / 4))
        u = np.exp(-1j * math.pi / 4) * first @ zz @ z_t @ z_c @ last
        # e-control block is the identity, g-control block is -sigma_x
        assert np.max(np.abs(u[:2, :2] - i2)) < 1e-12
        assert np.max(np.abs(u[2:, 2:] + gates._SIGMA["x"])) < 1e-12
        assert np.max(np.abs(u[:2, 2:])) < 1e-12

    def test_gate_is_self_inverse(self):
        for active in ("e", "g"):
            u = gates.cnot_product_matrix(active)
            assert np.max(np.abs(u @ u - np.eye(4))) < 1e-12


class TestRefocusing:
    def test_two_ion_single_delay(self):
        j = np.array([[0.0, 6328.0], [6328.0, 0.0]])
        seq = gates.compile_refocused_zz(j, (0, 1), math.pi / 4)
        delays = [e for e in seq.elements if isinstance(e, gates.IsingDelay)]
        assert len(delays) == 1
        assert delays[0].duration == pytest.approx(math.pi / (2 * 6328.0), rel=1e-12)
        assert seq.total_duration == pytest.approx(2.482e-4, rel=1e-3)

    def test_two_ion_target_unitary(self):
        j = np.array([[0.0, 900.0], [900.0, 0.0]])
        for angle in (math.pi / 4, 0.3, -0.7, math.pi, 5.0):
            seq = gates.compile_refocused_zz(j, (0, 1), angle)
            u = gates.sequence_unitary(seq, j)
            target = np.diag(np.exp(1j * angle * np.array([1, -1, -1, 1])))
            assert np.max(np.abs(u - target)) < 1e-10

    def test_three_ion_spectator_cancellation(self):
        j = np.zeros((3, 3))
        j[0, 1] = j[1, 0] = 922.0
        j[1, 2] = j[2, 1] = 922.0
        j[0, 2] = j[2, 0] = 922.0
        seq = gates.compile_refocused_zz(j, (0, 1), math.pi / 4)
        u = gates.sequence_unitary(seq, j)
        target = oracles.zz_unitary(3, (0, 1), math.pi / 4)
        assert np.max(np.abs(u - target)) < 1e-10

    def test_zero_coupling_uncompilable(self):
        j = np.zeros((3, 3))
        j[1, 2] = j[2, 1] = 500.0
        with pytest.raises(UncompilableError):
            gates.compile_refocused_zz(j, (0, 1), math.pi / 4)

    def test_subnormal_coupling_uncompilable(self):
        # 2 * angle / J overflows to inf for a nonzero subnormal J
        j = np.array([[0.0, 1e-320], [1e-320, 0.0]])
        with pytest.raises(UncompilableError):
            gates.compile_refocused_zz(j, (0, 1), math.pi / 4)

    @given(
        n=st.integers(min_value=3, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        angle=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_couplings_random_pairs(self, n, seed, angle):
        j = random_coupling(n, seed)
        rng = np.random.default_rng(seed + 1)
        i, k = rng.choice(n, size=2, replace=False)
        i, k = int(i), int(k)
        seq = gates.compile_refocused_zz(j, (i, k), angle)
        u = gates.sequence_unitary(seq, j)
        target = oracles.zz_unitary(n, (i, k), angle)
        assert np.max(np.abs(u - target)) < 1e-9

    def test_pulse_counts_are_pinned(self):
        """Walsh-pattern refocusing cost for 0..4 spectators.

        Spectators follow distinct non-constant rows of a Hadamard matrix,
        the decoupling scheme of Leung, Chuang, Yamaguchi & Yamamoto,
        PRA 61, 042310 (2000), taken in sequency order (fewest sign changes
        first; Sylvester order needed 0, 2, 6, 8, 18 pulses).  Pinning the
        pi-pulse and delay counts keeps a refactor from quietly adding
        pulses.
        """
        for spectators, pulses, delays in zip(range(5), (0, 2, 4, 8, 12), (1, 2, 4, 4, 8)):
            j = random_coupling(spectators + 2, spectators)
            seq = gates.compile_refocused_zz(j, (0, 1), math.pi / 4)
            rots = [e for e in seq.elements if isinstance(e, gates.Rotation)]
            assert all(e.axis == "x" and e.angle == math.pi for e in rots)
            assert len(rots) == pulses
            assert sum(isinstance(e, gates.IsingDelay) for e in seq.elements) == delays


class TestCnotSequences:
    @pytest.mark.parametrize("active", ["e", "g"])
    def test_two_ion_compiled_cnot(self, active):
        j = np.array([[0.0, 6328.0], [6328.0, 0.0]])
        seq = gates.cnot_sequence(j, 0, 1, active_on=active)
        u = gates.sequence_unitary(seq, j)
        assert np.max(np.abs(u - gates.ideal_cnot(2, 0, 1, active))) < 1e-12
        assert seq.total_duration == pytest.approx(math.pi / (2 * 6328.0), rel=1e-12)

    def test_three_ion_compiled_cnot(self):
        j = random_coupling(3, 11)
        seq = gates.cnot_sequence(j, 0, 2, active_on="e")
        u = gates.sequence_unitary(seq, j)
        ideal = gates.ideal_cnot(3, 0, 2, "e")
        assert np.max(np.abs(u - ideal)) < 1e-10
        assert 1.0 - gates.gate_fidelity(u, ideal) < 1e-12

    def test_self_inverse_on_state(self):
        j = np.array([[0.0, 6328.0], [6328.0, 0.0]])
        seq = gates.cnot_sequence(j, 0, 1, active_on="e")
        state = random_state(2, 12)
        out = gates.apply_sequence(gates.apply_sequence(state, seq, j), seq, j)
        overlap = np.vdot(state, out)
        assert abs(abs(overlap) - 1.0) < 1e-12
        assert np.max(np.abs(out - overlap * state)) < 1e-10

    def test_control_equals_target_rejected(self):
        j = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            gates.cnot_sequence(j, 1, 1)


class TestSequencePlumbing:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["cnot", "refocused_zz"])
    def test_unitary_columns_match_state_evolution(self, n, kind):
        j = random_coupling(n, 30 + n)
        if kind == "cnot":
            seq = gates.cnot_sequence(j, 0, n - 1)
        else:
            seq = gates.compile_refocused_zz(j, (0, n - 1), 0.7)
        u = gates.sequence_unitary(seq, j)
        for col in range(2**n):
            out = gates.apply_sequence(basis_state(n, col), seq, j)
            assert np.max(np.abs(out - u[:, col])) < 1e-12

    def test_empty_sequence_identity(self):
        j = np.array([[0.0, 1.0], [1.0, 0.0]])
        u = gates.sequence_unitary(gates.PulseSequence(()), j)
        assert np.array_equal(u, np.eye(4, dtype=complex))

    def test_elements_run_in_listed_order(self):
        a, b = 0.3, 1.1
        seq = gates.PulseSequence((gates.Rotation(0, "y", a), gates.Rotation(0, "x", b)))
        u = gates.sequence_unitary(seq, np.zeros((1, 1)))
        expected = gates.rotation_matrix("x", b) @ gates.rotation_matrix("y", a)
        assert np.max(np.abs(u - expected)) < 1e-15

    def test_fidelity_properties(self):
        j = np.array([[0.0, 500.0], [500.0, 0.0]])
        u = gates.sequence_unitary(gates.cnot_sequence(j, 0, 1), j)
        assert gates.gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-14)
        assert gates.gate_fidelity(u, np.exp(0.7j) * u) == pytest.approx(1.0, abs=1e-14)
        cx = gates.ideal_cnot(2, 0, 1, "g")
        assert gates.gate_fidelity(cx, np.eye(4, dtype=complex)) == pytest.approx(0.5)
        with pytest.raises(DomainError):
            gates.gate_fidelity(np.eye(2), np.eye(4))

    def test_coupling_matrix_object_accepted(self):
        from ionphoton import crystal
        j = np.array([[0.0, 700.0], [700.0, 0.0]])
        wrapped = crystal.CouplingMatrix(J=j)
        state = random_state(2, 9)
        a = evolve(state, wrapped, 1e-4)
        b = evolve(state, j, 1e-4)
        assert np.array_equal(a, b)

    def test_unitarity_of_sequence_matrix(self):
        j = random_coupling(3, 21)
        seq = gates.cnot_sequence(j, 0, 1)
        u = gates.sequence_unitary(seq, j)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    ion=st.integers(min_value=0, max_value=2),
    axis=st.sampled_from(["x", "y", "z"]),
    angle=st.floats(min_value=-2 * math.pi, max_value=2 * math.pi),
)
@settings(max_examples=40, deadline=None)
def test_norm_preserved_by_unitaries(seed, ion, axis, angle):
    state = random_state(3, seed)
    out = rotate(state, ion, axis, angle)
    out = gates.apply_hadamard(out, ion)
    out = evolve(out, random_coupling(3, seed), abs(angle))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
