"""Statevector engine for the ion register and a pulse compiler.

State layout
------------
Each of the N ions carries a spin qubit {|e>, |g>}.  Amplitude index bits
run from the most significant: ion 1 first, with |e> -> 0, |g> -> 1.
Dimension is 2^N, capped at N = 6.

Pauli operators act on spin qubits in the {|e>, |g>} basis with
sigma_z = |e><e| - |g><g|.  The always-on interaction is
H = -sum_{i<j} (J_ij / 2) sigma_z^i sigma_z^j, so free evolution for time t
applies the diagonal phases exp(+i t sum_{i<j} (J_ij/2) z_i z_j).

Pulse sequences list their elements in run order: the first element is
applied first.

CNOT polarity
-------------
The textbook six-factor decomposition (y rotations around z rotations and a
zz interaction, with z angles +pi/4, +pi/4 and zz angle -pi/4) produces a
controlled-X that flips the target when the control is |g>.  Negating the
control-sector z angles (the single-z on the control and the zz angle)
produces the gate active on |e> instead; that variant is what the photon
outcome tables require and is the protocol default.  Negating all three
z angles reproduces the same |g>-active gate up to global phase and does
NOT flip the polarity.
"""

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, UncompilableError

MAX_IONS = 6

# Fixed diagnostic emitted by the gate-verification report.
POLARITY_DIAGNOSTIC = (
    "DIAGNOSTIC: the plain six-factor decomposition yields a controlled-X "
    "active on |g>; the photon outcome tables require the |e>-active "
    "polarity, so the default convention negates the control-sector z angles."
)

_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], complex),
    "y": np.array([[0, -1j], [1j, 0]], complex),
    "z": np.array([[1, 0], [0, -1]], complex),
}

# Hadamard with the convention |g> -> (|g>+|e>)/sqrt2, |e> -> (|g>-|e>)/sqrt2
# in the (|e>, |g>) basis.
HADAMARD = np.array([[-1, 1], [1, 1]], complex) / math.sqrt(2)


# ---------------------------------------------------------------------------
# primitive operations


def _coupling_array(coupling) -> np.ndarray:
    """The coupling matrix as a float array; it must be square and symmetric."""
    j = np.asarray(coupling, float)
    if j.ndim != 2 or j.shape[0] != j.shape[1]:
        raise DomainError("coupling matrix must be square")
    if not (np.array_equal(j, j.T) or np.allclose(j, j.T)):
        raise DomainError("coupling matrix must be symmetric")
    return j


def _apply_site_op(amps: np.ndarray, pos: int, op: np.ndarray):
    """Apply a 2x2 operator on bit ``pos`` (0 = most significant) of the
    leading axis; trailing axes (columns of a batch) ride along."""
    work = amps.reshape(1 << pos, 2, -1)
    return np.einsum("ab,ibj->iaj", op, work).reshape(amps.shape)


def rotation_matrix(axis: str, angle: float) -> np.ndarray:
    """exp(-i angle/2 sigma_axis)."""
    if axis not in _SIGMA:
        raise DomainError(f"unknown axis {axis!r}")
    half = 0.5 * angle
    return math.cos(half) * np.eye(2, dtype=complex) - 1j * math.sin(half) * _SIGMA[axis]


def apply_hadamard(amps: np.ndarray, ion: int) -> np.ndarray:
    """Hadamard (|g> -> (|g>+|e>)/sqrt2, |e> -> (|g>-|e>)/sqrt2) on one ion
    of the register's leading axis."""
    if not 0 <= ion < len(amps).bit_length() - 1:
        raise DomainError(f"ion index {ion} out of range")
    return _apply_site_op(amps, ion, HADAMARD)


# ---------------------------------------------------------------------------
# pulse sequences


@dataclass(frozen=True)
class Rotation:
    ion: int
    axis: str
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "ion", int(self.ion))
        object.__setattr__(self, "angle", float(self.angle))


@dataclass(frozen=True)
class IsingDelay:
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "duration", float(self.duration))
        if self.duration < 0:
            raise DomainError("delay must be >= 0")


@dataclass(frozen=True)
class GlobalPhase:
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle))


PulseElement = Union[Rotation, IsingDelay, GlobalPhase]


@dataclass(frozen=True)
class PulseSequence:
    """Pulse elements in the order they are applied."""

    elements: tuple

    @property
    def total_duration(self) -> float:
        return sum(e.duration for e in self.elements if isinstance(e, IsingDelay))


def _run_elements(amps: np.ndarray, seq: PulseSequence, j: np.ndarray):
    """Apply ``seq`` along the leading axis of ``amps``.

    Ion i (from 0) is bit i of that axis, counted from the most significant;
    trailing axes (the columns of a unitary) ride along.
    """
    n = j.shape[0]
    z = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1)
    zz = ((z @ np.triu(j, 1)) * z).sum(1)   # sum_{i<j} J_ij z_i z_j per ion config
    durations = {e.duration for e in seq.elements if isinstance(e, IsingDelay)}
    phases = {t: np.exp(0.5j * t * zz)[:, None] for t in durations}   # one per distinct delay
    turns = {(e.axis, e.angle) for e in seq.elements if isinstance(e, Rotation)}
    rots = {turn: rotation_matrix(*turn) for turn in turns}   # one per distinct rotation
    for e in seq.elements:
        if isinstance(e, Rotation):
            if not 0 <= e.ion < n:
                raise DomainError(f"ion index {e.ion} out of range")
            amps = _apply_site_op(amps, e.ion, rots[e.axis, e.angle])
        elif isinstance(e, IsingDelay):
            amps = (amps.reshape(2**n, -1) * phases[e.duration]).reshape(amps.shape)
        else:
            amps = amps * np.exp(1j * e.angle)
    return amps


def apply_sequence(amps: np.ndarray, seq: PulseSequence, coupling) -> np.ndarray:
    """Run a pulse sequence on ion-register amplitudes."""
    j = _coupling_array(coupling)
    amps = np.asarray(amps, complex)
    if amps.shape[0] != 2 ** j.shape[0]:
        raise DomainError("coupling dimension does not match state")
    return _run_elements(amps, seq, j)


def sequence_unitary(seq: PulseSequence, coupling) -> np.ndarray:
    """Dense unitary of a sequence over the ion register.

    Column k is the sequence applied to ion basis state k.
    """
    j = _coupling_array(coupling)
    return _run_elements(np.eye(2 ** j.shape[0], dtype=complex), seq, j)


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|Tr(U^dag V)| / dim; 1 iff the gates agree up to global phase."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise DomainError("gate dimensions differ")
    return float(abs(np.trace(u.conj().T @ v)) / u.shape[0])


def ideal_cnot(n_ions: int, control: int, target: int, active_on: str = "e") -> np.ndarray:
    """Controlled-X on the ion subspace, flipping target when control is
    |e> (bit 0) or |g> (bit 1)."""
    if control == target:
        raise DomainError("control and target must differ")
    if active_on not in ("e", "g"):
        raise DomainError("active_on must be 'e' or 'g'")
    active_bit = 0 if active_on == "e" else 1
    idx = np.arange(2**n_ions)
    flip = ((idx >> (n_ions - 1 - control)) & 1) == active_bit
    u = np.zeros((len(idx), len(idx)), complex)
    u[idx ^ (flip << (n_ions - 1 - target)), idx] = 1
    return u


# ---------------------------------------------------------------------------
# six-factor CNOT product (matrix oracle) and compiled sequences


def cnot_product_matrix(active_on: str = "g") -> np.ndarray:
    """Six-factor CNOT product on two qubits (control = qubit 0).

    With ``active_on='g'`` this is the decomposition with z angles
    (+pi/4, +pi/4), zz angle -pi/4 and global phase -pi/4, which equals the
    |g>-active controlled-X exactly.  With ``active_on='e'`` the
    control-sector z angles are negated (z_control and zz), which equals
    the |e>-active controlled-X exactly.
    """
    if active_on not in ("e", "g"):
        raise DomainError("active_on must be 'e' or 'g'")
    i2 = np.eye(2, dtype=complex)

    def zrot(theta):       # exp(i theta sigma_z)
        return np.diag([np.exp(1j * theta), np.exp(-1j * theta)])

    def yrot(theta):       # exp(i theta sigma_y)
        return math.cos(theta) * i2 + 1j * math.sin(theta) * _SIGMA["y"]

    z_control = math.pi / 4 if active_on == "g" else -math.pi / 4
    zz = -math.pi / 4 if active_on == "g" else math.pi / 4
    zz_diag = np.exp(1j * zz * np.array([1, -1, -1, 1]))

    first = np.kron(i2, yrot(math.pi / 4))
    zz_factor = np.diag(zz_diag)
    z_t = np.kron(i2, zrot(math.pi / 4))
    z_c = np.kron(zrot(z_control), i2)
    last = np.kron(i2, yrot(-math.pi / 4))
    return np.exp(-1j * math.pi / 4) * last @ z_c @ z_t @ zz_factor @ first


@functools.cache
def _walsh_rows(n_slices: int) -> np.ndarray:
    """+-1 Hadamard rows of size n_slices (a power of two), row m with m sign
    changes; cached, so read-only."""
    h = np.array([[1]])
    while h.shape[0] < n_slices:
        h = np.block([[h, h], [h, -h]])
    rows = h[np.argsort((np.diff(h, axis=1) != 0).sum(axis=1))]
    rows.flags.writeable = False
    return rows


def compile_refocused_zz(coupling, pair: tuple[int, int], target_angle: float) -> PulseSequence:
    """Pulse sequence whose net effect is exp(i * target_angle * z_i z_j).

    All other pairwise couplings are cancelled by a Walsh-pattern echo:
    total time is split into equal slices (just one without spectators),
    the addressed ions keep the all-plus pattern, and every spectator gets
    a distinct non-constant Walsh row, fewest sign changes first, toggled
    by instantaneous pi x-pulses.  Orthogonality of the rows cancels every
    spectator coupling exactly; the addressed coupling accumulates in full,
    so the total delay is 2 * angle / J_ij with no echo time overhead.
    A trailing global-phase element compensates pulse phases, making the
    net unitary equal the target exactly, not just up to phase.
    """
    j = _coupling_array(coupling)
    n = j.shape[0]
    i, k = pair
    if i == k or not (0 <= i < n and 0 <= k < n):
        raise DomainError(f"bad ion pair {pair}")
    if j[i, k] == 0:
        raise UncompilableError(f"coupling J[{i},{k}] is zero")

    theta = target_angle % math.pi   # [0, pi), or pi for a tiny negative angle
    shifts = round((theta - target_angle) / math.pi)
    with np.errstate(over="ignore"):
        total_time = 2.0 * theta / j[i, k]
    if not math.isfinite(total_time):
        raise UncompilableError(f"coupling J[{i},{k}] = {j[i, k]:.3g}: gate time overflows")
    spectators = [q for q in range(n) if q not in (i, k)]

    n_slices = 1 << len(spectators).bit_length()
    rows = _walsh_rows(n_slices)[1:]              # one per spectator, in order
    current = dict.fromkeys(spectators, 1)
    elements: list[PulseElement] = []
    for s in range(n_slices):
        for q, row in zip(spectators, rows):
            if row[s] != current[q]:
                elements.append(Rotation(q, "x", math.pi))
                current[q] = row[s]
        elements.append(IsingDelay(total_time / n_slices))
    for q in spectators:                          # restore the frame
        if current[q] != 1:
            elements.append(Rotation(q, "x", math.pi))

    # each pi x-pulse contributes -i sigma_x; with an even count per ion the
    # sigma_x parts cancel and the scalar (-i)^pulses remains
    pulses = sum(isinstance(e, Rotation) for e in elements)
    phase = (-0.5 * math.pi * pulses - math.pi * shifts) % (2.0 * math.pi)
    compensation = -phase % (2.0 * math.pi)
    if compensation != 0.0:
        elements.append(GlobalPhase(compensation))
    return PulseSequence(tuple(elements))


def cnot_sequence(coupling, control: int, target: int, active_on: str = "e") -> PulseSequence:
    """Compiled CNOT over the always-on couplings.

    Six-factor structure with the zz factor realized physically.  In run
    order: Ry(-pi/2) on the target; an IsingDelay of pi/(2 J_ct),
    refocused when spectators exist, for the +pi/4 zz angle; z rotations
    on the target and then the control, whose angles absorb the sign;
    Ry(+pi/2) on the target; and a global phase, so the simulated unitary
    equals the ideal controlled-X exactly.
    """
    if control == target:
        raise DomainError("control and target must differ")
    if active_on not in ("e", "g"):
        raise DomainError("active_on must be 'e' or 'g'")
    zz_seq = compile_refocused_zz(coupling, (control, target), math.pi / 4)
    z_target = -math.pi / 2 if active_on == "e" else math.pi / 2
    phase = -math.pi / 4 if active_on == "e" else math.pi / 4
    return PulseSequence((
        Rotation(target, "y", -math.pi / 2),
        *zz_seq.elements,
        Rotation(target, "z", z_target),
        Rotation(control, "z", math.pi / 2),
        Rotation(target, "y", math.pi / 2),
        GlobalPhase(phase),
    ))


def cnots_from_first(coupling, active_on: str = "e") -> list[PulseSequence]:
    """Compiled CNOTs from ion 1 to ions 2..N over ``coupling``, in run order."""
    return [cnot_sequence(coupling, 0, t, active_on=active_on) for t in range(1, len(coupling))]
