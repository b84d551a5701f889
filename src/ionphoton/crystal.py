"""Ion-chain statics and magnetic-gradient spin-spin couplings.

One ion per microtrap, all on a common axis.  The axial potential is

    V(z) = sum_m 1/2 M nu_m^2 (z_m - zbar_m)^2 + sum_{m<n} k_e / |z_m - z_n|

with k_e = e^2/(4 pi eps0).  A Newton iteration with the analytic Jacobian
(the Hessian of V) finds the equilibrium; diagonalizing the Hessian gives
the axial normal modes; the modes plus a magnetic field gradient give the
pairwise Ising coupling matrix J and the gradient sideband matrix eps.

Sign conventions
----------------
``Equilibrium.deviations`` stores the raw signed displacement z_m - zbar_m.
For a mirror-symmetric chain this makes deviation_1 = -deviation_N exactly;
summary tables report magnitudes, which is how outward displacements are
usually quoted.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import HBAR, K_COULOMB, MU_B, G_ELECTRON, YB171_MASS
from .errors import (
    DomainError,
    InstabilityError,
    SolverError,
    UnstableConfigurationError,
)

MIN_ION_GAP = 10e-9          # collision guard during Newton iteration, m
# Convergence: max |dV/dz| below FORCE_TOL or relative Newton step below
# STEP_TOL.  The force tolerance is far below 1e-20 N because soft traps
# (stiffness ~1e-12 N/m) turn a 1e-20 N residual into nm-scale position
# error; 1e-26 N keeps every table configuration within 1e-13 m of the
# energy minimum while staying well above the ~1e-33 N rounding floor.
FORCE_TOL = 1e-26
STEP_TOL = 1e-14
MAX_NEWTON_ITER = 200
ORTHO_TOL = 1e-10            # S S^T = I tolerance


@dataclass(frozen=True)
class IonSpecies:
    """Single ion species; the chain is homogeneous (mixed chains unsupported)."""

    mass: float = YB171_MASS       # kg
    g_factor: float = G_ELECTRON   # dimensionless
    label: str = "Yb-171"

    def __post_init__(self):
        if self.mass <= 0:
            raise DomainError(f"ion mass must be positive, got {self.mass}")
        if self.g_factor <= 0:
            raise DomainError(f"g factor must be positive, got {self.g_factor}")


@dataclass(frozen=True)
class TrapArray:
    """Microtrap centers (m, strictly increasing) and angular frequencies (rad/s)."""

    centers: tuple
    frequencies: tuple

    def __post_init__(self):
        centers = tuple(float(c) for c in self.centers)
        freqs = tuple(float(f) for f in self.frequencies)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "frequencies", freqs)
        if len(centers) != len(freqs):
            raise DomainError("centers and frequencies must have equal length")
        if len(centers) < 1:
            raise DomainError("need at least one trap")
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise DomainError("trap centers must be strictly increasing")
        if any(f <= 0 for f in freqs):
            raise DomainError("trap frequencies must be positive")

    @property
    def n_ions(self) -> int:
        return len(self.centers)


def uniform_traps(n_ions: int, spacing: float, frequencies) -> TrapArray:
    """Equally spaced chain centered on the origin.

    ``frequencies`` is a scalar (common to all traps) or a sequence of
    length ``n_ions``, in rad/s.
    """
    centers = (np.arange(n_ions) - (n_ions - 1) / 2.0) * float(spacing)
    freqs = np.broadcast_to(np.asarray(frequencies, float), (n_ions,))
    return TrapArray(tuple(centers), tuple(freqs))


@dataclass(frozen=True)
class FieldGradient:
    """Axial magnetic field gradient dB/dz.

    Only the gradient enters the couplings; a uniform offset field shifts
    every qubit splitting alike and is not modelled.
    """

    dBdz: float       # T/m

    def __post_init__(self):
        if self.dBdz < 0:
            raise DomainError(f"dBdz must be >= 0, got {self.dBdz}")

    def domega_dz(self, species: IonSpecies) -> float:
        """Qubit-splitting gradient d(omega)/dz = g mu_B (dB/dz) / hbar, rad/(s m)."""
        return species.g_factor * MU_B * self.dBdz / HBAR


@dataclass(frozen=True)
class Equilibrium:
    """Solved static chain: positions, signed deviations, neighbor gaps."""

    positions: np.ndarray    # m, strictly increasing
    deviations: np.ndarray   # z_m - zbar_m, m (signed)
    gaps: np.ndarray         # positions[m+1] - positions[m], m
    residual: float          # max |dV/dz| at the solution, N

    @property
    def n_ions(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class NormalModes:
    """Axial normal modes, ascending by frequency.

    ``mode_matrix`` row n is the orthonormal eigenvector of mode n
    (columns index ions).  ``spreads`` are the ground-state widths
    sqrt(hbar / (2 M nu_n)).
    """

    mode_freqs: np.ndarray   # rad/s, ascending
    mode_matrix: np.ndarray  # N x N orthogonal, rows = modes
    spreads: np.ndarray      # m

    def __post_init__(self):
        s = self.mode_matrix
        if not np.allclose(s @ s.T, np.eye(s.shape[0]), atol=ORTHO_TOL):
            raise UnstableConfigurationError("mode matrix is not orthogonal")

    @property
    def n_ions(self) -> int:
        return len(self.mode_freqs)


@dataclass(frozen=True)
class CouplingMatrix:
    """Pairwise Ising strengths J_ij (rad/s), symmetric with zero diagonal."""

    J: np.ndarray

    def __post_init__(self):   # a gradient whose square overflows leaves nan
        if not np.all(np.isfinite(self.J)):
            raise DomainError("coupling matrix is not finite; is dB/dz too large?")

    @property
    def n_ions(self) -> int:
        return self.J.shape[0]


@dataclass(frozen=True)
class EpsilonMatrix:
    """Gradient sideband parameters, rows = modes, columns = ions (magnitudes)."""

    eps: np.ndarray
    eps_max: float = field(default=0.0)

    def __post_init__(self):
        if not np.all(np.isfinite(self.eps)):
            raise DomainError("sideband matrix is not finite; is dB/dz too large?")
        object.__setattr__(self, "eps_max", float(np.max(self.eps)) if self.eps.size else 0.0)


# Working bound on the effective Lamb-Dicke parameter before the
# small-oscillation treatment degrades (with a rounding margin).
LAMB_DICKE_BOUND = 0.123

# Sideband magnitude kept below this in the reference operating points.
EPSILON_CUTOFF = 0.071


def _potential_gradient(z, traps: TrapArray, species: IonSpecies) -> np.ndarray:
    """dV/dz_m: harmonic restoring force plus Coulomb repulsion, N."""
    zbar = np.asarray(traps.centers)
    nu2 = np.asarray(traps.frequencies) ** 2
    grad = species.mass * nu2 * (z - zbar)
    if len(z) > 1:
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        grad -= K_COULOMB * np.sum(np.sign(diff) / diff**2, axis=1)
    return grad


def potential_hessian(z, traps: TrapArray, species: IonSpecies) -> np.ndarray:
    """Hessian d^2 V / dz_m dz_n of the chain potential at positions ``z``."""
    z = np.asarray(z, float)
    n = len(z)
    nu2 = np.asarray(traps.frequencies) ** 2
    if n == 1:
        return np.array([[species.mass * nu2[0]]])
    diff = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(diff, np.inf)
    # a gap beyond ~1e102 m overflows diff**3 to inf, and 1/inf = 0 is the
    # exact limit of the vanishing Coulomb stiffness: not an error
    with np.errstate(over="ignore"):
        inv3 = 1.0 / diff**3
    hess = -2.0 * K_COULOMB * inv3
    np.fill_diagonal(hess, species.mass * nu2 + 2.0 * K_COULOMB * np.sum(inv3, axis=1))
    return hess


def solve_equilibrium(traps: TrapArray, species: IonSpecies) -> Equilibrium:
    """Newton-solve the static positions of the chain.

    Starts from the trap centers and iterates full Newton steps with the
    analytic Jacobian (the Hessian).  Converges when the largest residual
    force drops below ``FORCE_TOL`` or the relative step below ``STEP_TOL``.

    Raises
    ------
    InstabilityError
        If any inter-ion gap falls below ``MIN_ION_GAP`` during iteration.
    SolverError
        If not converged after ``MAX_NEWTON_ITER`` iterations.
    UnstableConfigurationError
        If the Hessian is singular (M nu^2 underflows to zero) or a force
        or stiffness leaves the float range (M nu^2 overflows).
    """
    z = np.asarray(traps.centers, float).copy()
    zbar = np.asarray(traps.centers, float)
    scale = max(np.max(np.abs(zbar)), np.min(np.diff(zbar)) if len(z) > 1 else abs(zbar[0]), 1e-9)

    residual = np.inf
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(MAX_NEWTON_ITER):
                grad = _potential_gradient(z, traps, species)
                residual = float(np.max(np.abs(grad)))
                if residual < FORCE_TOL:
                    break
                hess = potential_hessian(z, traps, species)
                try:
                    step = np.linalg.solve(hess, -grad)
                except np.linalg.LinAlgError:
                    raise UnstableConfigurationError(
                        "singular Hessian in the equilibrium solve") from None
                z = z + step
                if len(z) > 1 and np.min(np.diff(z)) < MIN_ION_GAP:
                    raise InstabilityError(
                        f"ion gap fell below {MIN_ION_GAP:.0e} m during iteration"
                    )
                if float(np.max(np.abs(step))) < STEP_TOL * scale:
                    residual = float(np.max(np.abs(_potential_gradient(z, traps, species))))
                    break
            else:
                raise SolverError("equilibrium solver did not converge", residual)
    except FloatingPointError as exc:
        raise UnstableConfigurationError(
            f"{exc} in the equilibrium solve: the trap stiffness M nu^2 or the "
            "Coulomb force at the trap spacing is beyond the float range"
        ) from None

    if len(z) > 1 and np.any(np.diff(z) <= 0):
        raise InstabilityError("ion ordering not preserved at solution")
    return Equilibrium(
        positions=z,
        deviations=z - zbar,
        gaps=np.diff(z),
        residual=residual,
    )


def normal_modes(eq: Equilibrium, traps: TrapArray, species: IonSpecies) -> NormalModes:
    """Diagonalize the Hessian at equilibrium.

    Mode frequencies are nu_n = sqrt(lambda_n / M); rows of the returned
    mode matrix are the eigenvectors, ascending in frequency, with the sign
    fixed so each row's largest-magnitude entry is positive.
    """
    hess = potential_hessian(eq.positions, traps, species)
    evals, evecs = np.linalg.eigh(hess)   # ascending eigenvalues
    if np.any(evals <= 0):
        raise UnstableConfigurationError(
            f"non-positive Hessian eigenvalue {evals.min():.3e}"
        )
    # deterministic sign: largest-|component| entry of each mode positive
    s = evecs.T.copy()
    for row in s:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    freqs = np.sqrt(evals / species.mass)
    spreads = np.sqrt(HBAR / (2.0 * species.mass * freqs))
    return NormalModes(mode_freqs=freqs, mode_matrix=s, spreads=spreads)


def coupling_matrix(
    modes: NormalModes, grad: FieldGradient, species: IonSpecies
) -> CouplingMatrix:
    """Pairwise Ising couplings from the gradient and the mode structure.

    J_ij = sum_n (1/nu_n) S_ni S_nj (domega/dz)^2 (dz_n)^2, symmetric,
    zero diagonal.  Scales quadratically in dB/dz.
    """
    dw = grad.domega_dz(species)
    s = modes.mode_matrix
    with np.errstate(over="ignore", invalid="ignore"):   # CouplingMatrix rejects nan
        weight = dw * dw * modes.spreads**2 / modes.mode_freqs   # per mode
        j = (s.T * weight) @ s
    j = 0.5 * (j + j.T)                                      # exact symmetry
    np.fill_diagonal(j, 0.0)
    return CouplingMatrix(J=j)


def epsilon_matrix(
    modes: NormalModes, grad: FieldGradient, species: IonSpecies
) -> EpsilonMatrix:
    """Gradient sideband magnitudes eps[l, n] = |S_ln| (domega/dz) dz_l / nu_l.

    Row l is a vibrational mode, column n an ion; scales linearly in dB/dz.
    """
    dw = grad.domega_dz(species)
    per_mode = dw * modes.spreads / modes.mode_freqs
    eps = np.abs(modes.mode_matrix) * per_mode[:, None]
    return EpsilonMatrix(eps=eps)


def effective_lamb_dicke(eta: float, eps_max: float) -> float:
    """Combined Lamb-Dicke parameter sqrt(eta^2 + eps^2).

    Exceeding ``LAMB_DICKE_BOUND`` is reported as a warning, not an error.
    """
    if eta < 0 or eps_max < 0:
        raise DomainError("Lamb-Dicke parameters must be non-negative")
    value = float(np.hypot(eta, eps_max))
    if value > LAMB_DICKE_BOUND:
        warnings.warn(
            f"effective Lamb-Dicke parameter {value:.4f} exceeds working bound "
            f"{LAMB_DICKE_BOUND}",
            stacklevel=2,
        )
    return value


def solve_chain(traps: TrapArray, grad: FieldGradient, species: IonSpecies):
    """Convenience pipeline: equilibrium, modes, couplings, sidebands."""
    eq = solve_equilibrium(traps, species)
    modes = normal_modes(eq, traps, species)
    coupling = coupling_matrix(modes, grad, species)
    eps = epsilon_matrix(modes, grad, species)
    return eq, modes, coupling, eps
