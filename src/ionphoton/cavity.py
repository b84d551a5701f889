"""Conditional Raman-emission dynamics of one ion in a lossy two-mode cavity.

Each ion carries two laser-plus-cavity Raman channels (one per qubit level).
With the excited level eliminated, each channel is a two-level problem

    |aux, vacuum>  <-- omega_eff -->  |qubit, one photon>

driven at the effective rate omega_eff = Omega * h / delta, while the photon
amplitude decays at the cavity field rate kappa.  The no-leak dynamics are
the damped Rabi problem; everything here is closed form, with a fixed-step
integrator kept in the test suite as an independent check.

Basis order for the four-level amplitudes:
    0: |g', 00>   1: |g, 10>   2: |e', 00>   3: |e, 01>
(photon slots ordered as (n_sigma0, n_sigma+); the sigma0 photon tags |g>,
the sigma+ photon tags |e>).
"""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

RABI_MATCH_RTOL = 1e-6   # channel symmetry assumption tolerance

# Scaling anchor: cavity radius (m), coupling h (rad/s), decay kappa (rad/s).
SCALE_ANCHOR = (10e-6, 138.4e6, 960.0e6)


@dataclass(frozen=True)
class RamanChannel:
    """One laser + cavity-mode Raman channel (all rates rad/s)."""

    omega_laser: float
    g_cav: float
    detuning: float

    def __post_init__(self):
        if self.detuning == 0:
            raise DomainError("Raman channel requires nonzero detuning")
        if self.omega_laser < 0 or self.g_cav < 0:
            raise DomainError("channel couplings must be >= 0")
        if not math.isfinite(self.omega_laser * self.g_cav / self.detuning):
            raise DomainError("effective Rabi rate is not finite")


def effective_rabi(ch: RamanChannel) -> float:
    """Adiabatically eliminated two-photon rate Omega * h / delta, rad/s."""
    return ch.omega_laser * ch.g_cav / ch.detuning


@dataclass(frozen=True)
class CavitySetup:
    """Both Raman channels of one ion's cavity plus the common decay rate."""

    channel_g: RamanChannel
    channel_e: RamanChannel
    kappa: float                 # rad/s, same for both cavity modes

    def __post_init__(self):
        if self.kappa < 0:
            raise DomainError("kappa must be >= 0")
        wg = effective_rabi(self.channel_g)
        we = effective_rabi(self.channel_e)
        ref = max(abs(wg), abs(we))
        if ref > 0 and abs(wg - we) > RABI_MATCH_RTOL * ref:
            warnings.warn(
                f"channel Rabi rates differ ({wg:.6g} vs {we:.6g} rad/s); "
                "using their mean",
                stacklevel=2,
            )

    @property
    def omega_eff(self) -> float:
        """Common effective Rabi rate (mean of the two channels)."""
        return 0.5 * (effective_rabi(self.channel_g) + effective_rabi(self.channel_e))


def symmetric_setup(
    omega_laser: float, g_cav: float, detuning: float, kappa: float
) -> CavitySetup:
    """CavitySetup with identical g and e channels."""
    ch = RamanChannel(omega_laser, g_cav, detuning)
    return CavitySetup(channel_g=ch, channel_e=ch, kappa=kappa)


@dataclass(frozen=True)
class FourLevelAmplitudes:
    """Complex amplitudes over {|g',00>, |g,10>, |e',00>, |e,01>}."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, complex)
        if amps.shape != (4,):
            raise DomainError("four amplitudes required")
        if self.norm_sq() > 1.0 + 1e-12:
            raise DomainError(f"norm^2 {self.norm_sq():.6f} exceeds 1")
        object.__setattr__(self, "amps", amps)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(np.asarray(self.amps)) ** 2))


def initial_superposition() -> FourLevelAmplitudes:
    """(|g'> + |e'>)/sqrt(2) with both cavity modes empty."""
    return FourLevelAmplitudes(np.array([1, 0, 1, 0], complex) / math.sqrt(2))


def _sector_propagator(omega_eff: float, kappa: float, t: float) -> np.ndarray:
    """2x2 no-leak propagator on (|aux, 0>, |qubit, 1 photon>).

    exp(-i t [[0, w], [w, -i kappa]]) evaluated in closed form; valid on
    both sides of the damping transition (omega' real or imaginary).
    """
    w = omega_eff
    wp = cmath.sqrt(complex(w * w - kappa * kappa / 4.0))
    z = wp * t
    if abs(z) < 1e-8:
        sinc = t * (1.0 - z * z / 6.0)     # sin(z)/wp -> t as z -> 0
    else:
        sinc = cmath.sin(z) / wp
    cosz = cmath.cos(z)
    damp = cmath.exp(-kappa * t / 2.0)
    a = np.array(
        [[1j * kappa / 2.0, w], [w, -1j * kappa / 2.0]], complex
    )
    return damp * (cosz * np.eye(2) - 1j * sinc * a)


def evolve_conditional(
    setup: CavitySetup, state: FourLevelAmplitudes, t: float
) -> FourLevelAmplitudes:
    """Propagate the no-leak amplitudes for time t >= 0.

    The g'/g and e'/e sectors evolve independently; the squared norm never
    increases (lost norm = photon-leak probability).
    """
    if t < 0:
        raise DomainError("time must be >= 0")
    u = _sector_propagator(setup.omega_eff, setup.kappa, t)
    amps = np.asarray(state.amps)
    out = np.empty(4, complex)
    out[0:2] = u @ amps[0:2]
    out[2:4] = u @ amps[2:4]
    return FourLevelAmplitudes(out)


def photon_amplitude(omega_eff: float, kappa: float, t: float) -> complex:
    """Amplitude on |qubit, 1 photon> at time t from a pure auxiliary start."""
    return _sector_propagator(omega_eff, kappa, t)[1, 0]


def success_probability(omega_eff: float, kappa: float, tau: float) -> float:
    """No-leak photon-deposit probability at time tau.

    P = exp(-kappa tau) sin^2(omega' tau) (omega/omega')^2 with the
    hyperbolic continuation when omega' is imaginary.  The value lies in
    [0, 1] by construction; checked, never clamped.
    """
    if tau < 0:
        raise DomainError("tau must be >= 0")
    p = abs(photon_amplitude(omega_eff, kappa, tau)) ** 2
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise DomainError(f"probability {p} out of range")
    return float(p)


def optimal_emission_time(omega_eff: float, kappa: float) -> float:
    """Smallest positive maximizer of the success probability.

    Underdamped: tan(omega' tau) = 2 omega' / kappa, first branch.
    Overdamped (kappa >= 2 omega): tanh(mu tau) = x with mu = |omega'| and
    x = 2 mu / kappa < 1, so the maximizer is always finite.
    """
    if omega_eff <= 0:
        raise DomainError("omega_eff must be positive")
    if kappa < 0:
        raise DomainError("kappa must be >= 0")
    if kappa == 0.0:
        return math.pi / (2.0 * omega_eff)
    disc = omega_eff**2 - kappa**2 / 4.0
    if disc > 0:
        wp = math.sqrt(disc)
        return math.atan(2.0 * wp / kappa) / wp
    if disc == 0:
        return 2.0 / kappa
    mu = math.sqrt(-disc)
    # atanh(x) = log1p(2x / (1 - x)) / 2, with 1 - x = 4 w^2 / (kappa (kappa + 2 mu))
    # free of the cancellation that rounds x to 1 when omega_eff << kappa
    one_minus_x = 4.0 * omega_eff**2 / (kappa * (kappa + 2.0 * mu))
    return 0.5 * math.log1p(4.0 * mu / (kappa * one_minus_x)) / mu


@dataclass(frozen=True)
class EmissionResult:
    """Optimal stop time, success probability, and the conditional branch."""

    tau_star: float
    p_success: float
    conditional_state: tuple   # ((label, amplitude), (label, amplitude))

    def __post_init__(self):
        if not 0.0 <= self.p_success <= 1.0 + 1e-12:
            raise DomainError("success probability out of [0, 1]")


def emission_result(setup: CavitySetup) -> EmissionResult:
    """Evolve the standard initial superposition to its optimal stop time.

    Conditional on a photon being present, the ion-photon branch is
    (|g>|sigma0 photon> + |e>|sigma+ photon>)/sqrt(2); the overall phase is
    normalized away.
    """
    w = setup.omega_eff
    tau = optimal_emission_time(w, setup.kappa)
    state = evolve_conditional(setup, initial_superposition(), tau)
    a_g, a_e = state.amps[1], state.amps[3]
    p = float(abs(a_g) ** 2 + abs(a_e) ** 2)
    norm = math.sqrt(p)
    if norm > 0:
        phase = a_g / abs(a_g) if abs(a_g) > 0 else 1.0
        pair = (
            ("g,s0", complex(a_g / (norm * phase))),
            ("e,s+", complex(a_e / (norm * phase))),
        )
    else:
        pair = (("g,s0", 0j), ("e,s+", 0j))
    return EmissionResult(tau_star=tau, p_success=p, conditional_state=pair)


def scale_cavity(r_new: float, anchor=SCALE_ANCHOR) -> tuple[float, float]:
    """Coupling and decay at cavity radius ``r_new`` via the size power laws.

    h scales as R^(-3/4) and kappa as 1/R from the anchor point
    (R, h, kappa) = ``anchor``; the default anchor is (10 um, 138.4e6 rad/s,
    960e6 rad/s).
    """
    r0, h0, k0 = anchor
    if r_new <= 0:
        raise DomainError("cavity radius must be positive")
    ratio = r_new / r0
    return h0 * ratio ** (-0.75), k0 / ratio


@dataclass(frozen=True)
class SweepPoint:
    kappa: float       # rad/s
    delta: float       # rad/s
    tau_star: float    # s
    p_single: float
    p_pair: float


def fig2_sweep(
    omega_laser: float, g_cav: float, delta_list, kappa_values
) -> list[SweepPoint]:
    """Pair success probability at the optimal time over a (delta, kappa) grid.

    Both ions share the setup, so p_pair = p_single^2.  Rows are ordered
    with delta as the outer loop (as given) and kappa ascending inside.
    """
    deltas = [float(d) for d in delta_list]
    kappas = sorted(float(k) for k in kappa_values)
    if not deltas or not kappas:
        raise DomainError("sweep grids must be non-empty")
    rows = []
    for delta in deltas:
        w = effective_rabi(RamanChannel(omega_laser, g_cav, delta))
        for kappa in kappas:
            tau = optimal_emission_time(w, kappa)
            p1 = success_probability(w, kappa, tau)
            rows.append(
                SweepPoint(
                    kappa=kappa, delta=delta, tau_star=tau,
                    p_single=p1, p_pair=p1 * p1,
                )
            )
    return rows
