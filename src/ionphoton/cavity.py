"""Conditional Raman-emission dynamics of one ion in a lossy two-mode cavity.

Each qubit level drives a laser-plus-cavity Raman channel into its own
cavity mode (the sigma0 photon tags |g>, the sigma+ photon tags |e>).  Both
levels share the laser, the coupling and the detuning, so one channel
describes the cavity.  With the excited level eliminated, the channel is a
two-level problem

    |aux, vacuum>  <-- omega_eff -->  |qubit, one photon>

driven at the effective rate omega_eff = Omega * h / delta, while the photon
amplitude decays at the cavity field rate kappa.  The no-leak dynamics are
the damped Rabi problem; everything here is closed form, with a fixed-step
integrator kept in the test suite as an independent check.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Scaling anchor: cavity radius (m), coupling h (rad/s), decay kappa (rad/s).
SCALE_ANCHOR = (10e-6, 138.4e6, 960.0e6)


def effective_rabi(omega_laser: float, g_cav: float, detuning: float) -> float:
    """Adiabatically eliminated two-photon rate Omega * h / delta, rad/s."""
    if detuning == 0:
        raise DomainError("Raman channel requires nonzero detuning")
    if omega_laser < 0 or g_cav < 0:
        raise DomainError("channel couplings must be >= 0")
    w = omega_laser * g_cav / detuning
    if not math.isfinite(w):
        raise DomainError("effective Rabi rate is not finite")
    return w


@dataclass(frozen=True)
class CavitySetup:
    """One Raman channel, shared by both qubit levels, and the cavity decay (rad/s)."""

    omega_laser: float
    g_cav: float
    detuning: float
    kappa: float

    def __post_init__(self):
        effective_rabi(self.omega_laser, self.g_cav, self.detuning)
        if self.kappa < 0:
            raise DomainError("kappa must be >= 0")

    @property
    def omega_eff(self) -> float:
        """Effective Rabi rate Omega * h / delta, rad/s."""
        return effective_rabi(self.omega_laser, self.g_cav, self.detuning)


def _omega_prime(w: float, kappa: float) -> complex:
    """sqrt(w^2 - kappa^2/4), imaginary when overdamped.

    Both rates are divided by the power of two that brings the larger one
    into [0.5, 1) before squaring, and the root is scaled back.  Scaling by
    a power of two is exact, and neither square can overflow or underflow
    unless it is negligible against the other.
    """
    _, e = math.frexp(max(abs(w), kappa / 2.0))
    a, b = math.ldexp(w, -e), math.ldexp(kappa / 2.0, -e)
    root = cmath.sqrt(complex(a * a - b * b))
    return complex(math.ldexp(root.real, e), math.ldexp(root.imag, e))


def _sector_propagator(omega_eff: float, kappa: float, t: float) -> np.ndarray:
    """2x2 no-leak propagator on (|aux, 0>, |qubit, 1 photon>).

    exp(-i t [[0, w], [w, -i kappa]]) evaluated in closed form; valid on
    both sides of the damping transition (omega' real or imaginary).
    """
    w = omega_eff
    wp = _omega_prime(w, kappa)
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
    x = 2 mu / kappa < 1, so the maximizer is always finite in exact
    arithmetic.  Rates at the ends of the float range, where the closed form
    overflows or divides by zero, raise DomainError.
    """
    if omega_eff <= 0:
        raise DomainError("omega_eff must be positive")
    if kappa < 0:
        raise DomainError("kappa must be >= 0")
    try:
        tau = _stop_time(omega_eff, kappa)
    except (OverflowError, ZeroDivisionError):
        tau = math.inf
    if not math.isfinite(tau):
        raise DomainError(
            f"no finite optimal emission time for omega_eff {omega_eff:.3e} "
            f"rad/s and kappa {kappa:.3e} rad/s"
        )
    return tau


def _stop_time(omega_eff: float, kappa: float) -> float:
    if kappa == 0.0:
        return math.pi / (2.0 * omega_eff)
    wp = _omega_prime(omega_eff, kappa)
    if wp.real > 0:
        return math.atan(2.0 * wp.real / kappa) / wp.real
    if wp == 0:
        return 2.0 / kappa
    mu = wp.imag
    # atanh(x) = log1p(2x / (1 - x)) / 2, with 1 - x = 4 w^2 / (kappa (kappa + 2 mu))
    # free of the cancellation that rounds x to 1 when omega_eff << kappa,
    # and taken as a product of ratios so that w^2 cannot underflow
    one_minus_x = (2.0 * omega_eff / kappa) * (2.0 * omega_eff / (kappa + 2.0 * mu))
    return 0.5 * math.log1p(4.0 * mu / (kappa * one_minus_x)) / mu


@dataclass(frozen=True)
class EmissionResult:
    """Optimal stop time (s) and no-leak success probability."""

    tau_star: float
    p_success: float


def emission_result(setup: CavitySetup) -> EmissionResult:
    """Stop the emission of one ion at its optimal time.

    Both qubit levels drive the same Raman channel, so their photon
    amplitudes are equal at every time: conditional on a photon, the
    ion-photon branch is (|g>|sigma0 photon> + |e>|sigma+ photon>)/sqrt(2)
    whatever the cavity.  Only the stop time and the success probability
    depend on the setup.
    """
    w = setup.omega_eff
    tau = optimal_emission_time(w, setup.kappa)
    return EmissionResult(tau, success_probability(w, setup.kappa, tau))


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
        w = effective_rabi(omega_laser, g_cav, delta)
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
