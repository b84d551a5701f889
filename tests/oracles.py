"""Independent reference implementations used only to check the package.

Nothing here may call the production code paths it verifies: the cavity
integrator is a plain fixed-step RK4 on the raw non-Hermitian Schrodinger
equation, the equilibrium oracle is 1-D coordinate-descent energy
minimization, the zz and entangling references are index arithmetic on
the basis states, and the outcome tables are typed in by hand.
"""

import math

import numpy as np
from scipy.optimize import minimize_scalar

from ionphoton.constants import K_COULOMB

SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# cavity: fixed-step RK4 for the damped two-level sector


def rk4_sector_amplitudes(omega_eff: float, kappa: float, t: float,
                          steps_per_cycle: int = 1000) -> np.ndarray:
    """Integrate i d(psi)/dt = [[0, w], [w, -i kappa]] psi from (1, 0).

    Classic fixed-step RK4.  For this linear system one RK4 step is exactly
    the degree-4 Taylor polynomial of exp(-i H dt), so the n-step result is
    that one-step matrix raised to the n-th power; computing it via
    ``matrix_power`` is the same method, just without a Python loop.  Step
    size is at most (2 pi / max(w, kappa)) / steps_per_cycle.
    """
    if t == 0.0:
        return np.array([1.0, 0.0], complex)
    h_mat = np.array([[0.0, omega_eff], [omega_eff, -1j * kappa]], complex)
    rate = max(omega_eff, kappa, 1.0)
    n_steps = max(1, int(math.ceil(t * rate * steps_per_cycle / (2.0 * math.pi))))
    dt = t / n_steps
    a = -1j * dt * h_mat
    step = (
        np.eye(2, dtype=complex)
        + a
        + a @ a / 2.0
        + a @ a @ a / 6.0
        + a @ a @ a @ a / 24.0
    )
    return np.linalg.matrix_power(step, n_steps) @ np.array([1.0, 0.0], complex)


def damped_rabi_probability(omega_eff: float, kappa: float, tau: float) -> float:
    """Success probability from the closed-form damped-Rabi expression."""
    wp2 = omega_eff**2 - kappa**2 / 4.0
    if wp2 > 0:
        wp = math.sqrt(wp2)
        osc = math.sin(wp * tau) ** 2 * (omega_eff / wp) ** 2
    elif wp2 == 0:
        osc = (omega_eff * tau) ** 2
    else:
        mu = math.sqrt(-wp2)
        osc = math.sinh(mu * tau) ** 2 * (omega_eff / mu) ** 2
    return math.exp(-kappa * tau) * osc


def _probability_curve(omega_eff: float, kappa: float, ts: np.ndarray) -> np.ndarray:
    wp2 = omega_eff**2 - kappa**2 / 4.0
    if wp2 > 0:
        wp = math.sqrt(wp2)
        osc = np.sin(wp * ts) ** 2 * (omega_eff / wp) ** 2
    elif wp2 == 0:
        osc = (omega_eff * ts) ** 2
    else:
        mu = math.sqrt(-wp2)
        osc = np.sinh(mu * ts) ** 2 * (omega_eff / mu) ** 2
    return np.exp(-kappa * ts) * osc


def dense_scan_argmax(omega_eff: float, kappa: float, n: int = 2_000_001) -> float:
    """Brute-force maximizer of the success probability.

    Two grid passes: a coarse scan over a generous window, then a dense
    scan around the coarse peak, giving a few-times-1e-7 relative
    resolution without production-code involvement.
    """
    # window past the first maximum but short of the second one: for
    # kappa = 0 the later maxima have equal height and the first is the
    # defined optimum
    t_max = 1.1 * math.pi / omega_eff if kappa < 2 * omega_eff else 20.0 / kappa
    coarse_ts = np.linspace(0.0, t_max, 200_001)
    t_hat = float(coarse_ts[np.argmax(_probability_curve(omega_eff, kappa, coarse_ts))])
    if t_hat == 0.0:
        t_hat = t_max / 200_000
    fine_ts = np.linspace(0.7 * t_hat, 1.3 * t_hat, n)
    return float(fine_ts[np.argmax(_probability_curve(omega_eff, kappa, fine_ts))])


# ---------------------------------------------------------------------------
# crystal: coordinate-descent energy minimizer


def chain_energy(z, centers, freqs, mass) -> float:
    z = np.asarray(z, float)
    e = 0.5 * mass * np.sum(np.asarray(freqs) ** 2 * (z - np.asarray(centers)) ** 2)
    for a in range(len(z) - 1):
        for b in range(a + 1, len(z)):
            e += K_COULOMB / abs(z[a] - z[b])
    return e


def coordinate_descent_equilibrium(centers, freqs, mass,
                                   sweeps: int = 400, tol: float = 3e-13):
    """Cyclic 1-D minimization of the chain energy, one ion at a time."""
    z = np.asarray(centers, float).copy()
    span = max(np.max(np.abs(z)), 1e-6) * 4.0 + 1e-5
    for _ in range(sweeps):
        moved = 0.0
        for m in range(len(z)):
            lo = z[m - 1] + 1e-9 if m > 0 else z[m] - span
            hi = z[m + 1] - 1e-9 if m < len(z) - 1 else z[m] + span

            def energy_of(zm, m=m):
                trial = z.copy()
                trial[m] = zm
                return chain_energy(trial, centers, freqs, mass)

            res = minimize_scalar(
                energy_of, bounds=(lo, hi), method="bounded",
                options={"xatol": 1e-18},
            )
            moved = max(moved, abs(res.x - z[m]))
            z[m] = res.x
        if moved < tol:
            break
    return z


# ---------------------------------------------------------------------------
# gates: exact ion-space unitaries and the ideal entangling stage


def zz_unitary(n_ions: int, pair, angle: float) -> np.ndarray:
    """diag exp(i angle z_a z_b) on the 2^N ion space, z = +1 for |e> (bit 0)."""
    a, b = pair
    idx = np.arange(2**n_ions)
    z_a = 1 - 2 * ((idx >> (n_ions - 1 - a)) & 1)
    z_b = 1 - 2 * ((idx >> (n_ions - 1 - b)) & 1)
    return np.diag(np.exp(1j * angle * z_a * z_b))


def ideal_entangle(n_ions: int, active_on: str) -> np.ndarray:
    """Exact ion unitary H_1 C_{1->N} ... C_{1->2}, by index arithmetic.

    All CNOTs share control ion 1 (the most significant bit), so together
    they flip every other bit of basis state x when ion 1 is active; the
    Hadamard then maps |e> -> (|g>-|e>)/sqrt2 and |g> -> (|g>+|e>)/sqrt2
    on ion 1.
    """
    dim = 2**n_ions
    half = dim // 2
    x = np.arange(dim)
    control_on = (x >= half) == (active_on == "g")
    y = np.where(control_on, x ^ (half - 1), x)      # basis state after the CNOTs
    rest, ion1_g = y % half, y >= half
    u = np.zeros((dim, dim))
    u[rest + half, x] = 1.0 / SQ2                     # |g> part, always +
    u[rest, x] = np.where(ion1_g, 1.0, -1.0) / SQ2    # |e> part, - from |e>
    return u


# ---------------------------------------------------------------------------
# hand-typed outcome tables (ion string -> {photon pattern: sign})

TWO_PHOTON_TABLE = {
    "gg": {"s+ s+": +1, "s0 s0": +1},
    "ee": {"s0 s+": +1, "s+ s0": -1},
    "eg": {"s0 s0": +1, "s+ s+": -1},
    "ge": {"s0 s+": +1, "s+ s0": +1},
}

THREE_PHOTON_TABLE = {
    "ggg": {"s+ s+ s+": +1, "s0 s0 s0": +1},
    "egg": {"s0 s0 s0": +1, "s+ s+ s+": -1},
    "gee": {"s0 s+ s+": +1, "s+ s0 s0": +1},
    "eee": {"s0 s+ s+": +1, "s+ s0 s0": -1},
    "geg": {"s+ s0 s+": +1, "s0 s+ s0": +1},
    "eeg": {"s0 s+ s0": +1, "s+ s0 s+": -1},
    "gge": {"s0 s0 s+": +1, "s+ s+ s0": +1},
    "ege": {"s0 s0 s+": +1, "s+ s+ s0": -1},
}


def photon_pattern_index(pattern: str) -> int:
    """Basis index of a photon pattern like 's0 s+' (s+ -> bit 0, s0 -> bit 1)."""
    idx = 0
    for tok in pattern.split():
        idx = (idx << 1) | (0 if tok == "s+" else 1)
    return idx


def ion_string_index(ions: str) -> int:
    """Basis index of an ion string like 'ge' (e -> bit 0, g -> bit 1)."""
    idx = 0
    for ch in ions:
        idx = (idx << 1) | (0 if ch == "e" else 1)
    return idx


def hand_table_state(table: dict, n: int) -> np.ndarray:
    """Ion x photon amplitudes, rows = ion strings, from a hand-typed table."""
    amps = np.zeros((2**n, 2**n))
    norm = 1.0 / (2.0 ** (n / 2.0) * SQ2)
    for ions, photons in table.items():
        for pattern, sign in photons.items():
            amps[ion_string_index(ions), photon_pattern_index(pattern)] += sign * norm
    return amps
