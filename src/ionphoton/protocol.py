"""End-to-end entangled-photon protocol over N microtrap-microcavity sites.

Pipeline: per-ion auxiliary preparation, conditional cavity emission (one
polarization-tagged photon per ion), a chain of compiled CNOTs from ion 1
to every other ion followed by a Hadamard on ion 1, and projective readout
of the ion register.  Each of the 2^N ion outcomes heralds one maximally
entangled N-photon state; with ideal emission every outcome has
probability 1/2^N.

Monte Carlo sampling is reproducible: trial k draws from the substream
numpy.random.default_rng(SeedSequence(entropy=seed, spawn_key=(k,))), so
any execution order (serial or parallel) yields bit-identical reports.
``_substream`` computes each trial's two draws under that rule for a
block of trials at once; a run holds at most MAX_TRIALS trials, so every
spawn key is one uint32 word.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _substream, cavity, crystal, gates
from .errors import DomainError

PHOTON_CHARS = {0: "s+", 1: "s0"}
SPIN_CHARS = {0: "e", 1: "g"}

MIN_PROTOCOL_IONS = 2
MAX_TRIALS = 2**32
TRIAL_CHUNK = 1024   # trials sampled per block; keeps the sampler's arrays small


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run the full protocol once; the ions' cavities are identical."""

    species: crystal.IonSpecies
    traps: crystal.TrapArray
    gradient: crystal.FieldGradient
    setup: cavity.CavitySetup  # every ion's cavity
    cnot_active_on: str = "e"  # 'e' reproduces the outcome tables
    seed: int = 0
    t0: float | None = None    # per-CNOT time; the compiled CNOT duration if None
    t1: float = 0.0            # Hadamard + measurement time
    collection_efficiency: float = 1.0

    def __post_init__(self):
        if not MIN_PROTOCOL_IONS <= self.n_ions <= gates.MAX_IONS:
            raise DomainError(
                f"protocol needs {MIN_PROTOCOL_IONS}..{gates.MAX_IONS} ions, got {self.n_ions}"
            )
        if self.cnot_active_on not in ("e", "g"):
            raise DomainError("cnot_active_on must be 'e' or 'g'")
        if not 0.0 <= self.collection_efficiency <= 1.0:
            raise DomainError("collection efficiency must be in [0, 1]")
        if self.t1 < 0 or (self.t0 is not None and self.t0 < 0):
            raise DomainError("times must be >= 0")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")

    @property
    def n_ions(self) -> int:
        return self.traps.n_ions


def emission_stage(cfg: ExperimentConfig) -> list:
    """Per-ion success probabilities of conditional emission at the optimal
    stop time; every ion's cavity is ``cfg.setup``, so one optimum serves all.

    On success every site is (|g>|s0> + |e>|s+>)/sqrt(2), whatever the
    cavity: both qubit levels share one Raman channel, so only the success
    probability depends on it.
    """
    p = cavity.emission_result(cfg.setup).p_success * cfg.collection_efficiency
    return [p] * cfg.n_ions


def chain_coupling(cfg: ExperimentConfig) -> crystal.CouplingMatrix:
    """Ising couplings of the configured chain."""
    eq = crystal.solve_equilibrium(cfg.traps, cfg.species)
    modes = crystal.normal_modes(eq, cfg.traps, cfg.species)
    return crystal.coupling_matrix(modes, cfg.gradient, cfg.species)


def entangle_stage(cnots, coupling) -> np.ndarray:
    """Ion unitary U = H_1 C_{1->N} ... C_{1->2}.

    ``cnots`` are the CNOTs of ``gates.cnots_from_first``, in run order; they
    run as one pulse sequence over the coupling array ``coupling`` (rad/s),
    with the spectator couplings refocused away.
    """
    elements = tuple(e for seq in cnots for e in seq.elements)
    u = gates.sequence_unitary(gates.PulseSequence(elements), coupling)
    return gates.apply_hadamard(u, 0)


@dataclass(frozen=True)
class OutcomeRow:
    """One ion-detection outcome and its heralded photon state."""

    ions: str                      # e.g. "ge"
    photon_amplitudes: np.ndarray  # normalized, dim 2^N
    expression: str                # e.g. "(+|s0 s+> - |s+ s0>)/sqrt2"
    probability: float


@dataclass(frozen=True)
class OutcomeTable:
    n_ions: int
    rows: tuple


def _photon_label(index: int, n: int) -> str:
    bits = [(index >> (n - 1 - i)) & 1 for i in range(n)]
    return " ".join(PHOTON_CHARS[b] for b in bits)


def _photon_states(amps: np.ndarray) -> list[str]:
    """format_photon_state of each row of ``amps``, in one array pass;
    only the strings are built row by row."""
    rows, dim = amps.shape
    n = int(round(math.log2(dim))) if dim > 1 else 1
    labels = [_photon_label(i, n) for i in range(dim)]
    mags = np.abs(amps)
    peak = mags.max(axis=1)
    keep = mags > 1e-10 * peak[:, None]
    # the anchor is the highest-index kept term; a zero row keeps none
    last = dim - 1 - np.argmax(keep[:, ::-1], axis=1)
    anchor = np.where(peak > 0, amps[np.arange(rows), last], 1)
    # hypot, as scalar abs() computes it; np.abs of a complex array may round differently
    work = amps * (np.hypot(anchor.real, anchor.imag) / anchor)[:, None]
    counts = keep.sum(axis=1)
    balanced = (counts == 2) & np.all(
        ~keep | ((np.abs(mags - 1 / math.sqrt(2)) < 1e-9) & (np.abs(work.imag) < 1e-10)),
        axis=1,
    )
    rr, cc = np.nonzero(keep)   # row-major: each row's kept terms in index order
    cols, values = cc.tolist(), work[rr, cc].tolist()
    out, start = [], 0
    for end, is_balanced in zip(np.cumsum(counts).tolist(), balanced.tolist()):
        terms = list(zip(values[start:end], cols[start:end]))
        start = end
        if not terms:
            out.append("0")
        elif is_balanced:   # positive term first, then by index
            (_, i), (neg, j) = sorted((c.real <= 0, i) for c, i in terms)
            out.append(f"(+|{labels[i]}> {'-' if neg else '+'} |{labels[j]}>)/sqrt2")
        else:
            out.append(" ".join(
                (f"{c.real:+.6g}" if abs(c.imag) < 1e-12 else f"+({c:.6g})") + f"|{labels[i]}>"
                for c, i in terms
            ))
    return out


def format_photon_state(amps: np.ndarray) -> str:
    """Render a photon statevector.

    Balanced two-term states print as "(+|a> - |b>)/sqrt2" with the global
    phase fixed so the highest-index term is positive and positive terms
    listed first; anything else falls back to a plain sum of terms.
    """
    return _photon_states(np.asarray(amps)[None, :])[0]


def outcome_table(u: np.ndarray) -> OutcomeTable:
    """Heralded photon state of every ion-basis string.

    After emission each site is (|g>|s0> + |e>|s+>)/sqrt2, so the photons
    copy the ion register.  The ion unitary U then leaves
    sum_{s,x} U[s,x] |s>|x> / 2^(N/2): detecting ions s heralds the photon
    state in row s of U, with probability |U[s]|^2 / 2^N.
    """
    n = len(u).bit_length() - 1
    weights = np.sum(np.abs(u) ** 2, axis=1)
    photons = u / np.sqrt(weights)[:, None]
    ions = ["".join(SPIN_CHARS[(s >> (n - 1 - i)) & 1] for i in range(n)) for s in range(2**n)]
    rows = map(OutcomeRow, ions, photons, _photon_states(photons), (weights / 2**n).tolist())
    return OutcomeTable(n_ions=n, rows=tuple(rows))


def timing_estimate(n_ions: int, t0: float, t1: float) -> float:
    """Minimum protocol duration (N-1) t0 + t1."""
    if n_ions < 2:
        raise DomainError("timing needs at least two ions")
    if t0 < 0 or t1 < 0:
        raise DomainError("times must be >= 0")
    return (n_ions - 1) * t0 + t1


def success_rate(n_ions: int, per_ion_p) -> tuple[float, float]:
    """(rate for one specific target photon state, rate for any outcome)."""
    p = [float(x) for x in per_ion_p]
    if any(not 0.0 <= x <= 1.0 for x in p):
        raise DomainError("probabilities must be in [0, 1]")
    total = math.prod(p)
    return total / 2**n_ions, total


@dataclass(frozen=True)
class RunReport:
    """Sampling summary of one run; run_report.json holds every field but ``table``."""

    trials: int
    seed: int
    per_ion_p: tuple
    p_total: float
    n_success: int
    failed_emissions: int
    counts: dict               # ion string -> count (all 2^N strings)
    frequencies: dict          # ion string -> count / n_success
    within_3sigma: dict        # ion string -> bool (vs uniform 1/2^N)
    t0_s: float
    t0_compiled_s: float
    t1_s: float
    timing_s: float
    rate_specific_state: float
    rate_any_state: float
    cnot_active_on: str
    table: OutcomeTable = field(compare=False)


def sample_run(cfg: ExperimentConfig, trials: int) -> RunReport:
    """Run the pipeline once, then Monte Carlo sample the measurement.

    Each trial first draws overall emission success (probability
    prod_m P_m), then an ion string from the outcome table.  Deterministic
    given (seed, trials); ``trials`` is 1..MAX_TRIALS.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise DomainError(f"trials must be in 1..{MAX_TRIALS}, got {trials}")
    coupling = chain_coupling(cfg)
    probs = emission_stage(cfg)
    cnots = gates.cnots_from_first(coupling.J, cfg.cnot_active_on)
    table = outcome_table(entangle_stage(cnots, coupling.J))

    p_total = math.prod(probs)
    cum = np.cumsum([row.probability for row in table.rows])
    cum[-1] = max(cum[-1], 1.0)   # guard the last bin against roundoff
    counts = np.zeros(len(table.rows), dtype=np.int64)
    prefix = _substream.seed_prefix(cfg.seed)
    for start in range(0, trials, TRIAL_CHUNK):
        keys = np.arange(start, min(start + TRIAL_CHUNK, trials), dtype=np.uint32)
        u1, u2 = _substream.first_two_uniforms(_substream.state_words(prefix, keys))
        hits = np.searchsorted(cum, u2[u1 < p_total], side="right")
        counts += np.bincount(hits, minlength=len(counts))

    n_success = int(counts.sum())
    p_uniform = 1.0 / len(table.rows)
    freqs, flags = {}, {}
    sigma = (
        math.sqrt(p_uniform * (1 - p_uniform) / n_success) if n_success else 0.0
    )
    for row, c in zip(table.rows, counts):
        f = c / n_success if n_success else 0.0
        freqs[row.ions] = f
        flags[row.ions] = bool(abs(f - p_uniform) <= 3.0 * sigma) if n_success else False

    t0_compiled = max(seq.total_duration for seq in cnots)
    t0 = cfg.t0 if cfg.t0 is not None else t0_compiled
    rate_specific, rate_any = success_rate(cfg.n_ions, probs)
    return RunReport(
        trials=trials,
        seed=cfg.seed,
        per_ion_p=tuple(probs),
        p_total=p_total,
        n_success=n_success,
        failed_emissions=trials - n_success,
        counts={row.ions: int(c) for row, c in zip(table.rows, counts)},
        frequencies=freqs,
        within_3sigma=flags,
        t0_s=t0,
        t0_compiled_s=t0_compiled,
        t1_s=cfg.t1,
        timing_s=timing_estimate(cfg.n_ions, t0, cfg.t1),
        rate_specific_state=rate_specific,
        rate_any_state=rate_any,
        cnot_active_on=cfg.cnot_active_on,
        table=table,
    )
