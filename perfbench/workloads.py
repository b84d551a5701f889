"""Seeded generation of the benchmark's config files and CLI jobs.

The program under test sees only the config text and the CLI arguments.
``meta`` keeps the drawn parameters so the output checks can recompute
results without reading the program's own intermediate values.

Each workload is a pool of blocks.  A block holds one job of every
"shape" the workload mixes (command kind, chain length, cavity type),
and job sizes come from stratified sampling: the size range is cut into
equal strata and every stratum is used once, in a seeded order.  Where
job time follows the size (``mc_sampling``, ``emission_sweep``) there is
one stratum per job of the whole pool, dealt out so that every block
spans the whole range; neighbouring sizes then differ by a few percent,
so the tail that sets p90 barely moves with the seed.  Any whole number
of blocks therefore has nearly the same size distribution whatever the
seed, and a closed loop that stops part-way through a pass sees nearly
the same mix on every seed.  The seed still changes every parameter and
the order of the jobs.
"""

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("mc_sampling", "chain_design", "emission_sweep")

# Every chain is drawn from the ranges of the reference tables.
D_UM = (6.0, 10.0)
NU_MRAD_S = (2.0, 5.5)

SPECIES = "[species]\nmass_amu = 171.0\ng_factor = 2.0\nlabel = Yb-171\n\n"
MASS_AMU = 171.0
G_FACTOR = 2.0

# Raman channel of every cavity: Omega and h fixed, detuning per job.
OMEGA_MRAD_S = 10.0
H_MRAD_S = 138.0


@dataclass
class Job:
    """One CLI invocation: ``ionphoton <kind> --config <file> <args>``."""

    name: str
    kind: str
    config_text: str
    args: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list        # the pool the timed loop cycles through
    warmups: list     # one job of each command kind, run during set-up


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


def _strata(rng: random.Random, lo: float, hi: float, k: int, log: bool = False):
    """k ascending values, one uniform draw inside each of k equal strata of [lo, hi]."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    values = [lo + (i + rng.random()) * (hi - lo) / k for i in range(k)]
    return [math.exp(v) for v in values] if log else values


def _chain(rng: random.Random, n: int, dbdz_range) -> tuple[str, dict]:
    """Section body for one chain with per-trap frequencies."""
    d = round(rng.uniform(*D_UM), 3)
    nus = [round(rng.uniform(*NU_MRAD_S), 3) for _ in range(n)]
    dbdz = round(rng.uniform(*dbdz_range), 1)
    lines = [f"n_ions = {n}", f"d_um = {d}"]
    lines += [f"nu_{k + 1}_Mrad_s = {nu}" for k, nu in enumerate(nus)]
    lines.append(f"dBdz_T_per_m = {dbdz}")
    return "\n".join(lines) + "\n\n", {"n": n, "d_um": d, "nu": nus, "dbdz": dbdz}


def _cavity(detuning: float, kappa: float) -> str:
    return (
        f"[cavity]\nOmega_Mrad_s = {OMEGA_MRAD_S}\nh_Mrad_s = {H_MRAD_S}\n"
        f"delta_Mrad_s = {detuning}\nkappa_Mrad_s = {kappa}\n\n"
    )


def _run_job(name, rng, n, trials, kappa, dbdz_range, fmt) -> Job:
    body, chain = _chain(rng, n, dbdz_range)
    detuning = round(rng.uniform(0.08, 0.12), 4)
    # Half the run seeds need multi-word SeedSequence entropy (>= 2**32).
    seed = rng.randrange(2**32, 2**63) if rng.random() < 0.5 else rng.randrange(2**32)
    text = (
        SPECIES + "[crystal]\n" + body + _cavity(detuning, kappa)
        + "[protocol]\ncnot_active_on = e\nt1_s = 0.0\n\n"
        + f"[run]\ntrials = {trials}\nseed = {seed}\n"
    )
    meta = {"chain": chain, "trials": trials, "seed": seed,
            "detuning": detuning, "kappa": kappa, "format": fmt}
    return Job(name, "run", text, ["--format", fmt], meta)


# ---------------------------------------------------------------------------
# mc_sampling: the per-trial sampler carries the load


MC_BLOCKS = 6
MC_TRIALS = (4000, 16000)        # log-uniform; sampler >= 90% of job time
MC_KAPPA_LOSSY = (100.0, 2000.0)
MC_DBDZ = (100.0, 550.0)


def _mc_sampling(rng: random.Random):
    shapes = [(n, lossy) for n in (2, 3, 4, 5) for lossy in (False, True)]
    # one stratum per job over the whole pool (see the module docstring)
    strata = _strata(rng, *MC_TRIALS, MC_BLOCKS * len(shapes), log=True)
    jobs = []
    for b in range(MC_BLOCKS):
        trials = _shuffled(rng, strata[b::MC_BLOCKS])
        block = []
        for i, ((n, lossy), t) in enumerate(zip(shapes, trials)):
            kappa = round(_log_uniform(rng, *MC_KAPPA_LOSSY), 2) if lossy else 0.0
            fmt = "csv" if (i + i // 2) % 2 == 0 else "json"
            block.append(_run_job(f"mc{b}.{i}", rng, n, int(round(t)), kappa, MC_DBDZ, fmt))
        jobs += _shuffled(rng, block)
    warm = _run_job("warm.run", rng, 3, MC_TRIALS[0], 0.0, MC_DBDZ, "csv")
    return jobs, [warm]


# ---------------------------------------------------------------------------
# chain_design: crystal and gates carry the load, no sampling


CD_BLOCKS = 16
CD_DBDZ = (100.0, 400.0)
CD_GATES_N = (2, 3, 4, 5, 6, 6)  # the N = 6 jobs form the latency tail
CD_RUN_N = (4, 5, 6)
CD_COUPLINGS = 3
CD_RUN_TRIALS = (10, 100)


def _couplings_job(name, rng) -> Job:
    n_cases = rng.randint(2, 6)
    text, cases = SPECIES, []
    for k in range(1, n_cases + 1):
        body, chain = _chain(rng, rng.randint(2, 6), CD_DBDZ)
        text += f"[case.{k}]\n" + body
        cases.append(chain)
    fmt = rng.choice(["csv", "json"])
    return Job(name, "couplings", text, ["--format", fmt], {"cases": cases, "format": fmt})


def _gates_job(name, rng, n) -> Job:
    body, chain = _chain(rng, n, CD_DBDZ)
    return Job(name, "gates", SPECIES + "[crystal]\n" + body, [], {"chain": chain})


def _chain_design(rng: random.Random):
    jobs = []
    for b in range(CD_BLOCKS):
        block = [_gates_job(f"cd{b}.g{i}", rng, n) for i, n in enumerate(CD_GATES_N)]
        trials = _shuffled(rng, _strata(rng, *CD_RUN_TRIALS, len(CD_RUN_N)))
        for i, (n, t) in enumerate(zip(CD_RUN_N, trials)):
            fmt = rng.choice(["csv", "json"])
            block.append(_run_job(f"cd{b}.r{i}", rng, n, int(round(t)), 0.0, CD_DBDZ, fmt))
        block += [_couplings_job(f"cd{b}.c{i}", rng) for i in range(CD_COUPLINGS)]
        jobs += _shuffled(rng, block)
    warm = [
        _couplings_job("warm.couplings", rng),
        _gates_job("warm.gates", rng, 6),
        _run_job("warm.run", rng, 6, CD_RUN_TRIALS[1], 0.0, CD_DBDZ, "csv"),
    ]
    return jobs, warm


# ---------------------------------------------------------------------------
# emission_sweep: cavity sweeps and bulk report writing


ES_BLOCKS = 10
ES_PER_BLOCK = 8
ES_DETUNINGS = (2, 8)             # count of detunings per job
ES_KAPPAS = (200, 1500)           # count of kappa grid points per job
ES_DELTA_MRAD_S = (0.5, 4.0)      # omega_eff = 1380 / delta Mrad/s
ES_KAPPA_MAX = (6000.0, 12000.0)  # beyond 2 omega_eff: overdamped side


def _emission_job(name, rng, n_points, fmt) -> Job:
    """A (delta, kappa) grid of about ``n_points`` points."""
    n_delta = rng.choice([
        n for n in range(ES_DETUNINGS[0], ES_DETUNINGS[1] + 1)
        if ES_KAPPAS[0] <= n_points / n <= ES_KAPPAS[1]
    ])
    n_kappa = int(round(n_points / n_delta))
    deltas = set()
    while len(deltas) < n_delta:
        deltas.add(round(_log_uniform(rng, *ES_DELTA_MRAD_S), 4))
    deltas = sorted(deltas)
    kappa_max = round(rng.uniform(*ES_KAPPA_MAX), 1)
    setup_kappa = round(rng.uniform(100.0, 2000.0), 2)
    text = (
        _cavity(deltas[0], setup_kappa)
        + f"[sweep]\nkappa_grid_Mrad_s = 0:{kappa_max}:{n_kappa}\n"
        + f"delta_list_Mrad_s = {','.join(str(d) for d in deltas)}\n"
    )
    meta = {"deltas": deltas, "kappa_max": kappa_max, "n_kappa": n_kappa,
            "setup_kappa": setup_kappa, "format": fmt}
    return Job(name, "emission", text, ["--format", fmt], meta)


def _emission_sweep(rng: random.Random):
    lo = ES_DETUNINGS[0] * ES_KAPPAS[0]
    hi = ES_DETUNINGS[1] * ES_KAPPAS[1]
    # One stratum per job over the whole pool: the sizes span 30x, so
    # per-block strata would leave the pool's median size seed-dependent.
    # Stratum i goes to block i % ES_BLOCKS; formats alternate along the
    # strata of each block so both cover the whole size range.
    points = _strata(rng, lo, hi, ES_BLOCKS * ES_PER_BLOCK, log=True)
    jobs = []
    for b in range(ES_BLOCKS):
        jobs += _shuffled(rng, [
            _emission_job(f"es{b}.{i}", rng, p, "csv" if i % 2 == 0 else "json")
            for i, p in enumerate(points[b::ES_BLOCKS])
        ])
    # the largest grid, in JSON: sets the worker's peak memory
    return jobs, [_emission_job("warm.emission", rng, hi, "json")]


_BUILDERS = {
    "mc_sampling": _mc_sampling,
    "chain_design": _chain_design,
    "emission_sweep": _emission_sweep,
}


def generate(name: str, seed: int) -> Workload:
    """The workload's jobs; the same (name, seed) gives identical jobs."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    jobs, warmups = _BUILDERS[name](rng)
    return Workload(name, seed, jobs, warmups)
