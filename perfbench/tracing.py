"""Spans around the calls into each ionphoton layer, recorded from outside.

The traced run replaces public functions on their module objects (and
``ReportBundle.write`` on its class) with wrappers that open a span.
Calls between ionphoton modules, and inside one module, look the function
up in the module's globals at call time, so internal calls such as
``sample_run -> chain_coupling`` or ``solve_chain -> normal_modes`` are
caught too.  Nothing under ``src/`` changes, and the untraced runs never
install the wrappers.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index
of the enclosing span (-1 for a job's root span) and ``job`` the index
of the job instance.  Spans stay in memory until the run ends.
"""

import functools
import time
from collections import Counter
from pathlib import Path

ROOT_SPAN = "cli.job"

# (module, attribute, span name); a span name's prefix is its layer.
TRACED_FUNCTIONS = (
    ("config", "load_config", "config.load_config"),
    ("config", "crystal_cases", "config.crystal_cases"),
    ("config", "cavity_from", "config.cavity_from"),
    ("config", "sweep_grid", "config.sweep_grid"),
    ("config", "experiment_from", "config.experiment_from"),
    ("config", "trials_from", "config.trials_from"),
    ("crystal", "solve_chain", "crystal.solve_chain"),
    ("crystal", "solve_equilibrium", "crystal.solve_equilibrium"),
    ("crystal", "potential_hessian", "crystal.potential_hessian"),
    ("crystal", "normal_modes", "crystal.normal_modes"),
    ("crystal", "coupling_matrix", "crystal.coupling_matrix"),
    ("crystal", "epsilon_matrix", "crystal.epsilon_matrix"),
    ("crystal", "effective_lamb_dicke", "crystal.effective_lamb_dicke"),
    ("cavity", "fig2_sweep", "cavity.fig2_sweep"),
    ("cavity", "emission_result", "cavity.emission_result"),
    ("gates", "cnot_sequence", "gates.cnot_sequence"),
    ("gates", "apply_sequence", "gates.apply_sequence"),
    ("gates", "sequence_unitary", "gates.sequence_unitary"),
    ("gates", "gate_fidelity", "gates.gate_fidelity"),
    ("gates", "ideal_cnot", "gates.ideal_cnot"),
    ("gates", "cnot_product_matrix", "gates.cnot_product_matrix"),
    ("protocol", "sample_run", "protocol.sample_run"),
    ("protocol", "chain_coupling", "protocol.chain_coupling"),
    ("protocol", "emission_stage", "protocol.emission_stage"),
    ("protocol", "entangle_stage", "protocol.entangle_stage"),
    ("protocol", "outcome_table", "protocol.outcome_table"),
    ("reports", "couplings_bundle", "reports.build"),
    ("reports", "emission_bundle", "reports.build"),
    ("reports", "gates_bundle", "reports.build"),
    ("reports", "run_bundle", "reports.build"),
)


def _count_sample_run(counts, args, result):
    counts["protocol.trials"] += result.trials
    counts["protocol.n_success"] += result.n_success


def _count_cnot_sequence(counts, args, result):
    counts["gates.pulse_elements"] += len(result.elements)


def _count_apply_sequence(counts, args, result):
    state, seq = args[0], args[1]
    # one complex128 read and one write of the 4^N statevector per element
    counts["gates.apply_sequence.bytes_computed"] += len(seq.elements) * 4**state.n_ions * 16 * 2


def _count_fig2_sweep(counts, args, result):
    counts["cavity.sweep_points"] += len(result)


def _count_write(counts, args, result):
    bundle = args[0]
    counts["reports.files_written"] += len(bundle.files) + 1
    counts["reports.bytes_written"] += (
        sum(len(data) for data in bundle.files.values())
        + (Path(result) / "manifest.json").stat().st_size
    )


COUNTERS = {
    "protocol.sample_run": _count_sample_run,
    "gates.cnot_sequence": _count_cnot_sequence,
    "gates.apply_sequence": _count_apply_sequence,
    "cavity.fig2_sweep": _count_fig2_sweep,
    "reports.write": _count_write,
}


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = -1
        self._stack = []
        self._saved = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self, package):
        """Wrap the traced functions of ``package`` (the ionphoton module)."""
        targets = [(getattr(package, mod), attr, name) for mod, attr, name in TRACED_FUNCTIONS]
        targets.append((package.reports.ReportBundle, "write", "reports.write"))
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one job nest and never overlap (one thread), so the union
    of the children's intervals is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


# ---------------------------------------------------------------------------
# per-layer metrics


LAYERS = ("config", "crystal", "cavity", "gates", "protocol", "reports")

_TIMED = (
    "crystal.solve_equilibrium", "crystal.normal_modes", "crystal.coupling_matrix",
    "crystal.epsilon_matrix", "gates.cnot_sequence", "gates.apply_sequence",
    "gates.sequence_unitary", "gates.gate_fidelity", "cavity.emission_result",
)
_CALLED = _TIMED + ("crystal.potential_hessian",)
_SELF_MS = (
    "protocol.chain_coupling", "protocol.emission_stage", "protocol.entangle_stage",
    "protocol.outcome_table", "cavity.fig2_sweep",
)

# name -> unit, in report order
PER_LAYER_UNITS = {
    "protocol.sampler_ms": "ms/job",
    "protocol.sampler_us_per_trial": "us",
    "protocol.trials": "count/job",
    "protocol.success_ratio": "ratio",
    **{f"{name}.ms": "ms/job" for name in _TIMED},
    **{f"{name}.calls": "calls/job" for name in _CALLED},
    **{f"{name}.ms": "ms/job" for name in _SELF_MS},
    "crystal.lamb_dicke_warnings": "count/job",
    "gates.pulse_elements": "count/job",
    "gates.apply_sequence.bytes_computed": "B/job",
    "cavity.sweep_points": "count/job",
    "cavity.us_per_point": "us",
    "reports.build_ms": "ms/job",
    "reports.write_ms": "ms/job",
    "reports.bytes_written": "B/job",
    "reports.files_written": "count/job",
    "config.parse_ms": "ms/job",
    "cli.overhead_ms": "ms/job",
    **{f"layer.{layer}_ms": "ms/job" for layer in LAYERS},
    "warnings.other": "count/job",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
    "mc_trials_per_s": "1/s",
    "job_fail_frac": "fraction",
}


def layer_metrics(spans, counts, n_jobs: int) -> dict:
    """Per-job busy times (self time unless named otherwise) and counts."""
    counts = Counter(counts)
    selfs = self_times(spans)
    self_ms, calls = Counter(), Counter()
    for span, s in zip(spans, selfs):
        self_ms[span[0]] += s * 1e3
        calls[span[0]] += 1
    per_job = {}

    def put(name, total):
        per_job[name] = total / n_jobs

    trials = counts["protocol.trials"]
    put("protocol.sampler_ms", self_ms["protocol.sample_run"])
    per_job["protocol.sampler_us_per_trial"] = (
        self_ms["protocol.sample_run"] * 1e3 / trials if trials else 0.0
    )
    put("protocol.trials", trials)
    per_job["protocol.success_ratio"] = counts["protocol.n_success"] / trials if trials else 0.0
    for name in _TIMED + _SELF_MS:
        put(f"{name}.ms", self_ms[name])
    for name in _CALLED:
        put(f"{name}.calls", calls[name])
    for name in ("crystal.lamb_dicke_warnings", "gates.pulse_elements",
                 "gates.apply_sequence.bytes_computed", "cavity.sweep_points",
                 "reports.bytes_written", "reports.files_written", "warnings.other"):
        put(name, counts[name])
    points = counts["cavity.sweep_points"]
    per_job["cavity.us_per_point"] = self_ms["cavity.fig2_sweep"] * 1e3 / points if points else 0.0
    put("reports.build_ms", self_ms["reports.build"])
    put("reports.write_ms", self_ms["reports.write"])
    put("config.parse_ms", sum(v for k, v in self_ms.items() if k.startswith("config.")))
    put("cli.overhead_ms", self_ms[ROOT_SPAN])
    for layer in LAYERS:
        put(f"layer.{layer}_ms", sum(v for k, v in self_ms.items() if k.startswith(layer + ".")))
    wall_ms = sum((end - start) * 1e3 for name, start, end, _, _ in spans if name == ROOT_SPAN)
    layer_ms = sum(v for k, v in self_ms.items() if k != ROOT_SPAN)
    per_job["trace.coverage"] = layer_ms / wall_ms if wall_ms else 0.0
    return per_job
