"""Benchmark of the ionphoton CLI: end-to-end job metrics or per-layer spans.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload's configs are generated
from ``--seed``.  A fresh worker interpreter imports the CLI from this
checkout's ``src/``, runs warm-up jobs and then calls ``ionphoton.cli.main``
with ``--config`` in a closed loop with one client for ``--seconds``.
Afterwards every bundle is checked from outside (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics; set-up is repeated in
``SETUP_REPEATS`` fresh interpreters and its median reported.
``--trace 1`` runs every job once untraced and once with spans around
each layer's public functions, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with the environment and all samples, goes to
``.perfbench/<workload>-seed<n>-trace<t>/result.json``.
"""

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402
from perfbench import checks, tracing, workloads  # noqa: E402

SETUP_REPEATS = 5
# Trials re-sampled from numpy's SeedSequence rule per run, in seeded job order.
RECOMPUTE_TRIALS = 40000
# Worker time limits, chosen so that a run ends well within 180 s.
SETUP_TIMEOUT_S = 30
LOOP_GRACE_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def spawn_worker(args, work: Path, setup_only: bool) -> dict:
    """Run one worker interpreter to completion and return its result."""
    work.mkdir(parents=True)
    result_path = work / "worker.json"
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--result", str(result_path),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    timeout = SETUP_TIMEOUT_S if setup_only else args.seconds + LOOP_GRACE_S
    try:
        proc = subprocess.run(cmd, cwd=perfbench.ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker did not finish within {timeout} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def _recompute_set(wl, seed: int) -> set:
    """Run jobs whose counts are re-sampled, up to a trial budget."""
    order = [i for i, job in enumerate(wl.jobs) if job.kind == "run"]
    random.Random(f"recompute:{seed}").shuffle(order)
    chosen, budget = set(), RECOMPUTE_TRIALS
    for i in order:
        if wl.jobs[i].meta["trials"] <= budget:
            chosen.add(i)
            budget -= wl.jobs[i].meta["trials"]
    return chosen


def check_records(wl, records, seed: int) -> list[str]:
    """Check every job; returns one message per failed job.

    The first correct bundle of each config is checked in full; later
    runs of the same config must reproduce its manifest byte for byte.
    Bundles are deleted once checked.
    """
    recompute = _recompute_set(wl, seed)
    reference = {}
    failures = []
    for idx, out, _ms, code, err, _traced in records:
        job = wl.warmups[-1 - idx] if idx < 0 else wl.jobs[idx]
        out = Path(out)
        try:
            if code != 0:
                raise checks.CheckError(f"exit code {code}: {err.strip()}")
            if idx in reference:
                files = checks.read_bundle(out)
                if files["manifest.json"] != reference[idx]:
                    raise checks.CheckError(f"{out}: rerun is not byte-identical")
            else:
                files = checks.check_job(job, out, recompute=idx in recompute)
                reference[idx] = files["manifest.json"]
        except (checks.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
            failures.append(f"{job.name} ({job.kind}): {exc}")
        shutil.rmtree(out, ignore_errors=True)
    return failures


def end_to_end(final: dict, setups: list) -> tuple[dict, dict]:
    timed = [r[2] for r in final["records"] if r[0] >= 0]
    metrics = {
        "setup_s": statistics.median(setups),
        "job_ms_p50": statistics.median(timed),
        "job_ms_p90": statistics.quantiles(timed, n=10)[8],
        "jobs_per_s": len(timed) / final["wall_s"],
        "peak_rss_mb": final["peak_rss_mb"],
    }
    extra = {"job_samples": len(timed), "setup_samples_s": setups, "wall_s": final["wall_s"]}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, extra


def per_layer(wl, final: dict, failures: list, attempted: int) -> dict:
    timed = [r for r in final["records"] if r[0] >= 0]
    traced = [r for r in timed if r[5]]
    untraced = [r for r in timed if not r[5]]
    metrics = tracing.layer_metrics(final["spans"], final["counts"], len(traced))
    metrics["trace.overhead_frac"] = (
        sum(r[2] for r in traced) / sum(r[2] for r in untraced) - 1.0
    )
    trials = sum(wl.jobs[r[0]].meta.get("trials", 0) for r in untraced if wl.jobs[r[0]].kind == "run")
    metrics["mc_trials_per_s"] = trials / (sum(r[2] for r in untraced) / 1e3)
    metrics["job_fail_frac"] = len(failures) / attempted
    return {k: {"value": metrics[k], "unit": unit} for k, unit in tracing.PER_LAYER_UNITS.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    perfbench.use_checkout_src()

    run_dir = perfbench.ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    n_workers = 1 if args.trace else SETUP_REPEATS
    results = [
        spawn_worker(args, run_dir / f"worker{k}", setup_only=k < n_workers - 1)
        for k in range(n_workers)
    ]
    final = results[-1]

    wl = workloads.generate(args.workload, args.seed)
    failures = []
    attempted = 0
    for res in results:
        failures += check_records(wl, res["records"], args.seed)
        attempted += len(res["records"])
    for k in range(n_workers):
        shutil.rmtree(run_dir / f"worker{k}", ignore_errors=True)

    if args.trace:
        metrics = per_layer(wl, final, failures, attempted)
        extra = {"traced_jobs": sum(1 for r in final["records"] if r[0] >= 0 and r[5])}
        (run_dir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job"], "spans": final["spans"]}
        ))
    else:
        metrics, extra = end_to_end(final, [r["setup_s"] for r in results])
    extra["job_fail_frac"] = len(failures) / attempted

    summary = {"correct": not failures, "attempted": attempted,
               "failed": len(failures), "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "env": final["env"], **extra, "failures": failures,
         **summary}, indent=2))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  env {json.dumps(final['env'])}")
    for message in failures[:20]:
        print(f"FAILED {message}")
    for key, value in extra.items():
        if not isinstance(value, list):
            print(f"{key} {value}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
