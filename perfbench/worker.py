"""One benchmark client: a fresh interpreter that runs CLI jobs in a closed loop.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.worker``.  It
imports ``ionphoton.cli``, generates the workload, runs one warm-up job
of each command kind and then, unless ``--setup-only``, calls the CLI
entry point once per job, each job waiting for the previous one.  A job
is timed from the call to ``ionphoton.cli.main`` to its return, after
``manifest.json`` is on disk.  Results go to ``--result`` as JSON; the
outputs are checked afterwards by the parent process.
"""

import argparse
import contextlib
import ctypes
import importlib.metadata
import io
import json
import os
import platform
import resource
import time
import warnings
from pathlib import Path

import perfbench
from perfbench import tracing, workloads

# p90 needs at least ten samples beyond it.
MIN_JOBS = 100


def run_job(main, job, config_path: Path, out_dir: Path, tracer=None):
    """Call the CLI for one job; returns (milliseconds, exit code, stderr)."""
    argv = [job.kind, "--config", str(config_path), "--out", str(out_dir), *job.args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        root = tracer.open(tracing.ROOT_SPAN) if tracer else None
        start = time.perf_counter()
        try:
            main.main(args=argv, prog_name="ionphoton", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback: the job failed, the loop goes on
            code = getattr(exc, "exit_code", 1) or 1
            err.write(f"{type(exc).__name__}: {exc}\n")
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.close(root)
    return elapsed * 1e3, code, err.getvalue()[-2000:]


def _traced_job(main, tracer, package, job, config_path, out_dir):
    tracer.install(package)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_job(main, job, config_path, out_dir, tracer)
    finally:
        tracer.uninstall()
    for w in caught:
        key = "crystal.lamb_dicke_warnings" if "Lamb-Dicke" in str(w.message) else "warnings.other"
        tracer.counts[key] += 1
    return result


def _openblas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "openblas_threads": _openblas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # ---- set-up: everything a user pays before the first timed job
    perfbench.use_checkout_src()
    import ionphoton
    import ionphoton.cli

    if not Path(ionphoton.__file__).resolve().is_relative_to(perfbench.SRC):
        raise SystemExit(f"perfbench: imported ionphoton from {ionphoton.__file__}")
    main_cmd = ionphoton.cli.main
    wl = workloads.generate(args.workload, args.seed)
    config_dir = args.work / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in wl.warmups + wl.jobs:
        paths[job.name] = config_dir / f"{job.name}.ini"
        paths[job.name].write_text(job.config_text)
    jobs_dir = args.work / "jobs"
    records = []   # [job index (-1 - k for warm-up k), out dir, ms, exit code, stderr, traced]
    for k, job in enumerate(wl.warmups):
        out = jobs_dir / f"warm{k}"
        ms, code, err = run_job(main_cmd, job, paths[job.name], out)
        records.append([-1 - k, str(out), ms, code, err, False])
    setup_s = time.monotonic() - args.spawned_at

    result = {"setup_s": setup_s, "records": records}
    if not args.setup_only:
        tracer = tracing.Tracer() if args.trace else None
        start = time.perf_counter()
        i = 0
        while True:
            idx = i % len(wl.jobs)
            job = wl.jobs[idx]
            if tracer is None:
                out = jobs_dir / str(i)
                ms, code, err = run_job(main_cmd, job, paths[job.name], out)
                records.append([idx, str(out), ms, code, err, False])
            else:
                # each job once untraced and once traced, alternating which goes first
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    out = jobs_dir / f"{i}{'t' if traced else 'u'}"
                    if traced:
                        tracer.job = i
                        ms, code, err = _traced_job(main_cmd, tracer, ionphoton, job,
                                                    paths[job.name], out)
                    else:
                        ms, code, err = run_job(main_cmd, job, paths[job.name], out)
                    records.append([idx, str(out), ms, code, err, traced])
            i += 1
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds and (tracer is not None or i >= MIN_JOBS):
                break
        result["wall_s"] = elapsed
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["env"] = environment()
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = dict(tracer.counts)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
