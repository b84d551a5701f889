"""Write the bundle of every perfbench job, to compare two trees byte for byte.

Run from the repository root, once with each tree's ``src/`` on
``PYTHONPATH``, then compare the two outputs:

    PYTHONPATH=src python tests/golden/job_bundles.py OUT_A [--seed N]
    PYTHONPATH=../other/src python tests/golden/job_bundles.py OUT_B [--seed N]
    diff -r OUT_A OUT_B

The jobs are those of every workload in ``perfbench.workloads``, generated
at workload seed N (default 3).  Each job of workload W writes its bundle
to ``OUT/W/<job name>/`` through the CLI in process, with the config file
and arguments the benchmark gives it.  What the job prints on stdout goes
to ``OUT/W/<job name>.stdout``, with its ``--out`` path written as
``{out}``, so ``diff -r`` compares what the CLI prints as well as the
bundles.  OUT must not exist yet.  The script exits 1 if any job fails.
"""

import argparse
import contextlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import workloads  # noqa: E402

from ionphoton import cli  # noqa: E402


def run_job(job: workloads.Job, config_dir: Path, out: Path) -> int:
    """Run one job through the CLI and keep its stdout beside ``out``; its exit code."""
    config_path = config_dir / f"{job.name}.ini"
    config_path.write_text(job.config_text)
    argv = [job.kind, "--config", str(config_path), "--out", str(out), *job.args]
    stdout, code = io.StringIO(), 0
    with contextlib.redirect_stdout(stdout):
        try:
            cli.main.main(args=argv, prog_name="ionphoton", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    out.parent.mkdir(parents=True, exist_ok=True)
    out.with_name(f"{out.name}.stdout").write_text(stdout.getvalue().replace(str(out), "{out}"))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to create")
    parser.add_argument("--seed", type=int, default=3, help="workload seed")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True)
    warnings.simplefilter("ignore", UserWarning)   # the Lamb-Dicke bound; not in any bundle
    failed, total = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for job in workloads.generate(name, args.seed).jobs:
                total += 1
                if run_job(job, Path(tmp), args.out / name / job.name) != 0:
                    failed.append(f"{name}/{job.name}")
    print("\n".join([f"failed: {f}" for f in failed]
                    + [f"wrote {total - len(failed)} of {total} bundles under {args.out}, "
                       f"with ionphoton from {Path(cli.__file__).parent}"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
