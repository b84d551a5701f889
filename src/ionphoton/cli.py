"""Batch front-end: couplings, emission, gates and run subcommands.

Each subcommand reads one plain-text config (``--config`` file or a named
``--preset``) and writes a reproducible report bundle to ``--out``.  This
module is option plumbing and output echoes only; ``config`` checks the
file (at most 200 ions in all, 10**5 emission sweep points) and
``reports`` computes each bundle.  Exit codes: 0 success, 2 configuration
problem or an ``--out`` that cannot be written, 3 numerical/solver failure.
Environment variables are never consulted.

Every ``click.echo`` names its stream.  Without ``file=``, click caches
the current ``sys.stdout`` in a weak-key map whose value is that same
stream, so a caller that swaps ``sys.stdout`` per call would keep every
stream alive.
"""

import functools
import sys
from pathlib import Path

import click

from . import config, protocol, reports
from .errors import ConfigError, IonPhotonError


def _explain_units(ctx, param, value):
    if not value or ctx.resilient_parsing:
        return
    click.echo(config.UNITS_HELP, nl=False, file=sys.stdout)
    ctx.exit(0)


@click.group()
@click.option(
    "--explain-units", is_flag=True, expose_value=False, is_eager=True,
    callback=_explain_units, help="Print the unit conventions and exit.",
)
def main():
    """Trapped-ion entangled-photon source simulator."""


def _load_config(config_path, preset) -> dict:
    if (config_path is None) == (preset is None):
        raise ConfigError("give exactly one of --config or --preset")
    if preset is not None:
        return config.load_config(config.preset_text(preset))
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{config_path}: not UTF-8 text ({exc.reason})") from None
    return config.load_config(text)


def _subcommand(fn):
    """Run ``fn(cfg, **options) -> ReportBundle`` as a command body.

    The config comes from --config or --preset and the bundle goes to
    --out.  A package error ends the command with one line on stderr and
    no bundle: exit 2 for a ConfigError, 3 for every other IonPhotonError.
    An OSError while writing --out also ends in one line, with exit 2; the
    files written before it stay.
    """

    @functools.wraps(fn)
    def guarded(config_path, preset, out_dir, **options):
        try:
            bundle = fn(_load_config(config_path, preset), **options)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", file=sys.stderr)
            sys.exit(2)
        except IonPhotonError as exc:
            click.echo(f"error: {exc}", file=sys.stderr)
            sys.exit(3)
        try:
            out = bundle.write(out_dir)
        except OSError as exc:
            click.echo(f"error: cannot write the bundle to {out_dir}: {exc}", file=sys.stderr)
            sys.exit(2)
        click.echo(f"wrote {len(bundle.files) + 1} files to {out}", file=sys.stdout)

    guarded = click.option(
        "--out", "out_dir", required=True, type=click.Path(file_okay=False),
        help="Output directory for the report bundle.",
    )(guarded)
    guarded = click.option(
        "--preset", default=None, help="Name of an embedded preset config.",
    )(guarded)
    return click.option(
        "--config", "config_path", default=None,
        type=click.Path(exists=True, dir_okay=False),
        help="Path to a config file.",
    )(guarded)


_format = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
    help="Primary table format.",
)


@main.command()
@_subcommand
@_format
def couplings(cfg, fmt):
    """Chain equilibria, modes, sideband and coupling tables."""
    return reports.couplings_bundle(config.crystal_cases(cfg), fmt)


@main.command()
@_subcommand
@_format
def emission(cfg, fmt):
    """Photon-emission success-rate sweep over (detuning, decay-rate).

    The detunings are [sweep] delta_list_Mrad_s; the summary takes the
    decay rate [cavity] kappa_Mrad_s.
    """
    return reports.emission_bundle(config.cavity_rates(cfg), *config.sweep_grid(cfg), fmt)


@main.command(name="gates")
@_subcommand
def gates_cmd(cfg):
    """CNOT polarity checks and refocusing verification."""
    bundle = reports.gates_bundle(config.single_case(cfg, "gates"))
    click.echo(bundle.files["gates_report.txt"].decode(), nl=False, file=sys.stdout)
    return bundle


@main.command()
@_subcommand
@_format
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--trials", type=int, default=None, help="Override the config trial count.")
def run(cfg, fmt, seed, trials):
    """Full protocol: emission, entangling gates, outcome table, sampling."""
    experiment = config.experiment_from(cfg, seed_override=seed)
    n_trials = config.trials_from(cfg, override=trials)
    report = protocol.sample_run(experiment, n_trials)
    click.echo(
        f"N={experiment.n_ions}  p_total={report.p_total:.6f}  "
        f"success {report.n_success}/{report.trials}  "
        f"timing {report.timing_s:.6e} s",
        file=sys.stdout,
    )
    return reports.run_bundle(report, fmt)


if __name__ == "__main__":
    main()
