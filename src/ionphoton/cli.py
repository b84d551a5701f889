"""Batch front-end: couplings, emission, gates and run subcommands.

Each subcommand reads one plain-text config (``--config`` file or a named
``--preset``), computes its artifacts and writes a reproducible report
bundle to ``--out``.  Exit codes: 0 success, 2 configuration problem,
3 numerical/solver failure.  Environment variables are never consulted.

Every ``click.echo`` names its stream.  Without ``file=``, click caches
the current ``sys.stdout`` in a weak-key map whose value is that same
stream, so a caller that swaps ``sys.stdout`` per call would keep every
stream alive.
"""

import functools
import sys
from pathlib import Path

import click

from . import cavity, config, crystal, gates, protocol, reports
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


def _load_config(config_path, preset) -> config.ConfigData:
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
        out = bundle.write(out_dir)
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
    omega, h, kappa = config.cavity_rates(cfg)
    deltas, kappas = config.sweep_grid(cfg)
    sweep = cavity.fig2_sweep(omega, h, deltas, kappas)
    summary = [
        [p.delta, cavity.effective_rabi(omega, h, p.delta),
         p.kappa, p.tau_star, p.p_single, p.p_pair]
        for p in cavity.fig2_sweep(omega, h, deltas, [kappa])
    ]
    return reports.emission_bundle(sweep, summary, fmt)


@main.command(name="gates")
@_subcommand
def gates_cmd(cfg):
    """CNOT polarity checks and refocusing verification."""
    case = config.single_case(cfg, "gates")
    _, _, coupling, _ = crystal.solve_chain(case.traps, case.gradient, case.species)

    prod_g = gates.cnot_product_matrix(active_on="g")
    prod_e = gates.cnot_product_matrix(active_on="e")
    fid_g = gates.gate_fidelity(prod_g, gates.ideal_cnot(2, 0, 1, "g"))
    fid_e = gates.gate_fidelity(prod_e, gates.ideal_cnot(2, 0, 1, "e"))

    lines = [
        "two-qubit controlled-X product checks",
        f"  fidelity(six-factor product, ideal CX active on |g>) = {fid_g!r}",
        f"  fidelity(control-z-negated variant, ideal CX active on |e>) = {fid_e!r}",
        "  six-factor product matrix, basis |ee>,|eg>,|ge>,|gg>:",
    ]
    lines += reports.matrix_lines(prod_g, ["ee", "eg", "ge", "gg"])
    lines.append(gates.POLARITY_DIAGNOSTIC)
    lines.append("refocusing verification over the configured couplings:")

    n = case.traps.n_ions
    refocused = []
    for target in range(1, n):
        seq = gates.cnot_sequence(coupling.J, 0, target, active_on="e")
        u = gates.sequence_unitary(seq, coupling.J)
        ideal = gates.ideal_cnot(n, 0, target, "e")
        fid = gates.gate_fidelity(u, ideal)
        refocused.append(
            {"target": target + 1, "fidelity": fid,
             "duration_s": seq.total_duration}
        )
        lines.append(
            f"  CNOT 1->{target + 1}: fidelity deficit = {1.0 - fid!r}, "
            f"duration = {seq.total_duration!r} s"
        )

    report = {
        "fidelity_product_vs_g_active": fid_g,
        "fidelity_variant_vs_e_active": fid_e,
        "refocused_cnots": refocused,
        "diagnostic": gates.POLARITY_DIAGNOSTIC,
    }
    click.echo("\n".join(lines), file=sys.stdout)
    return reports.gates_bundle(report, lines)


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
