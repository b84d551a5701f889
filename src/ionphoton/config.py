"""Plain-text experiment configuration: parsing, validation, presets.

Config files are INI-style sections of key=value pairs.  Keys carry their
unit in the suffix (``d_um``, ``nu_Mrad_s``, ``dBdz_T_per_m``).  ``SCHEMA``
is the one place where keys are typed and bounded: it gives each key its
kind (``int``, ``str``, or for a number the factor to SI, so everything
downstream works in m, kg, s and rad/s) and its rule.  ``load_config``
checks the whole file, whatever the command reads: each number must be
finite in SI (``kappa_Mrad_s = 1e305`` is not), and each value, or value
of a list, must obey its rule as written.  The rules: ``> 0`` for
``mass_amu``, ``g_factor``, every trap nu, Omega, h, delta and
``delta_list_Mrad_s``; ``>= 0`` for ``dBdz_T_per_m``, ``eta_laser``, kappa,
``kappa_grid_Mrad_s``, ``t0_s``, ``t1_s`` and ``seed``; ``in [0, 1]`` for
``collection_efficiency``; ``in 1..200`` for ``n_ions``; ``in 1..2**32``
for ``trials``; ``'e' or 'g'`` for ``cnot_active_on``; none for ``d_um``,
``centers_um``, ``label`` and ``ref_*``.  A broken rule reads ``[section]
key must be <rule>, got <value as written>`` (``--seed`` and ``--trials``
keep ``[run]``'s rules).  A number list holds at most ``MAX_SWEEP_POINTS``
values, checked before it is built, and a file's chain sections hold at
most ``MAX_CHAIN_IONS`` ions in all.  ``[case.1]``, ``[case.2]``, ...
sections are independent chains for table-style sweeps, with the
``[crystal]`` keys; single-configuration commands read ``[crystal]``.
"""

import configparser
import math
import re
from dataclasses import dataclass

import numpy as np

from . import cavity, crystal, gates, protocol
from .constants import ATOMIC_MASS, KRAD_S, MICRON, MRAD_S, YB171_MASS
from .errors import ConfigError, DomainError

# size caps, so a few bytes of config cannot ask for unbounded work (stated in the README)
MAX_CHAIN_IONS = 200      # per chain section, and in all chain sections of a file
MAX_SWEEP_POINTS = 10**5  # per number list, and in the emission grid
_RULES = {   # rule -> its test of a value as written
    "> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, "in [0, 1]": lambda v: 0 <= v <= 1,
    f"in 1..{MAX_CHAIN_IONS}": lambda v: 1 <= v <= MAX_CHAIN_IONS,
    "in 1..2**32": lambda v: 1 <= v <= protocol.MAX_TRIALS,
    "'e' or 'g'": lambda v: v in ("e", "g"),
}
# section -> key (lower case, as parsed) -> (int, str or the SI factor of a number; rule or
# None).  d_um stays in um: the summary reports it as written (x * 1e-6 / 1e-6 is not
# always x), and _traps_for scales it.
SCHEMA = {
    "species": {"mass_amu": (ATOMIC_MASS, "> 0"), "g_factor": (1.0, "> 0"), "label": (str, None)},
    "crystal": {  # plus nu_<k>_Mrad_s for trap k, matched by _PER_TRAP_NU
        "n_ions": (int, f"in 1..{MAX_CHAIN_IONS}"), "d_um": (1.0, None),
        "centers_um": (MICRON, None), "nu_mrad_s": (MRAD_S, "> 0"),
        "dbdz_t_per_m": (1.0, ">= 0"), "eta_laser": (1.0, ">= 0"),
        "ref_delta_um": (MICRON, None), "ref_h_um": (MICRON, None), "ref_eps_max": (1.0, None),
        "ref_j12_khz": (KRAD_S, None), "ref_j13_khz": (KRAD_S, None),
    },
    "cavity": {"omega_mrad_s": (MRAD_S, "> 0"), "h_mrad_s": (MRAD_S, "> 0"),
               "delta_mrad_s": (MRAD_S, "> 0"), "kappa_mrad_s": (MRAD_S, ">= 0")},
    "sweep": {"kappa_grid_mrad_s": (MRAD_S, ">= 0"), "delta_list_mrad_s": (MRAD_S, "> 0")},
    "protocol": {"cnot_active_on": (str, "'e' or 'g'"), "t0_s": (1.0, ">= 0"),
                 "t1_s": (1.0, ">= 0"), "collection_efficiency": (1.0, "in [0, 1]")},
    "run": {"trials": (int, "in 1..2**32"), "seed": (int, ">= 0")},
}
_PER_TRAP_NU = re.compile(r"nu_[0-9]+_mrad_s")
# number lists, written 'a,b,c' or 'start:stop:count' (linspace, ends included)
_LISTS = {"centers_um", "kappa_grid_mrad_s", "delta_list_mrad_s"}

UNITS_HELP = """\
Configuration unit conventions
------------------------------
Keys carry their unit as a suffix; internal computation is SI.
  *_um        micrometres            -> metres (x 1e-6)
  *_Mrad_s    1e6 rad/s              -> rad/s  (x 1e6)
  *_kHz       reference couplings    -> rad/s  (x 1e3)
  *_T_per_m   tesla per metre        (already SI)
  *_s         seconds                (already SI)
Frequencies quoted as "MHz"/"KHz" in trap and coupling tables are angular
rates: 1 MHz == 1e6 rad/s and 1 KHz == 1e3 rad/s.  This convention is what
reproduces the reference equilibria and couplings, and presets rely on it.
"""


def _kinds(section: str, keys: list[str]) -> dict:
    """{key: its SCHEMA entry} for a section's keys; unknown names raise."""
    name = "crystal" if section.startswith("case.") else section   # [case.N] too
    if name not in SCHEMA:
        raise ConfigError(f"unknown section [{section}]")
    kinds = {}
    for key in sorted(keys):
        per_trap_nu = name == "crystal" and _PER_TRAP_NU.fullmatch(key)
        kinds[key] = SCHEMA[name].get("nu_mrad_s" if per_trap_nu else key)
        if kinds[key] is None:
            raise ConfigError(f"[{section}] unknown key '{key}'")
    return kinds


def _scaled(section: str, key: str, values: list[float], factor: float) -> list[float]:
    """``values`` times ``factor``; nan and +-inf, overflow included, raise."""
    scaled = [v * factor for v in values]
    if not all(math.isfinite(v) for v in scaled):
        raise ConfigError(f"[{section}] {key}: values must be finite")
    return scaled


def _parse(section: str, key: str, raw: str, kind, rule):
    """``raw`` as ``kind`` (a str, an int, or a number or number list in SI units)."""
    try:
        if kind in (int, str):
            values = [kind(raw)]   # only int() can fail
        elif key not in _LISTS:
            values = [float(raw)]
        else:
            parts = raw.split(":")   # [start, stop, count], or one 'a,b,c' part
            count = int(parts[2]) if len(parts) == 3 else raw.count(",") + 1
            if count > MAX_SWEEP_POINTS:   # a longer list is never swept
                raise ConfigError(f"[{section}] {key}: at most {MAX_SWEEP_POINTS} values")
            if len(parts) == 3:
                ends = [float(parts[0]), float(parts[1])]
                _scaled(section, key, ends, kind)   # no nan or inf into linspace
                values = np.linspace(*ends, count).tolist()
            else:
                values = [float(x) for x in raw.split(",")]
    except ValueError:
        what = ("not an integer" if kind is int
                else "bad number list" if key in _LISTS else "not a number")
        raise ConfigError(f"[{section}] {key}: {what}: {raw!r}") from None
    scaled = values if kind in (int, str) else _scaled(section, key, values, kind)
    if rule is not None and not all(map(_RULES[rule], values)):   # as written: factors are > 0
        raise ConfigError(f"[{section}] {key} must be {rule}, got {raw}")
    return scaled if key in _LISTS else scaled[0]


def load_config(text: str) -> dict:
    """A config file's text as {section: {key: value}}, typed, checked and in SI units."""
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",), inline_comment_prefixes=("#",),
        strict=True, interpolation=None,
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    kinds = {s: _kinds(s, parser.options(s)) for s in parser.sections()}   # names first
    return {section: {key: _parse(section, key, parser.get(section, key), *entry)
                      for key, entry in keys.items()}
            for section, keys in kinds.items()}


def _get(cfg: dict, section: str, key: str, default=None, required: bool = False):
    """[section] key from a loaded config, or ``default`` (already SI) when absent."""
    if required and key not in cfg.get(section, {}):
        raise ConfigError(f"[{section}] missing required key '{key}'")
    return cfg.get(section, {}).get(key, default)


def _run_setting(cfg: dict, key: str, default: int, override) -> int:
    """[run] ``key``, or its CLI option ``--key`` when given, held to the same rule."""
    if override is None:
        return _get(cfg, "run", key, default=default)
    rule = SCHEMA["run"][key][1]
    if not _RULES[rule](override):
        raise ConfigError(f"--{key} must be {rule}, got {override}")
    return override


def _built(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a DomainError becomes a ConfigError on ``section``."""
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def species_from(cfg: dict) -> crystal.IonSpecies:
    mass = _get(cfg, "species", "mass_amu", default=YB171_MASS)
    g = _get(cfg, "species", "g_factor", default=2.0)
    label = _get(cfg, "species", "label", default="Yb-171")
    return _built("species", crystal.IonSpecies, mass=mass, g_factor=g, label=label)


def _traps_for(cfg: dict, section: str) -> tuple[crystal.TrapArray, float | None]:
    """The traps of a chain section, and its d_um as written (None if absent)."""
    n = _get(cfg, section, "n_ions", required=True)
    d_um = _get(cfg, section, "d_um")
    centers = _get(cfg, section, "centers_um")
    if (d_um is None) == (centers is None):
        raise ConfigError(f"[{section}] give exactly one of d_um or centers_um")
    nu_common = _get(cfg, section, "nu_mrad_s")
    freqs = [_get(cfg, section, f"nu_{k}_mrad_s", default=nu_common) for k in range(1, n + 1)]
    if None in freqs:
        k = freqs.index(None) + 1
        raise ConfigError(f"[{section}] needs nu_Mrad_s or nu_{k}_Mrad_s for trap {k}")
    if centers is not None and len(centers) != n:
        raise ConfigError(f"[{section}] centers_um must list {n} values")
    if centers is None:
        traps = _built(section, crystal.uniform_traps, n, d_um * MICRON, freqs)
    else:
        traps = _built(section, crystal.TrapArray, tuple(centers), tuple(freqs))
    return traps, d_um


@dataclass(frozen=True)
class CrystalCase:
    """One chain configuration plus optional reference values."""

    label: str
    traps: crystal.TrapArray
    gradient: crystal.FieldGradient
    species: crystal.IonSpecies
    eta: float
    d_um: float | None
    refs: dict   # SI-converted reference values


_REFS = {"ref_delta_um": "delta_m", "ref_h_um": "h_m", "ref_eps_max": "eps_max",
         "ref_j12_khz": "j12_rad_s", "ref_j13_khz": "j13_rad_s"}


def _case_from_section(cfg: dict, section: str, species) -> CrystalCase:
    traps, d_um = _traps_for(cfg, section)
    dbdz = _get(cfg, section, "dbdz_t_per_m", required=True)
    gradient = _built(section, crystal.FieldGradient, dBdz=dbdz)
    eta = _get(cfg, section, "eta_laser", default=0.1)
    refs = {name: cfg[section][key] for key, name in _REFS.items() if key in cfg[section]}
    label = section.split(".", 1)[1] if "." in section else section
    return CrystalCase(label, traps, gradient, species, eta, d_um, refs)


def crystal_cases(cfg: dict) -> list[CrystalCase]:
    """All chain configurations in the file ([crystal] or [case.*] sections)."""
    species = species_from(cfg)
    sections = ["crystal"] if "crystal" in cfg else []
    sections += sorted((s for s in cfg if s.startswith("case.")), key=lambda s: (len(s), s))
    if not sections:
        raise ConfigError("no [crystal] or [case.*] section found")
    total = sum(_get(cfg, s, "n_ions", required=True) for s in sections)
    if total > MAX_CHAIN_IONS:   # the work grows as the sum of n^2, at most total^2
        raise ConfigError(f"n_ions: at most {MAX_CHAIN_IONS} in all chain sections, got {total}")
    return [_case_from_section(cfg, s, species) for s in sections]


def single_case(cfg: dict, command: str) -> CrystalCase:
    """The one chain configuration of a single-configuration command."""
    cases = crystal_cases(cfg)
    if len(cases) != 1 or "crystal" not in cfg:
        raise ConfigError(f"{command} needs exactly one [crystal] section")
    case = cases[0]
    if case.traps.n_ions > gates.MAX_IONS:   # each gate is a dense 2^N x 2^N unitary
        raise ConfigError(f"[crystal] n_ions: {command} simulates at most "
                          f"{gates.MAX_IONS} ions, got {case.traps.n_ions}")
    return case


def cavity_rates(cfg: dict) -> tuple[float, float, float]:
    """[cavity] (Omega, h, kappa), rad/s: Omega, h > 0 and kappa >= 0 (0 is ideal)."""
    return tuple(_get(cfg, "cavity", key, required=True)
                 for key in ("omega_mrad_s", "h_mrad_s", "kappa_mrad_s"))


def cavity_from(cfg: dict) -> cavity.CavitySetup:
    omega, h, kappa = cavity_rates(cfg)
    delta = _get(cfg, "cavity", "delta_mrad_s", required=True)
    return _built("cavity", cavity.CavitySetup, omega, h, delta, kappa)


def sweep_grid(cfg: dict) -> tuple[list[float], list[float]]:
    """(delta list, kappa grid), both rad/s."""
    deltas = _get(cfg, "sweep", "delta_list_mrad_s", required=True)
    kappas = _get(cfg, "sweep", "kappa_grid_mrad_s", required=True)
    if not deltas or not kappas:
        raise ConfigError("[sweep] grids must be non-empty")
    if len(deltas) * len(kappas) > MAX_SWEEP_POINTS:
        raise ConfigError(f"[sweep] delta_list_Mrad_s x kappa_grid_Mrad_s: at most "
                          f"{MAX_SWEEP_POINTS} points, got {len(deltas) * len(kappas)}")
    return deltas, kappas


def experiment_from(cfg: dict, seed_override=None) -> protocol.ExperimentConfig:
    """Assemble the full protocol configuration from a loaded config."""
    case = single_case(cfg, "run")
    if case.traps.n_ions < protocol.MIN_PROTOCOL_IONS:
        raise ConfigError(f"[crystal] n_ions: run needs at least "
                          f"{protocol.MIN_PROTOCOL_IONS} ions, got {case.traps.n_ions}")
    return _built(
        "protocol", protocol.ExperimentConfig,
        species=case.species,
        traps=case.traps,
        gradient=case.gradient,
        setup=cavity_from(cfg),
        cnot_active_on=_get(cfg, "protocol", "cnot_active_on", default="e"),
        seed=_run_setting(cfg, "seed", 1, seed_override),
        t0=_get(cfg, "protocol", "t0_s"),
        t1=_get(cfg, "protocol", "t1_s", default=0.0),
        collection_efficiency=_get(cfg, "protocol", "collection_efficiency", default=1.0),
    )


def trials_from(cfg: dict, override=None) -> int:
    """[run] trials, or ``override`` (--trials) when given; 1..2**32."""
    return _run_setting(cfg, "trials", 100000, override)


# ---------------------------------------------------------------------------
# embedded presets


def _cases(keys: str, rows) -> str:
    """[case.1], [case.2], ... sections: key k of ``keys`` takes value k of a row."""
    return "".join(
        f"[case.{i}]\n" + "".join(f"{k} = {v}\n" for k, v in zip(keys.split(), row)) + "\n"
        for i, row in enumerate(rows, 1)
    )


_TABLE1 = _cases(
    "n_ions d_um nu_Mrad_s dBdz_T_per_m ref_delta_um ref_h_um ref_eps_max ref_j12_kHz", [
        (2, 6.0, 5.55, 550.0, 0.521, 7.042, 7.066e-2, 6.328),
        (2, 7.0, 4.50, 400.0, 0.588, 8.176, 7.038e-2, 4.980),
        (2, 8.0, 3.75, 300.0, 0.653, 9.307, 6.939e-2, 3.959),
        (2, 9.0, 3.30, 250.0, 0.681, 10.362, 7.005e-2, 3.370),
        (2, 10.0, 2.35, 150.0, 1.001, 12.001, 6.994e-2, 2.875),
    ])

_TABLE2 = _cases(
    "n_ions d_um nu_1_Mrad_s nu_2_Mrad_s nu_3_Mrad_s dBdz_T_per_m ref_delta_um "
    "ref_h_um ref_eps_max ref_j12_kHz ref_j13_kHz", [
        (3, 6.0, 2.75, 7.75, 2.75, 240.0, 2.037, 8.037, 6.994e-2, 1.455, 1.448),
        (3, 7.0, 2.55, 7.25, 2.55, 210.0, 1.922, 8.922, 7.048e-2, 1.141, 1.149),
        (3, 8.0, 2.05, 5.80, 2.05, 150.0, 2.252, 10.25, 6.962e-2, 0.922, 0.922),
        (3, 9.0, 1.45, 4.10, 1.45, 90.0, 3.186, 12.19, 6.810e-2, 0.747, 0.747),
        (3, 10.0, 1.20, 3.40, 1.20, 70.0, 3.688, 13.69, 6.996e-2, 0.670, 0.672),
    ])

_SPECIES_BLOCK = "[species]\nmass_amu = 171.0\ng_factor = 2.0\nlabel = Yb-171\n\n"


def _cavity(kappa: float) -> str:
    return (
        "[cavity]\nOmega_Mrad_s = 10.0\nh_Mrad_s = 138.0\ndelta_Mrad_s = 0.1\n"
        f"kappa_Mrad_s = {kappa}\n\n"
    )


_CRYSTAL_N2 = (
    "[crystal]\nn_ions = 2\nd_um = 6.0\nnu_Mrad_s = 5.55\ndBdz_T_per_m = 550.0\n\n"
)

_CRYSTAL_N3 = (
    "[crystal]\nn_ions = 3\nd_um = 8.0\nnu_1_Mrad_s = 2.05\nnu_2_Mrad_s = 5.80\n"
    "nu_3_Mrad_s = 2.05\ndBdz_T_per_m = 150.0\n\n"
)

_CRYSTAL_N5 = (
    "[crystal]\nn_ions = 5\nd_um = 10.0\nnu_Mrad_s = 2.35\ndBdz_T_per_m = 150.0\n\n"
)

_RUN_TAIL = (
    "[protocol]\ncnot_active_on = e\nt1_s = 0.0\n\n[run]\ntrials = 100000\nseed = 1\n"
)

PRESETS = {
    "table1": _SPECIES_BLOCK + _TABLE1,
    "table2": _SPECIES_BLOCK + _TABLE2,
    "fig2": (
        _cavity(960.0)
        + "[sweep]\nkappa_grid_Mrad_s = 0:1000:41\ndelta_list_Mrad_s = 0.1,0.25,0.5,1.0\n"
    ),
    "fig2_ideal": (
        _cavity(960.0)
        + "[sweep]\nkappa_grid_Mrad_s = 0:1000:41\ndelta_list_Mrad_s = 0.001\n"
    ),
    "gates2": _SPECIES_BLOCK + _CRYSTAL_N2,
    "gates3": _SPECIES_BLOCK + _CRYSTAL_N3,
    "run_n2_ideal": _SPECIES_BLOCK + _CRYSTAL_N2 + _cavity(0.0) + _RUN_TAIL,
    "run_n3_ideal": _SPECIES_BLOCK + _CRYSTAL_N3 + _cavity(0.0) + _RUN_TAIL,
    "run_n5_ideal": _SPECIES_BLOCK + _CRYSTAL_N5 + _cavity(0.0) + _RUN_TAIL,
    "run_n2": _SPECIES_BLOCK + _CRYSTAL_N2 + _cavity(960.0) + _RUN_TAIL,
}


def preset_text(name: str) -> str:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name]
