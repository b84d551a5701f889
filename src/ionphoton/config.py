"""Plain-text experiment configuration: parsing, validation, presets.

Config files are INI-style sections of key=value pairs.  Keys carry their
unit in the suffix (``d_um``, ``nu_Mrad_s``, ``dBdz_T_per_m``).  ``SCHEMA``
is the one place where units live: it lists every section and key with the
factor that converts the written value to SI, so everything downstream
works in m, kg, s and rad/s.  A value is checked for finiteness after that
conversion, so a finite number that overflows (``kappa_Mrad_s = 1e305``)
is a configuration error.  Unknown sections or keys are rejected with the
offending name.

``[case.1]``, ``[case.2]``, ... sections describe independent chain
configurations for table-style sweeps and share the ``[crystal]`` keys;
single-configuration commands use one ``[crystal]`` section instead.
"""

import configparser
import math
import re
from dataclasses import dataclass

import numpy as np

from . import cavity, crystal, gates, protocol
from .constants import ATOMIC_MASS, KRAD_S, MICRON, MRAD_S, YB171_MASS
from .errors import ConfigError, DomainError

# section -> key (lower case, as parsed) -> SI factor of its value; None marks
# a key that is not a number in physical units (a label, a count, a seed).
SCHEMA = {
    "species": {"mass_amu": ATOMIC_MASS, "g_factor": 1.0, "label": None},
    "crystal": {  # plus nu_<k>_Mrad_s for trap k, matched by _PER_TRAP_NU
        "n_ions": None, "d_um": MICRON, "centers_um": MICRON, "nu_mrad_s": MRAD_S,
        "dbdz_t_per_m": 1.0, "eta_laser": 1.0, "ref_delta_um": MICRON,
        "ref_h_um": MICRON, "ref_eps_max": 1.0, "ref_j12_khz": KRAD_S,
        "ref_j13_khz": KRAD_S,
    },
    "cavity": {"omega_mrad_s": MRAD_S, "h_mrad_s": MRAD_S, "delta_mrad_s": MRAD_S,
               "kappa_mrad_s": MRAD_S},
    "sweep": {"kappa_grid_mrad_s": MRAD_S, "delta_list_mrad_s": MRAD_S},
    "protocol": {"cnot_active_on": None, "t0_s": 1.0, "t1_s": 1.0,
                 "collection_efficiency": 1.0},
    "run": {"trials": None, "seed": None},
}
_PER_TRAP_NU = re.compile(r"nu_[0-9]+_mrad_s")

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


def _keys(section: str) -> dict:
    """The key table of a section; every [case.N] shares [crystal]'s."""
    name = "crystal" if section.startswith("case.") else section
    if name not in SCHEMA:
        raise ConfigError(f"unknown section [{section}]")
    return SCHEMA[name]


def _unit(section: str, key: str):
    """SI factor of a key (None for a label, count or seed); unknown keys raise."""
    keys = _keys(section)
    if key in keys:
        return keys[key]
    if keys is SCHEMA["crystal"] and _PER_TRAP_NU.fullmatch(key):
        return MRAD_S
    raise ConfigError(f"[{section}] unknown key '{key}'")


class ConfigData:
    """Validated key-value view over one parsed config file."""

    def __init__(self, parser: configparser.ConfigParser):
        self._p = parser

    def sections(self):
        return self._p.sections()

    def get(self, section: str, key: str, default=None, required: bool = False):
        if self._p.has_option(section, key):
            return self._p.get(section, key)
        if required:
            raise ConfigError(f"[{section}] missing required key '{key}'")
        return default

    def get_float(self, section, key, default=None, required=False):
        """The value in SI units, or ``default`` (already SI) when absent."""
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None
        return _si(section, key, [value])[0]

    def get_floats(self, section, key, required=False):
        """A list 'a,b,c' or 'start:stop:count' (linspace) in SI units, or None."""
        raw = self.get(section, key, required=required)
        if raw is None:
            return None
        try:
            if ":" in raw:
                start, stop, count = raw.split(":")
                ends = [float(start), float(stop)]
                _si(section, key, ends)   # no nan or inf into linspace
                values = np.linspace(*ends, int(count)).tolist()
            else:
                values = [float(x) for x in raw.split(",")]
        except ValueError:
            raise ConfigError(f"[{section}] {key}: bad number list: {raw!r}") from None
        return _si(section, key, values)

    def get_int(self, section, key, default=None, required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from None


def _si(section, key, values: list[float]) -> list[float]:
    """Scale by the key's SI factor, then reject nan and +-inf, overflow included."""
    factor = _unit(section, key)
    scaled = [v * factor for v in values]
    if not all(math.isfinite(v) for v in scaled):
        raise ConfigError(f"[{section}] {key}: values must be finite")
    return scaled


def load_config(text: str) -> ConfigData:
    """Parse and validate a config file's text."""
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",), inline_comment_prefixes=("#",),
        strict=True, interpolation=None,
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    for section in parser.sections():
        _keys(section)
        for key in sorted(parser.options(section)):
            _unit(section, key)
    return ConfigData(parser)


def _built(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a DomainError becomes a ConfigError on ``section``."""
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def species_from(cfg: ConfigData) -> crystal.IonSpecies:
    mass = cfg.get_float("species", "mass_amu", default=YB171_MASS)
    g = cfg.get_float("species", "g_factor", default=2.0)
    label = cfg.get("species", "label", default="Yb-171")
    return _built("species", crystal.IonSpecies, mass=mass, g_factor=g, label=label)


def _traps_for(cfg: ConfigData, section: str) -> tuple[crystal.TrapArray, float | None]:
    n = cfg.get_int(section, "n_ions", required=True)
    if n < 1:
        raise ConfigError(f"[{section}] n_ions must be >= 1")
    spacing = cfg.get_float(section, "d_um")
    centers = cfg.get_floats(section, "centers_um")
    if (spacing is None) == (centers is None):
        raise ConfigError(f"[{section}] give exactly one of d_um or centers_um")
    nu_common = cfg.get_float(section, "nu_mrad_s")
    freqs = [cfg.get_float(section, f"nu_{k}_mrad_s", default=nu_common)
             for k in range(1, n + 1)]
    if None in freqs:
        k = freqs.index(None) + 1
        raise ConfigError(f"[{section}] needs nu_Mrad_s or nu_{k}_Mrad_s for trap {k}")
    if centers is not None and len(centers) != n:
        raise ConfigError(f"[{section}] centers_um must list {n} values")
    if centers is None:
        traps = _built(section, crystal.uniform_traps, n, spacing, freqs)
    else:
        traps = _built(section, crystal.TrapArray, tuple(centers), tuple(freqs))
    # the summary reports d_um as written: x * 1e-6 / 1e-6 is not always x
    return traps, None if spacing is None else float(cfg.get(section, "d_um"))


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


def _case_from_section(cfg: ConfigData, section: str, species) -> CrystalCase:
    traps, d_um = _traps_for(cfg, section)
    dbdz = cfg.get_float(section, "dbdz_t_per_m", required=True)
    gradient = _built(section, crystal.FieldGradient, dBdz=dbdz)
    eta = cfg.get_float(section, "eta_laser", default=0.1)
    refs = {}
    for key, name in _REFS.items():
        value = cfg.get_float(section, key)
        if value is not None:
            refs[name] = value
    label = section.split(".", 1)[1] if "." in section else section
    return CrystalCase(label, traps, gradient, species, eta, d_um, refs)


def crystal_cases(cfg: ConfigData) -> list[CrystalCase]:
    """All chain configurations in the file ([crystal] or [case.*] sections)."""
    species = species_from(cfg)
    sections = ["crystal"] if "crystal" in cfg.sections() else []
    sections += sorted(
        (s for s in cfg.sections() if s.startswith("case.")),
        key=lambda s: (len(s), s),
    )
    if not sections:
        raise ConfigError("no [crystal] or [case.*] section found")
    return [_case_from_section(cfg, s, species) for s in sections]


def single_case(cfg: ConfigData, command: str) -> CrystalCase:
    """The one chain configuration of a single-configuration command."""
    cases = crystal_cases(cfg)
    if len(cases) != 1:
        raise ConfigError(f"{command} needs exactly one [crystal] section")
    case = cases[0]
    if case.traps.n_ions > gates.MAX_IONS:   # each gate is a dense 2^N x 2^N unitary
        section = "crystal" if "crystal" in cfg.sections() else f"case.{case.label}"
        raise ConfigError(f"[{section}] n_ions: {command} simulates at most "
                          f"{gates.MAX_IONS} ions, got {case.traps.n_ions}")
    return case


def cavity_rates(cfg: ConfigData) -> tuple[float, float, float]:
    """[cavity] (Omega, h, kappa), rad/s; none may be negative."""
    rates = tuple(cfg.get_float("cavity", key, required=True)
                  for key in ("omega_mrad_s", "h_mrad_s", "kappa_mrad_s"))
    if min(rates) < 0:
        raise ConfigError("[cavity] Omega, h and kappa must be >= 0")
    return rates


def cavity_from(cfg: ConfigData) -> cavity.CavitySetup:
    omega, h, kappa = cavity_rates(cfg)
    delta = cfg.get_float("cavity", "delta_mrad_s", required=True)
    return _built("cavity", cavity.CavitySetup, omega, h, delta, kappa)


def sweep_grid(cfg: ConfigData) -> tuple[list[float], list[float]]:
    """(delta list, kappa grid), both rad/s."""
    deltas = cfg.get_floats("sweep", "delta_list_mrad_s", required=True)
    kappas = cfg.get_floats("sweep", "kappa_grid_mrad_s", required=True)
    if not deltas or not kappas:
        raise ConfigError("[sweep] grids must be non-empty")
    if any(d <= 0 for d in deltas):
        raise ConfigError("[sweep] detunings must be positive")
    if any(k < 0 for k in kappas):
        raise ConfigError("[sweep] decay rates must be >= 0")
    return deltas, kappas


def experiment_from(cfg: ConfigData, seed_override=None) -> protocol.ExperimentConfig:
    """Assemble the full protocol configuration from a config file."""
    case = single_case(cfg, "run")
    setup = cavity_from(cfg)
    name, seed = "[run] seed", cfg.get_int("run", "seed", default=1)
    if seed_override is not None:
        name, seed = "--seed", seed_override
    if seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {seed}")
    return _built(
        "protocol", protocol.ExperimentConfig,
        species=case.species,
        traps=case.traps,
        gradient=case.gradient,
        setup=setup,
        cnot_active_on=cfg.get("protocol", "cnot_active_on", default="e"),
        seed=seed,
        t0=cfg.get_float("protocol", "t0_s"),
        t1=cfg.get_float("protocol", "t1_s", default=0.0),
        collection_efficiency=cfg.get_float("protocol", "collection_efficiency", default=1.0),
    )


def trials_from(cfg: ConfigData, override=None) -> int:
    """[run] trials, or ``override`` (--trials) when given; 1..2**32.

    Like [run] seed, the config value must be an integer even when
    overridden.
    """
    name, trials = "[run] trials", cfg.get_int("run", "trials", default=100000)
    if override is not None:
        name, trials = "--trials", override
    if not 1 <= trials <= protocol.MAX_TRIALS:
        raise ConfigError(f"{name} must be in 1..2**32, got {trials}")
    return trials


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
