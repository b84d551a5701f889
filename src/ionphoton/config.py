"""Plain-text experiment configuration: parsing, validation, presets.

Config files are INI-style sections of key=value pairs.  Keys carry their
unit in the suffix (``d_um``, ``nu_Mrad_s``, ``dBdz_T_per_m``); values are
converted to SI on load, so everything downstream works in m, kg, s and
rad/s.  Unknown sections or keys are rejected with the offending name.

``[case.1]``, ``[case.2]``, ... sections describe independent chain
configurations for table-style sweeps; single-configuration commands use
one ``[crystal]`` section instead.
"""

import configparser
import io
import math

import numpy as np

from . import cavity, crystal, protocol
from .constants import ATOMIC_MASS, KRAD_S, MICRON, MRAD_S
from .errors import ConfigError, DomainError

_SPECIES_KEYS = {"mass_amu", "g_factor", "label"}
_GRADIENT_KEYS = {"dbdz_t_per_m"}
_CASE_KEYS = {
    "n_ions", "d_um", "centers_um", "nu_mrad_s", "dbdz_t_per_m", "eta_laser",
    "ref_delta_um", "ref_h_um", "ref_eps_max", "ref_j12_khz", "ref_j13_khz",
}  # plus nu_<k>_mrad_s, validated dynamically
_CAVITY_KEYS = {"omega_mrad_s", "h_mrad_s", "delta_mrad_s", "kappa_mrad_s"}
_SWEEP_KEYS = {"kappa_grid_mrad_s", "delta_list_mrad_s"}
_PROTOCOL_KEYS = {"cnot_active_on", "t0_s", "t1_s", "collection_efficiency"}
_RUN_KEYS = {"trials", "seed"}

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


class ConfigData:
    """Validated key-value view over one parsed config file."""

    def __init__(self, parser: configparser.ConfigParser):
        self._p = parser

    def has_section(self, name: str) -> bool:
        return self._p.has_section(name)

    def sections(self):
        return self._p.sections()

    def get(self, section: str, key: str, default=None, required: bool = False):
        if self._p.has_option(section, key):
            return self._p.get(section, key)
        if required:
            raise ConfigError(f"[{section}] missing required key '{key}'")
        return default

    def get_float(self, section, key, default=None, required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None
        return _finite([value], f"[{section}] {key}")[0]

    def get_int(self, section, key, default=None, required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from None


def _finite(values: list[float], where: str) -> list[float]:
    """Reject nan and +-inf, which would pass every range check below."""
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{where}: values must be finite")
    return values


def _validate_keys(parser: configparser.ConfigParser):
    for section in parser.sections():
        keys = set(parser.options(section))
        if section == "species":
            allowed = _SPECIES_KEYS
        elif section == "gradient":
            allowed = _GRADIENT_KEYS
        elif section == "crystal" or section.startswith("case."):
            allowed = _CASE_KEYS
            keys = {k for k in keys if not _is_per_trap_freq(k)}
        elif section == "cavity":
            allowed = _CAVITY_KEYS
        elif section == "sweep":
            allowed = _SWEEP_KEYS
        elif section == "protocol":
            allowed = _PROTOCOL_KEYS
        elif section == "run":
            allowed = _RUN_KEYS
        else:
            raise ConfigError(f"unknown section [{section}]")
        unknown = keys - allowed
        if unknown:
            raise ConfigError(
                f"[{section}] unknown key '{sorted(unknown)[0]}'"
            )


def _is_per_trap_freq(key: str) -> bool:
    parts = key.split("_")
    return (
        len(parts) == 4
        and parts[0] == "nu"
        and parts[1].isdigit()
        and parts[2] == "mrad"
        and parts[3] == "s"
    )


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
    _validate_keys(parser)
    return ConfigData(parser)


def species_from(cfg: ConfigData) -> crystal.IonSpecies:
    mass_amu = cfg.get_float("species", "mass_amu", default=171.0)
    g = cfg.get_float("species", "g_factor", default=2.0)
    label = cfg.get("species", "label", default="Yb-171")
    try:
        return crystal.IonSpecies(mass=mass_amu * ATOMIC_MASS, g_factor=g, label=label)
    except DomainError as exc:
        raise ConfigError(f"[species] {exc}") from None


def _gradient_for(cfg: ConfigData, section: str) -> crystal.FieldGradient:
    dbdz = cfg.get_float(section, "dbdz_t_per_m")
    if dbdz is None:
        dbdz = cfg.get_float("gradient", "dbdz_t_per_m")
    if dbdz is None:
        raise ConfigError(f"[{section}] needs dBdz_T_per_m (or a [gradient] default)")
    try:
        return crystal.FieldGradient(dBdz=dbdz)
    except DomainError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _traps_for(cfg: ConfigData, section: str) -> tuple[crystal.TrapArray, float | None]:
    n = cfg.get_int(section, "n_ions", required=True)
    if n is None or n < 1:
        raise ConfigError(f"[{section}] n_ions must be >= 1")
    d_um = cfg.get_float(section, "d_um")
    centers_raw = cfg.get(section, "centers_um")
    if (d_um is None) == (centers_raw is None):
        raise ConfigError(f"[{section}] give exactly one of d_um or centers_um")
    nu_common = cfg.get_float(section, "nu_mrad_s")
    freqs = []
    for k in range(1, n + 1):
        nu_k = cfg.get_float(section, f"nu_{k}_mrad_s")
        if nu_k is None:
            nu_k = nu_common
        if nu_k is None:
            raise ConfigError(
                f"[{section}] needs nu_Mrad_s or nu_{k}_Mrad_s for trap {k}"
            )
        freqs.append(nu_k * MRAD_S)
    try:
        if d_um is not None:
            traps = crystal.uniform_traps(n, d_um * MICRON, freqs)
        else:
            centers = _finite([float(c) * MICRON for c in centers_raw.split(",")],
                              f"[{section}] centers_um")
            if len(centers) != n:
                raise ConfigError(f"[{section}] centers_um must list {n} values")
            traps = crystal.TrapArray(tuple(centers), tuple(freqs))
    except DomainError as exc:
        raise ConfigError(f"[{section}] {exc}") from None
    except ValueError:
        raise ConfigError(f"[{section}] centers_um: bad number list") from None
    return traps, d_um


class CrystalCase:
    """One chain configuration plus optional reference values."""

    def __init__(self, label, traps, gradient, species, eta, d_um, refs):
        self.label = label
        self.traps = traps
        self.gradient = gradient
        self.species = species
        self.eta = eta
        self.d_um = d_um
        self.refs = refs   # dict with SI-converted reference values


def _case_from_section(cfg: ConfigData, section: str, species) -> CrystalCase:
    traps, d_um = _traps_for(cfg, section)
    gradient = _gradient_for(cfg, section)
    eta = cfg.get_float(section, "eta_laser", default=0.1)
    refs = {}
    ref_delta = cfg.get_float(section, "ref_delta_um")
    if ref_delta is not None:
        refs["delta_m"] = ref_delta * MICRON
    ref_h = cfg.get_float(section, "ref_h_um")
    if ref_h is not None:
        refs["h_m"] = ref_h * MICRON
    ref_eps = cfg.get_float(section, "ref_eps_max")
    if ref_eps is not None:
        refs["eps_max"] = ref_eps
    for name in ("j12", "j13"):
        ref_j = cfg.get_float(section, f"ref_{name}_khz")
        if ref_j is not None:
            refs[f"{name}_rad_s"] = ref_j * KRAD_S
    label = section.split(".", 1)[1] if "." in section else section
    return CrystalCase(label, traps, gradient, species, eta, d_um, refs)


def crystal_cases(cfg: ConfigData) -> list[CrystalCase]:
    """All chain configurations in the file ([crystal] or [case.*] sections)."""
    species = species_from(cfg)
    sections = []
    if cfg.has_section("crystal"):
        sections.append("crystal")
    sections += sorted(
        (s for s in cfg.sections() if s.startswith("case.")),
        key=lambda s: (len(s), s),
    )
    if not sections:
        raise ConfigError("no [crystal] or [case.*] section found")
    return [_case_from_section(cfg, s, species) for s in sections]


def cavity_from(cfg: ConfigData) -> cavity.CavitySetup:
    omega = cfg.get_float("cavity", "omega_mrad_s", required=True) * MRAD_S
    h = cfg.get_float("cavity", "h_mrad_s", required=True) * MRAD_S
    delta = cfg.get_float("cavity", "delta_mrad_s", required=True) * MRAD_S
    kappa = cfg.get_float("cavity", "kappa_mrad_s", required=True) * MRAD_S
    try:
        return cavity.symmetric_setup(omega, h, delta, kappa)
    except DomainError as exc:
        raise ConfigError(f"[cavity] {exc}") from None


def sweep_grid(cfg: ConfigData) -> tuple[list[float], list[float]]:
    """(delta list, kappa grid), both rad/s.  Grid syntax: 'a,b,c' or 'start:stop:count'."""
    deltas_raw = cfg.get("sweep", "delta_list_mrad_s", required=True)
    kappas_raw = cfg.get("sweep", "kappa_grid_mrad_s", required=True)
    try:
        deltas = [float(x) * MRAD_S for x in deltas_raw.split(",")]
    except ValueError:
        raise ConfigError("[sweep] delta_list_Mrad_s: bad number list") from None
    try:
        if ":" in kappas_raw:
            start, stop, count = kappas_raw.split(":")
            ends = _finite([float(start), float(stop)], "[sweep] kappa_grid_Mrad_s")
            kappas = [float(k) * MRAD_S for k in np.linspace(*ends, int(count))]
        else:
            kappas = [float(x) * MRAD_S for x in kappas_raw.split(",")]
    except ValueError:
        raise ConfigError("[sweep] kappa_grid_Mrad_s: bad grid") from None
    _finite(deltas, "[sweep] delta_list_Mrad_s")
    _finite(kappas, "[sweep] kappa_grid_Mrad_s")
    if not deltas or not kappas:
        raise ConfigError("[sweep] grids must be non-empty")
    if any(d <= 0 for d in deltas):
        raise ConfigError("[sweep] detunings must be positive")
    if any(k < 0 for k in kappas):
        raise ConfigError("[sweep] decay rates must be >= 0")
    return deltas, kappas


def experiment_from(cfg: ConfigData, seed_override=None) -> protocol.ExperimentConfig:
    """Assemble the full protocol configuration from a config file."""
    cases = crystal_cases(cfg)
    if len(cases) != 1:
        raise ConfigError("protocol runs need exactly one [crystal] section")
    case = cases[0]
    setup = cavity_from(cfg)
    n = case.traps.n_ions
    seed = cfg.get_int("run", "seed", default=1)
    if seed_override is not None:
        seed = seed_override
    if seed < 0:
        raise ConfigError("[run] seed must be a non-negative integer")
    try:
        return protocol.ExperimentConfig(
            species=case.species,
            traps=case.traps,
            gradient=case.gradient,
            cavities=(setup,) * n,
            cnot_active_on=cfg.get("protocol", "cnot_active_on", default="e"),
            seed=seed,
            t0=cfg.get_float("protocol", "t0_s"),
            t1=cfg.get_float("protocol", "t1_s", default=0.0),
            collection_efficiency=cfg.get_float(
                "protocol", "collection_efficiency", default=1.0
            ),
        )
    except DomainError as exc:
        raise ConfigError(f"[protocol] {exc}") from None


def trials_from(cfg: ConfigData) -> int:
    trials = cfg.get_int("run", "trials", default=100000)
    if trials < 1:
        raise ConfigError("[run] trials must be >= 1")
    return trials


# ---------------------------------------------------------------------------
# embedded presets


def _table1_cases() -> str:
    rows = [
        (6.0, 5.55, 550.0, 0.521, 7.042, 7.066e-2, 6.328),
        (7.0, 4.50, 400.0, 0.588, 8.176, 7.038e-2, 4.980),
        (8.0, 3.75, 300.0, 0.653, 9.307, 6.939e-2, 3.959),
        (9.0, 3.30, 250.0, 0.681, 10.362, 7.005e-2, 3.370),
        (10.0, 2.35, 150.0, 1.001, 12.001, 6.994e-2, 2.875),
    ]
    out = io.StringIO()
    for i, (d, nu, dbdz, rd, rh, re, rj) in enumerate(rows, 1):
        out.write(
            f"[case.{i}]\nn_ions = 2\nd_um = {d}\nnu_Mrad_s = {nu}\n"
            f"dBdz_T_per_m = {dbdz}\nref_delta_um = {rd}\nref_h_um = {rh}\n"
            f"ref_eps_max = {re}\nref_j12_kHz = {rj}\n\n"
        )
    return out.getvalue()


def _table2_cases() -> str:
    rows = [
        (6.0, 2.75, 7.75, 240.0, 2.037, 8.037, 6.994e-2, 1.455, 1.448),
        (7.0, 2.55, 7.25, 210.0, 1.922, 8.922, 7.048e-2, 1.141, 1.149),
        (8.0, 2.05, 5.80, 150.0, 2.252, 10.25, 6.962e-2, 0.922, 0.922),
        (9.0, 1.45, 4.10, 90.0, 3.186, 12.19, 6.810e-2, 0.747, 0.747),
        (10.0, 1.20, 3.40, 70.0, 3.688, 13.69, 6.996e-2, 0.670, 0.672),
    ]
    out = io.StringIO()
    for i, (d, nu1, nu2, dbdz, rd, rh, re, rj12, rj13) in enumerate(rows, 1):
        out.write(
            f"[case.{i}]\nn_ions = 3\nd_um = {d}\n"
            f"nu_1_Mrad_s = {nu1}\nnu_2_Mrad_s = {nu2}\nnu_3_Mrad_s = {nu1}\n"
            f"dBdz_T_per_m = {dbdz}\nref_delta_um = {rd}\nref_h_um = {rh}\n"
            f"ref_eps_max = {re}\nref_j12_kHz = {rj12}\nref_j13_kHz = {rj13}\n\n"
        )
    return out.getvalue()


_SPECIES_BLOCK = "[species]\nmass_amu = 171.0\ng_factor = 2.0\nlabel = Yb-171\n\n"

_CAVITY_REFERENCE = (
    "[cavity]\nOmega_Mrad_s = 10.0\nh_Mrad_s = 138.0\ndelta_Mrad_s = 0.1\n"
    "kappa_Mrad_s = 960.0\n\n"
)

_CAVITY_IDEAL = (
    "[cavity]\nOmega_Mrad_s = 10.0\nh_Mrad_s = 138.0\ndelta_Mrad_s = 0.1\n"
    "kappa_Mrad_s = 0.0\n\n"
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

PRESETS = {
    "table1": _SPECIES_BLOCK + _table1_cases(),
    "table2": _SPECIES_BLOCK + _table2_cases(),
    "fig2": (
        _CAVITY_REFERENCE
        + "[sweep]\nkappa_grid_Mrad_s = 0:1000:41\ndelta_list_Mrad_s = 0.1,0.25,0.5,1.0\n"
    ),
    "fig2_ideal": (
        _CAVITY_REFERENCE
        + "[sweep]\nkappa_grid_Mrad_s = 0:1000:41\ndelta_list_Mrad_s = 0.001\n"
    ),
    "gates2": _SPECIES_BLOCK + _CRYSTAL_N2,
    "gates3": _SPECIES_BLOCK + _CRYSTAL_N3,
    "run_n2_ideal": (
        _SPECIES_BLOCK + _CRYSTAL_N2 + _CAVITY_IDEAL
        + "[protocol]\ncnot_active_on = e\nt1_s = 0.0\n\n"
        + "[run]\ntrials = 100000\nseed = 1\n"
    ),
    "run_n3_ideal": (
        _SPECIES_BLOCK + _CRYSTAL_N3 + _CAVITY_IDEAL
        + "[protocol]\ncnot_active_on = e\nt1_s = 0.0\n\n"
        + "[run]\ntrials = 100000\nseed = 1\n"
    ),
    "run_n5_ideal": (
        _SPECIES_BLOCK + _CRYSTAL_N5 + _CAVITY_IDEAL
        + "[protocol]\ncnot_active_on = e\nt1_s = 0.0\n\n"
        + "[run]\ntrials = 100000\nseed = 1\n"
    ),
    "run_n2": (
        _SPECIES_BLOCK + _CRYSTAL_N2 + _CAVITY_REFERENCE
        + "[protocol]\ncnot_active_on = e\nt1_s = 0.0\n\n"
        + "[run]\ntrials = 100000\nseed = 1\n"
    ),
}


def preset_text(name: str) -> str:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name]
