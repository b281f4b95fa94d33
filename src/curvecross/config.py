"""Run configuration: laboratory-unit parameters, file parsing, CLI overrides.

The config file format is flat key = value lines under [section] headers,
with '#' comments; every value is in laboratory units (amu, cm^-1,
angstrom, erg*angstrom).  Defaults reproduce the standard parameter set of
the metal-ligand stretch model this package ships with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .model import (
    MAX_EIGENSTATE,
    DeltaCoupling,
    Grid,
    HarmonicCurve,
    MorseCurve,
    TwoStateModel,
)
from .spectra import photon_energies
from .units import AMU, ERG_ANGSTROM


def _setting(section, default, sign=None):
    """A RunConfig field in config-file section [section]; sign is
    "positive" or "non-negative" for a sign-constrained field."""
    return field(default=default, metadata={"section": section, "sign": sign})


@dataclass(frozen=True)
class RunConfig:
    # laboratory units; declaration order is the config echo's order
    mass_amu: float = _setting("model", 35.4, "positive")
    ground_wavenumber_cm1: float = _setting("model", 400.0, "positive")
    allowed_wavenumber_cm1: float = _setting("model", 400.0, "positive")
    allowed_displacement_angstrom: float = _setting("model", 0.1)
    allowed_origin_cm1: float = _setting("model", 10700.0)
    forbidden_origin_cm1: float = _setting("model", 10800.0)
    forbidden_alpha_inv_angstrom: float = _setting("model", 1.0, "positive")
    # <= 0 means: choose the depth that makes the well-bottom frequency
    # equal forbidden_wavenumber_cm1.
    forbidden_well_depth_cm1: float = _setting("model", -1.0)
    forbidden_wavenumber_cm1: float = _setting("model", 400.0, "positive")
    forbidden_displacement_angstrom: float = _setting("model", 0.0)
    coupling_k0_erg_angstrom: float = _setting("model", 5.54275e-15, "non-negative")
    crossing_position_angstrom: float = _setting("model", -0.02477)
    damping_cm1: float = _setting("model", 450.0, "positive")
    grid_x_min_angstrom: float = _setting("grid", -1.5)
    grid_x_max_angstrom: float = _setting("grid", 1.5)
    grid_points: int = _setting("grid", 4096)
    omega_min_cm1: float = _setting("scan", 9500.0)
    omega_max_cm1: float = _setting("scan", 13500.0)
    omega_step_cm1: float = _setting("scan", 10.0, "positive")
    raman_final_state: int = _setting("raman", 1)

    def validate(self, lines=None):
        """Reject physically impossible values; lines maps field name to
        the config-file line number for error reporting."""

        def err(name, message):
            line = None if lines is None else lines.get(name)
            raise ConfigError(f"{name}: {message}", line=line)

        for f in fields(self):
            value, sign = getattr(self, f.name), f.metadata["sign"]
            # the checks below are comparisons, which NaN always escapes and
            # inf often passes
            if f.type in ("float", float) and not math.isfinite(value):
                err(f.name, "must be finite")
            if sign == "positive" and value <= 0.0 or sign == "non-negative" and value < 0.0:
                err(f.name, f"must be {sign}")
        if self.grid_points < 16:
            err("grid_points", "needs at least 16 points")
        if self.grid_x_max_angstrom <= self.grid_x_min_angstrom:
            err("grid_x_max_angstrom", "must exceed grid_x_min_angstrom")
        x_min, x_max = self.grid_x_min_angstrom, self.grid_x_max_angstrom
        if not x_min <= self.crossing_position_angstrom <= x_max:
            err("crossing_position_angstrom", f"must lie on the grid [{x_min}, {x_max}]")
        if self.omega_max_cm1 <= self.omega_min_cm1:
            err("omega_max_cm1", "must exceed omega_min_cm1")
        if not 1 <= self.raman_final_state <= MAX_EIGENSTATE:
            err("raman_final_state", f"must lie in 1..{MAX_EIGENSTATE}")
        return self

    # -- construction of internal-unit objects ---------------------------

    def to_model(self):
        mass = float(self.mass_amu) * AMU
        ground = HarmonicCurve(
            mass=mass,
            frequency=float(self.ground_wavenumber_cm1),
        )
        allowed = HarmonicCurve(
            mass=mass,
            frequency=float(self.allowed_wavenumber_cm1),
            minimum_position=float(self.allowed_displacement_angstrom),
            origin_energy=float(self.allowed_origin_cm1),
        )
        alpha = float(self.forbidden_alpha_inv_angstrom)  # inverse length: 1/angstrom
        if self.forbidden_well_depth_cm1 > 0.0:
            depth = float(self.forbidden_well_depth_cm1)
        else:
            w_f = float(self.forbidden_wavenumber_cm1)
            depth = mass * w_f**2 / (2.0 * alpha**2)
        forbidden = MorseCurve(
            mass=mass,
            well_depth=depth,
            alpha=alpha,
            minimum_position=float(self.forbidden_displacement_angstrom),
            origin_energy=float(self.forbidden_origin_cm1),
        )
        coupling = DeltaCoupling(
            strength=float(self.coupling_k0_erg_angstrom) * ERG_ANGSTROM,
            location=float(self.crossing_position_angstrom),
        )
        return TwoStateModel(
            ground=ground,
            allowed=allowed,
            forbidden=forbidden,
            coupling=coupling,
            damping=float(self.damping_cm1),
        )

    def to_grid(self):
        x_min, x_max = float(self.grid_x_min_angstrom), float(self.grid_x_max_angstrom)
        return Grid(x_min, x_max, self.grid_points)

    def omega_grid(self):
        return photon_energies(self.omega_min_cm1, self.omega_max_cm1, self.omega_step_cm1)

    def echo_lines(self):
        """Config echo as a parseable file: feeding it back reproduces the run."""
        out = []
        for section, names in _SECTIONS.items():
            out.append(f"[{section}]")
            for name in names:
                out.append(f"{name} = {getattr(self, name)!r}".replace("'", ""))
            out.append("")
        return "\n".join(out)


_FIELDS = {f.name: f for f in fields(RunConfig)}
_SECTIONS = {}
for _field in _FIELDS.values():
    _SECTIONS.setdefault(_field.metadata["section"], []).append(_field.name)

# Command-line flag -> the RunConfig field it overrides.
OVERRIDES = {
    "k0": "coupling_k0_erg_angstrom",
    "gamma": "damping_cm1",
    "nf": "raman_final_state",
    "displacement": "allowed_displacement_angstrom",
}


def parse_config(text):
    """Parse config text into (RunConfig, field -> line-number map).

    Unknown sections other than [meta] and unknown keys are rejected with
    their line number; [meta] is skipped so an output sidecar can be fed
    straight back in.
    """
    values = {}
    lines = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS and section != "meta":
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        if section == "meta":
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if section is not None and _FIELDS[key].metadata["section"] != section:
            raise ConfigError(f"key {key!r} does not belong in [{section}]", line=lineno)
        if key in lines:
            raise ConfigError(
                f"duplicate key {key!r}, first given on line {lines[key]}", line=lineno
            )
        caster = int if _FIELDS[key].type in ("int", int) else float
        try:
            values[key] = caster(value)
        except ValueError:
            raise ConfigError(
                f"cannot parse {value!r} as {caster.__name__} for {key!r}", line=lineno
            ) from None
        lines[key] = lineno
    config = replace(RunConfig(), **values)
    config.validate(lines)
    return config, lines


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 text") from None
    config, _ = parse_config(text)
    return config


def apply_overrides(config, **flags):
    """Command-line flag overrides (see OVERRIDES), all in laboratory units;
    a flag given as None is not set."""
    changes = {OVERRIDES[flag]: value for flag, value in flags.items() if value is not None}
    if not changes:
        return config
    return replace(config, **changes).validate()
