"""Run configuration: laboratory-unit parameters, file parsing, CLI overrides.

The config file format is flat key = value lines under [section] headers,
with '#' comments; every value is in laboratory units (amu, cm^-1,
angstrom, erg*angstrom).  Defaults reproduce the standard parameter set of
the metal-ligand stretch model this package ships with.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

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
from .units import to_internal


@dataclass(frozen=True)
class RunConfig:
    # [model] laboratory units
    mass_amu: float = 35.4
    ground_wavenumber_cm1: float = 400.0
    allowed_wavenumber_cm1: float = 400.0
    allowed_displacement_angstrom: float = 0.1
    allowed_origin_cm1: float = 10700.0
    forbidden_origin_cm1: float = 10800.0
    forbidden_alpha_inv_angstrom: float = 1.0
    # <= 0 means: choose the depth that makes the well-bottom frequency
    # equal forbidden_wavenumber_cm1.
    forbidden_well_depth_cm1: float = -1.0
    forbidden_wavenumber_cm1: float = 400.0
    forbidden_displacement_angstrom: float = 0.0
    coupling_k0_erg_angstrom: float = 5.54275e-15
    crossing_position_angstrom: float = -0.02477
    damping_cm1: float = 450.0
    # [grid]
    grid_x_min_angstrom: float = -1.5
    grid_x_max_angstrom: float = 1.5
    grid_points: int = 4096
    # [scan]
    omega_min_cm1: float = 9500.0
    omega_max_cm1: float = 13500.0
    omega_step_cm1: float = 10.0
    # [raman]
    raman_final_state: int = 1

    def validate(self, lines=None):
        """Reject physically impossible values; lines maps field name to
        the config-file line number for error reporting."""

        def err(name, message):
            line = None if lines is None else lines.get(name)
            raise ConfigError(f"{name}: {message}", line=line)

        positive = [
            "mass_amu",
            "ground_wavenumber_cm1",
            "allowed_wavenumber_cm1",
            "forbidden_alpha_inv_angstrom",
            "forbidden_wavenumber_cm1",
            "damping_cm1",
            "omega_step_cm1",
        ]
        for name in positive:
            if getattr(self, name) <= 0.0:
                err(name, "must be positive")
        if self.coupling_k0_erg_angstrom < 0.0:
            err("coupling_k0_erg_angstrom", "must be non-negative")
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
        mass = to_internal(self.mass_amu, "amu").value
        ground = HarmonicCurve(
            mass=mass,
            frequency=to_internal(self.ground_wavenumber_cm1, "cm-1").value,
        )
        allowed = HarmonicCurve(
            mass=mass,
            frequency=to_internal(self.allowed_wavenumber_cm1, "cm-1").value,
            minimum_position=to_internal(self.allowed_displacement_angstrom, "angstrom").value,
            origin_energy=to_internal(self.allowed_origin_cm1, "cm-1").value,
        )
        alpha = self.forbidden_alpha_inv_angstrom  # inverse length: 1/angstrom
        if self.forbidden_well_depth_cm1 > 0.0:
            depth = to_internal(self.forbidden_well_depth_cm1, "cm-1").value
        else:
            w_f = to_internal(self.forbidden_wavenumber_cm1, "cm-1").value
            depth = mass * w_f**2 / (2.0 * alpha**2)
        forbidden = MorseCurve(
            mass=mass,
            well_depth=depth,
            alpha=alpha,
            minimum_position=to_internal(self.forbidden_displacement_angstrom, "angstrom").value,
            origin_energy=to_internal(self.forbidden_origin_cm1, "cm-1").value,
        )
        coupling = DeltaCoupling(
            strength=to_internal(self.coupling_k0_erg_angstrom, "erg*angstrom").value,
            location=to_internal(self.crossing_position_angstrom, "angstrom").value,
        )
        return TwoStateModel(
            ground=ground,
            allowed=allowed,
            forbidden=forbidden,
            coupling=coupling,
            damping=to_internal(self.damping_cm1, "cm-1").value,
        )

    def to_grid(self):
        return Grid(self.grid_x_min_angstrom, self.grid_x_max_angstrom, self.grid_points)

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


_SECTIONS = {
    "model": [
        "mass_amu",
        "ground_wavenumber_cm1",
        "allowed_wavenumber_cm1",
        "allowed_displacement_angstrom",
        "allowed_origin_cm1",
        "forbidden_origin_cm1",
        "forbidden_alpha_inv_angstrom",
        "forbidden_well_depth_cm1",
        "forbidden_wavenumber_cm1",
        "forbidden_displacement_angstrom",
        "coupling_k0_erg_angstrom",
        "crossing_position_angstrom",
        "damping_cm1",
    ],
    "grid": [
        "grid_x_min_angstrom",
        "grid_x_max_angstrom",
        "grid_points",
    ],
    "scan": [
        "omega_min_cm1",
        "omega_max_cm1",
        "omega_step_cm1",
    ],
    "raman": [
        "raman_final_state",
    ],
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_ALL_FIELDS = {name for names in _SECTIONS.values() for name in names}


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
        if key not in _ALL_FIELDS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if section is not None and key not in _SECTIONS.get(section, []):
            raise ConfigError(f"key {key!r} does not belong in [{section}]", line=lineno)
        caster = int if _FIELD_TYPES[key] in ("int", int) else float
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
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    config, _ = parse_config(text)
    return config


def apply_overrides(config, k0=None, gamma=None, nf=None, displacement=None):
    """Command-line flag overrides, all in laboratory units."""
    changes = {}
    if k0 is not None:
        changes["coupling_k0_erg_angstrom"] = k0
    if gamma is not None:
        changes["damping_cm1"] = gamma
    if nf is not None:
        changes["raman_final_state"] = nf
    if displacement is not None:
        changes["allowed_displacement_angstrom"] = displacement
    if not changes:
        return config
    return replace(config, **changes).validate()
