import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from curvecross.config import RunConfig, apply_overrides, load_config, parse_config
from curvecross.errors import ConfigError
from curvecross.spectra import model_fingerprint


def test_defaults_are_the_standard_parameter_set():
    cfg = RunConfig()
    assert cfg.mass_amu == 35.4
    assert cfg.ground_wavenumber_cm1 == 400.0
    assert cfg.allowed_displacement_angstrom == 0.1
    assert cfg.allowed_origin_cm1 == 10700.0
    assert cfg.forbidden_origin_cm1 == 10800.0
    assert cfg.coupling_k0_erg_angstrom == 5.54275e-15
    assert cfg.crossing_position_angstrom == -0.02477
    assert cfg.damping_cm1 == 450.0
    assert cfg.omega_grid().size == 401


def test_model_construction_internal_values():
    model = RunConfig().to_model()
    assert model.ground.mass == pytest.approx(1.04997, abs=1e-4)
    assert model.ground.frequency == 400.0
    assert model.coupling.strength == pytest.approx(27.9028, abs=1e-3)
    assert model.coupling.location == -0.02477
    assert model.damping == 450.0
    # derived well depth keeps the well-bottom frequency at the configured
    # wavenumber
    assert model.forbidden.harmonic_frequency == pytest.approx(400.0, rel=1e-12)


def test_integer_model_fields_give_the_float_model():
    # an int set through replace builds the model, and so the repr and the
    # fingerprint, of the float a config file parses it into
    ints = {
        "mass_amu": 20,
        "ground_wavenumber_cm1": 400,
        "allowed_origin_cm1": 10700,
        "forbidden_alpha_inv_angstrom": 1,
        "forbidden_well_depth_cm1": 1000,
        "coupling_k0_erg_angstrom": 0,
        "crossing_position_angstrom": 0,
        "damping_cm1": 450,
    }
    floats = {name: float(value) for name, value in ints.items()}
    from_ints = replace(RunConfig(), **ints).validate().to_model()
    from_floats = replace(RunConfig(), **floats).validate().to_model()
    assert repr(from_ints) == repr(from_floats)


def test_explicit_well_depth_override():
    cfg = parse_config("[model]\nforbidden_well_depth_cm1 = 2000\n")[0]
    assert cfg.to_model().forbidden.well_depth == pytest.approx(2000.0)


def test_echo_roundtrip():
    cfg = RunConfig(damping_cm1=20.0, omega_step_cm1=5.0)
    parsed, _ = parse_config(cfg.echo_lines())
    assert parsed == cfg


def test_echo_roundtrip_every_field():
    changed = {
        "mass_amu": 36.0,
        "ground_wavenumber_cm1": 410.0,
        "allowed_wavenumber_cm1": 390.0,
        "allowed_displacement_angstrom": 0.12,
        "allowed_origin_cm1": 10650.0,
        "forbidden_origin_cm1": 10850.0,
        "forbidden_alpha_inv_angstrom": 1.1,
        "forbidden_well_depth_cm1": 2000.0,
        "forbidden_wavenumber_cm1": 380.0,
        "forbidden_displacement_angstrom": 0.05,
        "coupling_k0_erg_angstrom": 3e-15,
        "crossing_position_angstrom": -0.03,
        "damping_cm1": 300.0,
        "grid_x_min_angstrom": -1.6,
        "grid_x_max_angstrom": 1.4,
        "grid_points": 2048,
        "omega_min_cm1": 9600.0,
        "omega_max_cm1": 13000.0,
        "omega_step_cm1": 20.0,
        "raman_final_state": 2,
    }
    default = RunConfig()
    assert set(changed) == {f.name for f in fields(RunConfig)}
    assert all(getattr(default, name) != value for name, value in changed.items())
    cfg = RunConfig(**changed).validate()
    parsed, lines = parse_config(cfg.echo_lines())
    assert parsed == cfg
    assert set(lines) == set(changed)
    assert type(parsed.grid_points) is int and type(parsed.raman_final_state) is int


def test_duplicate_key_rejected():
    text = "[scan]\nomega_min_cm1 = 9500\nomega_min_cm1 = 9600\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == 3
    assert "duplicate key 'omega_min_cm1'" in str(err.value)
    assert "first given on line 2" in str(err.value)


@pytest.mark.parametrize(
    "section, name, value, message",
    [
        ("model", "mass_amu", "0", "must be positive"),
        ("model", "ground_wavenumber_cm1", "0", "must be positive"),
        ("model", "allowed_wavenumber_cm1", "-400", "must be positive"),
        ("model", "forbidden_alpha_inv_angstrom", "0", "must be positive"),
        ("model", "forbidden_wavenumber_cm1", "0", "must be positive"),
        ("model", "coupling_k0_erg_angstrom", "-1e-15", "must be non-negative"),
        ("model", "damping_cm1", "0", "must be positive"),
        ("scan", "omega_step_cm1", "-10", "must be positive"),
    ],
)
def test_sign_constrained_fields_rejected(section, name, value, message):
    with pytest.raises(ConfigError) as err:
        parse_config(f"[{section}]\n# sign check\n{name} = {value}\n")
    assert str(err.value) == f"line 3: {name}: {message}"


def test_parse_reports_line_numbers():
    text = "[model]\nmass_amu = 35.4\nbogus_key = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 3" in str(err.value)


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\ngrid_points = many\n")
    assert "line 2" in str(err.value)


def test_parse_rejects_crossing_outside_grid():
    text = "[model]\ncrossing_position_angstrom = 2.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 2" in str(err.value)
    assert "crossing_position_angstrom" in str(err.value)


def test_parse_rejects_raman_final_state_above_table():
    text = "[raman]\nraman_final_state = 201\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 2" in str(err.value)
    assert "raman_final_state" in str(err.value)
    assert parse_config("[raman]\nraman_final_state = 200\n")[0].raman_final_state == 200


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError):
        parse_config("[solver]\nx = 1\n")


def test_meta_section_is_skipped():
    cfg, _ = parse_config("[meta]\nversion = 9.9\ncommand = absorption\n")
    assert cfg == RunConfig()


def test_semantic_validation_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[model]\nmass_amu = -3\n")
    assert "line 2" in str(err.value)
    assert "mass_amu" in str(err.value)


def test_wrong_section_for_key():
    with pytest.raises(ConfigError):
        parse_config("[grid]\nmass_amu = 12\n")


def test_comments_and_blanks_ignored():
    text = "# heading\n\n[model]\ndamping_cm1 = 30.0  # broad\n"
    cfg, lines = parse_config(text)
    assert cfg.damping_cm1 == 30.0
    assert lines["damping_cm1"] == 4


def test_overrides():
    cfg = apply_overrides(RunConfig(), k0=0.0, gamma=20.0, nf=2, displacement=0.0)
    assert cfg.coupling_k0_erg_angstrom == 0.0
    assert cfg.damping_cm1 == 20.0
    assert cfg.raman_final_state == 2
    assert cfg.allowed_displacement_angstrom == 0.0
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), gamma=-5.0)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section, name",
    [
        ("model", "coupling_k0_erg_angstrom"),
        ("model", "damping_cm1"),
        # -inf must not read as "<= 0 means derive the depth"
        ("model", "forbidden_well_depth_cm1"),
        ("model", "allowed_displacement_angstrom"),
        ("scan", "omega_max_cm1"),
    ],
)
def test_non_finite_values_rejected(section, name, value):
    with pytest.raises(ConfigError) as err:
        parse_config(f"[{section}]\n{name} = {value}\n")
    assert "line 2" in str(err.value)
    assert f"{name}: must be finite" in str(err.value)


@pytest.mark.parametrize("text, message, line", [
    ("[grid]\ngrid_points = 8\n", "grid_points: needs at least 16 points", 2),
    ("[grid]\ngrid_x_min_angstrom = 1.0\ngrid_x_max_angstrom = 1.0\n",
     "grid_x_max_angstrom: must exceed grid_x_min_angstrom", 3),
    ("[scan]\nomega_min_cm1 = 13500\nomega_max_cm1 = 9500\n",
     "omega_max_cm1: must exceed omega_min_cm1", 3),
    ("[model]\n\nmass_amu\n", "expected 'key = value', got 'mass_amu'", 3),
])
def test_inconsistent_or_malformed_settings_rejected(text, message, line):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_overrides_rejected(value):
    for name in ("k0", "gamma", "displacement"):
        with pytest.raises(ConfigError, match="must be finite"):
            apply_overrides(RunConfig(), **{name: value})


def test_unreadable_config_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match=re.escape(str(tmp_path))):
        load_config(tmp_path)


@pytest.mark.parametrize(
    "omega_min, omega_max, step, expected",
    [
        (0.0, 15.000001, 10.0, [0.0, 10.0]),
        (9500.0, 9500.6, 1.0, [9500.0]),
        (9500.0, 9502.5, 1.0, [9500.0, 9501.0, 9502.0]),
        # (9500.3 - 9500) / 0.1 rounds below 3, yet 9500 + 3 * 0.1 is 9500.3
        (9500.0, 9500.3, 0.1, (9500.0 + 0.1 * np.arange(4)).tolist()),
        (9500.0, 13500.0, 10.0, (9500.0 + 10.0 * np.arange(401)).tolist()),
    ],
)
def test_omega_grid_stops_at_omega_max(omega_min, omega_max, step, expected):
    cfg = RunConfig(omega_min_cm1=omega_min, omega_max_cm1=omega_max, omega_step_cm1=step)
    assert cfg.omega_grid().tolist() == expected


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    cfg, lines = parse_config(blocks[0])
    assert cfg.raman_final_state == 1
    assert cfg.grid_points == 4096
    assert "raman_final_state" in lines


def test_integer_grid_bounds_give_the_float_fingerprint():
    # int bounds set through replace give the grid, and so the model
    # fingerprint, of the floats a config file parses them into
    def fingerprint(x_min):
        config = replace(RunConfig(), grid_x_min_angstrom=x_min).validate()
        return model_fingerprint(config.to_model(), config.to_grid())

    assert fingerprint(-2) == fingerprint(-2.0)
