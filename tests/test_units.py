import math

import pytest

from curvecross import units
from curvecross.config import RunConfig

ALL_TAGS = ["cm-1", "erg", "amu", "gram", "angstrom", "cm", "erg*angstrom"]

ANGSTROM_CM = 1.0e-8
# hbar = 1 with energy in cm^-1 and length in angstrom fixes the mass unit
# at hbar^2 / (hc * 1 cm^-1 * (1 angstrom)^2)
MASS_UNIT_G = units.HBAR_ERG_S**2 / (units.HC_ERG_CM * ANGSTROM_CM**2)

# Internal units per unit of each tag, as the package applies them: the
# config's cm^-1 and angstrom values enter the model as they are.
INTO = {
    "cm-1": 1.0,
    "erg": 1.0 / units.ENERGY_UNIT_ERG,
    "amu": units.AMU,
    "gram": 1.0 / units.MASS_UNIT_G,
    "angstrom": 1.0,
    "cm": 1.0 / units.LENGTH_UNIT_CM,
    "erg*angstrom": units.ERG_ANGSTROM,
    "internal": 1.0,
}
# Units of each tag per internal unit, derived here from the cgs definitions.
OUT = {
    "cm-1": 1.0,
    "erg": units.HC_ERG_CM,
    "amu": MASS_UNIT_G / units.AMU_G,
    "gram": MASS_UNIT_G,
    "angstrom": 1.0,
    "cm": ANGSTROM_CM,
    "erg*angstrom": units.HC_ERG_CM,
    "internal": 1.0,
}


@pytest.mark.parametrize("tag", ALL_TAGS)
@pytest.mark.parametrize("value", [1.0, 400.0, 5.54275e-15, 1.23456789e7])
def test_roundtrip(tag, value):
    back = value * INTO[tag] * OUT[tag]
    assert back == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("tag", ALL_TAGS + ["internal"])
def test_zero_maps_to_zero(tag):
    internal = 0.0 * INTO[tag]
    assert internal == 0.0
    assert internal * OUT[tag] == 0.0


def test_amu_factor_is_the_hbar_one_mass_unit():
    assert units.AMU == pytest.approx(units.AMU_G / MASS_UNIT_G, rel=1e-15)


def test_erg_angstrom_factor_divides_by_hc():
    # an erg*angstrom coupling is (erg / hc) cm^-1 times angstrom
    assert units.ERG_ANGSTROM * units.HC_ERG_CM == pytest.approx(1.0, rel=1e-15)


def test_default_model_mass_and_coupling_are_pinned():
    # the only two config values that take a factor, bit for bit
    model = RunConfig().validate().to_model()
    assert model.allowed.mass == 1.0499697129483196
    assert model.coupling.strength == 27.902849564699444


def test_wavenumber_is_angular_frequency():
    # with hbar = 1 the internal energy 400 (cm^-1) is an angular frequency
    # of 2 pi c * 400 rad/s; the 9-digit hbar and hc give c to about 2e-9
    c_cm_s = 2.99792458e10
    omega_si = 400.0 / units.TIME_UNIT_S
    assert omega_si == pytest.approx(2.0 * math.pi * c_cm_s * 400.0, rel=1e-8)


def test_energy_and_angular_frequency_share_scale():
    # an internal energy read as an angular frequency gives hbar * omega
    # equal to the energy in erg
    energy = 250.0
    omega_si = energy / units.TIME_UNIT_S
    assert units.HBAR_ERG_S * omega_si == pytest.approx(energy * units.HC_ERG_CM, rel=1e-12)


def test_coupling_strength_roundtrip():
    cfg = RunConfig()
    strength = cfg.validate().to_model().coupling.strength
    assert strength * OUT["erg*angstrom"] == pytest.approx(
        cfg.coupling_k0_erg_angstrom, rel=1e-12
    )


def test_mass_roundtrip_value():
    cfg = RunConfig()
    mass = cfg.validate().to_model().allowed.mass
    assert mass * OUT["amu"] == pytest.approx(cfg.mass_amu, rel=1e-12)
    assert mass * OUT["gram"] == pytest.approx(cfg.mass_amu * units.AMU_G, rel=1e-12)


def test_energy_to_erg_uses_hc():
    cfg = RunConfig()
    origin = cfg.validate().to_model().allowed.origin_energy
    assert origin * units.ENERGY_UNIT_ERG == pytest.approx(
        cfg.allowed_origin_cm1 * units.HC_ERG_CM, rel=1e-12
    )


def test_internal_tag_passthrough():
    # the config's cm^-1 and angstrom values are internal units: they
    # reach the model unchanged
    cfg = RunConfig()
    model = cfg.validate().to_model()
    assert model.allowed.frequency == cfg.allowed_wavenumber_cm1
    assert model.allowed.minimum_position == cfg.allowed_displacement_angstrom
    assert model.allowed.origin_energy == cfg.allowed_origin_cm1
    assert model.forbidden.alpha == cfg.forbidden_alpha_inv_angstrom
    assert model.forbidden.origin_energy == cfg.forbidden_origin_cm1
    assert model.coupling.location == cfg.crossing_position_angstrom
    assert model.damping == cfg.damping_cm1


def test_time_unit_consistency():
    # one vibrational period of a 400 cm^-1 mode is 2 pi / 400 internal
    # units, which must equal 83.39 fs
    period_fs = (2.0 * math.pi / 400.0) / units.FEMTOSECOND
    assert period_fs == pytest.approx(83.391, abs=0.001)
