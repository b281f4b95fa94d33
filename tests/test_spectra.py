import math

import numpy as np
import pytest

from curvecross import cli, spectra
from curvecross.errors import GridMismatchError
from curvecross.model import (
    DeltaCoupling,
    HarmonicCurve,
    franck_condon_matrix,
    harmonic_eigenstates,
    huang_rhys_factor,
)
from curvecross.resolvent import build_resolvent_batch
from curvecross.spectra import (
    Spectrum,
    absorption_spectra,
    default_scan,
    deviation_metric,
    raman_profiles,
)


def with_params(model, **kwargs):
    from dataclasses import replace

    return replace(model, **kwargs)


@pytest.fixture
def builds(monkeypatch):
    """(curve, nz) of every sweep build the scans make."""
    calls = []

    def counting(curve, zs, grid=None):
        calls.append((curve, len(zs)))
        return build_resolvent_batch(curve, zs, grid)

    monkeypatch.setattr(spectra, "build_resolvent_batch", counting)
    return calls


def test_spectrum_requires_increasing_omega():
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 1.0]), np.array([0.0, 0.0]), "absorption")
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 2.0]), np.array([0.0, np.inf]), "absorption")


def test_sharp_line_positions_and_poisson_heights(model, grid):
    # small damping resolves the vibronic ladder: peaks at the electronic
    # origin plus multiples of the vibrational quantum, heights Poisson in
    # the Huang-Rhys factor
    sharp = with_params(model, damping=20.0)
    omega = np.arange(10600.0, 12520.0, 2.0)
    _, spec = absorption_spectra(sharp, omega, grid=grid)
    intensity = spec.intensity
    peaks = np.flatnonzero(
        (intensity[1:-1] > intensity[:-2]) & (intensity[1:-1] > intensity[2:])
    ) + 1
    s = huang_rhys_factor(model.ground, model.allowed)
    heights = []
    for n in range(5):
        expected = 10700.0 + 400.0 * n
        nearest = peaks[np.argmin(np.abs(omega[peaks] - expected))]
        assert abs(omega[nearest] - expected) <= 2.0
        heights.append(intensity[nearest])
    for n in range(1, 5):
        ratio = heights[n] / heights[0]
        poisson = s**n / math.factorial(n)
        assert ratio == pytest.approx(poisson, rel=0.05)


def test_broadband_integral_matches_lorentzian_sum(model, grid):
    # Gamma = 450 merges the ladder into one smooth band whose windowed
    # integral equals the Franck-Condon-weighted sum of Lorentzian
    # window integrals
    omega = default_scan()
    _, spec = absorption_spectra(model, omega, grid=grid)
    assert np.all(np.diff(spec.intensity) != 0.0)
    fc = franck_condon_matrix(model.ground, model.allowed, 0, 60)[0]
    energies = model.allowed.eigenvalue(np.arange(61).astype(float))
    gamma = model.damping
    z_lo = omega[0] + 0.5 * model.ground.frequency
    z_hi = omega[-1] + 0.5 * model.ground.frequency
    oracle = np.sum(
        fc**2
        * (np.arctan((z_hi - energies) / gamma) + np.arctan((energies - z_lo) / gamma))
    )
    numeric = np.trapezoid(spec.intensity, omega)
    assert numeric == pytest.approx(oracle, rel=0.05)


def test_absorption_positive(model, grid):
    spec, _ = absorption_spectra(model, default_scan(), grid=grid)
    assert np.min(spec.intensity) > -1e-12


def test_uncoupled_absorption_matches_lorentzian_fc_sum(model, grid):
    # pointwise across the window, the band is the Franck-Condon-weighted
    # Lorentzian comb
    omega = default_scan()
    _, spec = absorption_spectra(model, omega, grid=grid)
    fc = franck_condon_matrix(model.ground, model.allowed, 0, 60)[0]
    energies = model.allowed.eigenvalue(np.arange(61).astype(float))
    z = omega + 0.5 * model.ground.frequency + 1j * model.damping
    oracle = np.real(1j * np.sum(fc[None, :] ** 2 / (z[:, None] - energies), axis=1))
    assert np.max(np.abs(spec.intensity - oracle) / oracle) < 1e-4


def test_uncoupled_raman_matches_fc_sum(model, grid):
    omega = default_scan()
    _, spec = raman_profiles(model, 1, omega, grid=grid)
    fc = franck_condon_matrix(model.ground, model.allowed, 1, 60)
    energies = model.allowed.eigenvalue(np.arange(61).astype(float))
    zs = omega + 0.5 * model.ground.frequency + 1j * model.damping
    oracle = (
        np.abs(np.sum(fc[1][None, :] * fc[0][None, :] / (zs[:, None] - energies), axis=1))
        ** 2
    )
    assert np.max(np.abs(spec.intensity - oracle) / oracle) < 1e-4


def test_raman_dies_without_displacement(model, grid):
    undisplaced = HarmonicCurve(
        mass=model.allowed.mass,
        frequency=model.allowed.frequency,
        minimum_position=0.0,
        origin_energy=model.allowed.origin_energy,
    )
    flat = with_params(model, allowed=undisplaced)
    omega = np.arange(10500.0, 12500.0, 100.0)
    coupled, uncoupled = raman_profiles(flat, 1, omega, grid=grid)
    assert np.max(uncoupled.intensity) < 1e-20
    # the crossing provides its own pathway: with coupling on, the profile
    # is small but genuinely nonzero
    assert np.max(coupled.intensity) > 1e-12


def test_raman_requires_excited_final_state(model, grid):
    with pytest.raises(ValueError):
        raman_profiles(model, 0, default_scan(), grid=grid)


def test_deviation_metric_trivia(model, grid):
    omega = np.arange(10500.0, 11500.0, 50.0)
    _, a = absorption_spectra(model, omega, grid=grid)
    assert deviation_metric(a, a) == 0.0
    uncoupled_model = with_params(model, coupling=DeltaCoupling(0.0, model.coupling.location))
    coupled, uncoupled = absorption_spectra(uncoupled_model, omega, grid=grid)
    assert deviation_metric(coupled, a) == 0.0
    assert deviation_metric(coupled, uncoupled) == 0.0


def test_deviation_metric_grid_mismatch(model, grid):
    omega = np.arange(10500.0, 11500.0, 100.0)
    _, a = absorption_spectra(model, omega, grid=grid)
    _, b = absorption_spectra(model, omega + 10.0, grid=grid)
    with pytest.raises(GridMismatchError):
        deviation_metric(a, b)


def test_coupling_changes_both_spectra(model, grid):
    omega = np.arange(9500.0, 13510.0, 40.0)
    d_a = deviation_metric(*absorption_spectra(model, omega, grid=grid))
    d_r = deviation_metric(*raman_profiles(model, 1, omega, grid=grid))
    assert d_a > 0.01
    assert d_r > d_a


def test_scan_determinism_across_chunking(model, grid, monkeypatch):
    omega = np.arange(10700.0, 11200.0, 50.0)
    full = absorption_spectra(model, omega, grid=grid)
    monkeypatch.setattr(spectra, "SCAN_CHUNK", 3)
    chunked = absorption_spectra(model, omega, grid=grid)
    for a, b in zip(full, chunked):
        assert np.array_equal(a.intensity, b.intensity)


def test_metadata_records_run(model, grid):
    omega = np.arange(10700.0, 11000.0, 100.0)
    coupled, uncoupled = raman_profiles(model, 2, omega, grid=grid)
    for spec in (coupled, uncoupled):
        assert spec.kind == "raman"
        assert spec.metadata["n_f"] == 2
        assert spec.metadata["grid"] == (grid.x_min, grid.x_max, grid.n)
    assert coupled.metadata["coupled"] is True
    assert uncoupled.metadata["coupled"] is False
    assert coupled.metadata["fingerprint"] == uncoupled.metadata["fingerprint"]


def test_cli_jobs_sweep_each_surface_once_per_chunk(model, builds, tmp_path, monkeypatch):
    # coupled and uncoupled tables come from the same sweeps: 11 energies in
    # chunks of 4 make 3 allowed-surface and 3 forbidden-surface builds
    monkeypatch.setattr(spectra, "SCAN_CHUNK", 4)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("[scan]\nomega_min_cm1 = 10700\nomega_max_cm1 = 10800\nomega_step_cm1 = 10\n")
    for job in ("absorption", "raman"):
        builds.clear()
        assert cli.main([job, "--config", str(cfg), "--out", str(tmp_path / job)]) == 0
        assert [nz for curve, nz in builds if curve == model.allowed] == [4, 4, 3]
        assert [nz for curve, nz in builds if curve == model.forbidden] == [4, 4, 3]
        assert len(builds) == 6


def test_zero_coupling_scan_is_the_same_scan(model, grid, builds):
    # K0 = 0 takes the one scan path: each surface swept once, and the
    # coupled profile equal to the uncoupled one bit for bit
    omega = np.arange(10700.0, 11000.0, 100.0)
    uncoupled_model = with_params(model, coupling=DeltaCoupling(0.0, model.coupling.location))
    coupled, uncoupled = raman_profiles(uncoupled_model, 1, omega, grid=grid)
    assert builds == [(model.allowed, 3), (model.forbidden, 3)]
    assert np.array_equal(coupled.intensity, uncoupled.intensity)
    _, reference = raman_profiles(model, 1, omega, grid=grid)
    assert np.array_equal(uncoupled.intensity, reference.intensity)


def test_scan_direct_is_allowed_matrix_element(model, grid):
    omega = np.arange(10700.0, 11000.0, 100.0)
    value, direct = spectra.scan(model, omega, 1, grid=grid)
    chi = harmonic_eigenstates(model.ground, 1, grid.points)
    evs = build_resolvent_batch(model.allowed, model.resolvent_argument(omega), grid)
    assert np.array_equal(direct, [ev.matrix_element(chi[1], chi[0]) for ev in evs])
    assert not np.array_equal(value, direct)
