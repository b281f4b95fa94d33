import math
from dataclasses import replace

import numpy as np
import pytest
from closed_forms import harmonic_diagonal, morse_diagonal

from curvecross import cli, resolvent, spectra
from curvecross.coupled import CoupledBlocks, g11_rows
from curvecross.errors import GridError, GridMismatchError
from curvecross.model import (
    DeltaCoupling,
    Grid,
    HarmonicCurve,
    franck_condon_matrix,
    harmonic_eigenstates,
    huang_rhys_factor,
)
from curvecross.resolvent import resolvent_rows
from curvecross.spectra import (
    Spectrum,
    absorption_spectra,
    deviation_metric,
    photon_energies,
    raman_profiles,
)

# Half the float64 exponent range in e-folds: a sum over nodes where u
# changes by more cannot take one scale for all its terms.
HALF_EXPONENT_RANGE = 0.5 * math.log(np.finfo(float).max)


def _efolds(ratios):
    """log |u_k / u_0| on the nodes, from rows of ratios r_k = u_k / u_k+1."""
    steps = -np.log(np.abs(ratios))
    return np.concatenate([np.zeros(steps.shape[:-1] + (1,)), np.cumsum(steps, axis=-1)], axis=-1)


def with_params(model, **kwargs):
    return replace(model, **kwargs)


@pytest.fixture
def builds(monkeypatch):
    """(curve, nz) of every sweep build the scans make: the rows of the
    allowed surface, and the rows on x_c's cell that give G2(x_c, x_c)."""
    calls = []

    def counting(curve, zs, grid=None, nodes=None):
        calls.append((curve, len(zs)))
        return resolvent_rows(curve, zs, grid, nodes)

    monkeypatch.setattr(spectra, "resolvent_rows", counting)
    return calls


def _support(f):
    nodes = np.flatnonzero(np.abs(f) >= resolvent.SUPPORT_FLOOR * np.max(np.abs(f)))
    return nodes[0], nodes[-1]


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
    omega = photon_energies(9500.0, 13500.0, 10.0)
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
    spec, _ = absorption_spectra(model, photon_energies(9500.0, 13500.0, 10.0), grid=grid)
    assert np.min(spec.intensity) > -1e-12


def test_uncoupled_absorption_matches_lorentzian_fc_sum(model, grid):
    # pointwise across the window, the band is the Franck-Condon-weighted
    # Lorentzian comb
    omega = photon_energies(9500.0, 13500.0, 10.0)
    _, spec = absorption_spectra(model, omega, grid=grid)
    fc = franck_condon_matrix(model.ground, model.allowed, 0, 60)[0]
    energies = model.allowed.eigenvalue(np.arange(61).astype(float))
    z = omega + 0.5 * model.ground.frequency + 1j * model.damping
    oracle = np.real(1j * np.sum(fc[None, :] ** 2 / (z[:, None] - energies), axis=1))
    assert np.max(np.abs(spec.intensity - oracle) / oracle) < 1e-4


def test_uncoupled_raman_matches_fc_sum(model, grid):
    omega = photon_energies(9500.0, 13500.0, 10.0)
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
        raman_profiles(model, 0, photon_energies(9500.0, 13500.0, 10.0), grid=grid)


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


def test_empty_energy_grid_gives_empty_results(model, grid):
    for coupled, uncoupled in (absorption_spectra(model, [], grid=grid),
                               raman_profiles(model, 1, [], grid=grid)):
        for spec in (coupled, uncoupled):
            assert spec.omega.shape == spec.intensity.shape == (0,)
    diagonals = spectra.coupling_diagonals(model, [], grid)
    assert diagonals.shape == (2, 0) and diagonals.dtype == complex


@pytest.mark.parametrize("omega", [11000.0, [[11000.0, 11010.0]]])
def test_energies_that_are_not_1d_are_rejected(model, grid, omega):
    # a scalar and a (1, 2) array of photon energies
    for job in (lambda: spectra.scan(model, omega, 0, grid),
                lambda: spectra.coupling_diagonals(model, omega, grid),
                lambda: absorption_spectra(model, omega, grid=grid),
                lambda: raman_profiles(model, 1, omega, grid=grid)):
        with pytest.raises(ValueError, match="1-d"):
            job()


@pytest.mark.parametrize("omega_min, omega_max, step", [
    (9500.0, 13500.0, 0.0), (9500.0, 13500.0, -10.0), (9500.0, 13500.0, math.inf),
    (9500.0, 13500.0, math.nan), (9500.0, math.inf, 10.0), (-math.inf, 13500.0, 10.0),
    (9500.0, math.nan, 10.0), (-1e308, 1e308, 1e300), (0.0, 1e308, 1e-300),
])
def test_photon_energies_reject_bad_steps_and_bounds(omega_min, omega_max, step):
    with pytest.raises(ValueError, match="photon energies"):
        photon_energies(omega_min, omega_max, step)


@pytest.mark.parametrize("omega", [np.arange(13500.0, 9490.0, -10.0),
                                   [10000.0, 10010.0, 10010.0, 10020.0]])
def test_unordered_energies_are_rejected_before_the_scan(model, grid, monkeypatch, omega):
    # descending and repeated photon energies: the spectra raise before a
    # single sweep, while scan, which greens-probe runs in the given order,
    # takes them
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return resolvent_rows(*args, **kwargs)

    monkeypatch.setattr(spectra, "resolvent_rows", counted)
    for job in (lambda: absorption_spectra(model, omega, grid=grid),
                lambda: raman_profiles(model, 1, omega, grid=grid)):
        with pytest.raises(ValueError, match="strictly increasing"):
            job()
        assert calls == []
    value, direct, *_ = spectra.scan(model, omega[:4], 0, grid)
    assert calls and value.shape == direct.shape == (4,)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_energies_are_rejected_before_the_scan(model, grid, monkeypatch, bad):
    # an infinite or NaN photon energy, sorted to its end of the array so
    # that the energies still increase: every entry point raises a plain
    # ValueError, not a GridError (a ValueError too), before a single sweep
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return resolvent_rows(*args, **kwargs)

    monkeypatch.setattr(spectra, "resolvent_rows", counted)
    omega = np.sort([11000.0, bad])
    for job in (lambda: spectra.scan(model, omega, 0, grid),
                lambda: spectra.coupling_diagonals(model, omega, grid),
                lambda: absorption_spectra(model, omega, grid=grid),
                lambda: raman_profiles(model, 1, omega, grid=grid)):
        with pytest.raises(ValueError) as raised:
            job()
        assert type(raised.value) is ValueError
        assert str(raised.value) == "photon energies must be finite"
        assert calls == []


@pytest.mark.parametrize("job, message", [
    (lambda model, grid: Spectrum(np.array([1.0, 2.0]), np.array([1.0]), "absorption"),
     "omega and intensity must be matching 1-d arrays"),
    (lambda model, grid: Spectrum(np.array([1.0, np.inf]), np.array([1.0, 1.0]), "absorption"),
     "photon energies must be finite"),
    (lambda model, grid: Spectrum(np.array([1.0, np.nan]), np.array([1.0, 1.0]), "absorption"),
     "photon energies must be finite"),
    (lambda model, grid: spectra.scan(model, [11000.0], -1, grid),
     "the final vibrational state must satisfy n_f >= 0"),
])
def test_spectra_inputs_rejected(model, grid, job, message):
    with pytest.raises(ValueError) as raised:
        job(model, grid)
    assert type(raised.value) is ValueError and str(raised.value) == message


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
    # the quadratures' support hull lies strictly inside the swept window
    lo, hi, n = coupled.metadata["window"]
    s_lo, s_hi, s_n = coupled.metadata["support"]
    assert uncoupled.metadata["support"] == (s_lo, s_hi, s_n)
    assert lo < s_lo < model.coupling.location < s_hi < hi and s_n < n
    assert s_hi - s_lo == pytest.approx((s_n - 1) * grid.dx, rel=1e-12)
    assert s_lo in grid.points and s_hi in grid.points


def test_cli_jobs_sweep_each_surface_once_per_chunk(model, builds, tmp_path, monkeypatch):
    # coupled and uncoupled tables come from the same sweeps: 11 energies in
    # chunks of 4 make 3 allowed-surface builds, and the forbidden surface's
    # point path is one build of all 11
    monkeypatch.setattr(spectra, "SCAN_CHUNK", 4)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("[scan]\nomega_min_cm1 = 10700\nomega_max_cm1 = 10800\nomega_step_cm1 = 10\n")
    for job in ("absorption", "raman"):
        builds.clear()
        assert cli.main([job, "--config", str(cfg), "--out", str(tmp_path / job)]) == 0
        assert [nz for curve, nz in builds if curve == model.allowed] == [4, 4, 3]
        assert [nz for curve, nz in builds if curve == model.forbidden] == [11]
        assert len(builds) == 4


def test_zero_coupling_scan_is_the_same_scan(model, grid, builds):
    # K0 = 0 takes the one scan path: each surface swept once, and the
    # coupled profile equal to the uncoupled one bit for bit
    omega = np.arange(10700.0, 11000.0, 100.0)
    uncoupled_model = with_params(model, coupling=DeltaCoupling(0.0, model.coupling.location))
    coupled, uncoupled = raman_profiles(uncoupled_model, 1, omega, grid=grid)
    assert builds == [(model.forbidden, 3), (model.allowed, 3)]
    assert np.array_equal(coupled.intensity, uncoupled.intensity)
    _, reference = raman_profiles(model, 1, omega, grid=grid)
    assert np.array_equal(uncoupled.intensity, reference.intensity)


def test_scan_direct_is_allowed_matrix_element(model, grid):
    # the scan's quadratures run on the window's sweeps stopped at the
    # support hull's far ends, which equal the whole window's sweeps there
    # bit for bit: the array form on the same rows gives its uncoupled part
    # bit for bit, and the whole window's rows agree within 1e-12
    omega = np.arange(10700.0, 11000.0, 100.0)
    value, direct, window, _, support = spectra.scan(model, omega, 1, grid)
    a = int(np.searchsorted(grid.points, window.x_min))
    nodes = slice(a, a + window.n)
    assert 0 < a and nodes.stop < grid.n and grid.points[nodes.stop - 1] == window.x_max
    lo = int(np.searchsorted(grid.points, support.x_min))
    hull = slice(lo, lo + support.n)
    assert a < lo and hull.stop < nodes.stop and grid.points[hull.stop - 1] == support.x_max
    chi = harmonic_eigenstates(model.ground, 1, grid.points)
    zs = model.resolvent_argument(omega)
    rows = resolvent_rows(model.allowed, zs, window, (lo - a, hull.stop - 1 - a))
    whole = resolvent_rows(model.allowed, zs, window)
    for name in ("y_minus", "y_plus"):
        assert np.array_equal(getattr(rows, name), getattr(whole, name)[:, lo - a : hull.stop - a])
    for name in ("r_minus", "r_plus"):
        assert np.array_equal(getattr(rows, name), getattr(whole, name)[:, lo - a : hull.stop - a - 1])
    assert np.array_equal(direct, rows.element_and_vector(chi[1, hull], chi[0, hull])[0])
    with pytest.raises(ValueError, match="outside the rows' nodes"):
        rows.point(window.x_min, model.coupling.location)
    full = whole.matrix_element(chi[1, nodes], chi[0, nodes])
    assert np.max(np.abs(direct - full) / np.abs(full)) < 1e-12
    assert not np.array_equal(value, direct)


def test_scan_rejects_states_reaching_the_grid_edges(model):
    # on [-0.4, 0.6] angstrom chi_60 keeps half its maximum at the edge,
    # while chi_0 and chi_1 have decayed to 1e-13 there
    narrow = Grid(-0.4, 0.6, 4096)
    omega = np.array([11000.0, 11500.0])
    with pytest.raises(GridError, match="n = 60"):
        spectra.scan(model, omega, 60, grid=narrow)
    value = spectra.scan(model, omega, 1, grid=narrow)[0]
    assert np.all(np.isfinite(value))


def _job(model, omega, n_f, grid):
    if n_f == 0:
        return absorption_spectra(model, omega, grid=grid)
    return raman_profiles(model, n_f, omega, grid=grid)


def _windowed(model, omega, n_f, grid, monkeypatch, efolds):
    monkeypatch.setattr(resolvent, "SEED_EFOLDS", efolds)
    return _job(model, omega, n_f, grid)


def _worst_relative_change(spectra_a, spectra_b):
    return max(
        float(np.max(np.abs(a.intensity - b.intensity) / np.abs(b.intensity)))
        for a, b in zip(spectra_a, spectra_b)
    )


@pytest.mark.parametrize("n_f", [0, 1])
def test_window_widening_leaves_spectra_unchanged(model, grid, n_f, monkeypatch):
    # the scan's node window, one widened by 20 more e-folds of seed
    # attenuation, and the whole grid give the same spectra to round-off
    omega = photon_energies(9500.0, 13500.0, 40.0)
    budget = resolvent.SEED_EFOLDS
    windowed = _windowed(model, omega, n_f, grid, monkeypatch, budget)
    wider = _windowed(model, omega, n_f, grid, monkeypatch, budget + 20.0)
    full = _windowed(model, omega, n_f, grid, monkeypatch, math.inf)
    lo, hi, n = windowed[0].metadata["window"]
    wide_lo, wide_hi, wide_n = wider[0].metadata["window"]
    assert grid.x_min < wide_lo < lo and hi < wide_hi < grid.x_max and n < wide_n < grid.n
    assert full[0].metadata["window"] == (grid.x_min, grid.x_max, grid.n)
    for spec in windowed + wider + full:
        assert spec.metadata["grid"] == (grid.x_min, grid.x_max, grid.n)
    assert _worst_relative_change(windowed, full) < 1e-12
    assert _worst_relative_change(wider, full) < 1e-12


def test_seed_budget_leaves_round_off_only(model, grid, monkeypatch):
    # a seed's error reaches x_c as about 1e-3 e^(-2E) after E e-folds:
    # at SEED_EFOLDS G1 and G2(x_c, x_c) on their windows are the whole
    # grid's to round-off (4.7e-15 measured), while at 8 e-folds the seeds
    # still show (1.3e-10), so the window tests can see a budget too small
    omega = photon_energies(9500.0, 13500.0, 10.0)
    budget = resolvent.SEED_EFOLDS

    def diagonals(efolds):
        monkeypatch.setattr(resolvent, "SEED_EFOLDS", efolds)
        return spectra.coupling_diagonals(model, omega, grid)

    full = diagonals(math.inf)

    def gap(efolds):
        return float(np.max(np.abs(diagonals(efolds) - full) / np.abs(full)))

    assert gap(budget) < 1e-13
    assert gap(8.0) >= 1e-11


def test_window_keeps_an_open_side(config, grid, monkeypatch):
    # D = 1000 cm^-1 puts the Morse curve's dissociation limit inside the
    # scan, so its left side is open and never builds the seed budget: the
    # forbidden surface's window keeps the grid's left edge, while the
    # allowed surface's window, set by the allowed curve alone, need not
    shallow = replace(config, forbidden_well_depth_cm1=1000.0).validate().to_model()
    omega = photon_energies(9500.0, 13500.0, 40.0)
    windowed = _windowed(shallow, omega, 1, grid, monkeypatch, resolvent.SEED_EFOLDS)
    full = _windowed(shallow, omega, 1, grid, monkeypatch, math.inf)
    lo, hi, n = windowed[0].metadata["forbidden_window"]
    assert lo == grid.x_min and hi < grid.x_max
    assert windowed[0].metadata["window"][0] > grid.x_min
    assert _worst_relative_change(windowed, full) < 1e-12


@pytest.mark.parametrize("displacement, gamma", [(0.8, 5000.0), (0.5, 50000.0)])
def test_window_edges_are_classically_forbidden(config, grid, monkeypatch, displacement, gamma):
    # a large Gamma gives Re kappa tens of e-folds per angstrom inside the
    # allowed curve's well; the window still ends where both curves are
    # classically forbidden at the top of the scan, so the sweeps' coverage
    # guard passes on it as it does on the whole grid
    wide = replace(
        config, allowed_displacement_angstrom=displacement, damping_cm1=gamma
    ).validate().to_model()
    omega = np.linspace(9500.0, 13500.0, 5)
    windowed = _windowed(wide, omega, 1, grid, monkeypatch, resolvent.SEED_EFOLDS)
    full = _windowed(wide, omega, 1, grid, monkeypatch, math.inf)
    lo, hi, n = windowed[0].metadata["window"]
    assert n < grid.n
    z_top = float(wide.resolvent_argument(omega[-1]).real)
    for x in (lo, hi):
        assert wide.allowed.evaluate(x) > z_top and wide.forbidden.evaluate(x) > z_top
    assert _worst_relative_change(windowed, full) < 1e-12


def test_window_holds_the_coupling_cell(model, grid, monkeypatch):
    # x_c = 0.9 angstrom lies beyond the support of chi_0 and chi_1 and
    # beyond the default model's window; the window still holds its cell
    # and widens from there
    far = with_params(model, coupling=DeltaCoupling(model.coupling.strength, 0.9))
    omega = np.linspace(9500.0, 13500.0, 5)
    budget = resolvent.SEED_EFOLDS
    _, default_hi, _ = _windowed(model, omega, 1, grid, monkeypatch, budget)[0].metadata["window"]
    windowed = _windowed(far, omega, 1, grid, monkeypatch, budget)
    full = _windowed(far, omega, 1, grid, monkeypatch, math.inf)
    lo, hi, n = windowed[0].metadata["window"]
    assert default_hi < 0.9 < hi and n < grid.n
    chi = harmonic_eigenstates(model.ground, 1, np.array([0.9]))
    assert np.max(np.abs(chi)) < resolvent.SUPPORT_FLOOR
    assert _worst_relative_change(windowed, full) < 1e-12


@pytest.mark.parametrize("depth", [None, 300.0, 1000.0])
@pytest.mark.parametrize("gamma", [50.0, 450.0])
def test_point_path_matches_the_full_grid(config, grid, depth, gamma):
    # G1(x_c, x_c) and G2(x_c, x_c) from one-sided sweeps on each surface's
    # own window against rows on the whole grid; D = 300 and 1000
    # cm^-1 put the Morse dissociation limit inside the scan (an open side)
    settings = {"damping_cm1": gamma}
    if depth is not None:
        settings["forbidden_well_depth_cm1"] = depth
    model = replace(config, **settings).validate().to_model()
    omega = np.linspace(9500.0, 13500.0, 9)
    zs = model.resolvent_argument(omega)
    x_c = model.coupling.location
    diagonals = spectra.coupling_diagonals(model, omega, grid)
    for values, curve in zip(diagonals, (model.allowed, model.forbidden)):
        full = resolvent_rows(curve, zs, grid).point(x_c, x_c)
        assert np.max(np.abs(values - full) / np.abs(full)) < 1e-12


@pytest.mark.parametrize("depth", [None, 300.0, 1000.0])
def test_point_path_matches_the_closed_forms(config, grid, depth):
    # G1(x_c, x_c) and G2(x_c, x_c) on the default grid against the
    # parabolic-cylinder and Whittaker closed forms at 30 digits; the gaps
    # are the grid's, about 1e-8
    settings = {} if depth is None else {"forbidden_well_depth_cm1": depth}
    model = replace(config, **settings).validate().to_model()
    omega = np.array([10000.0, 11000.0, 12000.0, 13000.0])
    zs = model.resolvent_argument(omega)
    x_c = model.coupling.location
    g1, g2 = spectra.coupling_diagonals(model, omega, grid)
    for values, closed_form, curve in ((g1, harmonic_diagonal, model.allowed),
                                       (g2, morse_diagonal, model.forbidden)):
        exact = np.array([closed_form(curve, z, x_c) for z in zs])
        assert np.max(np.abs(values - exact) / np.abs(exact)) < 1e-6


@pytest.mark.parametrize("depth", [None, 1000.0])
def test_scan_matches_the_analytic_amplitude(config, grid, depth):
    # the coupled amplitude of the partitioning formula from the closed
    # forms, direct + K0^2 v_f G2 v_i / (1 - K0^2 G1 G2) with direct and
    # v = <x_c|G1|chi> the allowed surface's sums over states n <= 200 and
    # G1, G2 at x_c at 30 digits; the gaps are the grid's, about 5e-8
    settings = {} if depth is None else {"forbidden_well_depth_cm1": depth}
    model = replace(config, **settings).validate().to_model()
    omega = np.array([10000.0, 10900.0, 11800.0, 12700.0, 13500.0])
    zs = model.resolvent_argument(omega)
    k0, x_c = model.coupling.strength, model.coupling.location
    overlaps = franck_condon_matrix(model.ground, model.allowed, 1, 200)
    poles = 1.0 / (zs[:, None] - model.allowed.eigenvalue(np.arange(201.0)))
    phi_c = harmonic_eigenstates(model.allowed, 200, [x_c])[:, 0]
    v = poles @ (phi_c[:, None] * overlaps.T)
    g1 = np.array([harmonic_diagonal(model.allowed, z, x_c) for z in zs])
    g2 = np.array([morse_diagonal(model.forbidden, z, x_c) for z in zs])
    for n_f in (0, 1):
        value = spectra.scan(model, omega, n_f, grid)[0]
        direct = poles @ (overlaps[n_f] * overlaps[0])
        exact = direct + k0**2 * v[:, n_f] * g2 * v[:, 0] / (1.0 - k0**2 * g1 * g2)
        assert np.max(np.abs(value - exact) / np.abs(exact)) < 1e-6


@pytest.mark.parametrize("node", [1039, 2795])
def test_scan_reads_x_c_on_a_grid_node(model, grid, node):
    # x_c on a node of the configured grid outside the states' support: the
    # window's linspace nodes match the grid's only to an ulp, so the cell
    # that the window puts x_c in may be the grid's cell less or plus one.
    # The rows' node range holds that cell, the scans run, and their coupled
    # amplitudes are the whole grid's
    k0, x_c = model.coupling.strength, float(grid.points[node])
    model = replace(model, coupling=DeltaCoupling(k0, x_c))
    omega = photon_energies(9500.0, 13500.0, 100.0)
    jobs = absorption_spectra(model, omega, grid=grid), raman_profiles(model, 1, omega, grid=grid)
    picked = [0, 13, 27, 40]
    zs = model.resolvent_argument(omega[picked])
    ev1, ev2 = (resolvent_rows(curve, zs, grid) for curve in (model.allowed, model.forbidden))
    blocks = CoupledBlocks(ev1, ev2, k0, x_c)
    chi = harmonic_eigenstates(model.ground, 1, grid.points)
    for n_f, (spec, _) in enumerate(jobs):
        amplitude = 1j * blocks.g11(chi[n_f], chi[0]).value
        full = np.real(amplitude) if n_f == 0 else np.abs(amplitude) ** 2
        assert np.max(np.abs(spec.intensity[picked] - full) / np.abs(full)) < 1e-12


def test_metadata_records_the_forbidden_window(model, grid):
    # the forbidden surface is swept on its own window, which holds x_c's
    # cell and lies within the scan's window
    omega = np.arange(10700.0, 11000.0, 100.0)
    for spec in raman_profiles(model, 1, omega, grid=grid):
        lo, hi, n = spec.metadata["window"]
        f_lo, f_hi, f_n = spec.metadata["forbidden_window"]
        assert lo <= f_lo < model.coupling.location < f_hi <= hi and f_n < n
        assert f_hi - f_lo == pytest.approx((f_n - 1) * grid.dx, rel=1e-12)


def test_point_path_cuts_the_sweep_work_of_a_chunk(model, grid, monkeypatch):
    # node steps nz (n - 1) of each solve of one default 64-energy Raman
    # chunk, the intervals of the band it solves: on the allowed surface
    # from the window's edges to the support hull's far ends, on the
    # forbidden one from its window's edges to x_c's cell; summed, against
    # four full sweeps (two per surface) on the shared window
    steps = []
    solve = resolvent.ztbsv

    def counted(k, band, x, **options):
        if k == 3:  # the step maps' band, not the sums' bidiagonal one
            steps.append(band.shape[1] // 2 - 1)
        return solve(k, band, x, **options)

    monkeypatch.setattr(resolvent, "ztbsv", counted)
    omega = 9500.0 + 60.0 * np.arange(spectra.SCAN_CHUNK)
    coupled, _ = raman_profiles(model, 1, omega, grid=grid)
    a, b, lo, hi, f_a, f_b = (
        int(np.searchsorted(grid.points, edge))
        for name in ("window", "support", "forbidden_window")
        for edge in coupled.metadata[name][:2]
    )
    j = grid.index_below(model.coupling.location)
    nz = omega.size
    # one forward and one transposed solve per energy, the forbidden
    # surface's energies first: summed per surface and direction
    steps = np.reshape(steps, (2, nz, 2)).sum(axis=1).ravel().tolist()
    assert steps == [nz * (j + 1 - f_a), nz * (f_b - j), nz * (hi - a), nz * (b - lo)]
    shared = 4 * (coupled.metadata["window"][2] - 1)
    assert sum(steps) / nz <= 0.65 * shared


@pytest.mark.parametrize("n_f", [0, 1])
def test_window_comes_from_the_allowed_curve_alone(model, grid, n_f):
    # the allowed surface is swept on the window of the allowed curve from
    # the support hull; the forbidden curve has its own window
    omega = photon_energies(9500.0, 13500.0, 40.0)
    spec, _ = _job(model, omega, n_f, grid)
    s_lo, s_hi, s_n = spec.metadata["support"]
    lo = int(np.searchsorted(grid.points, s_lo))
    zs = model.resolvent_argument(omega)
    x_c = model.coupling.location
    window, _, _ = resolvent._window(model.allowed, zs, lo, lo + s_n - 1, grid, x_c)
    assert spec.metadata["window"] == (window.x_min, window.x_max, window.n)


@pytest.mark.parametrize("n_f", [0, 1])
def test_chunk_quadratures_take_one_sums_call_per_direction(model, grid, n_f, monkeypatch):
    # one default 64-energy chunk sums f once in each direction on the
    # hull's (64, M) rows, from the ends of f's support to the far end of
    # i's support, and, for Raman, i once more in each direction from the
    # ends of its support up to x_c's cell; a loop over energies would make
    # 64 times as many calls
    calls = []
    sums = resolvent._sums

    def counted(f, ratios, h, stop=None):
        # the rows' shape on the nodes that the ratios join
        calls.append((ratios.shape[:-1] + (ratios.shape[-1] + 1,), stop))
        return sums(f, ratios, h, stop)

    monkeypatch.setattr(resolvent, "_sums", counted)
    omega = 9500.0 + 60.0 * np.arange(spectra.SCAN_CHUNK)
    spec, _ = _job(model, omega, n_f, grid)
    nz = spectra.SCAN_CHUNK
    m = spec.metadata["support"][2]
    s_lo = int(np.searchsorted(grid.points, spec.metadata["support"][0]))
    chi = harmonic_eigenstates(model.ground, n_f, grid.points)[[0, n_f], s_lo : s_lo + m]
    (i_lo, i_hi), (f_lo, f_hi) = (_support(state) for state in chi)
    j = grid.index_below(model.coupling.location) - s_lo
    want = [((nz, m - f_lo), max(i_hi, j + 1) - f_lo), ((nz, f_hi + 1), f_hi - min(i_lo, j))]
    if n_f:
        assert 0 == f_lo < i_lo < j < i_hi < f_hi == m - 1
        want += [((nz, m - i_lo), j + 1 - i_lo), ((nz, i_hi + 1), i_hi - j)]
    assert calls == want


@pytest.mark.parametrize("depth", [None, 300.0, 1000.0])
@pytest.mark.parametrize("gamma", [50.0, 450.0])
@pytest.mark.parametrize("n_f", [0, 1])
def test_chunk_amplitudes_match_the_single_energy_path(config, grid, depth, gamma, n_f):
    # the scan's array form on the support hull against g11_rows on each
    # energy's own rows, at a scalar z, on the whole window, with the same
    # G2(x_c, x_c): value and direct within 1e-12, on chunks of 1, 6 and
    # SCAN_CHUNK energies
    settings = {"damping_cm1": gamma}
    if depth is not None:
        settings["forbidden_well_depth_cm1"] = depth
    model = replace(config, **settings).validate().to_model()
    k0, x_c = model.coupling.strength, model.coupling.location
    chi = harmonic_eigenstates(model.ground, n_f, grid.points)[[0, n_f]]
    for nz in (1, 6, spectra.SCAN_CHUNK):
        omega = np.linspace(9500.0, 13500.0, nz)
        value, direct, window, forbidden, _ = spectra.scan(model, omega, n_f, grid)
        zs = model.resolvent_argument(omega)
        k = forbidden.index_below(x_c)
        g2 = resolvent_rows(model.forbidden, zs, forbidden, (k, k + 1)).point(x_c, x_c)
        a = int(np.searchsorted(grid.points, window.x_min))
        chi_i, chi_f = chi[:, a : a + window.n]
        amplitudes = []
        for k, z in enumerate(zs):
            rows = resolvent_rows(model.allowed, z, window)
            amplitudes.append(g11_rows(rows, k0, x_c, rows.point(x_c, x_c), g2[k], chi_f, chi_i))
        for got, attribute in ((value, "value"), (direct, "direct")):
            want = np.array([getattr(amplitude, attribute) for amplitude in amplitudes])
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_scan_survives_dynamic_range_beyond_float64(model, grid, monkeypatch):
    # the grid of test_values_survive_dynamic_range_beyond_float64, 1024
    # more cells of the default spacing on either side: the scan over the
    # default photon-energy window agrees with the default grid's, and the
    # array form on the wide grid's whole (nz, N) rows, where u+- span
    # about 2100 e-folds, more than twice the float64 exponent range.  A
    # wave that fills the wide grid is summed over those whole rows, and
    # its quadratures equal the single-energy rows' 
    pad = 1024 * grid.dx
    wide = Grid(grid.x_min - pad, grid.x_max + pad, grid.n + 2048)
    omega = photon_energies(9500.0, 13500.0, 40.0)
    for n_f in (0, 1):
        default, wider = (spectra.scan(model, omega, n_f, g)[:2] for g in (grid, wide))
        for a, b in zip(default, wider):
            assert np.max(np.abs(b - a) / np.abs(a)) <= 1e-8
    zs = model.resolvent_argument(omega[:: len(omega) // 8])
    x_c = model.coupling.location
    results = []
    for g in (grid, wide):
        chi = harmonic_eigenstates(model.ground, 1, g.points)
        rows = resolvent_rows(model.allowed, zs, g)
        results.append((*rows.element_and_vector(chi[1], chi[0], x_c), rows.point(x_c, x_c)))
    steps = np.max(np.abs(np.log(np.abs(rows.r_minus))))
    assert steps * wide.n > 4 * HALF_EXPONENT_RANGE
    for default, widened in zip(*results):
        assert np.max(np.abs(widened - default) / np.abs(default)) <= 1e-8
    wave = np.exp(2j * wide.points)
    spans = []
    sums = resolvent._sums

    def spanned(f, ratios, h, stop=None):
        spans.append(np.min(np.ptp(_efolds(ratios[..., :stop]), axis=-1)))
        return sums(f, ratios, h, stop)

    monkeypatch.setattr(resolvent, "_sums", spanned)
    element, vector = rows.element_and_vector(wave, chi[0], x_c)
    assert len(spans) == 2 and min(spans) > HALF_EXPONENT_RANGE
    singles = [resolvent_rows(model.allowed, z, wide) for z in zs]
    for got, want in ((element, [ev.matrix_element(wave, chi[0]) for ev in singles]),
                      (vector, [ev.vector(wave, x_c) for ev in singles])):
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
