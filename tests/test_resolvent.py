import numpy as np
import pytest

from curvecross import resolvent
from curvecross.errors import DegenerateWronskianError
from curvecross.model import Grid, franck_condon_matrix, harmonic_eigenstates
from curvecross.resolvent import (
    SCALAR_ROWS,
    HarmonicSpectralSum,
    _step_maps,
    build_resolvent,
    build_resolvent_batch,
)


class FlatCurve:
    """Constant potential; the resolvent has the free-particle closed form."""

    def __init__(self, mass, level):
        self.mass = mass
        self.level = level

    def evaluate(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.level)

    def gradient(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


def test_free_particle_closed_form(model):
    z = 600.0 + 450.0j
    curve = FlatCurve(model.ground.mass, 100.0)
    ev = build_resolvent(curve, z, Grid(-1.5, 1.5, 4096))
    k = np.sqrt(2.0 * curve.mass * (z - curve.level))
    if k.imag < 0:
        k = -k
    for x, x0 in [(0.0, 0.0), (0.3, -0.2), (-1.0, 0.9), (0.05, 0.08)]:
        exact = -1j * curve.mass * np.exp(1j * k * abs(x - x0)) / k
        assert ev.point(x, x0) == pytest.approx(exact, rel=1e-7)


def test_symmetry_is_structural(ev_allowed_fine):
    assert ev_allowed_fine.point(0.3, -0.2) == ev_allowed_fine.point(-0.2, 0.3)


def test_derivative_jump(ev_allowed_fine, model):
    for x in (-0.3, 0.02, 0.33):
        jump = ev_allowed_fine.derivative_jump(x)
        assert jump == pytest.approx(2.0 * model.allowed.mass, rel=1e-8)


def test_wronskian_constancy(model, grid):
    zs = model.resolvent_argument(np.array([10000.0, 11500.0, 13200.0]))
    for curve in (model.allowed, model.forbidden):
        for ev in build_resolvent_batch(curve, zs, grid):
            assert ev.wronskian_drift < 1e-8


def test_batch_matches_single_build(model, grid):
    # a batch of SCALAR_ROWS + 1 energies is swept on numpy rows, each
    # single build on Python floats: the bits must not depend on the path
    chi0 = harmonic_eigenstates(model.ground, 0, grid.points)[0]
    for omega in (
        np.array([10800.0, 12000.0]),
        np.linspace(10000.0, 13000.0, SCALAR_ROWS + 1),
    ):
        zs = model.resolvent_argument(omega)
        for curve in (model.allowed, model.forbidden):
            batch = build_resolvent_batch(curve, zs, grid)
            for z, ev in zip(zs, batch):
                single = build_resolvent(curve, z, grid)
                assert single.point(0.1, -0.2) == ev.point(0.1, -0.2)
                assert single.matrix_element(chi0, chi0) == ev.matrix_element(chi0, chi0)
                assert single.wronskian_drift == ev.wronskian_drift


def test_morse_quadrature_converges(model, grid):
    # <chi1|G2|chi0> on the default grid against a grid four times finer
    # with the same end points
    fine = Grid(grid.x_min, grid.x_max, 4 * (grid.n - 1) + 1)
    for omega in (9800.0, 11000.0, 12500.0):
        z = model.resolvent_argument(omega)
        values = []
        for g in (grid, fine):
            chi = harmonic_eigenstates(model.ground, 1, g.points)
            values.append(build_resolvent(model.forbidden, z, g).matrix_element(chi[1], chi[0]))
        coarse, refined = values
        assert abs(coarse - refined) <= 1e-7 * abs(refined)


def test_values_survive_dynamic_range_beyond_float64(model, grid):
    # 1024 more cells of the default spacing on either side: every default
    # node is a node here too, and u+- span about 2100 e-folds across the
    # wide grid, more than a float64 can hold
    pad = 1024 * grid.dx
    wide = Grid(grid.x_min - pad, grid.x_max + pad, grid.n + 2048)
    x_c = model.coupling.location
    for omega in (9800.0, 11000.0, 12500.0):
        z = model.resolvent_argument(omega)
        results = []
        for g in (grid, wide):
            chi = harmonic_eigenstates(model.ground, 1, g.points)
            ev = build_resolvent(model.allowed, z, g)
            results.append((ev.matrix_element(chi[1], chi[0]), ev.point(x_c, x_c)))
        for default, widened in zip(*results):
            assert abs(widened - default) <= 1e-8 * abs(default)


def _rk4_step(ci, cm, cn, h, u, v):
    """One step of u'' = c u by classical RK4 in complex arithmetic, c
    given at the left node, the midpoint and the right node."""
    k1u = v
    k1v = ci * u
    k2u = v + 0.5 * h * k1v
    k2v = cm * (u + 0.5 * h * k1u)
    k3u = v + 0.5 * h * k2v
    k3v = cm * (u + 0.5 * h * k2u)
    k4u = v + h * k3v
    k4v = cn * (u + h * k3u)
    u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u, v


def test_step_maps_equal_rk4_step(model, grid):
    # the closed-form maps are the RK4 step applied to the unit vectors, at
    # a confining energy and above the Morse dissociation limit
    forbidden = model.forbidden
    h = grid.dx
    for omega in (11200.0, 1.2 * (forbidden.origin_energy + forbidden.well_depth)):
        z = model.resolvent_argument(omega)
        for curve in (model.allowed, forbidden):
            m = curve.mass
            c_nodes = 2.0 * m * (curve.evaluate(grid.points) - z)
            c_mid = 2.0 * m * (curve.evaluate(grid.midpoints) - z)
            ci, cn = c_nodes[:-1], c_nodes[1:]
            one, zero = np.ones_like(c_mid), np.zeros_like(c_mid)
            a, c = _rk4_step(ci, c_mid, cn, h, one, zero)
            b, d = _rk4_step(ci, c_mid, cn, h, zero, one)
            parts = _step_maps(
                ci.real[None], c_mid.real[None], cn.real[None],
                np.array([[-2.0 * m * z.imag]]), h,
            )
            closed = [re + 1j * im for re, im in zip(parts[::2], parts[1::2])]
            for got, ref in zip(closed, (a, b, c, d)):
                rel = np.abs(got[0] - ref) / np.abs(ref)
                assert np.max(rel) <= 1e-14


def test_sweep_is_plain_rk4(model):
    # the power-of-two scales change no bit of the recurrence: on a grid
    # where plain complex RK4 stays inside float64, u- and y- match it on
    # both sweep paths (the row batch repeats the three energies)
    grid = Grid(-0.5, 0.7, 1639)
    h = grid.dx
    omegas = np.array([10300.0, 11200.0, 12400.0])
    for batch in (omegas, np.resize(omegas, SCALAR_ROWS + 1)):
        zs = model.resolvent_argument(batch)
        for curve in (model.allowed, model.forbidden):
            evs = build_resolvent_batch(curve, zs, grid)
            m = curve.mass
            c_nodes = 2.0 * m * (curve.evaluate(grid.points)[:, None] - zs)
            c_mid = 2.0 * m * (curve.evaluate(grid.midpoints)[:, None] - zs)
            u = np.ones(zs.size, dtype=complex)
            v = np.array([ev._ym[0] for ev in evs])  # the WKB seed u'/u at x_0
            us, vs = [u], [v]
            for k in range(grid.n - 1):
                u, v = _rk4_step(c_nodes[k], c_mid[k], c_nodes[k + 1], h, u, v)
                us.append(u)
                vs.append(v)
            u_ref = np.array(us).T
            y_ref = np.array(vs).T / u_ref
            for ev, u_k, y_k in zip(evs, u_ref, y_ref):
                assert np.max(np.abs(np.exp(ev._lm - np.log(u_k)) - 1.0)) <= 1e-12
                assert np.max(np.abs(ev._ym - y_k) / np.abs(y_k)) <= 1e-12


def test_unscaled_sweep_overflow_raises(model, grid, monkeypatch):
    # without its scales a default-grid sweep leaves float64; the NaN drift
    # must raise on both paths instead of returning numbers
    def no_octaves(c_mid, c_imag, h):
        return np.zeros((c_mid.shape[0], c_mid.shape[1] + 1))

    monkeypatch.setattr(resolvent, "_octaves", no_octaves)
    for nz in (1, SCALAR_ROWS + 1):
        zs = model.resolvent_argument(np.linspace(10000.0, 13000.0, nz))
        with np.errstate(all="ignore"), pytest.raises(DegenerateWronskianError):
            build_resolvent_batch(model.allowed, zs, grid)


def test_rejects_nonpositive_damping(model, grid):
    with pytest.raises(ValueError):
        build_resolvent(model.allowed, 11000.0 + 0.0j, grid)


def test_rejects_undersized_grid(model):
    # the right edge sits below Re z, inside the classically allowed zone
    with pytest.raises(ValueError):
        build_resolvent(model.allowed, 12700.0 + 450.0j, Grid(-1.5, 0.25, 1024))


def test_point_outside_grid_rejected(ev_allowed_fine):
    with pytest.raises(ValueError):
        ev_allowed_fine.point(2.0, 0.0)


def test_quadratures_reject_states_off_the_grid(model, grid):
    ev = build_resolvent(model.allowed, model.resolvent_argument(11100.0), grid)
    chi0 = harmonic_eigenstates(model.ground, 0, grid.points)[0]
    x_c = model.coupling.location
    for bad in (1.0, np.ones(1), chi0[:-1]):
        with pytest.raises(ValueError):
            ev.matrix_element(chi0, bad)
        with pytest.raises(ValueError):
            ev.matrix_element(bad, chi0)
        with pytest.raises(ValueError):
            ev.vector(bad, x_c)


def test_direct_sums_equal_running_sums(model, grid):
    # both directions, as vector takes them: A on the forward arrays, B on
    # the reversed ones
    n = grid.n
    h = grid.dx
    chi1 = harmonic_eigenstates(model.ground, 1, grid.points)[1].astype(complex)
    zs = model.resolvent_argument(np.array([9800.0, 11200.0, 13200.0]))
    for curve in (model.allowed, model.forbidden):
        for ev in build_resolvent_batch(curve, zs, grid):
            for f, ell in ((chi1, ev._lm), (chi1[::-1], ev._lp[::-1])):
                sums = resolvent._running_sums(f, ell, h)
                scale = np.max(np.abs(sums))
                for j in (0, 1, 2, n // 2, n - 4, n - 3, n - 2):
                    a_j, a_j1 = resolvent._sums_at(f, ell, h, j)
                    assert abs(a_j - sums[j]) <= 1e-12 * scale
                    assert abs(a_j1 - sums[j + 1]) <= 1e-12 * scale


# -- spectral-sum oracle ---------------------------------------------------


def test_matrix_element_own_eigenstate(ev_allowed_fine, model, fine_grid):
    phi = harmonic_eigenstates(model.allowed, 1, fine_grid.points)
    exact = 1.0 / (ev_allowed_fine.z - model.allowed.eigenvalue(0))
    elem = ev_allowed_fine.matrix_element(phi[0], phi[0])
    assert elem == pytest.approx(exact, rel=1e-8)
    cross = ev_allowed_fine.matrix_element(phi[0], phi[1])
    assert abs(cross) < 1e-8 * abs(exact)


def test_matrix_element_displaced_state(ev_allowed_fine, model, fine_grid):
    # Franck-Condon spectral sum with S ~ 2.1 weights is an independent
    # analytic oracle for the double integral
    chi0 = harmonic_eigenstates(model.ground, 0, fine_grid.points)[0]
    fc = franck_condon_matrix(model.ground, model.allowed, 0, 60)[0]
    energies = model.allowed.eigenvalue(np.arange(61).astype(float))
    oracle = np.sum(fc**2 / (ev_allowed_fine.z - energies))
    elem = ev_allowed_fine.matrix_element(chi0, chi0)
    assert elem == pytest.approx(oracle, rel=1e-6)


def test_vector_own_eigenstate(ev_allowed_fine, model, fine_grid):
    phi0 = harmonic_eigenstates(model.allowed, 0, fine_grid.points)[0]
    x0 = 0.05
    exact = harmonic_eigenstates(model.allowed, 0, np.array([x0]))[0, 0] / (
        ev_allowed_fine.z - model.allowed.eigenvalue(0)
    )
    assert ev_allowed_fine.vector(phi0, x0) == pytest.approx(exact, rel=1e-6)


def test_vector_displaced_state(ev_allowed_fine, model, fine_grid):
    chi0 = harmonic_eigenstates(model.ground, 0, fine_grid.points)[0]
    fc = franck_condon_matrix(model.ground, model.allowed, 0, 60)[0]
    energies = model.allowed.eigenvalue(np.arange(61).astype(float))
    for x0 in (-0.22, 0.04, 0.17):
        phi_at = harmonic_eigenstates(model.allowed, 60, np.array([x0]))[:, 0]
        oracle = np.sum(phi_at * fc / (ev_allowed_fine.z - energies))
        assert ev_allowed_fine.vector(chi0, x0) == pytest.approx(oracle, rel=1e-6)


def test_vector_grid_convergence(model, fine_grid):
    z = model.resolvent_argument(11200.0)
    chi0 = harmonic_eigenstates(model.ground, 0, fine_grid.points)[0]
    coarse = build_resolvent(model.allowed, z, fine_grid).vector(chi0, 0.05)
    doubled = fine_grid.refined()
    chi0d = harmonic_eigenstates(model.ground, 0, doubled.points)[0]
    refined = build_resolvent(model.allowed, z, doubled).vector(chi0d, 0.05)
    assert abs(refined - coarse) / abs(refined) < 1e-7


def test_pointwise_against_spectral_sum(ev_allowed_fine, model, fine_grid, rng):
    # the truncated expansion carries a slowly decaying completeness tail
    # at pointwise arguments; agreement is asserted within its own
    # reported remainder, and tightly wherever the tail happens to be small
    oracle = HarmonicSpectralSum(model.allowed, ev_allowed_fine.z, 200, fine_grid)
    for _ in range(5):
        x, x0 = rng.uniform(-0.6, 0.6, 2)
        g_ode = ev_allowed_fine.point(x, x0)
        g_sum = oracle.point(x, x0)
        bound = max(2.0 * oracle.point_tail_estimate(x, x0), 1e-6 * abs(g_ode))
        assert abs(g_ode - g_sum) <= bound


def test_imaginary_part_sign(ev_allowed_fine):
    for x in (-0.4, 0.0, 0.25):
        assert ev_allowed_fine.point(x, x).imag < 0.0


def test_damping_monotonicity(model, grid):
    values = []
    for gamma in (450.0, 900.0, 1800.0):
        ev = build_resolvent(model.allowed, 11200.0 + 1j * gamma, grid)
        values.append(abs(ev.point(0.1, 0.1)))
    assert values[0] > values[1] > values[2]


def test_harmonic_pole_positions(model, grid):
    # with small damping, |G(x, x; z)| peaks at the ladder energies; the
    # probe sits off the minimum so odd states keep weight
    scan = np.arange(10800.0, 12120.0, 2.0)
    probe = model.allowed.minimum_position + 0.05
    mags = np.empty(scan.size)
    pos = 0
    for start in range(0, scan.size, 128):
        for ev in build_resolvent_batch(
            model.allowed, scan[start : start + 128] + 5.0j, grid
        ):
            mags[pos] = abs(ev.point(probe, probe))
            pos += 1
    peaks = scan[1:-1][(mags[1:-1] > mags[:-2]) & (mags[1:-1] > mags[2:])]
    for n in range(3):
        expected = model.allowed.eigenvalue(n)
        assert np.min(np.abs(peaks - expected)) <= 2.0


def test_morse_pole_positions(model, grid):
    energies = model.forbidden.bound_energies()[:3]
    scan = np.arange(10900.0, 11902.0, 2.0)
    probes = (-0.02, -0.07)
    mags = np.empty(scan.size)
    pos = 0
    for start in range(0, scan.size, 128):
        for ev in build_resolvent_batch(
            model.forbidden, scan[start : start + 128] + 5.0j, grid
        ):
            mags[pos] = max(abs(ev.point(p, p)) for p in probes)
            pos += 1
    peaks = scan[1:-1][(mags[1:-1] > mags[:-2]) & (mags[1:-1] > mags[2:])]
    for expected in energies:
        assert np.min(np.abs(peaks - expected)) <= 2.0


def test_spectral_sum_tail_reporting(model, fine_grid):
    z = model.resolvent_argument(11200.0)
    oracle = HarmonicSpectralSum(model.allowed, z, 200, fine_grid)
    assert oracle.point_tail_estimate(0.1, 0.1) == np.inf
    assert oracle.point_tail_estimate(0.1, 0.3) > 0.0
    chi0 = harmonic_eigenstates(model.ground, 0, fine_grid.points)[0]
    assert abs(oracle.completeness_deficit(chi0)) < 1e-10


def test_spectral_sum_truncation_for_projections(model, fine_grid):
    # projections of smooth states converge fast in the expansion order,
    # unlike pointwise values
    z = model.resolvent_argument(11200.0)
    chi0 = harmonic_eigenstates(model.ground, 0, fine_grid.points)[0]
    small = HarmonicSpectralSum(model.allowed, z, 100, fine_grid)
    large = HarmonicSpectralSum(model.allowed, z, 200, fine_grid)
    a = small.matrix_element(chi0, chi0)
    b = large.matrix_element(chi0, chi0)
    assert abs(a - b) / abs(b) < 1e-10


def test_weak_form_identity(ev_allowed_fine, model, fine_grid):
    # project (z - H) G onto a smooth compact bump: the result must be the
    # bump's value at the source point
    x = fine_grid.points
    v = model.allowed.evaluate(x)
    m = model.allowed.mass
    width = 0.08
    a = 1.0 / (2.0 * width**2)
    for center, x0 in ((0.05, 0.12), (-0.1, -0.03)):
        s = x - center
        phi = np.exp(-a * s**2)
        second = (4.0 * a**2 * s**2 - 2.0 * a) * phi
        q = second / (2.0 * m) + (ev_allowed_fine.z - v) * phi
        phi0 = np.exp(-a * (x0 - center) ** 2)
        assert ev_allowed_fine.vector(q, x0) == pytest.approx(phi0, rel=1e-6)
