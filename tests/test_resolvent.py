import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson

from curvecross import resolvent, spectra
from curvecross.coupled import CoupledBlocks, g11_rows
from curvecross.errors import DegenerateWronskianError, GridError, NumericsError
from curvecross.model import DEFAULT_GRID, Grid, franck_condon_matrix, harmonic_eigenstates
from curvecross.resolvent import (
    HarmonicSpectralSum,
    _simpson,
    _step_band,
    build_resolvent,
    resolvent_rows,
)

# Half the float64 exponent range in e-folds: a sum over nodes where u
# changes by more cannot take one scale for all its terms.
HALF_EXPONENT_RANGE = 0.5 * math.log(np.finfo(float).max)


def _efolds(ratios):
    """log |u_k / u_0| on the nodes, from rows of ratios r_k = u_k / u_k+1."""
    steps = -np.log(np.abs(ratios))
    return np.concatenate([np.zeros(steps.shape[:-1] + (1,)), np.cumsum(steps, axis=-1)], axis=-1)


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


def _derivative_jump(ev, x):
    """d/dx G(x, x0) jump across x = x0, G(x_j, x_j) (r- s+ - s- r+) / h, from
    the cubic Hermite interpolants r of u(x)/u(x_j) in x's cell and their
    slopes times the cell width s; equals 2m for the exact G."""
    h = ev.grid.dx
    j = ev.grid.index_below(x)
    t = (x - ev.grid.points[j]) / h

    def ratio(y, e):
        # end values 1 and e = u(x_j+1)/u(x_j), end slopes h y_j and h y_j+1 e
        s0, s1 = h * y[j], h * y[j + 1] * e
        value = ((1 + 2 * t) * (1 - t) ** 2 + t * (1 - t) ** 2 * s0
                 + t**2 * (3 - 2 * t) * e + t**2 * (t - 1) * s1)
        slope = 6 * t * (t - 1) * (1 - e) + (1 - t) * (1 - 3 * t) * s0 + t * (3 * t - 2) * s1
        return value, slope

    r_minus, s_minus = ratio(ev.y_minus, 1.0 / ev.r_minus[j])
    r_plus, s_plus = ratio(ev.y_plus, ev.r_plus[j])
    diagonal = 2.0 * ev.curve.mass / (ev.y_plus[j] - ev.y_minus[j])
    return diagonal * (r_minus * s_plus - s_minus * r_plus) / h


def test_derivative_jump(ev_allowed_fine, model):
    for x in (-0.3, 0.02, 0.33):
        jump = _derivative_jump(ev_allowed_fine, x)
        assert jump == pytest.approx(2.0 * model.allowed.mass, rel=1e-8)


def test_wronskian_constancy(model, grid):
    zs = model.resolvent_argument(np.array([10000.0, 11500.0, 13200.0]))
    for curve in (model.allowed, model.forbidden):
        assert np.max(resolvent_rows(curve, zs, grid).wronskian_drift) < 1e-8


def test_drift_is_round_off_and_catches_a_broken_sweep(config, model, grid, monkeypatch):
    # on the default 401 energies the drift of both curves' rows is
    # round-off; a relative error of 1e-6 in b of one interval of each solve
    # (interval 5 in the forward solve's band, interval N - 7 in the
    # transposed solve's) moves W by about 1e-7 and must raise.  An error in
    # the band that both solves read (_step_band) would go unseen: the
    # transposed map is the adjugate of the forward one, so both solutions
    # would conserve the same wrong W.  test_step_maps_equal_rk4_step and
    # the two plain-RK4 tests catch that
    zs = model.resolvent_argument(config.omega_grid())
    for curve in (model.allowed, model.forbidden):
        for start in range(0, zs.size, spectra.SCAN_CHUNK):
            rows = resolvent.resolvent_rows(curve, zs[start : start + spectra.SCAN_CHUNK], grid)
            assert np.max(rows.wronskian_drift) < 1e-12
    solve = resolvent.ztbsv

    def broken(k, band, x, **options):
        if k == 3:  # the step maps' band, not the sums' bidiagonal one
            band = np.array(band, order="F")
            band[1, 2 * (grid.n - 7 if options.get("trans") else 5) + 1] *= 1.0 + 1e-6
        return solve(k, band, x, **options)

    monkeypatch.setattr(resolvent, "ztbsv", broken)
    for curve in (model.allowed, model.forbidden):
        with pytest.raises(DegenerateWronskianError, match="drift"):
            resolvent.resolvent_rows(curve, zs[::100], grid)


def test_rows_are_shaped_like_their_energies(model, grid):
    # each energy is its own banded solve and the reads multiply in numpy's
    # array loops at any shape: at a scalar z the rows are 1-D, point,
    # vector and matrix_element complex scalars equal to row k of a batch
    # of two or six energies bit for bit, and the drift a float; a 2-D
    # batch gives rows and reads shaped like it, with the same bits
    chi0 = harmonic_eigenstates(model.ground, 0, grid.points)[0]
    x_c = model.coupling.location

    def reads(rows):
        return (rows.point(0.1, -0.2), rows.vector(chi0, x_c), rows.matrix_element(chi0, chi0),
                rows.wronskian_drift)

    for omega in (
        np.array([10800.0, 12000.0]),
        np.linspace(10000.0, 13000.0, 6),
    ):
        zs = model.resolvent_argument(omega)
        for curve in (model.allowed, model.forbidden):
            batch = resolvent_rows(curve, zs, grid)
            in_batch = reads(batch)
            for k, z in enumerate(zs):
                single = resolvent_rows(curve, z, grid)
                assert single.y_minus.shape == single.y_plus.shape == (grid.n,)
                assert single.r_minus.shape == single.r_plus.shape == (grid.n - 1,)
                *values, drift = reads(single)
                for value, row in zip(values, in_batch):
                    assert isinstance(value, complex) and np.ndim(value) == 0
                    assert value == row[k]
                assert isinstance(drift, float) and drift == in_batch[-1][k]
                json.dumps(drift)
            # the name kept for single energies is the same call
            assert build_resolvent(curve, zs[0], grid).point(0.1, -0.2) == in_batch[0][0]
            square = zs.reshape(2, -1)
            rows = resolvent_rows(curve, square, grid)
            assert rows.y_minus.shape == rows.y_plus.shape == square.shape + (grid.n,)
            assert rows.r_minus.shape == rows.r_plus.shape == square.shape + (grid.n - 1,)
            for value, row in zip(reads(rows), in_batch):
                assert value.shape == square.shape
                assert np.array_equal(value, row.reshape(square.shape))


def test_real_and_complex_states_give_the_same_bits(model, grid):
    # the quadratures take each state as complex once per read, as numpy
    # would cast it before each complex operation: a real state and the
    # same state cast to complex give equal reads bit for bit, at a scalar
    # z and on a 64-energy batch (point takes no state, and g11_rows takes
    # its value for the denominator)
    chi0, chi1 = harmonic_eigenstates(model.ground, 1, grid.points)
    x_c = model.coupling.location
    omega = np.linspace(9500.0, 13500.0, spectra.SCAN_CHUNK)
    g2 = spectra.coupling_diagonals(model, omega, grid)[1]
    zs = model.resolvent_argument(omega)
    k0 = model.coupling.strength

    def reads(rows, f, i, g2_cc):
        amplitude = g11_rows(rows, k0, x_c, rows.point(x_c, x_c), g2_cc, f, i)
        return (rows.vector(f, x_c), rows.matrix_element(f, i),
                *rows.element_and_vector(f, i, x_c), amplitude.value, amplitude.direct,
                amplitude.crossing_correction, amplitude.denominator)

    for energies, g2_cc in ((zs[17], g2[17]), (zs, g2)):
        rows = resolvent_rows(model.allowed, energies, grid)
        for f, i in ((chi1, chi0), (chi0, chi0)):
            real = reads(rows, f, i, g2_cc)
            cast = reads(rows, f.astype(complex), i.astype(complex), g2_cc)
            for a, b in zip(real, cast):
                assert np.shape(a) == np.shape(energies) and np.array_equal(a, b)


def test_chunk_rows_equal_single_energy_sweeps(model, grid):
    # a scan chunk's rows on each curve's default window and on the whole
    # grid, where u+- span more than half the float64 exponent range,
    # against one sweep per energy: the ratios, y and drift, and the quadratures
    # that g11 takes from them, equal bit for bit
    omega = np.linspace(9500.0, 13500.0, spectra.SCAN_CHUNK)
    _, _, window, forbidden, _ = spectra.scan(model, omega, 0, grid)
    zs = model.resolvent_argument(omega)
    x_c = model.coupling.location
    for curve, nodes in ((model.allowed, window), (model.forbidden, forbidden),
                         (model.allowed, grid), (model.forbidden, grid)):
        chi = harmonic_eigenstates(model.ground, 1, nodes.points)
        chunk = resolvent.resolvent_rows(curve, zs, nodes)
        element, vector = chunk.element_and_vector(chi[1], chi[0], x_c)
        own = chunk.vector(chi[0], x_c)
        for k, z in enumerate(zs):
            single = resolvent.resolvent_rows(curve, [z], nodes)
            for name in ("r_minus", "y_minus", "r_plus", "y_plus", "wronskian_drift"):
                assert np.array_equal(getattr(single, name)[0], getattr(chunk, name)[k])
            single_element, single_vector = single.element_and_vector(chi[1], chi[0], x_c)
            assert single_element[0] == element[k] and single_vector[0] == vector[k]
            assert single.vector(chi[0], x_c)[0] == own[k]


def _counted(monkeypatch, name):
    """The calls to resolvent's function name, recorded as (args, result)."""
    calls, function = [], getattr(resolvent, name)

    def counted(*args):
        calls.append((args, function(*args)))
        return calls[-1][1]

    monkeypatch.setattr(resolvent, name, counted)
    return calls


def test_a_scan_chunk_plans_one_group(config, model, grid, monkeypatch):
    # a default 64-energy chunk spans at most 17 octaves between its
    # energies on the allowed window and the whole grid, far below
    # OCTAVE_BUDGET: one group takes two growth evaluations, its reference
    # and its bound, for all 64 sweeps.  One energy is a group of one with
    # no bound: one evaluation, its own growth's octaves
    omega = config.omega_grid()[: spectra.SCAN_CHUNK]
    zs = model.resolvent_argument(omega)
    _, _, window, _, _ = spectra.scan(model, omega, 0, grid)
    growths = _counted(monkeypatch, "_growth")
    plans = _counted(monkeypatch, "_group_scales")
    for nodes in (window, grid):
        for energies, evaluations in ((zs, 2), (zs[17], 1)):
            growths.clear()
            plans.clear()
            resolvent.resolvent_rows(model.allowed, energies, nodes)
            ((_, scales),) = plans
            assert len(growths) == evaluations
            assert len(scales) == np.size(energies)
            assert all(u is scales[0] for u in scales)
        # the lone energy's plan, the last: its own growth's octaves
        m = model.allowed.mass
        c_mid = 2.0 * m * (model.allowed.evaluate(nodes.midpoints) - zs[17].real)
        own = resolvent._unscale(resolvent._growth(c_mid, -(2.0 * m * zs[17].imag), nodes.dx))
        assert np.array_equal(scales[0], own)


def test_wide_point_path_shares_octaves_in_groups(model, grid, monkeypatch):
    # the forbidden point path of the sum-rule scan, -20000 to 60000 cm^-1
    # in 100 cm^-1 steps on its window, spans about 1000 octaves between
    # its energies, past OCTAVE_BUDGET: every energy takes its own growth's
    # octaves, in an array of its own, and its rows and drift equal its own
    # sweep's bit for bit
    zs = model.resolvent_argument(spectra.photon_energies(-20000.0, 60000.0, 100.0))
    x_c = model.coupling.location
    j = grid.index_below(x_c)
    window, _, nodes = resolvent._window(model.forbidden, zs, j, j + 1, grid, x_c)
    plans = _counted(monkeypatch, "_group_scales")
    rows = resolvent.resolvent_rows(model.forbidden, zs, window, nodes)
    ((_, scales),) = plans
    assert len({id(unscale) for unscale in scales}) > 1
    assert len({id(unscale) for unscale in scales}) == zs.size == 801
    m, v_mid = model.forbidden.mass, model.forbidden.evaluate(window.midpoints)
    for z, unscale in zip(zs, scales):
        c_mid = 2.0 * m * (v_mid - z.real)
        own = resolvent._unscale(resolvent._growth(c_mid, -(2.0 * m * z.imag), window.dx))
        assert np.array_equal(unscale, own)
    for k, z in enumerate(zs):
        single = resolvent.resolvent_rows(model.forbidden, z, window, nodes)
        for name in ("r_minus", "y_minus", "r_plus", "y_plus", "wronskian_drift"):
            assert np.array_equal(getattr(single, name), getattr(rows, name)[k])


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


def _summed_spans(monkeypatch):
    """The range of log |u| over the nodes of each _sums call, in e-folds."""
    spans = []
    sums = resolvent._sums

    def spanned(f, ratios, h, stop=None):
        summed = _efolds(ratios[..., :stop])
        spans.append(float(np.max(np.ptp(summed, axis=-1))))
        return sums(f, ratios, h, stop)

    monkeypatch.setattr(resolvent, "_sums", spanned)
    return spans


def test_values_survive_dynamic_range_beyond_float64(model, grid, monkeypatch):
    # 1024 more cells of the default spacing on either side: every default
    # node is a node here too, and u+- span about 2100 e-folds across the
    # wide grid, more than a float64 can hold.  The chi quadratures sum on
    # the chi support only; a wave that fills the wide grid is summed over
    # the whole rows, and its matrix element and vector at node j agree
    # with the sequential recurrence
    pad = 1024 * grid.dx
    wide = Grid(grid.x_min - pad, grid.x_max + pad, grid.n + 2048)
    x_c = model.coupling.location
    wave = np.exp(2j * wide.points)
    spans = _summed_spans(monkeypatch)
    for omega in (9800.0, 11000.0, 12500.0):
        z = model.resolvent_argument(omega)
        results = []
        for g in (grid, wide):
            chi = harmonic_eigenstates(model.ground, 1, g.points)
            ev = build_resolvent(model.allowed, z, g)
            results.append((ev.matrix_element(chi[1], chi[0]), ev.point(x_c, x_c)))
        for default, widened in zip(*results):
            assert abs(widened - default) <= 1e-8 * abs(default)
        h, j = wide.dx, wide.index_below(x_c)
        minus = _sequential_sums(wave, ev.r_minus, h)
        plus = _sequential_sums(wave[::-1], ev.r_plus[::-1], h)[::-1]
        on_nodes = 2.0 * ev.curve.mass / (ev.y_plus - ev.y_minus) * (minus + plus)
        scale = np.max(np.abs(on_nodes))
        spans.clear()
        element = ev.matrix_element(wave, chi[0])
        want = simpson(chi[0] * on_nodes, dx=h)
        assert abs(element - want) <= 1e-12 * scale * simpson(np.abs(chi[0]), dx=h)
        assert abs(ev.vector(wave, wide.points[j]) - on_nodes[j]) <= 1e-12 * scale
        assert len(spans) == 4 and min(spans) > HALF_EXPONENT_RANGE


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
    # the closed-form maps that the band holds are the RK4 step applied to
    # the unit vectors, at a confining energy and above the Morse
    # dissociation limit; with no growth every scale is 1, and the band
    # holds -a, -c in rows 2 and 3 of interval k's column 2k and -b, -d in
    # rows 1 and 2 of its column 2k + 1
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
            band = np.zeros((4, 2 * grid.n), dtype=complex, order="F")
            unscale = resolvent._unscale(np.zeros(grid.n - 1))
            assert np.all(unscale == 1.0)
            _step_band(c_nodes.real, c_mid.real, -2.0 * m * z.imag, h, unscale, band)
            closed = -band[2, :-2:2], -band[1, 1:-2:2], -band[3, :-2:2], -band[2, 1:-2:2]
            for got, ref in zip(closed, (a, b, c, d)):
                rel = np.abs(got - ref) / np.abs(ref)
                assert np.max(rel) <= 1e-14
            # nothing else is written: the diagonal, the entries off the
            # band's pattern and the last node's columns stay 0
            untouched = np.ones(band.shape, dtype=bool)
            untouched[2:, :-2:2] = untouched[1:3, 1:-2:2] = False
            assert not np.any(band[untouched])


def test_sweep_is_plain_rk4(model):
    # the power-of-two scales change the recurrence at round-off only: on
    # a grid where plain complex RK4 stays inside float64, u- and y- match
    # it in batches of three and six energies (the six repeat the three)
    grid = Grid(-0.5, 0.7, 1639)
    h = grid.dx
    omegas = np.array([10300.0, 11200.0, 12400.0])
    for batch in (omegas, np.resize(omegas, 6)):
        zs = model.resolvent_argument(batch)
        for curve in (model.allowed, model.forbidden):
            rows = resolvent_rows(curve, zs, grid)
            m = curve.mass
            c_nodes = 2.0 * m * (curve.evaluate(grid.points)[:, None] - zs)
            c_mid = 2.0 * m * (curve.evaluate(grid.midpoints)[:, None] - zs)
            u = np.ones(zs.size, dtype=complex)
            v = rows.y_minus[:, 0]  # the WKB seed u'/u at x_0
            us, vs = [u], [v]
            for k in range(grid.n - 1):
                u, v = _rk4_step(c_nodes[k], c_mid[k], c_nodes[k + 1], h, u, v)
                us.append(u)
                vs.append(v)
            u_ref = np.array(us).T
            y_ref = np.array(vs).T / u_ref
            for r_minus, y_minus, u_k, y_k in zip(rows.r_minus, rows.y_minus, u_ref, y_ref):
                # u from u_0 = 1 and the ratios r_k = u_k / u_k+1
                u = np.concatenate([[1.0], np.cumprod(1.0 / r_minus)])
                assert np.max(np.abs(u / u_k - 1.0)) <= 1e-12
                assert np.max(np.abs(y_minus - y_k) / np.abs(y_k)) <= 1e-12


def test_transposed_solve_is_plain_rk4(model):
    # the transposed solve runs the backward map from the right edge: u+
    # and y+ match plain complex RK4 run leftward from the right edge's
    # seed, the step from x_k+1 to x_k taking c at x_k+1, the midpoint and
    # x_k, in the variable -x where du/d(-x) = -u'
    grid = Grid(-0.5, 0.7, 1639)
    h = grid.dx
    omegas = np.array([10300.0, 11200.0, 12400.0])
    for batch in (omegas, np.resize(omegas, 6)):
        zs = model.resolvent_argument(batch)
        for curve in (model.allowed, model.forbidden):
            rows = resolvent_rows(curve, zs, grid)
            m = curve.mass
            c_nodes = 2.0 * m * (curve.evaluate(grid.points)[:, None] - zs)
            c_mid = 2.0 * m * (curve.evaluate(grid.midpoints)[:, None] - zs)
            u = np.ones(zs.size, dtype=complex)
            # the WKB seed -u'/u at x_N-1, u'' = c u in the variable -x
            v = resolvent._wkb_log_derivative(c_nodes[-1], m, -curve.gradient(grid.x_max))
            us, vs = [u], [v]
            for k in range(grid.n - 2, -1, -1):
                u, v = _rk4_step(c_nodes[k + 1], c_mid[k], c_nodes[k], h, u, v)
                us.append(u)
                vs.append(v)
            u_ref = np.array(us[::-1]).T
            y_ref = -np.array(vs[::-1]).T / u_ref
            for r_plus, y_plus, u_k, y_k in zip(rows.r_plus, rows.y_plus, u_ref, y_ref):
                # u from u_N-1 = 1 and the ratios r_k = u_k+1 / u_k
                u = np.concatenate([np.cumprod(1.0 / r_plus[::-1])[::-1], [1.0]])
                assert np.max(np.abs(u / u_k - 1.0)) <= 1e-12
                assert np.max(np.abs(y_plus - y_k) / np.abs(y_k)) <= 1e-12


def test_unscaled_sweep_overflow_raises(model, grid, monkeypatch):
    # without its scales a default-grid sweep leaves float64; the NaN drift
    # must raise in batches of one and six energies instead of returning
    # numbers
    fill = resolvent._step_band

    def unscaled(c_nodes, c_mid, c_imag, h, unscale, band):
        return fill(c_nodes, c_mid, c_imag, h, np.ones_like(unscale), band)

    monkeypatch.setattr(resolvent, "_step_band", unscaled)
    for nz in (1, 6):
        zs = model.resolvent_argument(np.linspace(10000.0, 13000.0, nz))
        with np.errstate(all="ignore"), pytest.raises(DegenerateWronskianError):
            resolvent_rows(model.allowed, zs, grid)


def _point_path(curve, zs, x, grid):
    """G(x, x) from the rows on x's cell, each sweep stopping there."""
    k = grid.index_below(x)
    return resolvent.resolvent_rows(curve, zs, grid, (k, k + 1)).point(x, x)


def test_unscaled_point_sweep_overflow_raises(model, grid, monkeypatch):
    # the one-sided sweeps of the point path leave float64 on the Morse
    # wall without their scales; y at x_c's cell is then not finite, and
    # the point path must raise for one energy and for a scan chunk
    fill = resolvent._step_band

    def unscaled(c_nodes, c_mid, c_imag, h, unscale, band):
        return fill(c_nodes, c_mid, c_imag, h, np.ones_like(unscale), band)

    monkeypatch.setattr(resolvent, "_step_band", unscaled)
    for nz in (1, spectra.SCAN_CHUNK):
        zs = model.resolvent_argument(np.linspace(10000.0, 13000.0, nz))
        with np.errstate(all="ignore"), pytest.raises(DegenerateWronskianError):
            _point_path(model.forbidden, zs, model.coupling.location, grid)


def test_rows_reject_nodes_off_the_grid(model, grid):
    # nodes are integers 0 <= lo < hi <= N - 1: an empty, reversed or
    # overhanging range, or one that is not whole numbers, fails up front
    # instead of giving one-node rows or solving the wrong columns
    zs = model.resolvent_argument(np.array([11000.0]))
    for nodes in ((10, 10), (3000, 2000), (0, grid.n), (-5, 100), (0.0, 10.0)):
        with pytest.raises(ValueError, match=f"0 <= lo < hi <= {grid.n - 1}"):
            resolvent.resolvent_rows(model.allowed, zs, grid, nodes)


def test_point_path_rejects_a_dependent_pair(model, grid, monkeypatch):
    # |y+ - y-| <= |y+| + |y-| always, so a limit of 1 flags every pair as
    # dependent: the guard runs on the pair's margin at the cell
    zs = model.resolvent_argument(np.array([11000.0]))
    _point_path(model.forbidden, zs, model.coupling.location, grid)
    monkeypatch.setattr(resolvent, "WRONSKIAN_DRIFT_LIMIT", 1.0)
    with pytest.raises(DegenerateWronskianError, match="not independent"):
        _point_path(model.forbidden, zs, model.coupling.location, grid)


@pytest.mark.parametrize("nz", [1, 6])
def test_point_path_is_the_evaluator_diagonal(model, grid, nz):
    # on one grid the one-sided sweeps are the full sweeps cut short, and
    # each value is formed as point forms it: equal bit for bit, also in
    # the grid's first and last cells
    zs = model.resolvent_argument(np.linspace(9500.0, 13500.0, nz))
    for curve in (model.allowed, model.forbidden):
        rows = resolvent_rows(curve, zs, grid)
        for x in (model.coupling.location, 0.3, grid.x_min, grid.x_max - 0.1 * grid.dx):
            values = _point_path(curve, zs, x, grid)
            assert np.array_equal(values, rows.point(x, x))


def test_point_path_memory_does_not_grow_with_the_energies(config, model, grid):
    # the rows on x_c's cell are swept one energy at a time, so the default
    # 401 energies take at most twice the traced peak of one energy; rows
    # of whole sweeps for every energy would take about 100 times it
    zs = model.resolvent_argument(config.omega_grid())
    j = grid.index_below(model.coupling.location)

    def peak(energies):
        tracemalloc.start()
        try:
            resolvent.resolvent_rows(model.forbidden, energies, grid, (j, j + 1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert zs.size == 401
    assert peak(zs) <= 2 * peak(zs[:1])


def test_rejects_nonpositive_damping(model, grid):
    with pytest.raises(ValueError):
        build_resolvent(model.allowed, 11000.0 + 0.0j, grid)


@pytest.mark.parametrize("surface, grid, depth, fails", [
    ("allowed", Grid(-1.5, 0.25, 1024), None, True),
    ("allowed", Grid(-0.05, 1.5, 1024), None, True),
    ("forbidden", Grid(-1.5, 0.02, 1024), None, True),
    ("forbidden", Grid(-1.5, 1.5, 4096), 1000.0, False),
], ids=["harmonic-right", "harmonic-left", "morse-wall", "morse-open-left"])
def test_rejects_undersized_grid(config, surface, grid, depth, fails):
    # a confining edge, either edge of the harmonic curve or the Morse
    # wall, that sits below Re z, inside the classically allowed zone, is
    # rejected; the Morse curve's open left side below Re z (D = 1000
    # cm^-1) is not confining and builds
    settings = {} if depth is None else {"forbidden_well_depth_cm1": depth}
    curve = getattr(replace(config, **settings).validate().to_model(), surface)
    z = 12700.0 + 450.0j
    if fails:
        with pytest.raises(GridError, match="confining grid edge"):
            build_resolvent(curve, z, grid)
    else:
        assert build_resolvent(curve, z, grid).wronskian_drift < 1e-8


EDGE_BELOW_Z = ("grid does not cover the classically relevant region: potential at a "
                "confining grid edge lies below Re z")


@pytest.mark.parametrize("grid, message", [
    (Grid(-1.5, 0.25, 1024), EDGE_BELOW_Z),
    (Grid(-0.05, 1.5, 1024), EDGE_BELOW_Z),
    (Grid(-1.5, 0.02, 1024), EDGE_BELOW_Z),
    (Grid(-1.5, 1.5, 256), "grid too coarse for the scan: k_max*dx = 0.93 at Re z = 13700 "
                           "exceeds 0.5; use more grid points"),
], ids=["harmonic-right", "harmonic-left", "morse-wall", "coarse"])
def test_point_paths_are_guarded_on_their_windows(config, model, grid, message):
    # _window only plans, and resolvent_rows guards the nodes that it
    # sweeps.  A window edge is a grid edge or a node forbidden at the top
    # energy, and every window holds the curve's minimum: the default
    # energies' point paths on the undersized grids of
    # test_rejects_undersized_grid and on a coarse grid fail as the whole
    # grid does, the allowed curve first
    with pytest.raises(GridError) as raised:
        spectra.coupling_diagonals(model, config.omega_grid(), grid)
    assert str(raised.value) == message


def test_point_outside_grid_rejected(ev_allowed_fine):
    with pytest.raises(ValueError):
        ev_allowed_fine.point(2.0, 0.0)


def test_quadratures_reject_states_off_the_grid(model, grid):
    # states of the wrong shape, states with a NaN inside the support or
    # an inf outside it, and a state on two nodes, fewer than the three
    # that the sums' and Simpson's rules take
    z = model.resolvent_argument(11100.0)
    ev, ev2 = (build_resolvent(curve, z, grid) for curve in (model.allowed, model.forbidden))
    x_c = model.coupling.location
    blocks = CoupledBlocks(ev, ev2, model.coupling.strength, x_c)
    chi0 = harmonic_eigenstates(model.ground, 0, grid.points)[0]
    nan, inf = chi0.copy(), chi0.astype(complex)
    nan[grid.n // 2] = np.nan
    inf[0] = complex(np.inf, 0.0)
    narrow = np.zeros(grid.n)
    narrow[2000:2002] = 1.0
    for bad in (1.0, np.ones(1), chi0[:-1], nan, inf, narrow):
        with pytest.raises(ValueError):
            ev.matrix_element(chi0, bad)
        with pytest.raises(ValueError):
            ev.matrix_element(bad, chi0)
        with pytest.raises(ValueError):
            ev.vector(bad, x_c)
        with pytest.raises(ValueError):
            blocks.g11(bad, chi0)
        with pytest.raises(ValueError):
            blocks.g11(chi0, bad)


def test_quadratures_reject_a_stack_of_states(model, grid):
    # a read takes one state sampled on the rows' nodes: a (2, M) stack of
    # states on either side is rejected at a scalar z and on two energies,
    # where it would broadcast against the rows
    chi = harmonic_eigenstates(model.ground, 1, grid.points)
    x_c = model.coupling.location
    zs = model.resolvent_argument(np.array([10400.0, 12100.0]))
    for energies in (zs[0], zs):
        rows = resolvent_rows(model.allowed, energies, grid)
        reads = (lambda f: rows.vector(f, x_c),
                 lambda f: rows.matrix_element(f, chi[0]),
                 lambda f: rows.matrix_element(chi[0], f),
                 lambda f: rows.element_and_vector(f, chi[0], x_c),
                 lambda f: rows.element_and_vector(chi[0], f, x_c))
        for read in reads:
            with pytest.raises(ValueError, match="sampled on the resolvent's nodes"):
                read(chi)


@pytest.mark.parametrize("curve", ["morse", "flat"])
def test_spectral_sum_needs_a_harmonic_curve(model, curve):
    curve = model.forbidden if curve == "morse" else FlatCurve(model.ground.mass, 100.0)
    with pytest.raises(ValueError) as raised:
        HarmonicSpectralSum(curve, model.resolvent_argument(11200.0), 10)
    assert str(raised.value) == "the spectral-sum oracle needs a harmonic curve"


def _sequential_sums(f, rho, h):
    """A_{k+1} = rho_k A_k + q_k node by node, rho_k = u_k / u_{k+1} and q_k
    the integral of f u over interval k divided by u_{k+1}: the 4-point rule
    h/24 (-1, 13, 13, -1), the 3-point rule h/12 (5, 8, -1) at the ends, with
    u_m / u_{k+1} = rho_k, rho_{k-1} rho_k and 1 / rho_{k+1} at m = k, k - 1
    and k + 2."""
    n = f.size
    k = np.arange(1, n - 2)
    q = np.empty(n - 1, dtype=complex)
    q[1:-1] = h / 24.0 * (13.0 * (f[k] * rho[k] + f[k + 1]) - f[k - 1] * rho[k - 1] * rho[k]
                          - f[k + 2] / rho[k + 1])
    q[0] = h / 12.0 * (5.0 * f[0] * rho[0] + 8.0 * f[1] - f[2] / rho[1])
    q[-1] = h / 12.0 * (5.0 * f[-1] + 8.0 * f[-2] * rho[-1] - f[-3] * rho[-2] * rho[-1])
    a = 0j
    sums = [a]
    for r, dq in zip(rho.tolist(), q.tolist()):
        a = r * a + dq
        sums.append(a)
    return np.array(sums)


@pytest.mark.parametrize("nodes", [1639, 4096, 32768])
def test_blocked_sums_equal_sequential_recurrence(model, nodes):
    # the harmonic curve's sums on the narrow grid span less than half the
    # float64 exponent range, all others more; A on the forward arrays and
    # B on the reversed ones, in full as matrix_element takes them and at
    # nodes through vector
    if nodes == 1639:
        grid = Grid(-0.5, 0.7, nodes)
        zs = model.resolvent_argument(np.array([10300.0, 11200.0, 12400.0]))
    else:
        grid = Grid(-1.5, 1.5, nodes)
        zs = model.resolvent_argument(np.array([9800.0, 11200.0, 13200.0]))
    if nodes == 32768:
        zs = zs[1:2]
    n = grid.n
    h = grid.dx
    # chi_1, and a wave that does not vanish at the edges, where the end
    # rules act
    states = (
        harmonic_eigenstates(model.ground, 1, grid.points)[1].astype(complex),
        np.exp(2j * grid.points),
    )
    j_c = grid.index_below(model.coupling.location)
    blocked = set()
    for curve in (model.allowed, model.forbidden):
        for z in zs:
            ev = resolvent_rows(curve, z, grid)
            for state in states:
                both = []
                for f, r in ((state, ev.r_minus), (state[::-1], ev.r_plus[::-1])):
                    expected = _sequential_sums(f, r, h)
                    scale = np.max(np.abs(expected))
                    assert np.max(np.abs(resolvent._sums(f, r, h, n - 1) - expected)) <= 1e-12 * scale
                    blocked.add(np.max(np.abs(np.log(np.abs(r)))) * n > HALF_EXPONENT_RANGE)
                    both.append(expected)
                # <f|G|x_j> = G(x_j, x_j) (A_j + B_j) on the nodes
                diagonal = 2.0 * ev.curve.mass / (ev.y_plus - ev.y_minus)
                on_nodes = diagonal * (both[0] + both[1][::-1])
                scale = np.max(np.abs(on_nodes))
                for j in (0, 1, j_c, j_c + 1, n - 2, n - 1):
                    assert abs(ev.vector(state, grid.points[j]) - on_nodes[j]) <= 1e-12 * scale
    assert (False in blocked) if nodes == 1639 else blocked == {True}


def test_rejects_nonfinite_z(model, grid):
    # an input error, not a failed construction: no sweep runs
    for z in (complex(np.nan, 450.0), complex(-np.inf, 450.0),
              complex(11000.0, np.inf), complex(np.inf, 450.0)):
        with pytest.raises(ValueError) as raised:
            resolvent_rows(model.allowed, [z], grid)
        assert not isinstance(raised.value, NumericsError)


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
    doubled = Grid(fine_grid.x_min, fine_grid.x_max, 2 * fine_grid.n - 1)
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
    for start in range(0, scan.size, 128):
        rows = resolvent_rows(model.allowed, scan[start : start + 128] + 5.0j, grid)
        mags[start : start + 128] = np.abs(rows.point(probe, probe))
    peaks = scan[1:-1][(mags[1:-1] > mags[:-2]) & (mags[1:-1] > mags[2:])]
    for n in range(3):
        expected = model.allowed.eigenvalue(n)
        assert np.min(np.abs(peaks - expected)) <= 2.0


def test_morse_pole_positions(model, grid):
    energies = model.forbidden.bound_energies()[:3]
    scan = np.arange(10900.0, 11902.0, 2.0)
    probes = (-0.02, -0.07)
    mags = np.empty(scan.size)
    for start in range(0, scan.size, 128):
        rows = resolvent_rows(model.forbidden, scan[start : start + 128] + 5.0j, grid)
        mags[start : start + 128] = np.max([np.abs(rows.point(p, p)) for p in probes], axis=0)
    peaks = scan[1:-1][(mags[1:-1] > mags[:-2]) & (mags[1:-1] > mags[2:])]
    for expected in energies:
        assert np.min(np.abs(peaks - expected)) <= 2.0


def test_spectral_sum_tail_reporting(model, fine_grid):
    z = model.resolvent_argument(11200.0)
    oracle = HarmonicSpectralSum(model.allowed, z, 200, fine_grid)
    assert oracle.point_tail_estimate(0.1, 0.1) == np.inf
    assert oracle.point_tail_estimate(0.1, 0.3) > 0.0
    chi0 = harmonic_eigenstates(model.ground, 0, fine_grid.points)[0]
    # 1 - sum_n <phi_n|chi0>^2 / <chi0|chi0> over the oracle's 201 states
    phi = harmonic_eigenstates(model.allowed, 200, fine_grid.points)
    overlaps = simpson(phi * chi0[None, :], dx=fine_grid.dx, axis=1)
    assert abs(1.0 - np.sum(overlaps**2) / simpson(chi0 * chi0, dx=fine_grid.dx)) < 1e-10


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


@pytest.mark.parametrize("grid", [DEFAULT_GRID, Grid(-3.0, 1.5, 16384), Grid(-1.5, 1.5, 32768)],
                         ids=["default", "wavepacket", "fine"])
def test_simpson_rule_is_scipys_bit_for_bit(grid, rng):
    # the written-out rule against scipy.integrate.simpson on equal steps:
    # odd and even counts, real and complex, 1-d and (nz, M) rows
    for n in [*range(3, 42), 538, 539, 1182, 1183, 4096, 4097]:
        for shape in ((n,), (3, n)):
            real = rng.standard_normal(shape)
            for y in (real, real + 1j * rng.standard_normal(shape)):
                got, want = _simpson(y, grid.dx), simpson(y, dx=grid.dx, axis=-1)
                assert np.shape(got) == np.shape(want) and np.array_equal(got, want), (n, shape)
