"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured number that decided it.  Run with `pytest -s` to see the lines
as they appear.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import spsolve

from curvecross.config import RunConfig
from curvecross.coupled import CoupledBlocks
from curvecross.model import Grid, harmonic_eigenstates, huang_rhys_factor
from curvecross.resolvent import (
    HarmonicSpectralSum,
    build_resolvent,
    resolvent_rows,
)
from curvecross.spectra import (
    absorption_spectra,
    deviation_metric,
    photon_energies,
    raman_profiles,
)
from curvecross.wavepacket import DEFAULT_DT, verify_resolvent_identity

FINE = Grid(-1.5, 1.5, 32768)


@pytest.fixture(scope="module")
def setup():
    config = RunConfig().validate()
    return config, config.to_model(), config.to_grid()


def report(capsys, name, elapsed, detail):
    with capsys.disabled():
        print(f"\nPASS  {name}: {detail}  [{elapsed:.1f} s]")


def local_maxima(x, y):
    idx = np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])) + 1
    return x[idx]


def test_criterion_1_resolvent_weak_form(setup, capsys):
    """(z - H) G = delta, projected onto 20 smooth compact test functions
    on both curves at 5 energies; residual < 1e-6 relative."""
    _, model, _ = setup
    start = time.time()
    rng = np.random.default_rng(11)
    omegas = np.array([9800.0, 10700.0, 11500.0, 12400.0, 13300.0])
    zs = model.resolvent_argument(omegas)
    x = FINE.points
    worst = 0.0
    for curve in (model.allowed, model.forbidden):
        v = curve.evaluate(x)
        m = curve.mass
        for z in zs:
            ev = resolvent_rows(curve, z, FINE)
            for _ in range(20):
                center = rng.uniform(-0.15, 0.25)
                width = rng.uniform(0.05, 0.12)
                x0 = center + width * rng.uniform(-1.5, 1.5)
                a = 1.0 / (2.0 * width**2)
                s = x - center
                phi = np.exp(-a * s**2)
                second = (4.0 * a**2 * s**2 - 2.0 * a) * phi
                q = second / (2.0 * m) + (ev.z - v) * phi
                phi0 = math.exp(-a * (x0 - center) ** 2)
                worst = max(worst, abs(ev.vector(q, x0) - phi0) / abs(phi0))
    elapsed = time.time() - start
    assert worst < 1e-6
    assert elapsed < 30.0
    report(capsys, "criterion 1 (resolvent weak form)", elapsed,
           f"max residual {worst:.2e} < 1e-6 over 200 projections")


def test_criterion_2_oracle_equivalence(setup, capsys):
    """ODE resolvent against the 200-term eigenfunction expansion on the
    allowed curve at the standard damping.  Projections of smooth states
    agree to 1e-6; pointwise samples agree within the expansion's own
    reported tail remainder (the truncated expansion does not converge
    pointwise any tighter; see the decisions ledger)."""
    _, model, _ = setup
    start = time.time()
    z = model.resolvent_argument(11200.0)
    ev = build_resolvent(model.allowed, z, FINE)
    oracle = HarmonicSpectralSum(model.allowed, z, 200, FINE)
    rng = np.random.default_rng(2)
    worst_point = 0.0
    for _ in range(10):
        xa, xb = rng.uniform(-0.6, 0.6, 2)
        g_ode = ev.point(xa, xb)
        g_sum = oracle.point(xa, xb)
        bound = max(2.0 * oracle.point_tail_estimate(xa, xb), 1e-6 * abs(g_ode))
        assert abs(g_ode - g_sum) <= bound
        worst_point = max(worst_point, abs(g_ode - g_sum) / bound)
    chi = harmonic_eigenstates(model.ground, 1, FINE.points)
    worst_proj = 0.0
    for f, g in ((chi[0], chi[0]), (chi[1], chi[0]), (chi[1], chi[1])):
        a = ev.matrix_element(f, g)
        b = oracle.matrix_element(f, g)
        worst_proj = max(worst_proj, abs(a - b) / abs(b))
    for x0 in (-0.31, -0.05, 0.18, 0.33):
        a = ev.vector(chi[0], x0)
        b = oracle.vector(chi[0], x0)
        worst_proj = max(worst_proj, abs(a - b) / abs(b))
    elapsed = time.time() - start
    assert worst_proj < 1e-6
    assert elapsed < 10.0
    report(capsys, "criterion 2 (spectral-sum oracle)", elapsed,
           f"projections {worst_proj:.2e} < 1e-6; 10 pointwise samples within "
           f"tail remainder (worst fraction {worst_point:.2f})")


def test_criterion_3_morse_pole_positions(setup, capsys):
    """|G2(x, x; z)| with 5 cm^-1 damping peaks at the three lowest
    analytic Morse levels within one 2 cm^-1 scan step."""
    _, model, grid = setup
    start = time.time()
    energies = model.forbidden.bound_energies()[:3]
    scan = np.arange(10900.0, 11902.0, 2.0)
    probes = (-0.02, -0.07)
    mags = np.empty(scan.size)
    for chunk_start in range(0, scan.size, 128):
        chunk = scan[chunk_start : chunk_start + 128] + 5.0j
        rows = resolvent_rows(model.forbidden, chunk, grid)
        mags[chunk_start : chunk_start + 128] = np.max(
            [np.abs(rows.point(p, p)) for p in probes], axis=0)
    peaks = local_maxima(scan, mags)
    offsets = [round(float(np.min(np.abs(peaks - e))), 2) for e in energies]
    elapsed = time.time() - start
    assert all(off <= 2.0 for off in offsets)
    assert elapsed < 60.0
    report(capsys, "criterion 3 (Morse pole positions)", elapsed,
           f"peak offsets {offsets} cm^-1, all <= 2")


def test_criterion_4_uncoupled_absorption_analytics(setup, capsys):
    """With 20 cm^-1 damping the uncoupled absorption shows lines at
    10700 + 400 n within one grid step and Poisson heights to 5%."""
    _, model, grid = setup
    from dataclasses import replace

    start = time.time()
    sharp = replace(model, damping=20.0)
    omega = np.arange(10600.0, 12520.0, 2.0)
    _, spec = absorption_spectra(sharp, omega, grid=grid)
    peaks = local_maxima(omega, spec.intensity)
    s = huang_rhys_factor(model.ground, model.allowed)
    heights = []
    worst_pos = 0.0
    for n in range(5):
        expected = 10700.0 + 400.0 * n
        nearest = peaks[np.argmin(np.abs(peaks - expected))]
        worst_pos = max(worst_pos, abs(nearest - expected))
        assert abs(nearest - expected) <= 2.0
        heights.append(spec.intensity[np.argmin(np.abs(omega - nearest))])
    worst_height = 0.0
    for n in range(1, 5):
        ratio = heights[n] / heights[0]
        poisson = s**n / math.factorial(n)
        worst_height = max(worst_height, abs(ratio - poisson) / poisson)
        assert ratio == pytest.approx(poisson, rel=0.05)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(capsys, "criterion 4 (sharp-line absorption)", elapsed,
           f"positions within {worst_pos:.0f} cm^-1 of 10700+400n; Poisson "
           f"height error {worst_height:.3f} < 0.05 (S = {s:.3f})")


def test_criterion_5_partitioning_limits(setup, capsys):
    """K0 = 0 reduces the coupled element to the bare resolvent exactly;
    the correction scales as K0^2 and the off-diagonal block as K0^1."""
    _, model, grid = setup
    start = time.time()
    z = model.resolvent_argument(5000.0)
    ev1 = build_resolvent(model.allowed, z, grid)
    ev2 = build_resolvent(model.forbidden, z, grid)
    chi0 = harmonic_eigenstates(model.ground, 0, grid.points)[0]
    x_c = model.coupling.location

    blocks0 = CoupledBlocks(ev1, ev2, 0.0, x_c)
    amp0 = blocks0.g11(chi0, chi0)
    assert amp0.value == ev1.matrix_element(chi0, chi0)
    assert amp0.crossing_correction == 0.0
    assert blocks0.g12(chi0, chi0) == 0.0

    ks = model.coupling.strength * np.array([1 / 8, 1 / 6, 1 / 4, 1 / 3, 1 / 2])
    c11, c12 = [], []
    for k in ks:
        blocks = CoupledBlocks(ev1, ev2, k, x_c)
        c11.append(abs(blocks.g11(chi0, chi0).crossing_correction))
        c12.append(abs(blocks.g12(chi0, chi0)))
    p11 = float(np.polyfit(np.log(ks), np.log(c11), 1)[0])
    p12 = float(np.polyfit(np.log(ks), np.log(c12), 1)[0])
    elapsed = time.time() - start
    assert abs(p11 - 2.0) < 0.02
    assert abs(p12 - 1.0) < 0.02
    assert elapsed < 60.0
    report(capsys, "criterion 5 (partitioning limits)", elapsed,
           f"K0 = 0 exact; exponents {p11:.3f} (2.00 +- 0.02) and "
           f"{p12:.3f} (1.00 +- 0.02)")


def test_criterion_6_frequency_vs_time_domain(setup, capsys):
    """Coupled <chi_f|G11|chi_i> from the partitioning formula matches
    i times the half-Fourier wavepacket projection to 2% at 5 energies."""
    _, model, _ = setup
    start = time.time()
    omegas = [10200.0, 10800.0, 11400.0, 12000.0, 12600.0]
    rep = verify_resolvent_identity(
        model,
        omegas,
        dt=0.25 * DEFAULT_DT,
        delta_width=2.0,
        wp_grid=Grid(-3.0, 1.5, 16384),
    )
    worst = max(max(rep.deviation_g11_elastic), max(rep.deviation_g11_raman))
    elapsed = time.time() - start
    assert worst < 0.02
    assert elapsed < 600.0
    report(capsys, "criterion 6 (wavepacket cross-validation)", elapsed,
           f"max G11 deviation {worst:.4f} < 0.02 over {len(omegas)} energies")


def test_criterion_7_discrete_solve_equivalence(setup, capsys):
    """A rank-2 grid-delta linear solve of the coupled system reproduces
    the partitioning-formula element to 1% at 3 energies."""
    _, model, _ = setup
    start = time.time()
    k0 = model.coupling.strength
    x_c = model.coupling.location
    fd_grid = Grid(-1.5, 1.5, 8192)
    x = fd_grid.points
    dx = fd_grid.dx
    j = int(round((x_c - fd_grid.x_min) / dx))
    chi_fd = harmonic_eigenstates(model.ground, 0, x)[0]
    chi_fine = harmonic_eigenstates(model.ground, 0, FINE.points)[0]
    m = model.ground.mass
    kin = 1.0 / (2.0 * m * dx * dx)
    off = np.full(x.size - 1, kin)
    v1 = model.allowed.evaluate(x)
    v2 = model.forbidden.evaluate(x)
    worst = 0.0
    for omega in (10600.0, 11300.0, 12200.0):
        z = model.resolvent_argument(omega)
        a11 = scipy.sparse.diags([off, z - v1 - 2.0 * kin, off], [-1, 0, 1], format="lil", dtype=complex)
        a22 = scipy.sparse.diags([off, z - v2 - 2.0 * kin, off], [-1, 0, 1], format="lil", dtype=complex)
        c = scipy.sparse.lil_matrix((x.size, x.size), dtype=complex)
        c[j, j] = -k0 / dx
        a = scipy.sparse.bmat([[a11, c], [c, a22]], format="csr")
        sol = spsolve(a, np.concatenate([chi_fd, np.zeros(x.size)]))
        fd_value = np.sum(chi_fd * sol[: x.size]) * dx

        ev1 = build_resolvent(model.allowed, z, FINE)
        ev2 = build_resolvent(model.forbidden, z, FINE)
        exact = CoupledBlocks(ev1, ev2, k0, x_c).g11(chi_fine, chi_fine).value
        worst = max(worst, abs(fd_value - exact) / abs(exact))
    elapsed = time.time() - start
    assert worst < 0.01
    assert elapsed < 120.0
    report(capsys, "criterion 7 (grid-delta linear solve)", elapsed,
           f"max relative difference {worst:.2e} < 0.01")


def test_criterion_8_raman_more_affected(setup, capsys):
    """The headline effect: the crossing changes the Raman profile more
    than the absorption band, both nonzero, stable under scan halving."""
    _, model, grid = setup
    start = time.time()

    def deviations(step):
        omega = photon_energies(9500.0, 13500.0, step)
        d_a = deviation_metric(*absorption_spectra(model, omega, grid=grid))
        d_r = deviation_metric(*raman_profiles(model, 1, omega, grid=grid))
        return d_a, d_r

    d_a, d_r = deviations(10.0)
    d_a_fine, d_r_fine = deviations(5.0)
    stab_a = abs(d_a_fine - d_a) / d_a
    stab_r = abs(d_r_fine - d_r) / d_r
    elapsed = time.time() - start
    assert d_a > 0.0 and d_r > 0.0
    assert d_r > d_a
    assert stab_a < 0.01 and stab_r < 0.01
    assert elapsed < 600.0
    report(capsys, "criterion 8 (Raman more affected)", elapsed,
           f"D_R = {d_r:.4f} > D_A = {d_a:.4f} > 0; halving changes "
           f"{stab_a:.2e}, {stab_r:.2e} < 0.01")
