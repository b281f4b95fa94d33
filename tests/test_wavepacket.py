import math
from dataclasses import replace

import numpy as np
import pytest

from curvecross.errors import StepSizeError, TailTruncationWarning
from curvecross.model import Grid, MorseCurve, harmonic_eigenstates
from curvecross.units import FEMTOSECOND
from curvecross.wavepacket import (
    ABSORBER_FRACTION,
    DEFAULT_DT,
    WAVEPACKET_GRID,
    SplitStepPropagator,
    half_fourier,
    initial_state,
    propagate,
    verify_resolvent_identity,
)


def uncoupled(model):
    return replace(model, coupling=replace(model.coupling, strength=0.0))


def allowed_eigenstate_packet(model, grid, n=0):
    psi = np.zeros((2, grid.n), dtype=complex)
    psi[0] = harmonic_eigenstates(model.allowed, n, grid.points)[n]
    return psi


def norm(psi, grid):
    return float(np.sum(np.abs(psi) ** 2) * grid.dx)


def reference_step(prop, psi):
    """The per-component Strang step: eight separate FFTs, the 2x2
    potential step, then the absorber mask on the forbidden component."""
    half, (u11, u22), u12 = prop._half_kinetic, prop._u_diag, prop._u12
    p1 = np.fft.ifft(half * np.fft.fft(psi[0]))
    p2 = np.fft.ifft(half * np.fft.fft(psi[1]))
    q1 = u11 * p1 + u12 * p2
    q2 = u12 * p1 + u22 * p2
    p1 = np.fft.ifft(half * np.fft.fft(q1))
    p2 = np.fft.ifft(half * np.fft.fft(q2))
    n = psi.shape[1]
    width = int(ABSORBER_FRACTION * n)
    mask = np.ones(n)
    mask[:width] = np.sin(0.5 * math.pi * np.arange(width) / width) ** 2
    return np.array([p1, p2 * mask])


def test_stationary_eigenstate(model):
    grid = WAVEPACKET_GRID
    state = allowed_eigenstate_packet(model, grid)
    reference = state[0].copy()
    prop = SplitStepPropagator(uncoupled(model), grid=grid)
    worst = 0.0
    for _ in range(1000):
        state = prop.step(state)
        overlap = abs(np.sum(np.conj(state[0]) * reference) * grid.dx)
        worst = max(worst, abs(overlap - 1.0))
    assert worst < 1e-6


def test_displaced_packet_oscillates_at_vibrational_period(model):
    grid = WAVEPACKET_GRID
    state = initial_state(model, grid)
    prop = SplitStepPropagator(uncoupled(model), grid=grid)
    times, centers = [], []
    for k in range(1, 1401):
        state = prop.step(state)
        times.append(k * prop.dt)
        centers.append(float(np.sum(np.abs(state[0]) ** 2 * grid.points) * grid.dx))
    centers = np.array(centers)
    # <x>(t) swings from 0 toward 2a - 0 = 0.2; the first maximum sits at
    # half the classical period
    i_max = int(np.argmax(centers))
    period = 2.0 * times[i_max]
    expected = 2.0 * math.pi / model.allowed.frequency
    assert period == pytest.approx(expected, rel=0.01)
    assert period / FEMTOSECOND == pytest.approx(83.4, abs=0.9)


def test_norm_conservation_with_coupling(model):
    # the norm the absorber removes is booked in absorbed_norm
    grid = WAVEPACKET_GRID
    state = initial_state(model, grid)
    prop = SplitStepPropagator(model, grid=grid)
    start = norm(state, grid)
    for _ in range(1000):
        state = prop.step(state)
    assert abs(norm(state, grid) + prop.absorbed_norm - start) / start < 1e-8


def test_step_matches_per_component_reference(model):
    grid = WAVEPACKET_GRID
    prop = SplitStepPropagator(model, grid=grid)
    state = initial_state(model, grid)
    for _ in range(200):
        state = prop.step(state)
    # a coupled state, with the forbidden component's bulk inside the ramp
    state[1] += np.roll(state[0], -int(0.6 * grid.n))
    ramp = state[1, : int(ABSORBER_FRACTION * grid.n)]
    assert np.max(np.abs(ramp)) == np.max(np.abs(state[1]))
    expected = reference_step(prop, state)
    assert np.array_equal(prop.step(state), expected)


def test_forward_backward_returns_state(model):
    grid = WAVEPACKET_GRID
    state = initial_state(model, grid)
    forward = SplitStepPropagator(model, grid=grid)
    backward = SplitStepPropagator(model, grid=grid, dt=-DEFAULT_DT)
    out = backward.step(forward.step(state))
    assert math.sqrt(norm(out - state, grid)) < 1e-10


def test_norm_growth_detector(model):
    grid = WAVEPACKET_GRID
    prop = SplitStepPropagator(model, grid=grid)
    prop._u_diag = prop._u_diag * 1.001  # force a non-unitary step
    with pytest.raises(StepSizeError):
        prop.step(initial_state(model, grid))


def test_delta_width_floor(model):
    with pytest.raises(ValueError):
        SplitStepPropagator(model, delta_width=1.0)


def test_forbidden_component_grows_and_dissociates(model):
    # with the default deep well the transferred amplitude stays bound;
    # a shallow well puts the packet above the dissociation limit and the
    # left-edge absorber collects real flux
    grid = WAVEPACKET_GRID
    state = initial_state(model, grid)
    prop = SplitStepPropagator(model, grid=grid)
    for _ in range(400):
        state = prop.step(state)
    assert norm(state[1], grid) > 1e-6

    shallow = MorseCurve(
        mass=model.forbidden.mass,
        well_depth=500.0,
        alpha=1.0,
        minimum_position=0.0,
        origin_energy=model.forbidden.origin_energy,
    )
    open_model = replace(model, forbidden=shallow)
    state = initial_state(open_model, grid)
    prop = SplitStepPropagator(open_model, grid=grid)
    for _ in range(2000):
        state = prop.step(state)
    assert prop.absorbed_norm > 1e-6


def test_half_fourier_single_pole(model):
    # a stationary packet transforms to i chi / (omega' - E0 + i Gamma)
    grid = WAVEPACKET_GRID
    gamma = model.damping
    t_final = 12.0 / gamma
    e0 = model.allowed.eigenvalue(0)
    omega_arg = 11500.0
    series = propagate(
        uncoupled(model), allowed_eigenstate_packet(model, grid), DEFAULT_DT, t_final, grid=grid,
    )
    bar = half_fourier(series, [omega_arg], gamma, DEFAULT_DT)
    chi = harmonic_eigenstates(model.allowed, 0, grid.points)[0]
    exact = 1j * chi / (omega_arg - e0 + 1j * gamma)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(bar[0, 0] - exact)) / scale < 1e-4
    assert np.max(np.abs(bar[0, 1])) == 0.0


def test_half_fourier_linearity(model):
    grid = Grid(-1.0, 1.0, 256)
    chi = harmonic_eigenstates(model.ground, 0, grid.points)[0]
    states = [np.array([chi * (k + 1), np.zeros_like(chi)], dtype=complex) for k in range(5)]
    doubled = [np.array([2.0 * s[0], s[1]]) for s in states]
    with pytest.warns(TailTruncationWarning):
        a = half_fourier(states, [100.0], 1.0, 0.1)
    with pytest.warns(TailTruncationWarning):
        b = half_fourier(doubled, [100.0], 1.0, 0.1)
    assert np.allclose(b, 2.0 * a, rtol=1e-14)


def test_half_fourier_truncation_warning_threshold(model):
    grid = WAVEPACKET_GRID
    gamma = model.damping
    series = propagate(
        uncoupled(model), initial_state(model, grid), DEFAULT_DT, 4.0 / gamma, grid=grid
    )
    with pytest.warns(TailTruncationWarning):
        half_fourier(series, [11000.0], gamma, DEFAULT_DT)


def test_half_fourier_time_extension_within_tail_bound(model):
    grid = WAVEPACKET_GRID
    gamma = model.damping
    omega_arg = 11300.0
    results = []
    for factor in (8.5, 17.0):
        series = propagate(
            model, initial_state(model, grid), DEFAULT_DT, factor / gamma,
            grid=grid,
        )
        results.append(half_fourier(series, [omega_arg], gamma, DEFAULT_DT)[0, 0])
    change = np.max(np.abs(results[1] - results[0]))
    scale = np.max(np.abs(results[1]))
    assert change / scale < 3.0 * math.exp(-8.5)


def test_identity_single_surface(model):
    report = verify_resolvent_identity(uncoupled(model), [10700.0, 11100.0, 11900.0])
    assert report.max_deviation < 1e-3


def test_identity_coupled(model):
    report = verify_resolvent_identity(
        model,
        [10800.0, 11700.0],
        dt=0.25 * DEFAULT_DT,
        delta_width=2.0,
        wp_grid=Grid(-3.0, 1.5, 16384),
    )
    assert max(report.deviation_g11_elastic) < 0.02
    assert max(report.deviation_g11_raman) < 0.02


def test_identity_delta_width_convergence(model):
    # shrinking the coupling Gaussian toward the grid scale improves the
    # agreement monotonically
    devs = []
    for width in (8.0, 4.0, 2.0):
        report = verify_resolvent_identity(model, [10800.0], delta_width=width)
        devs.append(max(report.deviation_g11_raman))
    assert devs[0] > devs[1] > devs[2]


def test_identity_forbidden_component(model):
    # the transferred component itself matches i G21 chi to a few percent,
    # limited by the regularized vertex
    report = verify_resolvent_identity(
        model,
        [11400.0],
        dt=0.125 * DEFAULT_DT,
        delta_width=2.0,
        wp_grid=Grid(-3.0, 1.5, 16384),
    )
    assert max(report.deviation_g21) < 0.03
