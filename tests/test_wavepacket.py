import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

import curvecross
from curvecross import validate
from curvecross.config import RunConfig
from curvecross.errors import StepSizeError, TailTruncationWarning
from curvecross.model import Grid, MorseCurve, harmonic_eigenstates
from curvecross.units import FEMTOSECOND
from curvecross.wavepacket import (
    ABSORBER_FRACTION,
    DECAY_TARGET,
    DEFAULT_DT,
    NORM_GROWTH_LIMIT,
    WAVEPACKET_GRID,
    X_SAMPLES,
    IdentityReport,
    SplitStepPropagator,
    half_fourier,
    initial_state,
    packet_observables,
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
    """The per-component Strang step K (A U) K: eight separate FFTs around
    the 2x2 potential step, whose forbidden row the absorber mask A
    multiplies between the two kinetic halves."""
    half, (u11, u22), u12 = prop._half_kinetic, prop._u_diag, prop._u12
    fft, ifft = scipy.fft.fft, scipy.fft.ifft
    p1 = ifft(half * fft(psi[0]))
    p2 = ifft(half * fft(psi[1]))
    n = psi.shape[1]
    width = int(ABSORBER_FRACTION * n)
    mask = np.ones(n)
    mask[:width] = np.sin(0.5 * math.pi * np.arange(width) / width) ** 2
    q1 = u11 * p1 + u12 * p2
    q2 = (u12 * p1 + u22 * p2) * mask
    return np.array([ifft(half * fft(q1)), ifft(half * fft(q2))])


def stepped(prop, psi, n_steps):
    """psi advanced n_steps by prop, in position space."""
    for hat in prop.evolve(psi, n_steps):
        pass
    return scipy.fft.ifft(hat)


def propagate(model, initial, dt, t_final, delta_width=4.0, grid=None):
    """The position-space state at t = 0, dt, 2dt, ... through t_final,
    each a new array."""
    prop = SplitStepPropagator(model, grid=grid, dt=dt, delta_width=delta_width)
    for hat in prop.evolve(initial, int(math.ceil(t_final / dt - 1e-9))):
        yield scipy.fft.ifft(hat)


def coupled_state_in_ramp(model, grid, prop):
    """A coupled state whose forbidden component's bulk sits inside the ramp."""
    state = stepped(prop, initial_state(model, grid), 200)
    state[1] += np.roll(state[0], -int(0.6 * grid.n))
    ramp = state[1, : int(ABSORBER_FRACTION * grid.n)]
    assert np.max(np.abs(ramp)) == np.max(np.abs(state[1]))
    return state


def test_stationary_eigenstate(model):
    grid = WAVEPACKET_GRID
    state = allowed_eigenstate_packet(model, grid)
    reference = state[0].copy()
    prop = SplitStepPropagator(uncoupled(model), grid=grid)
    states = prop.evolve(state, 1000)
    next(states)
    worst = 0.0
    for hat in states:
        state = scipy.fft.ifft(hat)
        overlap = abs(np.sum(np.conj(state[0]) * reference) * grid.dx)
        worst = max(worst, abs(overlap - 1.0))
    assert worst < 1e-6


def test_displaced_packet_oscillates_at_vibrational_period(model):
    grid = WAVEPACKET_GRID
    state = initial_state(model, grid)
    prop = SplitStepPropagator(uncoupled(model), grid=grid)
    times, centers = [], []
    for k, hat in enumerate(prop.evolve(state, 1400)):
        if k == 0:
            continue
        state = scipy.fft.ifft(hat)
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
    state = stepped(prop, state, 1000)
    assert abs(norm(state, grid) + prop.absorbed_norm - start) / start < 1e-8


def test_step_matches_per_component_reference(model):
    grid = WAVEPACKET_GRID
    prop = SplitStepPropagator(model, grid=grid)
    state = coupled_state_in_ramp(model, grid, prop)
    assert np.array_equal(stepped(prop, state, 1), reference_step(prop, state))


def test_loop_matches_written_out_reference(model):
    grid = WAVEPACKET_GRID
    prop = SplitStepPropagator(model, grid=grid)
    state = coupled_state_in_ramp(model, grid, prop)
    expected = state
    for _ in range(200):
        expected = reference_step(prop, expected)
    got = stepped(prop, state, 200)
    assert math.sqrt(norm(got - expected, grid)) < 1e-12 * math.sqrt(norm(expected, grid))


def test_forward_backward_returns_state(model):
    grid = WAVEPACKET_GRID
    state = initial_state(model, grid)
    forward = SplitStepPropagator(model, grid=grid)
    backward = SplitStepPropagator(model, grid=grid, dt=-DEFAULT_DT)
    out = stepped(backward, stepped(forward, state, 1), 1)
    assert math.sqrt(norm(out - state, grid)) < 1e-10


def test_norm_growth_detector(model):
    grid = WAVEPACKET_GRID
    prop = SplitStepPropagator(model, grid=grid)
    prop._u_diag = prop._u_diag * 1.001  # force a non-unitary step
    with pytest.raises(StepSizeError):
        stepped(prop, initial_state(model, grid), 1)


def test_delta_width_floor(model):
    with pytest.raises(ValueError):
        SplitStepPropagator(model, delta_width=1.0)


def test_forbidden_component_grows_and_dissociates(model):
    # with the default deep well the transferred amplitude stays bound;
    # a shallow well puts the packet above the dissociation limit and the
    # left-edge absorber collects real flux
    grid = WAVEPACKET_GRID
    prop = SplitStepPropagator(model, grid=grid)
    state = stepped(prop, initial_state(model, grid), 400)
    assert norm(state[1], grid) > 1e-6

    shallow = MorseCurve(
        mass=model.forbidden.mass,
        well_depth=500.0,
        alpha=1.0,
        minimum_position=0.0,
        origin_energy=model.forbidden.origin_energy,
    )
    open_model = replace(model, forbidden=shallow)
    prop = SplitStepPropagator(open_model, grid=grid)
    stepped(prop, initial_state(open_model, grid), 2000)
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


def test_half_fourier_rejects_an_empty_series():
    # an empty list and an exhausted generator: no state to transform
    for states in ([], iter(())):
        with pytest.raises(ValueError) as raised:
            half_fourier(states, [11000.0], 1.0, 0.1)
        assert type(raised.value) is ValueError and str(raised.value) == "empty state series"


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


def test_observables_match_full_states(model):
    # the five functionals, read in momentum space at every step, against
    # half_fourier over the full position states projected afterwards
    fast = replace(model, damping=4.0 * model.damping)
    grid = Grid(-3.0, 1.5, 2048)
    omegas = [10900.0, 11600.0]
    n_steps = math.ceil(DECAY_TARGET / fast.damping / DEFAULT_DT)
    prop = SplitStepPropagator(fast, grid=grid, delta_width=2.0)
    observed = packet_observables(prop, omegas, n_steps)
    series = propagate(fast, initial_state(fast, grid), DEFAULT_DT, n_steps * DEFAULT_DT,
                       delta_width=2.0, grid=grid)
    full = half_fourier(series, omegas, fast.damping, DEFAULT_DT)
    chi = harmonic_eigenstates(fast.ground, 1, grid.points)
    for bar, (psi1, psi2) in zip(observed, full):
        expected = np.concatenate((np.sum(chi * psi1, axis=1) * grid.dx,
                                   np.interp(X_SAMPLES, grid.points, psi2)))
        assert np.max(np.abs(bar - expected)) < 1e-10 * np.max(np.abs(expected))


def test_open_channel_norm_budget():
    # a 500 cm^-1 forbidden well puts the transferred packet above its
    # dissociation limit: the absorber takes real flux, and no step grows
    open_model = replace(RunConfig(), forbidden_well_depth_cm1=500.0).validate().to_model()
    report = verify_resolvent_identity(open_model, [11400.0])
    assert report.absorbed_norm > 1e-6
    assert report.max_step_growth <= NORM_GROWTH_LIMIT
    assert report.final_envelope <= math.exp(-DECAY_TARGET)


def test_steps_take_no_page_faults():
    # buffers are allocated once per propagation and each row is transformed
    # in place: a settled loop maps no new memory, whatever the heap state
    pytest.importorskip("resource")
    script = (
        "import resource\n"
        "from curvecross.config import RunConfig\n"
        "from curvecross.model import Grid\n"
        "from curvecross.wavepacket import DEFAULT_DT, SplitStepPropagator, initial_state\n"
        "model = RunConfig().validate().to_model()\n"
        "grid = Grid(-3.0, 1.5, 16384)\n"
        "prop = SplitStepPropagator(model, grid=grid, dt=0.25 * DEFAULT_DT, delta_width=2.0)\n"
        "steps = prop.evolve(initial_state(model, grid), 220)\n"
        "for _ in range(21):\n"
        "    next(steps)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in steps:\n"
        "    pass\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(curvecross.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    assert int(out.stdout.strip().splitlines()[-1]) < 50


def test_identity_single_surface(model):
    report = verify_resolvent_identity(uncoupled(model), [10700.0, 11100.0, 11900.0])
    deviations = report.deviation_g11_elastic + report.deviation_g11_raman + report.deviation_g21
    assert max(deviations) < 1e-3


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


def test_validate_reports_where_the_norm_went(model, monkeypatch):
    # the wavepacket check's detail carries the largest G21 deviation and
    # one-step norm growth beside the G11 deviation and the absorbed norm;
    # it still passes on the G11 deviations alone
    report = IdentityReport(omega=[10800.0, 11400.0], deviation_g11_elastic=[0.0011, 0.0013],
                            deviation_g11_raman=[0.0017, 0.0012], deviation_g21=[0.0456, 0.0123],
                            absorbed_norm=1.5e-3, max_step_growth=3.25e-9)
    monkeypatch.setattr(validate, "verify_resolvent_identity", lambda *args, **kwargs: report)
    result = validate.check_wavepacket(model)
    assert result.passed
    assert "max G11 deviation 0.0017" in result.detail
    assert "max G21 deviation 0.0456" in result.detail
    assert "absorbed norm 1.50e-03" in result.detail
    assert "max step norm growth 3.25e-09" in result.detail
