"""Time-domain oracle: split-step propagation of the coupled two-surface
Schroedinger equation and its half-Fourier link to the resolvent.

The propagator is Strang-split: an exact kinetic half step in momentum
space per component, then the full position-local step through the 2x2
potential-plus-coupling matrix, then another kinetic half step.  The
point coupling is regularized as a narrow normalized Gaussian; a bare
grid delta couples to the momentum cutoff unpredictably, while a fixed
width gives controlled convergence that the cross-validation tolerance
budgets for.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson

from .coupled import CoupledBlocks
from .errors import StepSizeError, TailTruncationWarning
from .model import DEFAULT_GRID, Grid, harmonic_eigenstates
from .resolvent import build_resolvent
from .units import FEMTOSECOND

WAVEPACKET_GRID = Grid(-3.0, 1.5, 4096)
DEFAULT_DT = 0.05 * FEMTOSECOND
NORM_GROWTH_LIMIT = 1e-6
ABSORBER_FRACTION = 0.15


@dataclass
class WavepacketState:
    """Two-component amplitude on the spatial grid at one time."""

    psi1: np.ndarray
    psi2: np.ndarray
    time: float

    def norm(self, dx):
        density = np.abs(self.psi1) ** 2 + np.abs(self.psi2) ** 2
        return float(np.sum(density) * dx)


class SplitStepPropagator:
    """Strang-split propagator for the delta-coupled two-surface model."""

    def __init__(self, model, grid=None, dt=DEFAULT_DT, delta_width=4.0, absorber=True):
        if delta_width < 2.0:
            raise ValueError("the coupling Gaussian needs delta_width >= 2 grid steps")
        self.model = model
        self.grid = grid if grid is not None else WAVEPACKET_GRID
        self.dt = float(dt)
        x = self.grid.points
        dx = self.grid.dx
        n = x.size
        m = model.ground.mass

        k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
        self._half_kinetic = np.exp(-0.5j * self.dt * k**2 / (2.0 * m))

        v1 = np.asarray(model.allowed.evaluate(x), dtype=float)
        v2 = np.asarray(model.forbidden.evaluate(x), dtype=float)
        sigma = delta_width * dx
        gauss = np.exp(-0.5 * ((x - model.coupling.location) / sigma) ** 2)
        gauss /= np.sum(gauss) * dx
        coupling = model.coupling.strength * gauss

        mu = 0.5 * (v1 + v2)
        delta = 0.5 * (v1 - v2)
        rho = np.sqrt(delta**2 + coupling**2)
        envelope = np.exp(-1j * self.dt * mu)
        cos_term = np.cos(rho * self.dt)
        sinc_term = self.dt * np.sinc(rho * self.dt / math.pi)
        self._u11 = envelope * (cos_term - 1j * delta * sinc_term)
        self._u22 = envelope * (cos_term + 1j * delta * sinc_term)
        self._u12 = envelope * (-1j * coupling * sinc_term)

        self._mask = None
        if absorber:
            width = int(ABSORBER_FRACTION * n)
            ramp = np.ones(n)
            edge = np.arange(width) / width
            ramp[:width] = np.sin(0.5 * math.pi * edge) ** 2
            self._mask = ramp
        self.absorbed_norm = 0.0

    def step(self, state):
        """One time step; raises StepSizeError on norm growth."""
        dx = self.grid.dx
        norm_in = state.norm(dx)
        p1 = np.fft.ifft(self._half_kinetic * np.fft.fft(state.psi1))
        p2 = np.fft.ifft(self._half_kinetic * np.fft.fft(state.psi2))
        q1 = self._u11 * p1 + self._u12 * p2
        q2 = self._u12 * p1 + self._u22 * p2
        p1 = np.fft.ifft(self._half_kinetic * np.fft.fft(q1))
        p2 = np.fft.ifft(self._half_kinetic * np.fft.fft(q2))
        out = WavepacketState(p1, p2, state.time + self.dt)
        if norm_in > 0:
            growth = out.norm(dx) / norm_in - 1.0
            if growth > NORM_GROWTH_LIMIT:
                raise StepSizeError(
                    f"norm grew by {growth:.2e} in one step; reduce dt"
                )
        if self._mask is not None:
            before = float(np.sum(np.abs(out.psi2) ** 2) * dx)
            out.psi2 = out.psi2 * self._mask
            after = float(np.sum(np.abs(out.psi2) ** 2) * dx)
            self.absorbed_norm += before - after
        return out


def initial_state(model, grid=None):
    """Ground vibrational state of the ground curve, promoted onto the
    allowed surface with an empty forbidden component."""
    grid = grid if grid is not None else WAVEPACKET_GRID
    chi = harmonic_eigenstates(model.ground, 0, grid.points)[0]
    return WavepacketState(chi.astype(complex), np.zeros_like(chi, dtype=complex), 0.0)


def propagate(model, initial, dt, t_final, delta_width=4.0, grid=None, absorber=True):
    """Yield the state at t = 0, dt, 2dt, ... through t_final."""
    prop = SplitStepPropagator(model, grid=grid, dt=dt, delta_width=delta_width,
                               absorber=absorber)
    state = initial
    yield state
    steps = int(math.ceil(t_final / dt - 1e-9))
    for _ in range(steps):
        state = prop.step(state)
        yield state


def half_fourier(states, omegas, gamma, dt):
    """Trapezoid half-Fourier transform of a state series.

    Returns an array (n_omega, 2, n_grid) with components
    integral_0^T psi_c(x, t) exp(i (omega + i gamma) t) dt; omega here is
    the full resolvent argument.  Warns when the damping envelope has not
    decayed below e^-8 at the final time.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    first = last = None
    accum = None
    t_last = 0.0
    for state in states:
        t = state.time
        phases = np.exp(1j * (omegas + 1j * gamma) * t)
        stack = np.vstack([state.psi1, state.psi2])
        term = phases[:, None, None] * stack[None, :, :]
        if accum is None:
            accum = term.copy()
            first = term
        else:
            accum += term
        last = term
        t_last = t
    if accum is None:
        raise ValueError("empty state series")
    accum -= 0.5 * (first + last)
    tail = math.exp(-gamma * t_last)
    if tail > math.exp(-8.0):
        warnings.warn(
            f"half-Fourier truncated while the damping envelope is still "
            f"{tail:.2e}; extend the propagation (target e^-8)",
            TailTruncationWarning,
        )
    return accum * dt


@dataclass
class IdentityReport:
    """Per-omega comparison of the wavepacket route against the resolvent."""

    omega: list = field(default_factory=list)
    deviation_g11_elastic: list = field(default_factory=list)
    deviation_g11_raman: list = field(default_factory=list)
    deviation_g21: list = field(default_factory=list)

    @property
    def max_deviation(self):
        parts = self.deviation_g11_elastic + self.deviation_g11_raman + self.deviation_g21
        return max(parts) if parts else math.nan


def verify_resolvent_identity(model, omega_samples, dt=DEFAULT_DT, delta_width=4.0,
                              wp_grid=None, res_grid=None, x_samples=(-0.25, -0.05, 0.1),
                              decay_target=8.0):
    """Check that the half-Fourier transform of the propagated packet equals
    i G(z) applied to the initial state, element by element.

    For each photon energy: <chi_f|psi1_bar> against i <chi_f|G11|chi_i>
    for n_f = 0 and 1, and psi2_bar pointwise against i (G21 chi_i)(x) at
    the sample positions (scaled by the largest sampled magnitude).
    """
    wp_grid = wp_grid if wp_grid is not None else WAVEPACKET_GRID
    res_grid = res_grid if res_grid is not None else DEFAULT_GRID
    gamma = model.damping
    t_final = decay_target / gamma
    omegas = np.atleast_1d(np.asarray(omega_samples, dtype=float))
    z_args = model.resolvent_argument(omegas).real

    start = initial_state(model, wp_grid)
    series = propagate(model, start, dt, t_final, delta_width=delta_width, grid=wp_grid)
    transformed = half_fourier(series, z_args, gamma, dt)

    chi_wp = harmonic_eigenstates(model.ground, 1, wp_grid.points)
    chi_res = harmonic_eigenstates(model.ground, 1, res_grid.points)
    k0 = model.coupling.strength
    x_c = model.coupling.location

    report = IdentityReport()
    for j, omega in enumerate(omegas):
        z = model.resolvent_argument(omega)
        ev1 = build_resolvent(model.allowed, z, res_grid)
        ev2 = build_resolvent(model.forbidden, z, res_grid)
        blocks = CoupledBlocks(ev1, ev2, k0, x_c)
        psi1_bar = transformed[j, 0]
        psi2_bar = transformed[j, 1]
        for n_f, sink in ((0, report.deviation_g11_elastic), (1, report.deviation_g11_raman)):
            wp_side = simpson(chi_wp[n_f] * psi1_bar, dx=wp_grid.dx)
            res_side = 1j * blocks.g11(chi_res[n_f], chi_res[0]).value
            sink.append(abs(wp_side - res_side) / abs(res_side))
        row = 1j * blocks.g21_row(chi_res[0])
        wp_at = np.interp(np.asarray(x_samples), wp_grid.points, psi2_bar)
        res_at = np.interp(np.asarray(x_samples), res_grid.points, row)
        scale = float(np.max(np.abs(res_at)))
        if scale > 0.0:
            report.deviation_g21.append(float(np.max(np.abs(wp_at - res_at)) / scale))
        else:
            report.deviation_g21.append(float(np.max(np.abs(wp_at))))
        report.omega.append(float(omega))
    return report
