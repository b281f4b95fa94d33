"""Time-domain oracle: split-step propagation of the coupled two-surface
Schroedinger equation and its half-Fourier link to the resolvent.

A state is one complex (2, n) array on the spatial grid: row 0 is the
amplitude on the allowed surface, row 1 on the forbidden one.  The
propagator is Strang-split: an exact kinetic half step in momentum space
on both rows at once, then the full position-local step through the 2x2
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
from .spectra import scan_resolvents
from .units import FEMTOSECOND

WAVEPACKET_GRID = Grid(-3.0, 1.5, 4096)
DEFAULT_DT = 0.05 * FEMTOSECOND
NORM_GROWTH_LIMIT = 1e-6
ABSORBER_FRACTION = 0.15
# a half-Fourier integral is complete once the damping envelope exp(-Gamma t)
# has fallen below exp(-DECAY_TARGET)
DECAY_TARGET = 8.0
# positions (angstrom) at which the forbidden component is compared
X_SAMPLES = (-0.25, -0.05, 0.1)


class SplitStepPropagator:
    """Strang-split propagator for the delta-coupled two-surface model.

    A sin^2 ramp over the first ABSORBER_FRACTION of the grid absorbs the
    forbidden component as it dissociates toward the left edge; the norm
    it removes accumulates in `absorbed_norm`.
    """

    def __init__(self, model, grid=None, dt=DEFAULT_DT, delta_width=4.0):
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
        # the potential step's diagonal elements u11, u22 as rows, and u12 = u21
        self._u_diag = envelope * np.array(
            [cos_term - 1j * delta * sinc_term, cos_term + 1j * delta * sinc_term]
        )
        self._u12 = envelope * (-1j * coupling * sinc_term)

        width = int(ABSORBER_FRACTION * n)
        self._ramp = np.sin(0.5 * math.pi * np.arange(width) / width) ** 2
        self._ramp_loss = 1.0 - self._ramp**2
        self.absorbed_norm = 0.0

    def step(self, psi):
        """Advance the (2, n) state psi by one time step and return the new
        state; raises StepSizeError on norm growth."""
        p = np.fft.ifft(self._half_kinetic * np.fft.fft(psi))
        # p[::-1] swaps the rows: u12 couples each surface to the other
        p = self._u_diag * p + self._u12 * p[::-1]
        out = np.fft.ifft(self._half_kinetic * np.fft.fft(p))
        norm_in = np.vdot(psi, psi).real
        if norm_in > 0:
            growth = np.vdot(out, out).real / norm_in - 1.0
            if growth > NORM_GROWTH_LIMIT:
                raise StepSizeError(f"norm grew by {growth:.2e} in one step; reduce dt")
        edge = out[1, : self._ramp.size]
        self.absorbed_norm += np.vdot(edge, self._ramp_loss * edge).real * self.grid.dx
        edge *= self._ramp
        return out


def initial_state(model, grid=None):
    """Ground vibrational state of the ground curve, promoted onto the
    allowed surface with an empty forbidden component."""
    grid = grid if grid is not None else WAVEPACKET_GRID
    psi = np.zeros((2, grid.n), dtype=complex)
    psi[0] = harmonic_eigenstates(model.ground, 0, grid.points)[0]
    return psi


def propagate(model, initial, dt, t_final, delta_width=4.0, grid=None):
    """Yield the state at t = 0, dt, 2dt, ... through t_final."""
    prop = SplitStepPropagator(model, grid=grid, dt=dt, delta_width=delta_width)
    psi = initial
    yield psi
    for _ in range(int(math.ceil(t_final / dt - 1e-9))):
        psi = prop.step(psi)
        yield psi


def half_fourier(states, omegas, gamma, dt):
    """Trapezoid half-Fourier transform of the series of (2, n) states at
    t = 0, dt, 2dt, ...

    Returns an array (n_omega, 2, n_grid) with components
    integral_0^T psi_c(x, t) exp(i (omega + i gamma) t) dt; omega here is
    the full resolvent argument.  Warns when the damping envelope has not
    decayed below e^-DECAY_TARGET at the final time.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    first = last = accum = None
    t = 0.0
    for k, psi in enumerate(states):
        t = k * dt
        last = np.exp(1j * (omegas + 1j * gamma) * t)[:, None, None] * psi
        if accum is None:
            first = last
            accum = last.copy()
        else:
            accum += last
    if accum is None:
        raise ValueError("empty state series")
    accum -= 0.5 * (first + last)
    tail = math.exp(-gamma * t)
    if tail > math.exp(-DECAY_TARGET):
        warnings.warn(
            f"half-Fourier truncated while the damping envelope is still "
            f"{tail:.2e}; extend the propagation (target e^-{DECAY_TARGET:g})",
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
                              wp_grid=None):
    """Check that the half-Fourier transform of the propagated packet equals
    i G(z) applied to the initial state, element by element.

    The packet runs on wp_grid until the damping envelope reaches
    e^-DECAY_TARGET; the resolvents are built on DEFAULT_GRID.  For each
    photon energy: <chi_f|psi1_bar> against i <chi_f|G11|chi_i> for n_f = 0
    and 1, and psi2_bar pointwise against i (G21 chi_i)(x) at X_SAMPLES
    (scaled by the largest sampled magnitude).
    """
    wp_grid = wp_grid if wp_grid is not None else WAVEPACKET_GRID
    gamma = model.damping
    omegas = np.atleast_1d(np.asarray(omega_samples, dtype=float))

    series = propagate(model, initial_state(model, wp_grid), dt, DECAY_TARGET / gamma,
                       delta_width=delta_width, grid=wp_grid)
    transformed = half_fourier(series, model.resolvent_argument(omegas).real, gamma, dt)

    chi_wp = harmonic_eigenstates(model.ground, 1, wp_grid.points)
    chi_res = harmonic_eigenstates(model.ground, 1, DEFAULT_GRID.points)
    k0 = model.coupling.strength
    x_c = model.coupling.location

    report = IdentityReport()
    pairs = scan_resolvents(model, omegas, DEFAULT_GRID)
    for omega, (psi1_bar, psi2_bar), (ev1, ev2) in zip(omegas, transformed, pairs):
        blocks = CoupledBlocks(ev1, ev2, k0, x_c)
        for n_f, sink in ((0, report.deviation_g11_elastic), (1, report.deviation_g11_raman)):
            wp_side = simpson(chi_wp[n_f] * psi1_bar, dx=wp_grid.dx)
            res_side = 1j * blocks.g11(chi_res[n_f], chi_res[0]).value
            sink.append(abs(wp_side - res_side) / abs(res_side))
        wp_at = np.interp(X_SAMPLES, wp_grid.points, psi2_bar)
        res_at = np.array([1j * blocks.g21(x, chi_res[0]) for x in X_SAMPLES])
        scale = float(np.max(np.abs(res_at)))
        if scale > 0.0:
            report.deviation_g21.append(float(np.max(np.abs(wp_at - res_at)) / scale))
        else:
            report.deviation_g21.append(float(np.max(np.abs(wp_at))))
        report.omega.append(float(omega))
    return report
