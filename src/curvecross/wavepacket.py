"""Time-domain oracle: split-step propagation of the coupled two-surface
Schroedinger equation and its half-Fourier link to the resolvent.

A state is one complex (2, n) array: row 0 on the allowed surface, row 1
on the forbidden one.  A Strang step K (A U) K applies an exact kinetic
half step K in momentum space, the 2x2 potential-plus-coupling step U and
the absorbing ramp A in position space, and another K; between steps the
packet stays in momentum space, so a step costs one FFT pair per row.  The
identity check transforms only the five numbers it compares, each read
from the momentum-space state by a fixed row.  The point coupling is a
narrow normalized Gaussian: a bare grid delta couples to the momentum
cutoff unpredictably, a fixed width converges as the tolerances budget.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

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
    """Strang-split propagator for the delta-coupled two-surface model,
    advancing `state`, the FFT of each row of the packet, in place.  A
    sin^2 ramp over the first ABSORBER_FRACTION of the grid absorbs the
    forbidden component as it dissociates toward the left edge; the norm it
    removes accumulates in `absorbed_norm`.  `max_step_growth` is the
    largest step's norm ratio - 1, the absorbed norm added back."""

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
        self.absorbed_norm = 0.0
        self.max_step_growth = -math.inf
        self.state = np.zeros((2, n), dtype=complex)
        self._swap = np.empty_like(self.state)
        self._norm = 0.0  # sum |psi|^2 = sum |state|^2 / n

    def step(self):
        """Advance the state by one time step and return it; raises
        StepSizeError on norm growth."""
        p = self.state
        # K and U stay left operands: complex products round differently when swapped
        np.multiply(self._half_kinetic, p, out=p)
        _in_place(scipy.fft.ifft, p)
        # p[::-1] swaps the rows: u12 couples each surface to the other
        np.multiply(self._u12, p[::-1], out=self._swap)
        np.multiply(self._u_diag, p, out=p)
        p += self._swap
        edge = p[1, : self._ramp.size]
        absorbed = np.vdot(edge, edge).real
        edge *= self._ramp
        absorbed -= np.vdot(edge, edge).real
        _in_place(scipy.fft.fft, p)
        np.multiply(self._half_kinetic, p, out=p)
        norm_in, self._norm = self._norm, np.vdot(p, p).real / p.shape[1]
        growth = (self._norm + absorbed) / norm_in - 1.0 if norm_in > 0 else 0.0
        self.max_step_growth = max(self.max_step_growth, growth)
        if growth > NORM_GROWTH_LIMIT:
            raise StepSizeError(f"norm grew by {growth:.2e} in one step; reduce dt")
        self.absorbed_norm += absorbed * self.grid.dx
        return p

    def evolve(self, psi, n_steps):
        """Yield the state at t = 0, dt, ..., n_steps dt from the (2, n)
        position-space packet psi: the same array, advanced in place."""
        self.state[...] = scipy.fft.fft(psi)
        self._norm = np.vdot(psi, psi).real
        yield self.state
        for _ in range(n_steps):
            yield self.step()


def _in_place(transform, a):
    # with overwrite_x scipy.fft writes a complex row's transform into it
    for row in a:
        out = transform(row, overwrite_x=True)
        if not np.may_share_memory(out, row):
            row[...] = out


def initial_state(model, grid=None):
    """Ground vibrational state of the ground curve, promoted onto the
    allowed surface with an empty forbidden component."""
    grid = grid if grid is not None else WAVEPACKET_GRID
    psi = np.zeros((2, grid.n), dtype=complex)
    psi[0] = harmonic_eigenstates(model.ground, 0, grid.points)[0]
    return psi


def propagate(model, initial, dt, t_final, delta_width=4.0, grid=None):
    """Yield the position-space state at t = 0, dt, 2dt, ... through
    t_final, each a new array."""
    prop = SplitStepPropagator(model, grid=grid, dt=dt, delta_width=delta_width)
    for hat in prop.evolve(initial, int(math.ceil(t_final / dt - 1e-9))):
        yield scipy.fft.ifft(hat)


def half_fourier(states, omegas, gamma, dt):
    """Trapezoid half-Fourier transform, integral_0^T psi(t) exp(i (omega +
    i gamma) t) dt, of a series of equally shaped arrays at t = 0, dt, ...,
    as an (n_omega, *shape) array; omega is the full resolvent argument.
    Warns when the damping envelope has not decayed below e^-DECAY_TARGET
    at the final time."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    first = last = accum = None
    for k, psi in enumerate(states):
        last = np.multiply.outer(np.exp(1j * (omegas + 1j * gamma) * (k * dt)), psi)
        if accum is None:
            first, accum = last, last.copy()
        else:
            accum += last
    if accum is None:
        raise ValueError("empty state series")
    accum -= 0.5 * (first + last)
    tail = math.exp(-gamma * (k * dt))
    if tail > math.exp(-DECAY_TARGET):
        warnings.warn(
            f"half-Fourier truncated while the damping envelope is still "
            f"{tail:.2e}; extend the propagation (target e^-{DECAY_TARGET:g})",
            TailTruncationWarning,
        )
    return accum * dt


@dataclass
class IdentityReport:
    """Per-omega comparison of the wavepacket route against the resolvent,
    and the packet's norm budget, with the damping e^-Gamma T at the end."""

    omega: list = field(default_factory=list)
    deviation_g11_elastic: list = field(default_factory=list)
    deviation_g11_raman: list = field(default_factory=list)
    deviation_g21: list = field(default_factory=list)
    absorbed_norm: float = 0.0
    max_step_growth: float = -math.inf
    final_envelope: float = 1.0

    @property
    def max_deviation(self):
        parts = self.deviation_g11_elastic + self.deviation_g11_raman + self.deviation_g21
        return max(parts) if parts else math.nan


def packet_observables(prop, omegas, n_steps):
    """The (n_omega, 5) half-Fourier transforms at the resolvent arguments
    omegas of <chi_0|psi1>, <chi_1|psi1> (plain sums times dx) and psi2 at
    X_SAMPLES (np.interp's weights) over n_steps of prop.  Each reads a
    weight row a as sum_x a(x) psi(x) = sum_m ifft(a)_m psi_hat_m."""
    x, dx = prop.grid.points, prop.grid.dx
    chi = harmonic_eigenstates(prop.model.ground, 1, x)
    taps = np.maximum(0.0, 1.0 - np.abs(np.subtract.outer(X_SAMPLES, x)) / dx)
    rows1, rows2 = scipy.fft.ifft(chi * dx), scipy.fft.ifft(taps)
    states = prop.evolve(initial_state(prop.model, prop.grid), n_steps)
    series = (np.concatenate((rows1 @ hat[0], rows2 @ hat[1])) for hat in states)
    return half_fourier(series, omegas, prop.model.damping, prop.dt)


def verify_resolvent_identity(model, omega_samples, dt=DEFAULT_DT, delta_width=4.0,
                              wp_grid=None):
    """Check that the half-Fourier transform of the propagated packet equals
    i G(z) applied to the initial state: <chi_f|psi1_bar> against
    i <chi_f|G11|chi_i> for n_f = 0 and 1, and psi2_bar against
    i (G21 chi_i)(x) at X_SAMPLES, scaled by the largest sampled magnitude.
    The packet runs on wp_grid until the damping envelope reaches
    e^-DECAY_TARGET; the resolvents are built on DEFAULT_GRID."""
    omegas = np.atleast_1d(np.asarray(omega_samples, dtype=float))
    prop = SplitStepPropagator(model, grid=wp_grid, dt=dt, delta_width=delta_width)
    n_steps = int(math.ceil(DECAY_TARGET / model.damping / prop.dt - 1e-9))
    transformed = packet_observables(prop, model.resolvent_argument(omegas).real, n_steps)

    chi_res = harmonic_eigenstates(model.ground, 1, DEFAULT_GRID.points)
    report = IdentityReport(absorbed_norm=prop.absorbed_norm,
                            max_step_growth=prop.max_step_growth,
                            final_envelope=math.exp(-model.damping * n_steps * prop.dt))
    pairs = scan_resolvents(model, omegas, DEFAULT_GRID)
    for omega, bar, (ev1, ev2) in zip(omegas, transformed, pairs):
        blocks = CoupledBlocks(ev1, ev2, model.coupling.strength, model.coupling.location)
        for n_f, sink in ((0, report.deviation_g11_elastic), (1, report.deviation_g11_raman)):
            res_side = 1j * blocks.g11(chi_res[n_f], chi_res[0]).value
            sink.append(abs(bar[n_f] - res_side) / abs(res_side))
        res_at = np.array([1j * blocks.g21(x, chi_res[0]) for x in X_SAMPLES])
        scale = float(np.max(np.abs(res_at))) or 1.0
        report.deviation_g21.append(float(np.max(np.abs(bar[2:] - res_at)) / scale))
        report.omega.append(float(omega))
    return report
