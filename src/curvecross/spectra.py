"""Photon-energy scans: absorption spectra and Raman excitation profiles.

For each photon energy the resolvent argument is z = omega + omega_0/2
+ i Gamma measured from the ground-state minimum, with each excited curve
carrying its electronic origin, so the inter-excited offset enters the
forbidden surface automatically.  Absorption takes the 1,1 block only:
the forbidden surface carries no transition dipole, so the initial and
final vibronic states have zero second component.  One scan yields both
the coupled amplitude and its uncoupled part, the allowed-surface term of
the partitioning formula, from the same sweeps; `absorption_spectra` and
`raman_profiles` return that (coupled, uncoupled) pair.  There is no
separate uncoupled calculation: a K0 = 0 model gives two equal spectra.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .coupled import CoupledBlocks
from .errors import GridError, GridMismatchError
from .model import DEFAULT_GRID, harmonic_eigenstates
from .resolvent import build_resolvent_batch

SCAN_CHUNK = 64
# Largest |chi| at a grid edge, relative to max |chi|, that a scan accepts
# for the initial and final vibrational states.  On the default grid the
# worst state, n = 200, reaches 1.3e-70.
MAX_EDGE_AMPLITUDE = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Sampled spectrum: photon energies in cm^-1, intensity arbitrary units."""

    omega: np.ndarray
    intensity: np.ndarray
    kind: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        intensity = np.asarray(self.intensity, dtype=float)
        if omega.shape != intensity.shape or omega.ndim != 1:
            raise ValueError("omega and intensity must be matching 1-d arrays")
        if not np.all(np.diff(omega) > 0):
            raise ValueError("photon energies must be strictly increasing")
        if not np.all(np.isfinite(intensity)):
            raise ValueError("intensities must be finite")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "intensity", intensity)


def model_fingerprint(model, grid):
    """Short stable digest of the physical and numerical parameters."""
    text = repr((model, grid.x_min, grid.x_max, grid.n))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scan_resolvents(model, omega_grid, grid):
    """Yield (ev1, ev2), the allowed- and forbidden-surface evaluators at
    each photon energy, sweeping each surface once per chunk of SCAN_CHUNK
    energies."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    for start in range(0, omega_grid.size, SCAN_CHUNK):
        zs = model.resolvent_argument(omega_grid[start : start + SCAN_CHUNK])
        evs1 = build_resolvent_batch(model.allowed, zs, grid)
        yield from zip(evs1, build_resolvent_batch(model.forbidden, zs, grid))


def scan(model, omega_grid, n_f=0, grid=None):
    """<chi_f|G11(z)|chi_0> over the photon-energy grid, with the crossing
    and without it, from one pass of sweeps.

    Returns (value, direct): the coupled amplitudes and their uncoupled
    part, the allowed-surface matrix element.  For a K0 = 0 model the two
    are equal bit for bit.
    """
    if n_f < 0:
        raise ValueError("the final vibrational state must satisfy n_f >= 0")
    if grid is None:
        grid = DEFAULT_GRID
    states = harmonic_eigenstates(model.ground, n_f, grid.points)
    chi_i = states[0]
    chi_f = states[n_f]
    for n in (0, n_f):
        chi = np.abs(states[n])
        edge = max(chi[0], chi[-1]) / np.max(chi)
        if not edge <= MAX_EDGE_AMPLITUDE:
            raise GridError(
                f"vibrational state n = {n} reaches the grid edges (|chi| there is "
                f"{edge:.1e} of its maximum, above {MAX_EDGE_AMPLITUDE:.0e}); widen the grid"
            )
    k0 = model.coupling.strength
    x_c = model.coupling.location
    value = np.empty(np.size(omega_grid), dtype=complex)
    direct = np.empty_like(value)
    for k, (ev1, ev2) in enumerate(scan_resolvents(model, omega_grid, grid)):
        amplitude = CoupledBlocks(ev1, ev2, k0, x_c).g11(chi_f, chi_i)
        value[k] = amplitude.value
        direct[k] = amplitude.direct
    return value, direct


def _spectra(model, omega_grid, n_f, grid):
    """(coupled, uncoupled) spectra of one scan: the absorption spectrum
    for n_f = 0, else the Raman profile into n_f."""
    if grid is None:
        grid = DEFAULT_GRID
    omega = np.asarray(omega_grid, dtype=float)
    spectra = []
    for coupled, amplitudes in zip((True, False), scan(model, omega, n_f, grid)):
        metadata = {
            "fingerprint": model_fingerprint(model, grid),
            "grid": (grid.x_min, grid.x_max, grid.n),
            "coupled": coupled,
        }
        if n_f == 0:
            kind, intensity = "absorption", np.real(1j * amplitudes)
        else:
            kind, intensity = "raman", np.abs(1j * amplitudes) ** 2
            metadata["n_f"] = n_f
        spectra.append(Spectrum(omega, intensity, kind, metadata))
    return tuple(spectra)


def absorption_spectra(model, omega_grid, grid=None):
    """(coupled, uncoupled) absorption intensities Re[i <chi_i|G11(z)|chi_i>]
    from one scan; proportionality constant fixed to 1."""
    return _spectra(model, omega_grid, 0, grid)


def raman_profiles(model, n_f, omega_grid, grid=None):
    """(coupled, uncoupled) Raman excitation profiles |i <chi_f|G11(z)|chi_i>|^2
    into the ground curve's final state n_f (n_f >= 1), from one scan."""
    if n_f < 1:
        raise ValueError("the Raman final state must satisfy n_f >= 1")
    return _spectra(model, omega_grid, n_f, grid)


def deviation_metric(coupled_spectrum, uncoupled_spectrum):
    """Integrated relative deviation D = int |I_c - I_u| / int I_u by the
    trapezoid rule; both spectra must share one omega grid."""
    a, b = coupled_spectrum, uncoupled_spectrum
    if a.omega.shape != b.omega.shape or not np.array_equal(a.omega, b.omega):
        raise GridMismatchError("spectra are sampled on different omega grids")
    num = np.trapezoid(np.abs(a.intensity - b.intensity), a.omega)
    den = np.trapezoid(b.intensity, b.omega)
    return float(num / den)


def photon_energies(omega_min, omega_max, step):
    """The energies omega_min + step k, k = 0, 1, ..., that do not exceed
    omega_max.  One candidate past the rounded count is tried, so a window
    ending on its last step keeps that endpoint."""
    omega = omega_min + step * np.arange(math.floor((omega_max - omega_min) / step) + 2)
    return omega[omega <= omega_max]


def default_scan(step=10.0):
    """The standard 9500..13500 cm^-1 window."""
    return photon_energies(9500.0, 13500.0, step)
