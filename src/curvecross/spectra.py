"""Photon-energy scans: absorption spectra and Raman excitation profiles.

For each photon energy the resolvent argument is z = omega + omega_0/2
+ i Gamma measured from the ground-state minimum, with each excited curve
carrying its electronic origin, so the inter-excited offset enters the
forbidden surface automatically.  Absorption takes the 1,1 block only:
the forbidden surface carries no transition dipole, so the initial and
final vibronic states have zero second component.  One scan yields both
the coupled amplitude and its uncoupled part, the allowed-surface term of
the partitioning formula, from the same sweeps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .coupled import CoupledBlocks
from .errors import GridMismatchError
from .model import DEFAULT_GRID, harmonic_eigenstates
from .resolvent import build_resolvent_batch

SCAN_CHUNK = 64


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


def scan_resolvents(model, omega_grid, grid, forbidden=True):
    """Yield (ev1, ev2), the allowed- and forbidden-surface evaluators at
    each photon energy, sweeping each surface once per chunk of SCAN_CHUNK
    energies; ev2 is None when forbidden is false."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    for start in range(0, omega_grid.size, SCAN_CHUNK):
        zs = model.resolvent_argument(omega_grid[start : start + SCAN_CHUNK])
        evs1 = build_resolvent_batch(model.allowed, zs, grid)
        if forbidden:
            yield from zip(evs1, build_resolvent_batch(model.forbidden, zs, grid))
        else:
            yield from ((ev1, None) for ev1 in evs1)


def scan(model, omega_grid, n_f=0, coupled=True, grid=None):
    """<chi_f|G11(z)|chi_0> over the photon-energy grid, with the crossing
    and without it, from one pass of sweeps.

    Returns (value, direct): the coupled amplitudes and their uncoupled
    part, the allowed-surface matrix element.  The forbidden surface is
    swept only when coupled and K0 != 0; otherwise value is direct.
    """
    if n_f < 0:
        raise ValueError("the final vibrational state must satisfy n_f >= 0")
    if grid is None:
        grid = DEFAULT_GRID
    states = harmonic_eigenstates(model.ground, n_f, grid.points)
    chi_i = states[0]
    chi_f = states[n_f]
    k0 = model.coupling.strength if coupled else 0.0
    x_c = model.coupling.location
    value = np.empty(np.size(omega_grid), dtype=complex)
    direct = np.empty_like(value)
    pairs = scan_resolvents(model, omega_grid, grid, forbidden=k0 != 0.0)
    for k, (ev1, ev2) in enumerate(pairs):
        if ev2 is None:
            value[k] = direct[k] = ev1.matrix_element(chi_f, chi_i)
        else:
            amplitude = CoupledBlocks(ev1, ev2, k0, x_c).g11(chi_f, chi_i)
            value[k] = amplitude.value
            direct[k] = amplitude.direct
    return value, direct


def _spectra(model, omega_grid, n_f, couplings, grid):
    """One scan, viewed as the spectrum of each flag in couplings: the
    absorption spectrum for n_f = 0, else the Raman profile into n_f."""
    if grid is None:
        grid = DEFAULT_GRID
    value, direct = scan(model, omega_grid, n_f, any(couplings), grid)
    omega = np.asarray(omega_grid, dtype=float)
    spectra = []
    for coupled in couplings:
        amplitudes = value if coupled else direct
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


def _check_raman_final_state(n_f):
    if n_f < 1:
        raise ValueError("the Raman final state must satisfy n_f >= 1")


def absorption_spectrum(model, omega_grid, coupled=True, grid=None):
    """Electronic absorption intensity Re[i <chi_i|G11(z)|chi_i>] over the
    scan; proportionality constant fixed to 1."""
    return _spectra(model, omega_grid, 0, (coupled,), grid)[0]


def raman_profile(model, n_f, omega_grid, coupled=True, grid=None):
    """Raman excitation profile |i <chi_f|G11(z)|chi_i>|^2 into the ground
    curve's final state n_f (n_f >= 1)."""
    _check_raman_final_state(n_f)
    return _spectra(model, omega_grid, n_f, (coupled,), grid)[0]


def absorption_spectra(model, omega_grid, grid=None):
    """(coupled, uncoupled) absorption spectra from one scan."""
    return _spectra(model, omega_grid, 0, (True, False), grid)


def raman_profiles(model, n_f, omega_grid, grid=None):
    """(coupled, uncoupled) Raman excitation profiles from one scan."""
    _check_raman_final_state(n_f)
    return _spectra(model, omega_grid, n_f, (True, False), grid)


def deviation_metric(coupled_spectrum, uncoupled_spectrum):
    """Integrated relative deviation D = int |I_c - I_u| / int I_u by the
    trapezoid rule; both spectra must share one omega grid."""
    a, b = coupled_spectrum, uncoupled_spectrum
    if a.omega.shape != b.omega.shape or not np.array_equal(a.omega, b.omega):
        raise GridMismatchError("spectra are sampled on different omega grids")
    num = np.trapezoid(np.abs(a.intensity - b.intensity), a.omega)
    den = np.trapezoid(b.intensity, b.omega)
    return float(num / den)


def default_scan(step=10.0):
    """The standard 9500..13500 cm^-1 window."""
    return np.arange(9500.0, 13500.0 + 0.5 * step, step)
