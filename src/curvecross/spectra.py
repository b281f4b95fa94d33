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
The support hull is the nodes where the states live and x_c's cell
(metadata["support"]); the allowed curve's window widens it until the WKB
seeds are forgotten (resolvent._window, metadata["window"]), planned at
the scan's top energy, so every row depends on that energy through its
window.  Per chunk of energies the allowed surface is swept from the
window's edges to the hull's far ends only, and its rows hold the hull's
nodes, where the quadratures run once per chunk, each on its states' own
support.  The forbidden surface
gives only G2(x_c, x_c): one resolvent_rows call for all the energies on
x_c's cell, each swept to that cell on the curve's own window (_diagonal,
metadata["forbidden_window"]).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .coupled import g11_rows
from .errors import GridError, GridMismatchError
from .model import DEFAULT_GRID, Grid, harmonic_eigenstates
from .resolvent import SUPPORT_FLOOR, _window, resolvent_rows

# Energies per allowed-surface chunk of a scan: the hull's rows and the
# quadratures' temporaries grow with the energies of a call.  Unchunked,
# the default 401-energy scan peaked at 124 MB RSS, against 69 MB chunked.
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
        if not np.all(np.isfinite(omega)):
            raise ValueError("photon energies must be finite")
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


def _arguments(model, omega_grid):
    """(omega_grid as floats, its resolvent arguments z); ValueError unless
    the photon energies are a 1-d array of finite numbers."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1:
        raise ValueError(f"photon energies must be a 1-d array, not shape {omega_grid.shape}")
    if not np.all(np.isfinite(omega_grid)):
        raise ValueError("photon energies must be finite")
    return omega_grid, model.resolvent_argument(omega_grid)


def _diagonal(curve, zs, x, grid):
    """(G(x, x) of curve at the energies zs, its window): the rows hold
    _window's node range from x's cell only, each sweep stopping there."""
    j = grid.index_below(x)
    window, _, nodes = _window(curve, zs, j, j + 1, grid, x)
    return resolvent_rows(curve, zs, window, nodes).point(x, x), window


def coupling_diagonals(model, omega_grid, grid=None):
    """(G1(x_c, x_c), G2(x_c, x_c)) over the photon-energy grid, each surface
    swept only toward x_c on its own window (_diagonal)."""
    grid = DEFAULT_GRID if grid is None else grid
    _, zs = _arguments(model, omega_grid)
    x_c = model.coupling.location
    return np.array([_diagonal(curve, zs, x_c, grid)[0]
                     for curve in (model.allowed, model.forbidden)])


def scan(model, omega_grid, n_f=0, grid=None):
    """<chi_f|G11(z)|chi_0> over the photon-energy grid, with the crossing
    and without it: per chunk of SCAN_CHUNK energies, the allowed surface
    swept on its window up to the support hull's far ends, the window
    planned by resolvent._window at the scan's top energy, and the
    forbidden one only toward x_c.  ValueError unless omega_grid is 1-d.

    Returns (value, direct, window, forbidden, support): the coupled
    amplitudes, their uncoupled part (the allowed-surface matrix element),
    the allowed and forbidden surfaces' windows and the quadratures'
    support hull, each a node slice of grid.  For a K0 = 0 model value and
    direct are equal bit for bit.
    """
    if n_f < 0:
        raise ValueError("the final vibrational state must satisfy n_f >= 0")
    grid = DEFAULT_GRID if grid is None else grid
    omega_grid, zs = _arguments(model, omega_grid)
    states = harmonic_eigenstates(model.ground, n_f, grid.points)[[0, n_f]]
    for n, chi in zip((0, n_f), np.abs(states)):
        edge = max(chi[0], chi[-1]) / np.max(chi)
        if not edge <= MAX_EDGE_AMPLITUDE:
            raise GridError(
                f"vibrational state n = {n} reaches the grid edges (|chi| there is "
                f"{edge:.1e} of its maximum, above {MAX_EDGE_AMPLITUDE:.0e}); widen the grid"
            )
    k0, x_c = model.coupling.strength, model.coupling.location
    # the support hull: x_c's cell and max(|chi_i|, |chi_f|) >= SUPPORT_FLOOR max
    chi = np.max(np.abs(states), axis=0)
    need, j = np.flatnonzero(chi >= SUPPORT_FLOOR * np.max(chi)), grid.index_below(x_c)
    window, a, (lo, hi) = _window(model.allowed, zs, min(need[0], j), max(need[-1], j + 1),
                                  grid, x_c)
    g2, forbidden = _diagonal(model.forbidden, zs, x_c, grid)
    chi_i, chi_f = states[:, a + lo : a + hi + 1]
    value, direct = np.empty((2, omega_grid.size), dtype=complex)
    for start in range(0, zs.size, SCAN_CHUNK):
        chunk = np.s_[start : start + SCAN_CHUNK]
        rows = resolvent_rows(model.allowed, zs[chunk], window, (lo, hi))
        amplitude = g11_rows(rows, k0, x_c, rows.point(x_c, x_c), g2[chunk], chi_f, chi_i)
        value[chunk], direct[chunk] = amplitude.value, amplitude.direct
    support = Grid(float(grid.points[a + lo]), float(grid.points[a + hi]), int(hi - lo + 1))
    return value, direct, window, forbidden, support


def _spectra(model, omega_grid, n_f, grid):
    """(coupled, uncoupled) spectra of one scan: the absorption spectrum
    for n_f = 0, else the Raman profile into n_f.  Photon energies that are
    not strictly increasing are rejected before the scan."""
    grid = DEFAULT_GRID if grid is None else grid
    omega = np.asarray(omega_grid, dtype=float)
    if omega.ndim == 1 and np.any(np.diff(omega) <= 0):
        raise ValueError("photon energies must be strictly increasing")
    value, direct, window, forbidden, support = scan(model, omega_grid, n_f, grid)
    nodes = {"grid": grid, "window": window, "forbidden_window": forbidden, "support": support}
    spectra = []
    for coupled, amplitudes in zip((True, False), (value, direct)):
        metadata = {name: (g.x_min, g.x_max, g.n) for name, g in nodes.items()}
        metadata.update(fingerprint=model_fingerprint(model, grid), coupled=coupled)
        if n_f == 0:
            kind, intensity = "absorption", np.real(1j * amplitudes)
        else:
            kind, intensity = "raman", np.abs(1j * amplitudes) ** 2
            metadata["n_f"] = n_f
        spectra.append(Spectrum(omega_grid, intensity, kind, metadata))
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
    ending on its last step keeps that endpoint.  ValueError unless step is
    positive and finite, both bounds are finite and so is the number of
    steps between them."""
    steps = (omega_max - omega_min) / step if step > 0 else math.nan
    if not np.isfinite([omega_min, omega_max, step, steps]).all():
        raise ValueError(f"photon energies need finite bounds a finite number of positive, finite "
                         f"steps apart, not {omega_min}, {omega_max} and {step}")
    omega = omega_min + step * np.arange(math.floor(steps) + 2)
    return omega[omega <= omega_max]
