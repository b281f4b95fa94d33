"""Diabatic potential curves, vibrational states and the two-state model.

Everything here works in internal units with hbar = 1: energies are
numerically wavenumbers in cm^-1, lengths are in angstrom and masses are
O(1) (RunConfig.to_model applies the amu and erg*angstrom factors of
units.py).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import MultipleCrossingsWarning, NoCrossingError, UnsupportedCurveError

MAX_EIGENSTATE = 200


@dataclass(frozen=True)
class HarmonicCurve:
    """V(x) = origin_energy + (m w^2 / 2) (x - minimum_position)^2."""

    mass: float
    frequency: float
    minimum_position: float = 0.0
    origin_energy: float = 0.0

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.frequency <= 0.0:
            raise ValueError("frequency must be positive")

    def evaluate(self, x):
        dx = np.asarray(x) - self.minimum_position
        return self.origin_energy + 0.5 * self.mass * self.frequency**2 * dx**2

    def gradient(self, x):
        dx = np.asarray(x) - self.minimum_position
        return self.mass * self.frequency**2 * dx

    def eigenvalue(self, n):
        return self.origin_energy + (n + 0.5) * self.frequency


@dataclass(frozen=True)
class MorseCurve:
    """V(x) = origin_energy + well_depth (1 - exp(alpha (x - minimum_position)))^2.

    The exponent grows for x > minimum_position, so the wall is on the
    right and the curve dissociates toward x -> -infinity, flattening out
    at origin_energy + well_depth.
    """

    mass: float
    well_depth: float
    alpha: float
    minimum_position: float = 0.0
    origin_energy: float = 0.0

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.well_depth <= 0.0:
            raise ValueError("well_depth must be positive")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")

    def evaluate(self, x):
        e = np.exp(self.alpha * (np.asarray(x) - self.minimum_position))
        return self.origin_energy + self.well_depth * (1.0 - e) ** 2

    def gradient(self, x):
        e = np.exp(self.alpha * (np.asarray(x) - self.minimum_position))
        return -2.0 * self.well_depth * self.alpha * e * (1.0 - e)

    @property
    def harmonic_frequency(self):
        """Frequency of small oscillations at the well bottom."""
        return self.alpha * math.sqrt(2.0 * self.well_depth / self.mass)

    def bound_energies(self):
        """All bound-level energies, lowest first.

        E_n = origin + w_m (n + 1/2) - (alpha^2 / 2m)(n + 1/2)^2 for every n
        with dE/dn > 0; the last such level sits below the dissociation
        limit automatically.
        """
        w = self.harmonic_frequency
        anharm = self.alpha**2 / (2.0 * self.mass)
        lam = math.sqrt(2.0 * self.mass * self.well_depth) / self.alpha
        n_count = int(math.floor(lam - 0.5)) + 1
        n = np.arange(n_count)
        energies = self.origin_energy + w * (n + 0.5) - anharm * (n + 0.5) ** 2
        return energies


PotentialCurve = Union[HarmonicCurve, MorseCurve]


@dataclass(frozen=True)
class DeltaCoupling:
    """Localized inter-state coupling of strength K0 at position location."""

    strength: float
    location: float

    def __post_init__(self):
        if self.strength < 0.0:
            raise ValueError("coupling strength must be non-negative")


@dataclass(frozen=True)
class TwoStateModel:
    """Ground curve plus two coupled excited curves with lifetime damping.

    The dipole-allowed excited curve carries all the transition moment;
    the forbidden one is reached only through the delta coupling.  The
    damping keeps every resolvent finite on the real energy axis.
    """

    ground: HarmonicCurve
    allowed: HarmonicCurve
    forbidden: PotentialCurve
    coupling: DeltaCoupling
    damping: float

    def __post_init__(self):
        if self.damping <= 0.0:
            raise ValueError("damping must be positive")

    def resolvent_argument(self, photon_energy):
        """Complex energy z for a photon energy, measured from the ground
        minimum: half the ground vibrational quantum plus the photon, with
        the damping as the imaginary part."""
        return photon_energy + 0.5 * self.ground.frequency + 1j * self.damping


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid used for resolvents and quadratures."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n < 16:
            raise ValueError("grid needs at least 16 points")

    @cached_property
    def points(self):
        return np.linspace(self.x_min, self.x_max, self.n)

    @cached_property
    def midpoints(self):
        x = self.points
        return 0.5 * (x[:-1] + x[1:])

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.n - 1)

    def index_below(self, x):
        """Index j with points[j] <= x < points[j+1]."""
        j = int(np.floor((x - self.x_min) / self.dx))
        return min(max(j, 0), self.n - 2)


DEFAULT_GRID = Grid(-1.5, 1.5, 4096)


def harmonic_eigenstates(curve, n_max, x):
    """Normalized eigenfunctions 0..n_max of a harmonic curve, row per state.

    Uses the recurrence on normalized functions,
    phi_{n+1} = u sqrt(2/(n+1)) phi_n - sqrt(n/(n+1)) phi_{n-1},
    which is stable where raw Hermite polynomials overflow.
    """
    if not isinstance(curve, HarmonicCurve):
        raise UnsupportedCurveError("eigenstates are available for harmonic curves only")
    if n_max < 0 or n_max > MAX_EIGENSTATE:
        raise ValueError(f"quantum number must be in 0..{MAX_EIGENSTATE}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = curve.mass * curve.frequency
    u = np.sqrt(s) * (x - curve.minimum_position)
    table = np.empty((n_max + 1, x.size))
    table[0] = (s / math.pi) ** 0.25 * np.exp(-0.5 * u**2)
    if n_max >= 1:
        table[1] = math.sqrt(2.0) * u * table[0]
    for n in range(1, n_max):
        table[n + 1] = (
            u * math.sqrt(2.0 / (n + 1)) * table[n]
            - math.sqrt(n / (n + 1.0)) * table[n - 1]
        )
    return table


def franck_condon_matrix(curve_a, curve_b, n_max_a, n_max_b):
    """Overlap table <n_a|m_b> for equal-frequency displaced harmonic curves.

    Built from the two-term recurrence seeded by <0|0> = exp(-S/2); the
    displacement enters through beta = sqrt(m w / 2) d with
    d = minimum(b) - minimum(a), so S = beta^2 is the Huang-Rhys factor.
    """
    for c in (curve_a, curve_b):
        if not isinstance(c, HarmonicCurve):
            raise UnsupportedCurveError("Franck-Condon overlaps need harmonic curves")
    if not math.isclose(curve_a.frequency, curve_b.frequency, rel_tol=1e-12):
        raise UnsupportedCurveError("unequal frequencies are not supported")
    if not math.isclose(curve_a.mass, curve_b.mass, rel_tol=1e-12):
        raise UnsupportedCurveError("unequal masses are not supported")
    d = curve_b.minimum_position - curve_a.minimum_position
    beta = math.sqrt(0.5 * curve_a.mass * curve_a.frequency) * d
    t = np.zeros((n_max_a + 1, n_max_b + 1))
    t[0, 0] = math.exp(-0.5 * beta**2)
    for k in range(1, n_max_b + 1):
        t[0, k] = -beta / math.sqrt(k) * t[0, k - 1]
    for j in range(1, n_max_a + 1):
        for k in range(n_max_b + 1):
            prev = math.sqrt(k) * t[j - 1, k - 1] if k >= 1 else 0.0
            t[j, k] = (prev + beta * t[j - 1, k]) / math.sqrt(j)
    return t


def huang_rhys_factor(curve_a, curve_b):
    """S = m w d^2 / 2 for the displacement between two equal-frequency curves."""
    d = curve_b.minimum_position - curve_a.minimum_position
    return 0.5 * curve_a.mass * curve_a.frequency * d**2


def find_crossing(curve_1, curve_2, bracket, scan_points=2001):
    """Position where the two potentials are equal inside the bracket.

    The bracket is scanned for sign changes of V1 - V2; each change is
    polished by Brent's method (scipy.optimize.brentq, imported here so
    that importing the model does not load scipy.optimize) to within
    1e-12 + 8.9e-16 |x| of the root (xtol=1e-12, rtol=8.9e-16).  With
    several roots the one nearest the bracket midpoint is returned and a
    warning is issued.
    """
    from scipy.optimize import brentq

    x_lo, x_hi = bracket
    if not x_hi > x_lo:
        raise ValueError("bracket must satisfy x_lo < x_hi")

    def diff(x):
        return curve_1.evaluate(x) - curve_2.evaluate(x)

    xs = np.linspace(x_lo, x_hi, scan_points)
    ds = diff(xs)
    sign = np.sign(ds)
    roots = []
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        roots.append(brentq(diff, xs[i], xs[i + 1], xtol=1e-12, rtol=8.9e-16))
    roots.extend(xs[np.nonzero(ds == 0.0)[0]])
    if not roots:
        raise NoCrossingError("potentials do not cross inside the bracket")
    if len(roots) > 1:
        warnings.warn(
            f"{len(roots)} crossings inside the bracket; returning the one "
            "nearest the midpoint",
            MultipleCrossingsWarning,
        )
    mid = 0.5 * (x_lo + x_hi)
    return min(roots, key=lambda r: abs(r - mid))
