"""Self-contained invariant suite behind the `validate` subcommand.

Each check returns a CheckResult with the measured number that decided it,
so a failing run says what broke and by how much.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .coupled import CoupledBlocks
from .model import Grid, harmonic_eigenstates
from .resolvent import (
    WRONSKIAN_DRIFT_LIMIT,
    HarmonicSpectralSum,
    build_resolvent,
    build_resolvent_batch,
)
from .spectra import absorption_spectra, deviation_metric, raman_profiles
from .units import from_internal, to_internal
from .wavepacket import DEFAULT_DT, verify_resolvent_identity

# The grid of the weak-form and spectral-sum checks, eight times finer than
# the default one over the same span.
FINE_GRID = Grid(-1.5, 1.5, 32768)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark}  {self.name}: {self.detail}"


def _gaussian_bump(x, center, width, power):
    """Compact smooth test function with analytic second derivative."""
    s = x - center
    a = 1.0 / (2.0 * width**2)
    e = np.exp(-a * s**2)
    phi = s**power * e
    if power >= 2:
        lead = power * (power - 1) * s ** (power - 2)
    else:
        lead = np.zeros_like(s)
    second = (lead - 2.0 * a * (2 * power + 1) * s**power + 4.0 * a**2 * s ** (power + 2)) * e
    return phi, second


def check_units_roundtrip():
    pairs = [
        (400.0, "cm-1"),
        (10700.0 * 1.98644586e-16, "erg"),
        (35.4, "amu"),
        (5.8783e-23, "gram"),
        (0.1, "angstrom"),
        (1.0e-9, "cm"),
        (5.54275e-15, "erg*angstrom"),
    ]
    worst = 0.0
    for value, unit in pairs:
        back = from_internal(to_internal(value, unit), unit)
        worst = max(worst, abs(back - value) / abs(value))
    return CheckResult("units round-trip", worst < 1e-12, f"worst relative {worst:.2e}")


def check_orthonormality(model, grid):
    n_top = 20
    table = harmonic_eigenstates(model.ground, n_top, grid.points)
    gram = simpson(table[:, None, :] * table[None, :, :], dx=grid.dx, axis=2)
    dev = float(np.max(np.abs(gram - np.eye(n_top + 1))))
    return CheckResult(
        "eigenstate orthonormality", dev < 1e-8, f"max |<n|m> - delta| = {dev:.2e}"
    )


def check_wronskian(model, grid):
    worst = 0.0
    zs = model.resolvent_argument(np.array([10000.0, 11500.0, 13000.0]))
    for curve in (model.allowed, model.forbidden):
        for ev in build_resolvent_batch(curve, zs, grid):
            worst = max(worst, ev.wronskian_drift)
    return CheckResult(
        "Wronskian constancy",
        worst < WRONSKIAN_DRIFT_LIMIT,
        f"max relative drift {worst:.2e}",
    )


def check_weak_form(model, omegas=(10400.0, 12100.0, 13300.0), n_funcs=8):
    """(z - H) G = delta, tested weakly on FINE_GRID: project G onto
    (z - H) phi for compact phi with analytic derivatives and compare to
    phi(x0)."""
    grid = FINE_GRID
    x = grid.points
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for curve in (model.allowed, model.forbidden):
        v = curve.evaluate(x)
        m = curve.mass
        zs = model.resolvent_argument(np.asarray(omegas))
        for ev in build_resolvent_batch(curve, zs, grid):
            for _ in range(n_funcs):
                center = rng.uniform(-0.15, 0.25)
                width = rng.uniform(0.05, 0.12)
                power = int(rng.integers(0, 3))
                x0 = center + width * rng.uniform(0.2, 1.5)
                phi, second = _gaussian_bump(x, center, width, power)
                phi0 = _gaussian_bump(np.array([x0]), center, width, power)[0][0]
                q = second / (2.0 * m) + (ev.z - v) * phi
                residual = abs(ev.vector(q, x0) - phi0) / abs(phi0)
                worst = max(worst, residual)
    return CheckResult(
        "weak-form residual", worst < 1e-6, f"max relative residual {worst:.2e}"
    )


def check_spectral_sum(model):
    """ODE resolvent against the 200-term eigenfunction expansion on the
    allowed curve at 11200 cm^-1 on FINE_GRID: projected elements to 1e-6,
    pointwise within the expansion's own tail estimate."""
    grid = FINE_GRID
    z = model.resolvent_argument(11200.0)
    ev = build_resolvent(model.allowed, z, grid)
    oracle = HarmonicSpectralSum(model.allowed, z, 200, grid)
    chi = harmonic_eigenstates(model.ground, 1, grid.points)
    worst_elem = 0.0
    for f, g in ((chi[0], chi[0]), (chi[0], chi[1]), (chi[1], chi[1])):
        a = ev.matrix_element(f, g)
        b = oracle.matrix_element(f, g)
        worst_elem = max(worst_elem, abs(a - b) / abs(b))
    for x0 in (-0.12, 0.04, 0.22):
        a = ev.vector(chi[0], x0)
        b = oracle.vector(chi[0], x0)
        worst_elem = max(worst_elem, abs(a - b) / abs(b))
    rng = np.random.default_rng(7)
    point_ok = True
    for _ in range(5):
        xa, xb = rng.uniform(-0.6, 0.6, 2)
        a = ev.point(xa, xb)
        b = oracle.point(xa, xb)
        bound = max(2.0 * oracle.point_tail_estimate(xa, xb), 1e-6 * abs(a))
        point_ok = point_ok and abs(a - b) <= bound
    passed = worst_elem < 1e-6 and point_ok
    return CheckResult(
        "spectral-sum equivalence",
        passed,
        f"projected elements {worst_elem:.2e} (tol 1e-6); pointwise within "
        f"tail estimate: {point_ok}",
    )


def check_k0_scaling(model, grid):
    """Leading K0 powers of the partitioning formula: the G11 correction is
    quadratic and G12 linear; fitted at 5000 cm^-1, below the band, where
    the shared denominator is close to one."""
    z = model.resolvent_argument(5000.0)
    ev1 = build_resolvent(model.allowed, z, grid)
    ev2 = build_resolvent(model.forbidden, z, grid)
    chi0 = harmonic_eigenstates(model.ground, 0, grid.points)[0]
    k_full = model.coupling.strength
    x_c = model.coupling.location
    ks = k_full * np.array([1 / 8, 1 / 6, 1 / 4, 1 / 3, 1 / 2])
    c11, c12 = [], []
    for k in ks:
        blocks = CoupledBlocks(ev1, ev2, k, x_c)
        c11.append(abs(blocks.g11(chi0, chi0).crossing_correction))
        c12.append(abs(blocks.g12(chi0, chi0)))
    p11 = float(np.polyfit(np.log(ks), np.log(c11), 1)[0])
    p12 = float(np.polyfit(np.log(ks), np.log(c12), 1)[0])
    blocks0 = CoupledBlocks(ev1, ev2, 0.0, x_c)
    zero = blocks0.g11(chi0, chi0)
    direct = ev1.matrix_element(chi0, chi0)
    exact_zero = zero.value == direct and zero.crossing_correction == 0.0
    passed = abs(p11 - 2.0) < 0.02 and abs(p12 - 1.0) < 0.02 and exact_zero
    return CheckResult(
        "K0-scaling exponents",
        passed,
        f"G11 correction {p11:.3f} (want 2.00+-0.02), G12 {p12:.3f} "
        f"(want 1.00+-0.02), K0=0 reduction exact: {exact_zero}",
    )


def check_wavepacket(model):
    rep = verify_resolvent_identity(
        model,
        (10800.0, 11400.0, 12000.0),
        dt=0.25 * DEFAULT_DT,
        delta_width=2.0,
        wp_grid=Grid(-3.0, 1.5, 16384),
    )
    dev = max(max(rep.deviation_g11_elastic), max(rep.deviation_g11_raman))
    return CheckResult(
        "wavepacket cross-check",
        dev < 0.02,
        f"max G11 deviation {dev:.4f} (tol 0.02), absorbed norm {rep.absorbed_norm:.2e}",
    )


def check_raman_more_affected(model, grid, omega_grid):
    d_a = deviation_metric(*absorption_spectra(model, omega_grid, grid))
    d_r = deviation_metric(*raman_profiles(model, 1, omega_grid, grid))
    passed = d_r > d_a > 0.0
    return CheckResult(
        "Raman more affected than absorption",
        passed,
        f"D_R = {d_r:.4f} > D_A = {d_a:.4f} > 0",
    )


def run_suite(config, quick=False):
    """Run the invariant suite; returns the list of CheckResult.  quick
    runs the weak-form check on fewer energies and test functions and
    leaves out the wavepacket and Raman checks."""
    model = config.to_model()
    grid = config.to_grid()
    weak_form = {"omegas": (11200.0,), "n_funcs": 4} if quick else {}
    results = [
        check_units_roundtrip(),
        check_orthonormality(model, grid),
        check_wronskian(model, grid),
        check_weak_form(model, **weak_form),
        check_spectral_sum(model),
        check_k0_scaling(model, grid),
    ]
    if not quick:
        results.append(check_wavepacket(model))
        results.append(check_raman_more_affected(model, grid, config.omega_grid()))
    return results
