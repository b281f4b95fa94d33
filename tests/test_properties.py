"""Exact resolvent identities as properties over the model's parameters.

G = (z - H)^-1 with Im z = Gamma > 0 gives -Im <f|G|f> = Gamma |G^+ f|^2,
so absorption is positive and, by Cauchy-Schwarz, a Raman amplitude is
bounded by the absorption of either state it connects.  H is symmetric
and real, so <1|G11|0> = <0|G11|1>.  At K0 = 0 the partitioning formula
reduces to the bare allowed-surface resolvent exactly.  The forbidden
surface carries no dipole, so the absorption A = -Im <chi_0|G11|chi_0>
integrates to pi over all photon energies, coupled or not.  The
quadratures, which sum only on their states' support, equal the same sums
over the whole grid to round-off.  G2(x_c, x_c) agrees with the Morse
curve's closed form in Whittaker functions over its well depths and
dampings.
"""

import math
from dataclasses import replace

import numpy as np
from closed_forms import morse_diagonal
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from curvecross import resolvent
from curvecross.config import RunConfig
from curvecross.coupled import CoupledBlocks
from curvecross.model import harmonic_eigenstates
from curvecross.resolvent import build_resolvent
from curvecross.spectra import absorption_spectra, coupling_diagonals, photon_energies

DEFAULT = RunConfig()


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    k0=st.floats(0.0, 2.0 * DEFAULT.coupling_k0_erg_angstrom),
    gamma=st.floats(150.0, 900.0),
    displacement=st.floats(0.05, 0.15),
    omega=st.floats(9500.0, 13500.0),
    # the derived default, or a shallow well whose dissociation limit
    # 10800 + D lies inside or above the scan; below about 240 cm^-1 the
    # Morse wall at the grid edge sinks under the top of the scan
    depth=st.one_of(st.just(DEFAULT.forbidden_well_depth_cm1), st.floats(300.0, 5000.0)),
)
def test_coupled_amplitudes_obey_resolvent_identities(k0, gamma, displacement, omega, depth):
    config = replace(
        DEFAULT,
        coupling_k0_erg_angstrom=k0,
        damping_cm1=gamma,
        allowed_displacement_angstrom=displacement,
        forbidden_well_depth_cm1=depth,
    ).validate()
    model, grid = config.to_model(), config.to_grid()
    z = model.resolvent_argument(omega)
    ev1 = build_resolvent(model.allowed, z, grid)
    ev2 = build_resolvent(model.forbidden, z, grid)
    x_c = model.coupling.location
    blocks = CoupledBlocks(ev1, ev2, model.coupling.strength, x_c)
    chi0, chi1 = harmonic_eigenstates(model.ground, 1, grid.points)
    a0 = -blocks.g11(chi0, chi0).value.imag
    a1 = -blocks.g11(chi1, chi1).value.imag
    forward = blocks.g11(chi1, chi0).value
    backward = blocks.g11(chi0, chi1).value
    assert a0 > 0.0 and a1 > 0.0
    assert abs(forward) ** 2 * model.damping <= min(a0, a1)
    assert abs(forward - backward) <= 1e-6 * abs(forward)

    bare = CoupledBlocks(ev1, ev2, 0.0, x_c)
    reduced = bare.g11(chi1, chi0)
    assert reduced.value == ev1.matrix_element(chi1, chi0)
    assert reduced.crossing_correction == 0.0
    assert bare.g12(chi1, chi0) == 0.0


def test_absorption_sum_rule_and_positivity():
    # The Lorentzian wings beyond the window are added back analytically,
    # Gamma/pi (1/(w_max - w_mean) + 1/(w_mean - w_min)), about 0.0075.  The
    # test pins the normalization and the far wings, not the crossing
    # correction: scaling that correction by 1.1 moves the coupled residual
    # only from -1.10e-4 to -1.21e-4.  At -20000 cm^-1 the sweeps run
    # through about 2100 octaves.
    model, grid = DEFAULT.to_model(), DEFAULT.to_grid()
    omega = photon_energies(-20000.0, 60000.0, 100.0)
    for spectrum in absorption_spectra(model, omega, grid):
        intensity = spectrum.intensity
        assert np.all(intensity > 0.0)
        area = np.trapezoid(intensity, omega)
        mean = np.trapezoid(omega * intensity, omega) / area
        tails = model.damping / math.pi * (1.0 / (omega[-1] - mean) + 1.0 / (mean - omega[0]))
        assert abs(area / math.pi + tails - 1.0) < 5e-4


def _whole_grid(rows, f, g, x0):
    """<f|G|g>, <f|G|x0> and <f|G|x_j> on every node, from the sums of f
    over the whole rows and the outer Simpson rule over the whole grid."""
    h = rows.grid.dx
    minus = resolvent._sums(f, rows.r_minus, h, f.size - 1)
    plus = resolvent._sums(f[::-1], rows.r_plus[..., ::-1], h, f.size - 1)[..., ::-1]
    on_nodes = 2.0 * rows.curve.mass / (rows.y_plus - rows.y_minus) * (minus + plus)
    j, t = rows._cell(x0)
    vector = rows._vector_at(f, j, t, minus[..., j : j + 2], plus[..., j : j + 2])
    return simpson(g * on_nodes, dx=h, axis=-1), vector, on_nodes


# chi_0..chi_3, and a Gaussian at 0.3 angstrom whose support, 0.04-0.56
# angstrom, misses x_c's cell and reaches past chi_3's
STATES = (0, 1, 2, 3, "gaussian")


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    omega=st.floats(9500.0, 13500.0),
    gamma=st.floats(50.0, 900.0),
    f=st.sampled_from(STATES),
    g=st.sampled_from(STATES),
    x0=st.one_of(st.just(DEFAULT.crossing_position_angstrom), st.floats(-0.45, 0.45)),
)
def test_quadratures_on_the_support_equal_the_whole_grid(omega, gamma, f, g, x0):
    model = replace(DEFAULT, damping_cm1=gamma).validate().to_model()
    grid = DEFAULT.to_grid()
    x = grid.points
    states = {n: chi for n, chi in enumerate(harmonic_eigenstates(model.ground, 3, x))}
    states["gaussian"] = np.exp(-0.5 * ((x - 0.3) / 0.03) ** 2)
    f, g = states[f], states[g]
    rows = build_resolvent(model.allowed, model.resolvent_argument(omega), grid)
    element, vector = rows.element_and_vector(f, g, x0)
    want_element, want_vector, on_nodes = _whole_grid(rows, f, g, x0)
    # relative to the bounds max |G f| and integral |g| max |G f|: taking a
    # state as 0 below 1e-16 of its maximum moves a value by about 1e-16 of
    # them, which can be far more than 1e-13 of a value in a state's tail
    # (<chi_0|G|x0 = 0.375> at 9500 cm^-1 is 2.4e-10 of max |G chi_0|)
    scale = np.max(np.abs(on_nodes))
    assert abs(vector - want_vector) <= 1e-13 * scale
    assert abs(element - want_element) <= 1e-13 * scale * simpson(np.abs(g), dx=grid.dx)
    # each sum starts on f's support whatever g and x0 are
    assert rows.vector(f, x0) == vector


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    depth=st.floats(300.0, 5000.0),
    gamma=st.floats(150.0, 900.0),
    omega=st.floats(9500.0, 13500.0),
)
def test_forbidden_diagonal_matches_the_whittaker_form(depth, gamma, omega):
    # G2(x_c, x_c) from the point path on the default grid against the
    # closed form at 30 digits, below, across and above the dissociation
    # limit 10800 + D cm^-1; the gaps are the grid's, at most about 1e-7
    model = replace(DEFAULT, forbidden_well_depth_cm1=depth, damping_cm1=gamma).validate().to_model()
    g2 = coupling_diagonals(model, [omega], DEFAULT.to_grid())[1, 0]
    z = model.resolvent_argument(omega)
    exact = morse_diagonal(model.forbidden, z, model.coupling.location)
    assert abs(g2 - exact) <= 1e-6 * abs(exact)
