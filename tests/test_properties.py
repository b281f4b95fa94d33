"""Exact resolvent identities as properties over the model's parameters.

G = (z - H)^-1 with Im z = Gamma > 0 gives -Im <f|G|f> = Gamma |G^+ f|^2,
so absorption is positive and, by Cauchy-Schwarz, a Raman amplitude is
bounded by the absorption of either state it connects.  H is symmetric
and real, so <1|G11|0> = <0|G11|1>.  At K0 = 0 the partitioning formula
reduces to the bare allowed-surface resolvent exactly.  The forbidden
surface carries no dipole, so the absorption A = -Im <chi_0|G11|chi_0>
integrates to pi over all photon energies, coupled or not.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecross.config import RunConfig
from curvecross.coupled import CoupledBlocks
from curvecross.model import harmonic_eigenstates
from curvecross.resolvent import build_resolvent
from curvecross.spectra import absorption_spectra, photon_energies

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
