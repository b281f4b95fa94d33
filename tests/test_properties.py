"""Exact resolvent identities as properties over the model's parameters.

G = (z - H)^-1 with Im z = Gamma > 0 gives -Im <f|G|f> = Gamma |G^+ f|^2,
so absorption is positive and, by Cauchy-Schwarz, a Raman amplitude is
bounded by the absorption of either state it connects.  H is symmetric
and real, so <1|G11|0> = <0|G11|1>.  At K0 = 0 the partitioning formula
reduces to the bare allowed-surface resolvent exactly.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from curvecross.config import RunConfig
from curvecross.coupled import CoupledBlocks
from curvecross.model import harmonic_eigenstates
from curvecross.resolvent import build_resolvent

DEFAULT = RunConfig()


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    k0=st.floats(0.0, 2.0 * DEFAULT.coupling_k0_erg_angstrom),
    gamma=st.floats(150.0, 900.0),
    displacement=st.floats(0.05, 0.15),
    omega=st.floats(9500.0, 13500.0),
)
def test_coupled_amplitudes_obey_resolvent_identities(k0, gamma, displacement, omega):
    config = replace(
        DEFAULT,
        coupling_k0_erg_angstrom=k0,
        damping_cm1=gamma,
        allowed_displacement_angstrom=displacement,
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
