import math

import numpy as np
import pytest
from scipy.integrate import simpson

from curvecross.errors import (
    MultipleCrossingsWarning,
    NoCrossingError,
    UnsupportedCurveError,
)
from curvecross.model import (
    DeltaCoupling,
    Grid,
    HarmonicCurve,
    MorseCurve,
    TwoStateModel,
    find_crossing,
    franck_condon_matrix,
    harmonic_eigenstates,
    huang_rhys_factor,
)


# -- potentials -----------------------------------------------------------


def test_harmonic_value_at_minimum(model):
    assert model.allowed.evaluate(0.1) == pytest.approx(10700.0)


def test_harmonic_spring_constant(model):
    # V(min + 0.1 A) - origin must equal (m w^2 / 2) 0.01, about 840 cm^-1
    # for this mass and frequency
    curve = model.allowed
    k = 0.5 * curve.mass * curve.frequency**2
    assert k == pytest.approx(8.40e4, rel=2e-3)
    shift = curve.evaluate(curve.minimum_position + 0.1) - curve.origin_energy
    assert shift == pytest.approx(k * 0.01, rel=1e-12)
    assert shift == pytest.approx(840.0, abs=1.0)


def test_morse_minimum_and_orientation(model):
    curve = model.forbidden
    assert curve.evaluate(curve.minimum_position) == pytest.approx(curve.origin_energy)
    # dissociates toward x -> -infinity, wall on the right
    far_left = curve.evaluate(-40.0)
    assert far_left == pytest.approx(curve.origin_energy + curve.well_depth, rel=1e-12)
    assert curve.evaluate(1.5) > curve.origin_energy + 5.0 * curve.well_depth


def test_morse_gradient_matches_finite_difference(model):
    curve = model.forbidden
    x = np.linspace(-1.0, 0.5, 7)
    h = 1e-6
    fd = (curve.evaluate(x + h) - curve.evaluate(x - h)) / (2 * h)
    assert np.allclose(curve.gradient(x), fd, rtol=1e-7, atol=1e-4)


def test_curve_validation():
    with pytest.raises(ValueError):
        HarmonicCurve(mass=-1.0, frequency=400.0)
    with pytest.raises(ValueError):
        MorseCurve(mass=1.0, well_depth=0.0, alpha=1.0)


@pytest.mark.parametrize("make, error, message", [
    (lambda model: HarmonicCurve(mass=0.0, frequency=400.0), ValueError, "mass must be positive"),
    (lambda model: HarmonicCurve(mass=1.0, frequency=0.0), ValueError,
     "frequency must be positive"),
    (lambda model: MorseCurve(mass=0.0, well_depth=1.0, alpha=1.0), ValueError,
     "mass must be positive"),
    (lambda model: MorseCurve(mass=1.0, well_depth=1.0, alpha=0.0), ValueError,
     "alpha must be positive"),
    (lambda model: Grid(1.0, 1.0, 64), ValueError, "x_max must exceed x_min"),
    (lambda model: Grid(-1.0, 1.0, 15), ValueError, "grid needs at least 16 points"),
    (lambda model: franck_condon_matrix(model.ground, model.forbidden, 0, 0),
     UnsupportedCurveError, "Franck-Condon overlaps need harmonic curves"),
    (lambda model: franck_condon_matrix(
        model.ground, HarmonicCurve(mass=2.0 * model.ground.mass, frequency=400.0), 0, 0),
     UnsupportedCurveError, "unequal masses are not supported"),
    (lambda model: find_crossing(model.allowed, model.forbidden, (0.3, -0.3)), ValueError,
     "bracket must satisfy x_lo < x_hi"),
])
def test_model_inputs_rejected(model, make, error, message):
    with pytest.raises(error) as raised:
        make(model)
    assert type(raised.value) is error and str(raised.value) == message


# -- eigenstates ----------------------------------------------------------


def test_ground_state_is_normalized_gaussian(model, grid):
    chi = harmonic_eigenstates(model.ground, 0, grid.points)[0]
    assert np.all(chi > 0)
    assert simpson(chi * chi, dx=grid.dx) == pytest.approx(1.0, abs=1e-10)
    assert model.ground.eigenvalue(0) == pytest.approx(200.0)


def test_first_excited_vanishes_at_minimum(model):
    chi = harmonic_eigenstates(model.allowed, 1, np.array([0.1]))[1]
    assert chi[0] == 0.0


def test_high_state_norm(model):
    fine = Grid(-2.0, 2.2, 16384)
    chi = harmonic_eigenstates(model.allowed, 50, fine.points)[50]
    assert simpson(chi * chi, dx=fine.dx) == pytest.approx(1.0, abs=1e-8)


def test_orthonormality(model, grid):
    table = harmonic_eigenstates(model.ground, 20, grid.points)
    gram = simpson(table[:, None, :] * table[None, :, :], dx=grid.dx, axis=2)
    assert np.max(np.abs(gram - np.eye(21))) < 1e-8


def test_parity(model):
    x = np.linspace(0.0, 1.2, 500)
    table_pos = harmonic_eigenstates(model.ground, 7, x)
    table_neg = harmonic_eigenstates(model.ground, 7, -x)
    for n in range(8):
        assert np.allclose(table_neg[n], (-1) ** n * table_pos[n], atol=1e-12)


def test_eigenstate_limits(model):
    x = np.array([0.0])
    with pytest.raises(ValueError):
        harmonic_eigenstates(model.ground, 201, x)
    with pytest.raises(UnsupportedCurveError):
        harmonic_eigenstates(model.forbidden, 0, x)


# -- Morse bound energies -------------------------------------------------


def test_morse_ladder(model):
    curve = model.forbidden
    energies = curve.bound_energies()
    assert curve.harmonic_frequency == pytest.approx(400.0, rel=1e-12)
    anharm = curve.alpha**2 / (2.0 * curve.mass)
    assert energies[0] == pytest.approx(10800.0 + 200.0 - 0.25 * anharm, rel=1e-12)
    assert np.all(np.diff(energies) > 0)
    assert energies[-1] < curve.origin_energy + curve.well_depth


def test_morse_count(model):
    curve = model.forbidden
    lam = math.sqrt(2.0 * curve.mass * curve.well_depth) / curve.alpha
    expected = int(math.floor(lam - 0.5)) + 1
    assert curve.bound_energies().size == expected


def test_deep_well_limit(model):
    # at fixed well-bottom frequency the ladder becomes harmonic as the
    # well deepens
    m = model.ground.mass
    depth = 1.0e9
    alpha = 400.0 * math.sqrt(m / (2.0 * depth))
    curve = MorseCurve(mass=m, well_depth=depth, alpha=alpha)
    energies = curve.bound_energies()[:4]
    harmonic = (np.arange(4) + 0.5) * 400.0
    assert np.allclose(energies, harmonic, atol=1e-2)


# -- Franck-Condon overlaps ----------------------------------------------


def test_fc_identity_without_displacement(model):
    table = franck_condon_matrix(model.ground, model.ground, 6, 6)
    assert np.allclose(table, np.eye(7), atol=1e-12)


def test_fc_poisson_weights(model):
    s = huang_rhys_factor(model.ground, model.allowed)
    assert s == pytest.approx(2.0999, abs=2e-4)
    assert franck_condon_matrix(model.ground, model.allowed, 0, 0)[0, 0] ** 2 == pytest.approx(
        math.exp(-s), rel=1e-12
    )
    assert math.exp(-s) == pytest.approx(0.1225, abs=5e-4)


def test_fc_zero_row_recurrence(model):
    s = huang_rhys_factor(model.ground, model.allowed)
    row = franck_condon_matrix(model.ground, model.allowed, 0, 30)[0]
    for m in range(1, 31):
        assert abs(row[m]) == pytest.approx(abs(row[m - 1]) * math.sqrt(s / m), rel=1e-10)


def test_fc_completeness(model):
    table = franck_condon_matrix(model.ground, model.allowed, 3, 60)
    sums = np.sum(table**2, axis=1)
    assert np.allclose(sums, 1.0, atol=1e-10)


def test_fc_against_quadrature(model):
    fine = Grid(-1.8, 1.8, 8192)
    a = harmonic_eigenstates(model.ground, 8, fine.points)
    b = harmonic_eigenstates(model.allowed, 8, fine.points)
    numeric = simpson(a[:, None, :] * b[None, :, :], dx=fine.dx, axis=2)
    analytic = franck_condon_matrix(model.ground, model.allowed, 8, 8)
    assert np.max(np.abs(numeric - analytic)) < 1e-9


def test_fc_unequal_frequencies_rejected(model):
    other = HarmonicCurve(mass=model.ground.mass, frequency=500.0)
    with pytest.raises(UnsupportedCurveError):
        franck_condon_matrix(model.ground, other, 0, 0)[0, 0]


# -- crossing finder ------------------------------------------------------


def test_crossing_of_the_two_harmonic_curves(model):
    # closed form: k (0.01 - 0.2 x) = 100 with k = m w^2 / 2
    allowed = model.allowed
    other = HarmonicCurve(
        mass=allowed.mass, frequency=allowed.frequency, origin_energy=10800.0
    )
    k = 0.5 * allowed.mass * allowed.frequency**2
    expected = (0.01 - 100.0 / k) / 0.2
    x = find_crossing(allowed, other, (-0.5, 0.5))
    assert x == pytest.approx(expected, abs=1e-10)
    assert x == pytest.approx(0.0440, abs=2e-4)
    assert other.evaluate(x) == pytest.approx(10963.0, abs=1.0)


def test_parallel_curves_do_not_cross(model):
    shifted = HarmonicCurve(
        mass=model.allowed.mass,
        frequency=model.allowed.frequency,
        minimum_position=model.allowed.minimum_position,
        origin_energy=model.allowed.origin_energy + 100.0,
    )
    with pytest.raises(NoCrossingError):
        find_crossing(model.allowed, shifted, (-1.0, 1.0))


def test_harmonic_morse_crossing(model):
    x = find_crossing(model.allowed, model.forbidden, (-0.3, 0.3))
    residual = abs(model.allowed.evaluate(x) - model.forbidden.evaluate(x))
    assert residual < 1e-6


def test_multiple_crossings_warn(model):
    narrow = HarmonicCurve(mass=model.ground.mass, frequency=800.0, origin_energy=-500.0)
    with pytest.warns(MultipleCrossingsWarning):
        x = find_crossing(model.ground, narrow, (-1.0, 1.0))
    assert abs(model.ground.evaluate(x) - narrow.evaluate(x)) < 1e-6


# -- model container ------------------------------------------------------


def test_model_requires_positive_damping(model):
    with pytest.raises(ValueError):
        TwoStateModel(
            ground=model.ground,
            allowed=model.allowed,
            forbidden=model.forbidden,
            coupling=model.coupling,
            damping=0.0,
        )


def test_resolvent_argument(model):
    z = model.resolvent_argument(11000.0)
    assert z == pytest.approx(11200.0 + 450.0j)


def test_coupling_strength_sign():
    with pytest.raises(ValueError):
        DeltaCoupling(strength=-1.0, location=0.0)


def test_grid_refinement():
    g = Grid(-1.0, 1.0, 101)
    assert g.index_below(g.points[5] + 0.3 * g.dx) == 5
