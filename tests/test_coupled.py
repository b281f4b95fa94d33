import numpy as np
import pytest

from curvecross import resolvent
from curvecross.coupled import CoupledBlocks
from curvecross.model import Grid, harmonic_eigenstates
from curvecross.resolvent import build_resolvent


@pytest.fixture(scope="module")
def pair(model, grid):
    z = model.resolvent_argument(11100.0)
    ev1 = build_resolvent(model.allowed, z, grid)
    ev2 = build_resolvent(model.forbidden, z, grid)
    chi = harmonic_eigenstates(model.ground, 1, grid.points)
    return ev1, ev2, chi


def test_zero_coupling_reduces_exactly(pair, model):
    # no special case for K0 = 0: the partitioning formula itself gives a
    # zero correction over a unit denominator
    ev1, ev2, chi = pair
    blocks = CoupledBlocks(ev1, ev2, 0.0, model.coupling.location)
    for f, i in ((chi[0], chi[0]), (chi[1], chi[0])):
        amp = blocks.g11(f, i)
        assert amp.value == ev1.matrix_element(f, i)
        assert amp.crossing_correction == 0.0
        assert amp.denominator == 1.0
    assert blocks.g12(chi[0], chi[0]) == 0.0
    assert not np.any(blocks.g21_row(chi[0]))


def test_value_decomposition(pair, model):
    ev1, ev2, chi = pair
    k0 = model.coupling.strength
    amp = CoupledBlocks(ev1, ev2, k0, model.coupling.location).g11(chi[1], chi[0])
    assert amp.value == amp.direct + amp.crossing_correction
    assert amp.crossing_correction != 0.0


def test_bra_ket_swap_symmetric(pair, model):
    ev1, ev2, chi = pair
    k0 = model.coupling.strength
    x_c = model.coupling.location
    a = CoupledBlocks(ev1, ev2, k0, x_c).g11(chi[1], chi[0]).value
    b = CoupledBlocks(ev1, ev2, k0, x_c).g11(chi[0], chi[1]).value
    assert a == pytest.approx(b, rel=1e-10)


def test_diagonal_blocks_equal_separate_quadratures(pair, model):
    # g11 is the partitioning formula composed of the public quadratures,
    # bit for bit, with the vector of f reused for i when f = i
    ev1, ev2, chi = pair
    k0 = model.coupling.strength
    x_c = model.coupling.location
    blocks = CoupledBlocks(ev1, ev2, k0, x_c)
    for f, i in ((chi[1], chi[0]), (chi[0], chi[0])):
        amp = blocks.g11(f, i)
        direct = ev1.matrix_element(f, i)
        correction = (
            k0**2 * ev1.vector(f, x_c) * blocks.g2_cc * ev1.vector(i, x_c) / blocks.denominator
        )
        assert amp.direct == direct
        assert amp.crossing_correction == correction
        assert amp.value == direct + correction


def test_g11_runs_one_recurrence_pair(pair, model, monkeypatch):
    # the recurrences run only in the matrix element; both vectors at x_c
    # are direct sums, whether or not the bra and the ket differ
    ev1, ev2, chi = pair
    calls = []
    running_sums = resolvent._running_sums

    def counted(*args):
        calls.append(1)
        return running_sums(*args)

    monkeypatch.setattr(resolvent, "_running_sums", counted)
    blocks = CoupledBlocks(ev1, ev2, model.coupling.strength, model.coupling.location)
    for f, i in ((chi[1], chi[0]), (chi[0], chi[0])):
        calls.clear()
        blocks.g11(f, i)
        assert len(calls) == 2


def test_blocks_share_denominator(pair, model):
    ev1, ev2, chi = pair
    blocks = CoupledBlocks(ev1, ev2, model.coupling.strength, model.coupling.location)
    a11 = blocks.g11(chi[0], chi[0])
    assert a11.denominator == blocks.denominator


def test_off_diagonal_block_is_vector_product(pair, model):
    ev1, ev2, chi = pair
    blocks = CoupledBlocks(ev1, ev2, model.coupling.strength, model.coupling.location)
    x_c = model.coupling.location
    g12 = blocks.g12(chi[0], chi[1])
    manual = (
        model.coupling.strength
        * ev1.vector(chi[0], x_c)
        * ev2.vector(chi[1], x_c)
        / blocks.denominator
    )
    assert g12 == pytest.approx(manual, rel=1e-12)


def test_g21_row_is_transfer_times_row(pair, model):
    ev1, ev2, chi = pair
    blocks = CoupledBlocks(ev1, ev2, model.coupling.strength, model.coupling.location)
    row = blocks.g21_row(chi[0])
    x_c = model.coupling.location
    transfer = model.coupling.strength * ev1.vector(chi[0], x_c) / blocks.denominator
    assert np.allclose(row, transfer * ev2.row(x_c), rtol=1e-12, atol=0.0)


def test_halving_k0_nearly_halves_g12(pair, model):
    ev1, ev2, chi = pair
    k0 = model.coupling.strength
    x_c = model.coupling.location
    full = CoupledBlocks(ev1, ev2, k0, x_c).g12(chi[0], chi[0])
    half = CoupledBlocks(ev1, ev2, 0.5 * k0, x_c).g12(chi[0], chi[0])
    blocks = CoupledBlocks(ev1, ev2, k0, x_c)
    bound = abs(k0**2 * blocks.g1_cc * blocks.g2_cc)
    assert abs(2.0 * half - full) / abs(full) < bound


def test_k0_power_laws(model):
    # fitted below the band where the shared denominator stays near one
    grid = Grid(-1.5, 1.5, 4096)
    z = model.resolvent_argument(5000.0)
    ev1 = build_resolvent(model.allowed, z, grid)
    ev2 = build_resolvent(model.forbidden, z, grid)
    chi0 = harmonic_eigenstates(model.ground, 0, grid.points)[0]
    x_c = model.coupling.location
    ks = model.coupling.strength * np.array([1 / 8, 1 / 6, 1 / 4, 1 / 3, 1 / 2])
    c11, c12 = [], []
    for k in ks:
        blocks = CoupledBlocks(ev1, ev2, k, x_c)
        c11.append(abs(blocks.g11(chi0, chi0).crossing_correction))
        c12.append(abs(blocks.g12(chi0, chi0)))
    p11 = np.polyfit(np.log(ks), np.log(c11), 1)[0]
    p12 = np.polyfit(np.log(ks), np.log(c12), 1)[0]
    assert p11 == pytest.approx(2.0, abs=0.02)
    assert p12 == pytest.approx(1.0, abs=0.02)


def test_mismatched_energies_rejected(model, grid):
    ev1 = build_resolvent(model.allowed, model.resolvent_argument(11000.0), grid)
    ev2 = build_resolvent(model.forbidden, model.resolvent_argument(11010.0), grid)
    with pytest.raises(ValueError):
        CoupledBlocks(ev1, ev2, model.coupling.strength, model.coupling.location)


def test_correction_grid_converged(model):
    # |correction/direct| for absorption near the band origin is stable to
    # three significant digits under grid refinement
    z = model.resolvent_argument(10800.0)
    x_c = model.coupling.location
    k0 = model.coupling.strength
    ratios = []
    for grid in (Grid(-1.5, 1.5, 4096), Grid(-1.5, 1.5, 8191)):
        chi0 = harmonic_eigenstates(model.ground, 0, grid.points)[0]
        ev1 = build_resolvent(model.allowed, z, grid)
        ev2 = build_resolvent(model.forbidden, z, grid)
        amp = CoupledBlocks(ev1, ev2, k0, x_c).g11(chi0, chi0)
        ratios.append(abs(amp.crossing_correction / amp.direct))
    assert ratios[0] > 0.0
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-3)
