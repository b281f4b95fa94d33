import numpy as np
import pytest

from curvecross import resolvent
from curvecross.coupled import CoupledBlocks, g11_rows
from curvecross.errors import ResonanceSingularityError
from curvecross.model import Grid, harmonic_eigenstates
from curvecross.resolvent import build_resolvent, resolvent_rows


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
    for x in (-0.25, model.coupling.location, 0.1):
        assert blocks.g21(x, chi[0]) == 0.0


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


def _support(f):
    nodes = np.flatnonzero(np.abs(f) >= resolvent.SUPPORT_FLOOR * np.max(np.abs(f)))
    return nodes[0], nodes[-1]


def test_g11_vector_calls(pair, model, monkeypatch):
    # <f|G1|x_c> comes from the sums of f that the matrix element forms, so
    # g11 sums f once in each direction, from the ends of f's support to
    # the far end of i's support, and, for f != i, i once more in each
    # direction from the ends of its support up to x_c's cell through
    # vector (of ev1's rows)
    ev1, ev2, chi = pair
    calls = []
    vector, sums = resolvent.ResolventRows.vector, resolvent._sums

    def counted(self, f, x0):
        calls.append("vector")
        return vector(self, f, x0)

    def counted_sums(f, ratios, h, stop=None):
        calls.append(stop)
        return sums(f, ratios, h, stop)

    monkeypatch.setattr(resolvent.ResolventRows, "vector", counted)
    monkeypatch.setattr(resolvent, "_sums", counted_sums)
    blocks = CoupledBlocks(ev1, ev2, model.coupling.strength, model.coupling.location)
    j = ev1.grid.index_below(model.coupling.location)
    (f_lo, f_hi), (i_lo, i_hi) = _support(chi[1]), _support(chi[0])
    assert f_lo < i_lo < j < i_hi < f_hi
    calls.clear()
    blocks.g11(chi[1], chi[0])
    assert calls == [i_hi - f_lo, f_hi - i_lo, "vector", j + 1 - i_lo, i_hi - j]
    calls.clear()
    blocks.g11(chi[0], chi[0])
    assert calls == [i_hi - i_lo, i_hi - i_lo]


def test_g11_from_the_point_value_of_g2(pair, model):
    # given G2(x_c, x_c) as a number, g11_rows needs no forbidden-surface
    # rows and forms its own denominator: the same amplitude as
    # CoupledBlocks.g11, every field bit for bit
    ev1, ev2, chi = pair
    k0, x_c = model.coupling.strength, model.coupling.location
    full = CoupledBlocks(ev1, ev2, k0, x_c)
    g2_cc = ev2.point(x_c, x_c)
    for f, i in ((chi[1], chi[0]), (chi[0], chi[0])):
        assert g11_rows(ev1, k0, x_c, g2_cc, f, i) == full.g11(f, i)


def test_batched_blocks_equal_each_energys_blocks(model, grid):
    # CoupledBlocks on five energies' rows against the blocks of each
    # energy's scalar rows: g1_cc, g2_cc and direct bit for bit; value, g12
    # and g21, whose complex products the batch takes in numpy's array
    # loops and a scalar z in its scalar arithmetic, to 4e-15 relative (at
    # most 3.5e-16 seen over 52 energies, 9500-13500 cm^-1)
    zs = model.resolvent_argument(np.linspace(9800.0, 13200.0, 5))
    k0, x_c = model.coupling.strength, model.coupling.location
    chi = harmonic_eigenstates(model.ground, 1, grid.points)
    curves = (model.allowed, model.forbidden)
    batch = CoupledBlocks(*(resolvent_rows(c, zs, grid) for c in curves), k0, x_c)
    singles = [CoupledBlocks(*(resolvent_rows(c, z, grid) for c in curves), k0, x_c) for z in zs]

    def close(got, want):
        return abs(got - want) <= 4e-15 * abs(want)

    for k, blocks in enumerate(singles):
        assert batch.g1_cc[k] == blocks.g1_cc and batch.g2_cc[k] == blocks.g2_cc
    for f, i in ((chi[0], chi[0]), (chi[1], chi[0]), (chi[0], chi[1])):
        amplitude, g12 = batch.g11(f, i), batch.g12(f, i)
        assert amplitude.value.shape == g12.shape == zs.shape
        for k, blocks in enumerate(singles):
            one = blocks.g11(f, i)
            assert amplitude.direct[k] == one.direct
            assert close(amplitude.value[k], one.value)
            assert close(g12[k], blocks.g12(f, i))
    for x in (-0.25, -0.05, x_c, 0.1):
        g21 = batch.g21(x, chi[0])
        for k, blocks in enumerate(singles):
            assert close(g21[k], blocks.g21(x, chi[0]))


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


def test_g21_is_transfer_times_point(pair, model):
    ev1, ev2, chi = pair
    blocks = CoupledBlocks(ev1, ev2, model.coupling.strength, model.coupling.location)
    x_c = model.coupling.location
    transfer = model.coupling.strength * ev1.vector(chi[0], x_c) / blocks.denominator
    for x in (-0.25, -0.05, x_c, 0.1):
        assert blocks.g21(x, chi[0]) == pytest.approx(transfer * ev2.point(x, x_c), rel=1e-12)


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


def test_mismatched_grids_rejected(pair, model):
    # the same node count over a wider span: the shapes match, the nodes do not
    ev1, _, _ = pair
    ev2 = build_resolvent(model.forbidden, ev1.z, Grid(-2.0, 2.0, ev1.grid.n))
    with pytest.raises(ValueError, match="same grid"):
        CoupledBlocks(ev1, ev2, model.coupling.strength, model.coupling.location)


class _UnitPointResolvent:
    """A resolvent stand-in whose G(x, x') is 1 everywhere."""

    def __init__(self, z, grid):
        self.z = z
        self.grid = grid

    def point(self, x, x_prime):
        return 1.0


def test_vanishing_denominator_rejected(grid):
    # 1 - K0^2 G1(x_c, x_c) G2(x_c, x_c) = 1 - 1 * 1 * 1 = 0
    z = 11000.0 + 450.0j
    ev1, ev2 = _UnitPointResolvent(z, grid), _UnitPointResolvent(z, grid)
    with pytest.raises(ResonanceSingularityError):
        CoupledBlocks(ev1, ev2, 1.0, 0.0)


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
