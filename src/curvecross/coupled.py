"""Coupled two-surface Green's function blocks from uncoupled resolvents.

With a point coupling K0 delta(x - x_c), block elimination closes exactly:

    G11 = G1 + K0^2 G1|x_c> G2(x_c,x_c) <x_c|G1 / (1 - K0^2 G1(x_c,x_c) G2(x_c,x_c))
    G12 = K0 G1|x_c> <x_c|G2 / (same denominator)

The blocks share the two point values at x_c and the denominator, computed
once per z.  At K0 = 0 the correction is exactly zero and the denominator
exactly one, so G11 is the bare G1 bit for bit.  g11_rows forms G11 on
arrays shaped like the energies of a ResolventRows, and CoupledBlocks
forms the three blocks on rows of any batch shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonanceSingularityError

DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class CoupledAmplitude:
    """<f|G11|i> split into its uncoupled part and the crossing correction."""

    value: complex
    direct: complex
    crossing_correction: complex
    denominator: complex


def _denominator(k0, g1_cc, g2_cc):
    """1 - K0^2 G1(x_c, x_c) G2(x_c, x_c), raising if it vanishes at any z."""
    denominator = 1.0 - k0**2 * g1_cc * g2_cc
    if np.any(abs(denominator) < DENOMINATOR_FLOOR):
        raise ResonanceSingularityError("coupling denominator vanished; resolvents "
                                        "cannot be correct for Im z > 0")
    return denominator


def g11_rows(rows, k0, x_c, g2_cc, f, i, denominator=None):
    """<f|G11|i> at each energy of the allowed surface's rows, a
    CoupledAmplitude of arrays shaped like the rows' energies; the
    forbidden surface enters through g2_cc = G2(x_c, x_c), shaped like
    them too, and the denominator is formed from them
    unless given.  <f|G1|x_c> comes from the sums of f that <f|G1|i> forms;
    for f = i it serves both sides."""
    if denominator is None:
        denominator = _denominator(k0, rows.point(x_c, x_c), g2_cc)
    direct, left = rows.element_and_vector(f, i, x_c)
    right = left if np.array_equal(f, i) else rows.vector(i, x_c)
    correction = k0**2 * left * g2_cc * right / denominator
    return CoupledAmplitude(direct + correction, direct, correction, denominator)


class CoupledBlocks:
    """The coupled blocks at the energies of two ResolventRows, one per
    surface, sharing cached point values; each block is shaped like the
    energies."""

    def __init__(self, ev1, ev2, k0, x_c):
        if not np.array_equal(ev1.z, ev2.z):
            raise ValueError("both resolvents must be built at the same z")
        if ev1.grid != ev2.grid:
            raise ValueError("both resolvents must be built on the same grid")
        self.ev1, self.ev2 = ev1, ev2
        self.k0, self.x_c = float(k0), float(x_c)
        self.g1_cc = ev1.point(x_c, x_c)
        self.g2_cc = ev2.point(x_c, x_c)
        self.denominator = _denominator(self.k0, self.g1_cc, self.g2_cc)

    def g11(self, f, i):
        """<f|G11|i>: g11_rows on ev1's rows."""
        return g11_rows(self.ev1, self.k0, self.x_c, self.g2_cc, f, i, self.denominator)

    def g12(self, f, i):
        return self.k0 * self.ev1.vector(f, self.x_c) * self.ev2.vector(i, self.x_c) / self.denominator

    def g21(self, x, i):
        """(G21 i)(x) = K0 G2(x, x_c) <x_c|G1|i> / D, the amplitude
        transferred to the forbidden surface at x from a state i on the
        allowed one."""
        transfer = self.k0 * self.ev1.vector(i, self.x_c) / self.denominator
        return transfer * self.ev2.point(x, self.x_c)
