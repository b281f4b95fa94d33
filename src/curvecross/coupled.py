"""Coupled two-surface Green's function blocks from uncoupled resolvents.

With a point coupling K0 delta(x - x_c), block elimination closes exactly:

    G11 = G1 + K0^2 G1|x_c> G2(x_c,x_c) <x_c|G1 / (1 - K0^2 G1(x_c,x_c) G2(x_c,x_c))
    G12 = K0 G1|x_c> <x_c|G2 / (same denominator)

and G21, G22 follow by swapping the surface roles.  All four blocks share
the two point values at x_c and the denominator, computed once per z.
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


class CoupledBlocks:
    """All four block evaluators at one z, sharing cached point values."""

    def __init__(self, ev1, ev2, k0, x_c):
        if ev1.z != ev2.z:
            raise ValueError("both resolvents must be built at the same z")
        self.ev1 = ev1
        self.ev2 = ev2
        self.k0 = float(k0)
        self.x_c = float(x_c)
        self.g1_cc = ev1.point(x_c, x_c)
        self.g2_cc = ev2.point(x_c, x_c)
        self.denominator = 1.0 - self.k0**2 * self.g1_cc * self.g2_cc
        if abs(self.denominator) < DENOMINATOR_FLOOR:
            raise ResonanceSingularityError(
                "coupling denominator vanished; resolvents cannot be correct "
                "for Im z > 0"
            )

    def _diagonal_block(self, ev, g_other_cc, f, i):
        """<f|Gjj|i> on the surface of ev, the other surface entering
        through its point value at x_c.  Each distinct state's partial sums
        are taken once and shared by the matrix element and the vectors."""
        sums_f = ev.partial_sums(f)
        direct = ev.matrix_element(sums_f, i)
        if self.k0 == 0.0:
            return CoupledAmplitude(direct, direct, 0.0j, 1.0 + 0.0j)
        left = ev.vector(sums_f, self.x_c)
        right = left if np.array_equal(f, i) else ev.vector(i, self.x_c)
        correction = self.k0**2 * left * g_other_cc * right / self.denominator
        return CoupledAmplitude(direct + correction, direct, correction, self.denominator)

    def g11(self, f, i):
        return self._diagonal_block(self.ev1, self.g2_cc, f, i)

    def g22(self, f, i):
        return self._diagonal_block(self.ev2, self.g1_cc, f, i)

    def g12(self, f, i):
        if self.k0 == 0.0:
            return 0.0j
        return self.k0 * self.ev1.vector(f, self.x_c) * self.ev2.vector(i, self.x_c) / self.denominator

    def g21(self, f, i):
        if self.k0 == 0.0:
            return 0.0j
        return self.k0 * self.ev2.vector(f, self.x_c) * self.ev1.vector(i, self.x_c) / self.denominator

    def g21_row(self, i):
        """(G21 i)(x) on the grid of the second surface: the amplitude
        transferred to the forbidden surface from a state i on the allowed
        one."""
        if self.k0 == 0.0:
            return np.zeros_like(self.ev2.grid.points, dtype=complex)
        transfer = self.k0 * self.ev1.vector(i, self.x_c) / self.denominator
        return transfer * self.ev2.row(self.x_c)
