"""Coupled two-surface Green's function blocks from uncoupled resolvents.

With a point coupling K0 delta(x - x_c), block elimination closes exactly:

    G11 = G1 + K0^2 G1|x_c> G2(x_c,x_c) <x_c|G1 / (1 - K0^2 G1(x_c,x_c) G2(x_c,x_c))
    G12 = K0 G1|x_c> <x_c|G2 / (same denominator)

The blocks share the two point values at x_c and the denominator, computed
once per z.  At K0 = 0 the correction is exactly zero and the denominator
exactly one, so G11 is the bare G1 bit for bit.
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
    """The coupled block evaluators at one z, sharing cached point values."""

    def __init__(self, ev1, ev2, k0, x_c, g2_cc=None):
        """ev2 may be None if g2_cc, G2(x_c, x_c) at ev1's z, is given: g11
        reads nothing else of G2, while g12 and g21 need ev2."""
        if ev2 is not None and ev1.z != ev2.z:
            raise ValueError("both resolvents must be built at the same z")
        if ev2 is not None and ev1.grid != ev2.grid:
            raise ValueError("both resolvents must be built on the same grid")
        self.ev1 = ev1
        self.ev2 = ev2
        self.k0 = float(k0)
        self.x_c = float(x_c)
        self.g1_cc = ev1.point(x_c, x_c)
        self.g2_cc = ev2.point(x_c, x_c) if g2_cc is None else complex(g2_cc)
        self.denominator = 1.0 - self.k0**2 * self.g1_cc * self.g2_cc
        if abs(self.denominator) < DENOMINATOR_FLOOR:
            raise ResonanceSingularityError(
                "coupling denominator vanished; resolvents cannot be correct "
                "for Im z > 0"
            )

    def g11(self, f, i):
        """<f|G11|i>, the forbidden surface entering through G2(x_c, x_c).
        <f|G1|x_c> comes from the sums of f that <f|G1|i> forms; for f = i
        it serves both sides."""
        ev = self.ev1
        direct, left = ev.element_and_vector(f, i, self.x_c)
        right = left if np.array_equal(f, i) else ev.vector(i, self.x_c)
        correction = self.k0**2 * left * self.g2_cc * right / self.denominator
        return CoupledAmplitude(direct + correction, direct, correction, self.denominator)

    def g12(self, f, i):
        return self.k0 * self.ev1.vector(f, self.x_c) * self.ev2.vector(i, self.x_c) / self.denominator

    def g21(self, x, i):
        """(G21 i)(x) = K0 G2(x, x_c) <x_c|G1|i> / D, the amplitude
        transferred to the forbidden surface at x from a state i on the
        allowed one."""
        transfer = self.k0 * self.ev1.vector(i, self.x_c) / self.denominator
        return transfer * self.ev2.point(x, self.x_c)
