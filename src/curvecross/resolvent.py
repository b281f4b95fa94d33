"""Single-surface Green's functions at complex energy.

For one curve and one z with Im z > 0, two homogeneous solutions of
u'' = 2m(V - z)u are integrated across the grid: u- decaying toward
x -> -infinity and u+ decaying toward x -> +infinity, each seeded deep in
its forbidden (or asymptotically flat) region with the WKB logarithmic
derivative.  The Green's function is then

    G(x, x0) = 2m u-(min(x, x0)) u+(max(x, x0)) / W,   W = u- u+' - u-' u+,

symmetric by construction.  The equation is linear, so one RK4 step over
an interval is an exact 2x2 map of (u, u'); per energy _step_band writes
these maps in closed form into one banded unit lower-triangular system.
u- is its compiled forward substitution, and u+, whose backward maps are
the transposed rows, the compiled back substitution of its transpose.
resolvent_rows takes the energies one at a time, solving, reading
and checking each before the next, so its solutions are bit for bit the
same in any batch and a batch holds only its rows and one energy's band.

Solutions grow through hundreds of e-folds in the forbidden regions, more
than a float64 can span on a wide grid.  Each map is scaled in advance by
the power of two that cancels RK4's growth of the local WKB wave; one
sequence of octaves serves both solves, since u- grows the way u+ decays,
and all of a call's energies when that fits (_group_scales): taken from
the least growth of any of them, it leaves each one's states growing by
at most OCTAVE_BUDGET octaves; if they outgrow it, each energy takes the
octaves of its own growth, as a lone energy does.  Being exact powers of
two, the octaves change no bit of y, the ratios or the drift.
Each solution is stored as y = u'/u per node (B. R. Johnson's
log-derivative, J. Comput. Phys. 13, 445 (1973)) and as the ratio of each
node's value to the next one's in its solve's direction, r-_k = u-_k /
u-_k+1 and r+_k = u+_k+1 / u+_k, so everything is bounded:

    G(x_j, x_j) = 2m / (y+ - y-)                         on the nodes,
    G(x, x0)    = G(x_j, x_j) u-(x)/u-(x_j) u+(x0)/u+(x_j)   off them,

with u(x)/u(x_j) from cubic Hermite interpolation in the cell, and
u+(x_i)/u+(x_j) the product of the ratios between.  For a state f,
A(x) = (integral of f u- up to x) / u-(x) and its mirror
B(x) = (integral of f u+ beyond x) / u+(x) give

    <f|G|x0> = G(x0, x0) (A + B)(x0),   <g|G|f> = integral of g G(x, x) (A + B),

where A is a recurrence along the nodes in r- (_sums), like u-'s solve
one banded forward substitution per row, and B is the same sum on the
reversed arrays, in r+.  ResolventRows holds y and the ratios of energies
of any shape, a scalar z included, as zs.shape + (M,) and zs.shape +
(M - 1,) rows, possibly a node range of the grid, and forms the matrix
element, <f|G|x0> from its sums, vector (sums up to x0's cell only) and
the point read on all rows at once, shaped like the energies and each
row's values independent of the batch.  A quadrature reads one state
(M,), sampled on the rows' nodes, against every row, and takes it as
complex once per read, so that every operation on it runs numpy's
complex loop without a buffered cast; the quadratures touch only the
nodes their states occupy, a state's support being the nodes where
|f| >= SUPPORT_FLOOR max |f|: A is summed from the first node of f's
support and B from its last, each 0 before it, and they run only as far
as g's support or x0's cell, where the outer Simpson rule and the reads
take them.  Where only G(x, x) is wanted, resolvent_rows
on the nodes (j, j + 1) of x's cell solves to that cell and no further,
and its point read gives the value: at any number of energies the call
holds O(N + nz) numbers.

Where a sweep runs is planned here too (_window): a caller that reads
nodes lo..hi and a point x sweeps a window of its grid that widens them
until the WKB seeds lie SEED_EFOLDS e-folds of attenuation away at the
top energy of the sweep, where they are forgotten (Johnson's argument
for the log-derivative), and the rows hold lo..hi and x's cell.  So a
row depends on the top energy of its call's plan through the window.
_window only plans; the coverage guard (_check_coverage) runs once per
sweep, in resolvent_rows on the nodes it sweeps.  A window's edge is a
grid edge or a node forbidden at the top energy, and both sides of a
harmonic curve and the Morse wall rise away from the minimum: the guard
passes or fails on a window as on its grid wherever the window holds the
curve's minimum, as it does unless the read nodes lie SEED_EFOLDS deep in
a forbidden region, where k_max dx reads the swept nodes alone.

The outer quadratures use _simpson, Simpson's rule written out with
scipy.integrate.simpson's arithmetic for equal steps, so that they give
its values bit for bit without importing scipy.integrate.

A truncated eigenfunction expansion over harmonic eigenstates is provided
as an independent oracle for the same object.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg.blas import ztbsv

from .errors import DegenerateWronskianError, GridError
from .model import DEFAULT_GRID, Grid, HarmonicCurve, harmonic_eigenstates

# Largest Wronskian drift a build accepts (round-off gives about 1e-12).
WRONSKIAN_DRIFT_LIMIT = 1e-8
# Largest local wavenumber times grid step that a sweep accepts.  Against
# an 8192-node reference over 9500-13500 cm^-1, the default model's
# coupled spectra are off by 2.4e-4 (absorption) and 6.3e-4 (Raman) at
# k_max dx = 0.47, and by 5.8e-3 and 1.3e-2 at 0.93.
MAX_K_DX = 0.5
# A state's support: the nodes where |f| >= SUPPORT_FLOOR max |f|.  Off it
# f is taken as 0, which moves <g|G|f> by about SUPPORT_FLOOR times its
# bound max |G f| integral |g|.
SUPPORT_FLOOR = 1e-16
# The most octaves by which a call's energies' scaled states may outgrow
# the octaves that they share (_group_scales): half of float64's exponent
# range.  On the default model's grid, pairs of energies from
# -20000 to 60000 cm^-1 sharing one sequence keep their own bits up to a
# bound of 989 octaves and overflow from 1016.
OCTAVE_BUDGET = np.finfo(float).maxexp // 2
# The seeds' attenuation budget (_window).  A seed's error reaches the read
# nodes as about 1e-3 e^(-2E) after E e-folds: on the default 401-energy
# scan G1 and G2 at x_c moved from the whole grid's by 1.3e-10 at E = 8,
# 1.6e-12 at 10, 2.0e-14 at 12 and at most 4.7e-15 (round-off) from 15 to
# 40.  At 20 even an O(1) seed error is left at e^-40, about 4e-18.
SEED_EFOLDS = 20.0


def _simpson(y, dx):
    """Simpson's rule over the last axis of y, sampled with step dx on at
    least three nodes, with scipy.integrate.simpson's arithmetic: the
    composite rule, and for an even node count the composite rule on all
    but the last node plus the correction (alpha, beta, -eta) of the last
    interval from the steps h0 = h1 = dx."""
    n = y.shape[-1]
    m = n - 1 if n % 2 == 0 else n
    total = np.sum(y[..., 0 : m - 2 : 2] + 4.0 * y[..., 1 : m - 1 : 2] + y[..., 2:m:2], axis=-1)
    total *= dx / 3.0
    if m < n:
        h0 = h1 = np.float64(dx)
        alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1**3 / (6 * h0 * (h0 + h1))
        total += alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]
    return total


def _growth(c_mid, c_imag, h):
    """RK4's growth of the local WKB wave over each interval in octaves,
    both ways: log2 R(s), R(s) = 1 + s + s^2/2 + s^3/6 + s^4/24, s = h Re
    sqrt(c) for c = c_mid + i c_imag on the midpoints (K,).  Re sqrt(c)
    rises with c_mid and with |c_imag|, so the growth falls as Re z rises
    and grows with Im z."""
    s = np.sqrt(0.5 * h * h * (np.sqrt(c_mid * c_mid + c_imag**2) + c_mid))
    return np.log2(1.0 + s * (1.0 + s * (0.5 + s * (1.0 / 6.0 + s / 24.0))), out=s)


def _unscale(growth):
    """2^(E_k - E_k+1) (K,) for E_k the running sum of growth (K,) rounded
    to whole octaves, E_0 = 0: interval k's scale, which also undoes it in
    a ratio of neighbouring nodes."""
    octaves = np.zeros(growth.size + 1)
    np.rint(np.cumsum(growth, out=octaves[1:]), out=octaves[1:])
    # int32 exponents: np.ldexp takes a slow path for int64 ones
    octaves = octaves.astype(np.int32)
    return np.ldexp(1.0, octaves[:-1] - octaves[1:])


def _group_scales(zs, v_mid, m, h):
    """Per energy of zs (nz,), the _unscale array of its sweep: one array
    that all the energies share if they fit OCTAVE_BUDGET, else each its
    own growth's.

    The shared reference growth is taken at (max Re z, min Im z), the least
    growth of any energy on every interval (_growth), so every energy's
    scaled states only grow relative to the reference's and none falls
    toward the subnormals.  Against the octaves of its own growth an
    energy's u- is scaled up by at most the running sum of its growth less
    the reference's, and u+ by the rest of that sum; with every term
    nonnegative both are bounded by R, the sum over the window of the
    growth at (min Re z, max Im z) less the reference's.  The energies fit
    if R <= OCTAVE_BUDGET; a lone energy, whose R is 0, takes its own
    growth's octaves with no bound evaluated.  The scales are exact powers
    of two, so while the states stay in float64's normal range, y, the
    ratios and the drift are the same bits with any octave sequence."""
    if zs.size > 1:
        least = _growth(2.0 * m * (v_mid - zs.real.max()), 2.0 * m * zs.imag.min(), h)
        most = _growth(2.0 * m * (v_mid - zs.real.min()), 2.0 * m * zs.imag.max(), h)
        if np.sum(most - least) <= OCTAVE_BUDGET:
            return [_unscale(least)] * zs.size
    return [_unscale(_growth(2.0 * m * (v_mid - z.real), 2.0 * m * z.imag, h)) for z in zs]


def _step_band(c_nodes, c_mid, c_imag, h, unscale, band):
    """Write one energy's scaled RK4 step maps of u'' = c u over K intervals
    into band.

    c_nodes (K + 1,) and c_mid (K,) are Re c = 2m(V - Re z) on the nodes
    and midpoints, c_imag = -2m Im z, and unscale (K,) = 2^(E_k - E_k+1)
    for whole octaves E_k, E_0 = 0: _unscale of the reference growth that
    its call's energies share, or of its own (_group_scales); either gives
    the bits of its own growth's rows.
    One step takes (u, u') to (a u + b u', c u + d u') with

        a = 1 + h^2/6 (c_l + 2 c_m) + h^4/24 c_l c_m
        b = h + h^3/6 c_m
        c = h/6 (c_l + 4 c_m + c_r) + h^3/12 c_m (c_l + c_r)
        d = 1 + h^2/6 (2 c_m + c_r) + h^4/24 c_m c_r

    in real arithmetic, scaled by unscale_k.  band is a zeroed (4, 2(K + 1))
    complex array, Fortran-ordered because f2py would copy a C-ordered one
    on every call.  Column 2k gets -a and -c at offsets 2 and 3, column
    2k + 1 gets -b and -d at offsets 1 and 2, nothing else: a unit
    lower-triangular system of bandwidth 3.  Solved forward from
    x = (1, v0, 0, ...), its states are (u_0, u'_0, u_1, u'_1, ...) of u-
    times 2^-E_k.  Its transpose, solved back from x_2K = v0r and
    x_2K+1 = 1, has rows U_k = d U_k+1 + b W_k+1 (2k + 1) and W_k = c U_k+1
    + a W_k+1 (2k), times the same scale: the backward map [[d, b], [c, a]]
    of (u, -u'), RK4 run in -x.  So (W, U) is (-u+', u+) times
    2^(E_k - E_K): the octaves that bound u- bound u+, which decays where
    u- grows, both ratios of neighbours unscale by unscale_k, and the
    scaled states' product is u- u+ times 2^-E_K on every node, so the
    Wronskian drift needs no unscaling.  A solve on a node range reads
    only the entries that its part of the system reaches.
    """
    scale = np.negative(unscale)
    # row k: band columns 2k and 2k + 1 as 16 floats, the real parts of
    # -a, -c, -b and -d at 4, 6, 10 and 12, each imaginary part next
    parts = band.T.view(float).reshape(-1, 16)[: unscale.size]
    c_left, c_right = c_nodes[:-1], c_nodes[1:]
    s1, s2, s3, s4 = h / 6.0, h * h / 6.0, h**3 / 6.0, h**4 / 24.0
    g2 = c_imag * c_imag
    twice = 2.0 * c_mid
    left = c_left + twice
    np.multiply(1.0 + s2 * left + s4 * (c_left * c_mid - g2), scale, out=parts[:, 4])
    np.multiply(s1 * (c_left + 4.0 * c_mid + c_right)
                + 0.5 * s3 * (c_mid * (c_left + c_right) - 2.0 * g2), scale, out=parts[:, 6])
    np.multiply(h + s3 * c_mid, scale, out=parts[:, 10])
    np.multiply(1.0 + s2 * (twice + c_right) + s4 * (c_mid * c_right - g2), scale,
                out=parts[:, 12])
    # the imaginary parts are c_imag times a real factor: scaling c_imag
    # by a power of two first rounds each product the same way
    scale *= c_imag
    np.multiply(scale, 3.0 * s2 + s4 * (c_left + c_mid), out=parts[:, 5])
    np.multiply(scale, h + 0.5 * s3 * (left + c_right), out=parts[:, 7])
    np.multiply(scale, s3, out=parts[:, 11])
    np.multiply(scale, 3.0 * s2 + s4 * (c_mid + c_right), out=parts[:, 13])


def _wkb_log_derivative(c_edge, m, grad_edge):
    """u'/u of the solution decaying away from the grid, at a grid edge.

    kappa = sqrt(2m(V - z)) on the principal branch has Re > 0 whenever
    Im z > 0, which selects the decaying branch on both the steep and the
    asymptotically flat side (including energies above dissociation).
    """
    kappa = np.sqrt(c_edge)
    correction = m * grad_edge / (2.0 * kappa**2)
    return kappa - correction


def _sums(f, ratios, h, stop):
    """A_k = (integral of f u from x_0 to x_k) / u(x_k) on nodes 0..stop for
    one state f (M,) and each row of ratios r_k = u_k / u_k+1, shaped
    (..., M - 1): (..., stop + 1).

    With r bounded however u grows, A_0 = 0 and A_k+1 = r_k A_k + q_k, q_k
    the integral of f u over interval k divided by u_k+1: the 4-point cubic
    rule h/24 (-1, 13, 13, -1) on nodes k-1..k+2, or the 3-point rule h/12
    (5, 8, -1) on the first and last interval, each weight a product of at
    most two ratios.  (Cumulative Simpson would alternate
    its stencil between odd and even nodes, an error that the outer Simpson
    rule of the matrix element does not cancel: a few parts in 1e6 on the
    Morse surface at the default grid.)  Each row is one BLAS forward
    substitution (ztbsv) of the unit lower-bidiagonal system with -r below
    the diagonal, so an earlier stop leaves A_k unchanged.  ResolventRows
    passes f and r- from the first node of f's support on, or f reversed
    from its last and r+ reversed from the interval before it, so that x_0
    is that node and the sum skips the nodes where f is taken as 0.  f
    comes in complex, as ResolventRows casts it once per read, and 13 f,
    which does not depend on the row, is formed once per call.
    """
    n = ratios.shape[-1] + 1
    m = min(stop + 2, n)  # the nodes that intervals 0..stop-1 reach
    # intervals 1..last-1 take the 4-point rule, interval n-2 the end rule
    last = stop - 1 if stop == n - 1 else stop
    rows = ratios.shape[:-1]
    f = f[:m]
    thirteen = 13.0 * f[1 : last + 1]  # 13 f on nodes 1..last
    sums = np.zeros((math.prod(rows), stop + 1), dtype=complex)
    band = np.zeros((2, stop + 1), dtype=complex, order="F")
    for r, a in zip(ratios.reshape(-1, n - 1)[:, : m - 1], sums):
        np.negative(r[:stop], out=band[1, :stop])
        fr = f[:-1] * r
        q = a[1:]  # the right-hand side 24/h q_k
        q[0] = 2.0 * (5.0 * fr[0] + 8.0 * f[1] - f[2] / r[1])
        q[1:last] = (r[1:last] * (thirteen[:-1] - fr[: last - 1])
                     + thirteen[1:] - f[3 : last + 2] / r[2 : last + 1])
        if last < stop:
            q[-1] = 2.0 * (5.0 * f[-1] + 8.0 * fr[-1] - fr[-2] * r[-1])
        q *= h / 24.0
        # f2py would solve a copy of a row that is not contiguous and aligned
        if not np.may_share_memory(ztbsv(1, band, a, lower=1, diag=1, overwrite_x=1), a):
            raise RuntimeError("ztbsv did not solve a row of the sums in place")
    return sums.reshape(rows + (stop + 1,))


def _product(*factors):
    """The product of complex factors, left to right, by np.multiply: its
    array loop rounds with fused multiply-adds where numpy's scalar `*`
    does not, so the reads at a scalar z equal its row of a batch bit for
    bit."""
    return functools.reduce(np.multiply, factors)


def _interpolate(e, t, h, v0, d0, v1, d1):
    """F(x) / u(x_j) at x = x_j + t h, e = u(x_j+1) / u(x_j) (per row): the
    cubic Hermite interpolant of F = v u and F' = d u at the cell's nodes."""
    c0, c1 = (1.0 + 2.0 * t) * (1.0 - t) ** 2, t * (1.0 - t) ** 2 * h
    c2, c3 = t**2 * (3.0 - 2.0 * t), t**2 * (t - 1.0) * h
    return c0 * v0 + c1 * d0 + _product(c2 * v1 + c3 * d1, e)


def _ratio(y, e, j, t, h):
    """u(x)/u(x_j), y = u'/u, e = u(x_j+1) / u(x_j)."""
    return _interpolate(e, t, h, 1.0, y[..., j], 1.0, y[..., j + 1])


class ResolventRows:
    """G(x, x0; z) of one curve at energies z of any shape on nodes
    first..first + M - 1 of grid: y = u'/u of u- and u+ as z.shape + (M,)
    rows, the ratios r-_k = u-_k / u-_k+1 and r+_k = u+_k+1 / u+_k as
    z.shape + (M - 1,) rows, k counted from the rows' first node, and each
    row's Wronskian drift, shaped like z.  Each quadrature reads one state
    (M,) on the rows' nodes against every row; the quadratures and the
    point read are shaped like z too: complex scalars at a scalar z."""

    def __init__(self, curve, z, grid, first, y_minus, r_minus, y_plus, r_plus, drift):
        self.curve, self.z, self.grid, self.first = curve, z, grid, first
        self.y_minus, self.r_minus = y_minus, r_minus
        self.y_plus, self.r_plus = y_plus, r_plus
        self.wronskian_drift = drift

    def _cell(self, x):
        """x's cell j in the rows' nodes and its fraction t: x = x_j + t dx."""
        grid = self.grid
        if not grid.x_min <= x <= grid.x_max:
            raise ValueError(f"x = {x} outside the grid [{grid.x_min}, {grid.x_max}]")
        j = grid.index_below(x)
        if not 0 <= j - self.first < self.y_minus.shape[-1] - 1:
            raise ValueError(f"x = {x} outside the rows' nodes")
        return j - self.first, (x - grid.points[j]) / grid.dx

    def _on_nodes(self, f):
        """One state f (M,) on the rows' nodes as complex, finite, and its
        support (first, last) there, at least the three nodes that the
        sums' and Simpson's rules take.  numpy casts a real operand to
        complex before every complex loop, so the one cast here gives the
        quadratures the same bits without a buffered cast per operation."""
        f = np.asarray(f)
        if f.shape != self.y_minus.shape[-1:]:
            raise ValueError("wavefunction must be sampled on the resolvent's nodes")
        size = np.abs(f)
        peak = np.max(size)
        if not np.isfinite(peak):
            raise ValueError("wavefunction must be finite")
        support = np.flatnonzero(size >= SUPPORT_FLOOR * peak)
        if support[-1] - support[0] < 2:
            raise ValueError("wavefunction must span at least three nodes")
        return f.astype(complex, copy=False), (support[0], support[-1])

    def _sums_on(self, f, support, lo, hi):
        """A and B of f on nodes lo..hi, (..., hi - lo + 1) each: A summed from
        the first node of f's support, B from its last, each 0 before it.
        Where a sum starts does not depend on lo and hi, so the sums on
        any nodes are the same bit for bit."""
        first, last = support
        h = self.grid.dx
        a = np.zeros(self.y_minus.shape[:-1] + (hi - lo + 1,), dtype=complex)
        b = np.zeros_like(a)
        if hi > first:
            sums = _sums(f[first:], self.r_minus[..., first:], h, hi - first)
            a[..., max(first - lo, 0) :] = sums[..., max(lo - first, 0) :]
        if lo < last:
            sums = _sums(f[last::-1], self.r_plus[..., last - 1 :: -1], h, last - lo)
            end = min(last, hi) + 1 - lo
            b[..., :end] = sums[..., ::-1][..., :end]
        return a, b

    def _node_value(self, j):
        """G(x_j, x_j) = 2m u- u+ / W = 2m / (y+ - y-)."""
        return 2.0 * self.curve.mass / (self.y_plus[..., j] - self.y_minus[..., j])

    def point(self, x, x0):
        """G(x, x0), interpolating off-node arguments."""
        lo, hi = (x, x0) if x <= x0 else (x0, x)
        (j, t), (i, s) = self._cell(lo), self._cell(hi)
        r_minus = _ratio(self.y_minus, 1.0 / self.r_minus[..., j], j, t, self.grid.dx)
        r_plus = _ratio(self.y_plus, self.r_plus[..., i], i, s, self.grid.dx)
        # u+(x_i) / u+(x_j), the ratios of the cells between
        shift = np.prod(self.r_plus[..., j:i], axis=-1)
        return _product(self._node_value(j), r_minus, r_plus, shift)

    def vector(self, f, x0):
        """integral f(x) G(x, x0) dx = G(x0, x0) (A + B)(x0) for f on the
        nodes, A and B summed up to x0's cell only and interpolated in it."""
        f, support = self._on_nodes(f)
        j, t = self._cell(x0)
        return self._vector_at(f, j, t, *self._sums_on(f, support, j, j + 1))

    def _vector_at(self, f, j, t, a, b):
        """vector(f, x0) at x0 = x_j + t h from A and B at nodes j, j + 1."""
        h = self.grid.dx
        e_minus, e_plus = 1.0 / self.r_minus[..., j], self.r_plus[..., j]  # u(x_j+1) / u(x_j)
        r_minus = _ratio(self.y_minus, e_minus, j, t, h)
        r_plus = _ratio(self.y_plus, e_plus, j, t, h)
        # A u-(x0) / u-(x_j) and B u+(x0) / u+(x_j): (A u-)' = f u-, (B u+)' = -f u+
        fj, fk = f[j], f[j + 1]
        a0 = _interpolate(e_minus, t, h, a[..., 0], fj, a[..., 1], fk)
        b0 = _interpolate(e_plus, t, h, b[..., 0], -fj, b[..., 1], -fk)
        return _product(self._node_value(j), _product(a0, r_plus) + _product(b0, r_minus))

    def element_and_vector(self, f, g, x0=None):
        """The double integral of f(x) G(x, x0) g(x0) = integral of g G(x, x)
        (A + B) over g's support, A and B from _sums_on of f; given x0, also
        vector(f, x0) read from the same sums at x0's cell (else None)."""
        f, support = self._on_nodes(f)
        g, (lo, hi) = self._on_nodes(g)
        start, stop = lo, hi
        if x0 is not None:
            j, t = self._cell(x0)
            start, stop = min(lo, j), max(hi, j + 1)
        minus, plus = self._sums_on(f, support, start, stop)
        on, summed = np.s_[..., lo : hi + 1], np.s_[..., lo - start : hi + 1 - start]
        # g G(x, x) (A + B) on g's support, in two buffers
        work = np.subtract(self.y_plus[on], self.y_minus[on])
        integrand = np.multiply(g[lo : hi + 1], np.divide(2.0 * self.curve.mass, work, out=work))
        integrand *= np.add(minus[summed], plus[summed], out=work)
        element = _simpson(integrand, self.grid.dx)
        if x0 is None:
            return element, None
        cell = np.s_[..., j - start : j - start + 2]
        return element, self._vector_at(f, j, t, minus[cell], plus[cell])

    def matrix_element(self, f, g):
        """The double integral of f(x) G(x, x0) g(x0), O(N)."""
        return self.element_and_vector(f, g)[0]


def resolvent_rows(curve, zs, grid=None, nodes=None):
    """ResolventRows of one curve at energies zs of any shape on grid, one
    energy at a time after the swept grid is guarded (_check_coverage) and
    the octaves are planned once per call, shared by all the energies or
    each energy's own (_group_scales): one band of step maps (_step_band),
    u- solved forward from the left edge and u+ by the transposed system
    from the right one, their rows written, then checked
    for drift and for u- and u+ independent at the rows' first node:
    |y+ - y-| >= WRONSKIAN_DRIFT_LIMIT (|y+| + |y-|) there.  Given nodes =
    (lo, hi), integers with 0 <= lo < hi <= N - 1, u- is solved only to
    node hi and u+ only to node lo, and the rows and the drift hold nodes
    lo..hi; G(x, x) alone takes the nodes (j, j + 1) of x's cell.  The
    rows are zs.shape + (M,) and zs.shape + (M - 1,), so a scalar z gives
    1-D rows."""
    grid = DEFAULT_GRID if grid is None else grid
    lo, hi = (0, grid.n - 1) if nodes is None else nodes
    if not (isinstance(lo, (int, np.integer)) and isinstance(hi, (int, np.integer))
            and 0 <= lo < hi < grid.n):
        raise ValueError(f"nodes must be integers with 0 <= lo < hi <= {grid.n - 1}, not {nodes}")
    zs = np.asarray(zs, dtype=complex)
    shape, zs = zs.shape, zs.reshape(-1)
    if not np.all(np.isfinite(zs)) or np.any(zs.imag <= 0.0):
        raise ValueError("resolvents require a finite z with Im z > 0")
    x, h, m = grid.points, grid.dx, curve.mass
    v_nodes = np.asarray(curve.evaluate(x), dtype=float)
    v_mid = np.asarray(curve.evaluate(grid.midpoints), dtype=float)
    _check_coverage(curve, zs, v_nodes, h)
    # c = 2m(V - z): the real part varies along the grid, the imaginary
    # part -2m Im z does not
    c_imag = -(2.0 * m * zs.imag)
    v0 = _wkb_log_derivative(2.0 * m * (v_nodes[0] - zs.real) + 1j * c_imag, m,
                             float(curve.gradient(x[0])))
    v0r = _wkb_log_derivative(2.0 * m * (v_nodes[-1] - zs.real) + 1j * c_imag, m,
                              -float(curve.gradient(x[-1])))
    band = np.zeros((4, 2 * grid.n), dtype=complex, order="F")
    width = hi - lo + 1
    minus = np.empty(2 * (hi + 1), dtype=complex)
    plus = np.empty(2 * (grid.n - lo), dtype=complex)
    work = np.empty(width, dtype=complex)
    y_minus, y_plus = np.empty((2, zs.size, width), dtype=complex)
    r_minus, r_plus = np.empty((2, zs.size, width - 1), dtype=complex)
    drift = np.empty(zs.size)
    scales = _group_scales(zs, v_mid, m, h)
    for k, z in enumerate(zs):
        c_nodes = 2.0 * m * (v_nodes - z.real)
        c_mid = 2.0 * m * (v_mid - z.real)
        _step_band(c_nodes, c_mid, c_imag[k], h, scales[k], band)
        unscale = scales[k][lo:hi]
        # u- forward from (1, v0) on nodes 0..hi, u+ by the transposed
        # system from (v0r, 1) on nodes lo..N - 1, as (-u+', u+)
        minus.fill(0.0)
        minus[:2] = 1.0, v0[k]
        u, du = ztbsv(3, band[:, : minus.size], minus, lower=1, diag=1,
                      overwrite_x=1).reshape(-1, 2)[lo:].T
        plus.fill(0.0)
        plus[-2:] = v0r[k], 1.0
        dv, v = ztbsv(3, band[:, 2 * lo :], plus, lower=1, trans=1, diag=1,
                      overwrite_x=1).reshape(-1, 2)[:width].T
        np.divide(du, u, out=y_minus[k])
        np.divide(u[:-1], u[1:], out=r_minus[k])
        r_minus[k] *= unscale
        np.divide(dv, v, out=y_plus[k])
        np.negative(y_plus[k], out=y_plus[k])
        np.divide(v[1:], v[:-1], out=r_plus[k])
        r_plus[k] *= unscale
        p, q = y_plus[k, 0], y_minus[k, 0]
        if not abs(p - q) >= WRONSKIAN_DRIFT_LIMIT * (abs(p) + abs(q)):
            raise DegenerateWronskianError(f"u- and u+ at node {lo} are not independent "
                                           f"at z = {z}")
        # W = u- u+ (y+ - y-) is constant for the exact solutions, and the
        # scaled states' product is u- u+ times 2^-E_K on every node: the
        # drift is the largest |W_k / W_lo - 1| from the scaled states
        w = np.subtract(y_plus[k], y_minus[k], out=work)
        w *= u
        w *= v
        w_lo = w[0]
        drift[k] = np.max(np.abs(np.subtract(w, w_lo, out=w))) / abs(w_lo)
        if not drift[k] < WRONSKIAN_DRIFT_LIMIT:
            raise DegenerateWronskianError(f"Wronskian drift {drift[k]:.2e} at z = {z} "
                                           f"is not below {WRONSKIAN_DRIFT_LIMIT:.0e}")
    rows = (a.reshape(shape + a.shape[1:]) for a in (y_minus, r_minus, y_plus, r_plus))
    return ResolventRows(curve, zs.reshape(shape)[()], grid, lo, *rows, drift.reshape(shape)[()])


def build_resolvent(curve, z, grid=None):
    """ResolventRows of G(x, x0; z) at a single complex energy: 1-D rows."""
    return resolvent_rows(curve, z, grid)


def _check_coverage(curve, zs, v_nodes, dx):
    """Every curve's right edge, unless the curve is flat there, and a
    harmonic curve's left edge must be classically forbidden at the top of
    the scan; open channels (a Morse curve's left side, free propagation
    on a flat edge) are exempt because the WKB seed is the exact outgoing
    solution there.  The grid must also resolve the fastest local
    oscillation at the top of the scan: k_max dx <= MAX_K_DX."""
    z_top = float(np.max(zs.real, initial=-np.inf))  # no energies, nothing to cover
    right = v_nodes[-1] != v_nodes[-2] and v_nodes[-1] <= z_top
    if right or (isinstance(curve, HarmonicCurve) and v_nodes[0] <= z_top):
        raise GridError(
            "grid does not cover the classically relevant region: potential at "
            "a confining grid edge lies below Re z"
        )
    k_dx = math.sqrt(2.0 * curve.mass * max(z_top - float(np.min(v_nodes)), 0.0)) * dx
    if k_dx > MAX_K_DX:
        raise GridError(
            f"grid too coarse for the scan: k_max*dx = {k_dx:.2f} at Re z = {z_top:.6g} "
            f"exceeds {MAX_K_DX}; use more grid points"
        )


def _window(curve, zs, lo, hi, grid, x):
    """(window, a, nodes) for sweeps of curve at the energies zs (nz,) that
    read nodes lo..hi of grid and the point x.  The window, grid's nodes
    a..b, widens lo..hi on each side to the nearest node classically
    forbidden at the top energy z_top and SEED_EFOLDS of Re kappa = Re
    sqrt(2m(V - z_top)) away, else to the grid's edge.  z_top is (max Re z,
    min Im z), taken like the shared reference in _group_scales: it gives
    every node its least Re kappa over zs.  nodes, the rows' range in the
    window, is lo..hi shifted by a and widened to x's cell by the window's
    own index_below: its nodes match grid's only to an ulp.  It only plans:
    resolvent_rows guards the nodes that it sweeps (_check_coverage)."""
    a, b = 0, grid.n - 1
    if zs.size:
        v = curve.evaluate(grid.points)
        z_top = complex(zs.real.max(), zs.imag.min())
        efolds = np.cumsum(np.sqrt(2.0 * curve.mass * (v - z_top)).real) * grid.dx
        far = np.maximum(efolds[lo] - efolds, efolds - efolds[hi]) >= SEED_EFOLDS
        ok = far & (v > z_top.real)
        left, right = np.flatnonzero(ok[:lo]), np.flatnonzero(ok[hi:])
        a, b = (left[-1] if left.size else a), (hi + right[0] if right.size else b)
    window = Grid(float(grid.points[a]), float(grid.points[b]), int(b - a + 1))
    k = window.index_below(x)
    return window, int(a), (min(lo - a, k), max(hi - a, k + 1))


class HarmonicSpectralSum:
    """Truncated spectral representation of a harmonic-curve resolvent.

    G(x, x0) ~ sum_n phi_n(x) phi_n(x0) / (z - E_n) up to n_max.  Converges
    fast for matrix elements between smooth states; pointwise values carry
    a slowly decaying tail, estimated by point_tail_estimate.
    """

    def __init__(self, curve, z, n_max, grid=None):
        if not isinstance(curve, HarmonicCurve):
            raise ValueError("the spectral-sum oracle needs a harmonic curve")
        self.curve = curve
        self.z = complex(z)
        self.n_max = int(n_max)
        self.grid = grid if grid is not None else DEFAULT_GRID
        self.energies = curve.eigenvalue(np.arange(self.n_max + 1).astype(float))
        self.weights = 1.0 / (self.z - self.energies)
        self._table = harmonic_eigenstates(curve, self.n_max, self.grid.points)

    def point(self, x, x0):
        phi = harmonic_eigenstates(self.curve, self.n_max, np.array([x, x0]))
        return complex(np.sum(phi[:, 0] * phi[:, 1] * self.weights))

    def point_tail_estimate(self, x, x0):
        """|z - E_nmax|^-1 times the completeness deficit of the truncated
        basis at (x, x0); infinite on the diagonal, where the deficit is a
        delta function."""
        if x == x0:
            return math.inf
        phi = harmonic_eigenstates(self.curve, self.n_max, np.array([x, x0]))
        deficit = abs(float(np.sum(phi[:, 0] * phi[:, 1])))
        return deficit / abs(self.z - self.energies[-1])

    def _overlaps(self, f):
        """<phi_n|f> for n = 0..n_max, one pass over the table: a caller
        that reads one state several times takes them once and passes them
        to _vector_of and _element_of.  It runs on 16 rows at a time, so its
        products take a sixteenth of the table, not a second table; each
        row's sum is the same bits either way."""
        f = np.asarray(f)
        return np.concatenate([_simpson(self._table[n : n + 16] * f, self.grid.dx)
                               for n in range(0, self.n_max + 1, 16)])

    def _vector_of(self, p, x0):
        """vector(f, x0) from f's overlaps p."""
        phi0 = harmonic_eigenstates(self.curve, self.n_max, np.array([x0]))[:, 0]
        return complex(np.sum(phi0 * p * self.weights))

    def _element_of(self, p, q):
        """matrix_element(f, g) from f's and g's overlaps p and q."""
        return complex(np.sum(p * q * self.weights))

    def vector(self, f, x0):
        return self._vector_of(self._overlaps(f), x0)

    def matrix_element(self, f, g):
        return self._element_of(self._overlaps(f), self._overlaps(g))
