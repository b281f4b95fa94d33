"""Single-surface Green's functions at complex energy.

For one curve and one z with Im z > 0, two homogeneous solutions of
u'' = 2m(V - z)u are integrated across the grid: u- decaying toward
x -> -infinity and u+ decaying toward x -> +infinity, each seeded deep in
its forbidden (or asymptotically flat) region with the WKB logarithmic
derivative.  The Green's function is then

    G(x, x0) = 2m u-(min(x, x0)) u+(max(x, x0)) / W,   W = u- u+' - u-' u+,

symmetric by construction.  The equation is linear, so one RK4 step over
an interval is an exact 2x2 map of (u, u'); the sweeps compute these maps
in closed form for all intervals and then apply them in turn, on Python
floats for batches of up to SCALAR_ROWS energies and on numpy rows across
energies for larger ones.  Both recurrences run on real and imaginary
parts in real arithmetic, in one fixed order of correctly rounded
operations, so an energy's solutions are bit for bit the same in any
batch; numpy's complex ufuncs do not promise that, as their rounding
depends on array alignment and SIMD lane.

Solutions grow through hundreds of e-folds in the forbidden regions, more
than a float64 can span on a wide grid.  Each map is scaled in advance by
the power of two that cancels RK4's growth of the local WKB wave, and the
solutions are stored as y = u'/u and ell = log u per node (B. R. Johnson's
log-derivative, J. Comput. Phys. 13, 445 (1973)), so everything is bounded:

    G(x_j, x_j) = 2m / (y+ - y-)                         on the nodes,
    G(x, x0)    = G(x_j, x_j) u-(x)/u-(x_j) u+(x0)/u+(x_j)   off them,

with u(x)/u(x_j) from cubic Hermite interpolation in the cell.  For a
state f, A(x) = (integral of f u- up to x) / u-(x) and its mirror
B(x) = (integral of f u+ beyond x) / u+(x) give

    <f|G|x0> = G(x0, x0) (A + B)(x0),   <g|G|f> = integral of g G(x, x) (A + B),

where A_{k+1} = rho_k A_k + q_k, with coefficients from ratios of u at
neighbouring nodes: matrix_element runs this recurrence over the grid,
and vector takes A and B at x0's cell as direct sums of the q_k.

A truncated eigenfunction expansion over harmonic eigenstates is provided
as an independent oracle for the same object.
"""

from __future__ import annotations

import cmath
import math
import struct

import numpy as np
from scipy.integrate import simpson

from .errors import DegenerateWronskianError, GridError
from .model import DEFAULT_GRID, HarmonicCurve, MorseCurve, harmonic_eigenstates

# Largest Wronskian drift a build accepts (round-off gives about 1e-12).
WRONSKIAN_DRIFT_LIMIT = 1e-8
# Sweeps of at most this many energies run row by row on Python floats,
# larger ones on numpy rows; on a 2-core x86 host the two paths cost the
# same between nz = 7 and nz = 9.
SCALAR_ROWS = 8
# Nodes per block of step maps on the numpy-row path.
MAP_BLOCK = 128
# Largest local wavenumber times grid step that a sweep accepts.  Against
# an 8192-node reference over 9500-13500 cm^-1, the default model's
# coupled spectra are off by 2.4e-4 (absorption) and 6.3e-4 (Raman) at
# k_max dx = 0.47, and by 5.8e-3 and 1.3e-2 at 0.93.
MAX_K_DX = 0.5


def _step_maps(c_left, c_mid, c_right, c_imag, h):
    """The RK4 step of u'' = c u over each interval, as an exact 2x2 map.

    c_left, c_mid and c_right are Re c at the intervals' left nodes,
    midpoints and right nodes, shape (nz, k); c_imag = -2m Im z is the
    imaginary part, constant along the grid, shape (nz, 1).  One step takes
    (u, u') to (a u + b u', c u + d u') with

        a = 1 + h^2/6 (c_l + 2 c_m) + h^4/24 c_l c_m
        b = h + h^3/6 c_m
        c = h/6 (c_l + 4 c_m + c_r) + h^3/12 c_m (c_l + c_r)
        d = 1 + h^2/6 (2 c_m + c_r) + h^4/24 c_m c_r

    evaluated in real arithmetic.  Returns the real and imaginary parts
    (a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im), each (nz, k).
    """
    s1, s2, s3, s4 = h / 6.0, h * h / 6.0, h**3 / 6.0, h**4 / 24.0
    g2 = c_imag * c_imag
    return (
        1.0 + s2 * (c_left + 2.0 * c_mid) + s4 * (c_left * c_mid - g2),
        c_imag * (3.0 * s2 + s4 * (c_left + c_mid)),
        h + s3 * c_mid,
        s3 * c_imag,
        s1 * (c_left + 4.0 * c_mid + c_right)
        + 0.5 * s3 * (c_mid * (c_left + c_right) - 2.0 * g2),
        c_imag * (h + 0.5 * s3 * (c_left + 2.0 * c_mid + c_right)),
        1.0 + s2 * (2.0 * c_mid + c_right) + s4 * (c_mid * c_right - g2),
        c_imag * (3.0 * s2 + s4 * (c_mid + c_right)),
    )


def _sweep(c_nodes, c_mid, c_imag, h, v0):
    """Integrate u'' = c(x) u left to right with RK4, u(x_0) = 1, u'(x_0) = v0.

    Re c is tabulated at nodes (nz, N) and interval midpoints (nz, N-1);
    c_imag (nz,) is Im c.  Interval k's 2x2 map T from _step_maps is scaled
    by 2^(E_k - E_k+1) from _octaves, and (u, u') <- T (u, u') runs in one
    fixed order of correctly rounded real operations: _sweep_scalar for up
    to SCALAR_ROWS energies, _sweep_rows above, with the same bits.  The
    state is plain RK4's times 2^-E_k, bit for bit; E ln 2 is added back into
    (ell, y) = (log u, u'/u), formed in the sweep's own buffers.
    """
    nz, n = c_nodes.shape
    c_imag = c_imag[:, None]
    octaves = _octaves(c_mid, c_imag, h)
    um = np.empty((nz, n), dtype=complex)
    ump = np.empty((nz, n), dtype=complex)
    um[:, 0] = 1.0
    ump[:, 0] = v0
    sweep = _sweep_scalar if nz <= SCALAR_ROWS else _sweep_rows
    sweep(c_nodes, c_mid, c_imag, h, octaves, um, ump)
    y = np.divide(ump, um, out=ump)
    ell = _log(um, out=um)
    octaves *= math.log(2.0)
    ell.real += octaves
    return ell, y


def _octaves(c_mid, c_imag, h):
    """E_k, RK4's growth of the local WKB wave from x_0 to x_k in whole octaves,
    (nz, N) with E_0 = 0: the running sum of log2 R(s), R(s) = 1 + s + s^2/2
    + s^3/6 + s^4/24, s = h Re sqrt(c_mid), rounded so the scales 2^-E are exact."""
    octaves = np.zeros((c_mid.shape[0], c_mid.shape[1] + 1))
    s = octaves[:, 1:]
    np.sqrt(0.5 * h * h * (np.hypot(c_mid, c_imag) + c_mid), out=s)
    np.log2(1.0 + s * (1.0 + s * (0.5 + s * (1.0 / 6.0 + s / 24.0))), out=s)
    np.rint(np.cumsum(s, axis=1, out=s), out=s)
    return octaves


def _log(a, out):
    """log a for a complex array, written into out (which may be a), from
    real ufuncs: numpy's complex log costs several times more."""
    phase = np.angle(a)
    np.log(np.abs(a), out=out.real)
    out.imag = phase
    return out


def _sweep_scalar(c_nodes, c_mid, c_imag, h, octaves, um, ump):
    """_sweep's recurrence one row at a time on Python floats: maps are read
    and states written through buffers, with no per-node numpy call."""
    maps = _step_maps(c_nodes[:, :-1], c_mid, c_nodes[:, 1:], c_imag, h)
    maps = np.stack(np.broadcast_arrays(*maps), axis=-1)
    np.ldexp(maps, -np.diff(octaves).astype(int)[..., None], out=maps)
    for k in range(um.shape[0]):
        u_out = memoryview(um[k].view(float))
        v_out = memoryview(ump[k].view(float))
        ur, ui, vr, vi = u_out[0], u_out[1], v_out[0], v_out[1]
        j = 2
        for ar, ai, br, bi, cr, ci, dr, di in struct.iter_unpack("8d", maps[k]):
            ur, ui, vr, vi = (
                ar * ur - ai * ui + br * vr - bi * vi,
                ai * ur + ar * ui + bi * vr + br * vi,
                cr * ur - ci * ui + dr * vr - di * vi,
                ci * ur + cr * ui + di * vr + dr * vi,
            )
            u_out[j] = ur
            u_out[j + 1] = ui
            v_out[j] = vr
            v_out[j + 1] = vi
            j += 2


def _sweep_rows(c_nodes, c_mid, c_imag, h, octaves, um, ump):
    """_sweep's recurrence on numpy rows of all nz energies at once.

    The state (Re u, Im u, Re u', Im u') is multiplied column by column by
    a real 4x4 map per node and the four products are added in the order
    _sweep_scalar uses.  Maps and states are kept for MAP_BLOCK nodes at a
    time.
    """
    nz, n = c_nodes.shape
    u_flat = um.view(float).reshape(nz, n, 2)
    v_flat = ump.view(float).reshape(nz, n, 2)
    # maps[i, col, row]: the factor of state[col] in the new state[row]
    maps = np.empty((MAP_BLOCK, 4, 4, nz))
    states = np.empty((MAP_BLOCK, 4, nz))
    prod = np.empty((4, 4, nz))
    p0, p1, p2, p3 = prod
    state = np.concatenate([u_flat[:, 0].T, v_flat[:, 0].T])
    for start in range(0, n - 1, MAP_BLOCK):
        stop = min(start + MAP_BLOCK, n - 1)
        a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im = (
            t.T
            for t in _step_maps(
                c_nodes[:, start:stop], c_mid[:, start:stop],
                c_nodes[:, start + 1 : stop + 1], c_imag, h,
            )
        )
        block = maps[: stop - start]
        for row, entries in enumerate((
            (a_re, -a_im, b_re, -b_im),
            (a_im, a_re, b_im, b_re),
            (c_re, -c_im, d_re, -d_im),
            (c_im, c_re, d_im, d_re),
        )):
            for col, entry in enumerate(entries):
                block[:, col, row] = entry
        shift = octaves[:, start:stop] - octaves[:, start + 1 : stop + 1]
        block *= np.ldexp(1.0, shift.T.astype(int))[:, None, None, :]
        for i, t in enumerate(block):
            np.multiply(t, state[:, None, :], out=prod)
            state = states[i]
            np.add(p0, p1, out=state)
            np.add(state, p2, out=state)
            np.add(state, p3, out=state)
        done = states[: stop - start]
        u_flat[:, start + 1 : stop + 1] = done[:, :2].transpose(2, 0, 1)
        v_flat[:, start + 1 : stop + 1] = done[:, 2:].transpose(2, 0, 1)


def _wkb_log_derivative(c_edge, m, grad_edge):
    """u'/u of the solution decaying away from the grid, at a grid edge.

    kappa = sqrt(2m(V - z)) on the principal branch has Re > 0 whenever
    Im z > 0, which selects the decaying branch on both the steep and the
    asymptotically flat side (including energies above dissociation).
    """
    kappa = np.sqrt(c_edge)
    correction = m * grad_edge / (2.0 * kappa**2)
    return kappa - correction


def _increments(f, ell, h):
    """rho_k = u(x_k)/u(x_{k+1}) and q_k, the integral of f u / u(x_{k+1})
    over [x_k, x_{k+1}], with u = exp(ell).  q_k takes the 4-point cubic rule
    h/24 (-1, 13, 13, -1) on nodes k-1..k+2, and the 3-point rule
    h/12 (5, 8, -1) on the first and last interval."""
    rho = np.exp(ell[:-1] - ell[1:])
    back = f[:-1] * rho  # f u at x_k, over u(x_{k+1})
    ahead = f[1:] / rho  # f u at x_{k+1}, over u(x_k)
    q = np.empty(rho.size, dtype=complex)
    q[0] = h / 12.0 * (5.0 * back[0] + 8.0 * f[1] - ahead[1])
    q[1:-1] = h / 24.0 * (13.0 * (back[1:-1] + f[2:-1]) - back[:-2] * rho[1:-1] - ahead[2:])
    q[-1] = h / 12.0 * (5.0 * f[-1] + 8.0 * back[-1] - back[-2] * rho[-1])
    return rho, q


def _running_sums(f, ell, h):
    """A_k = (integral of f u from x_0 to x_k) / u(x_k), with u = exp(ell).

    Runs A_{k+1} = rho_k A_k + q_k with the coefficients of _increments on
    Python complex numbers.  Every factor is a ratio of u at nearby nodes,
    so A stays bounded however far u grows across the grid.  (Cumulative
    Simpson would alternate its stencil between odd and even nodes, an
    error that the outer Simpson rule of matrix_element does not cancel: a
    few parts in 1e6 on the Morse surface at the default grid.)
    """
    rho, q = _increments(f, ell, h)
    a = 0j
    sums = [a]
    append = sums.append
    for r, dq in zip(rho.tolist(), q.tolist()):
        a = r * a + dq
        append(a)
    return np.array(sums)


def _sums_at(f, ell, h, j):
    """(A_j, A_{j+1}) of _running_sums without its loop: A_j is the direct
    sum of q_k u(x_{k+1}) / u(x_j) over k < j.  The increments are taken on
    nodes 0..j+2 only, where q_0..q_j already have their full-grid values:
    the end rule falls on q_{j+1}, which is not used."""
    rho, q = _increments(f[: j + 3], ell[: j + 3], h)
    a = complex(np.dot(q[:j], np.exp(ell[1 : j + 1] - ell[j])))
    return a, complex(rho[j] * a + q[j])


def _hermite(t, v0, s0, v1, s1):
    """Cubic Hermite interpolant at fraction t of a cell, from the end
    values v0, v1 and the end slopes times the cell width s0, s1; returns
    the value and the slope times the cell width."""
    value = (
        (1.0 + 2.0 * t) * (1.0 - t) ** 2 * v0
        + t * (1.0 - t) ** 2 * s0
        + t**2 * (3.0 - 2.0 * t) * v1
        + t**2 * (t - 1.0) * s1
    )
    slope = (
        6.0 * t * (t - 1.0) * (v0 - v1)
        + (1.0 - t) * (1.0 - 3.0 * t) * s0
        + t * (3.0 * t - 2.0) * s1
    )
    return value, slope


class ResolventEvaluator:
    """Immutable evaluator of G(x, x0; z) for one curve at one complex z,
    holding y = u'/u and ell = log u of u- and u+ on the grid nodes."""

    def __init__(self, curve, z, grid, y_minus, ell_minus, y_plus, ell_plus, drift):
        self.curve = curve
        self.z = complex(z)
        self.grid = grid
        self._ym = y_minus
        self._lm = ell_minus
        self._yp = y_plus
        self._lp = ell_plus
        self.wronskian_drift = drift
        self._mass = curve.mass

    # -- local interpolation ----------------------------------------------

    def _cell(self, x):
        grid = self.grid
        if not grid.x_min <= x <= grid.x_max:
            raise ValueError(f"x = {x} outside the grid [{grid.x_min}, {grid.x_max}]")
        j = grid.index_below(x)
        return j, (x - grid.points[j]) / grid.dx

    def _interpolate(self, ell, j, t, v0, d0, v1, d1):
        """F(x) / u(x_j) at x = x_j + t h, cubic-Hermite interpolated from
        F = v u and F' = d u at the cell's two nodes; returns it and h times
        its derivative.  With v = 1 and d = y this is the ratio u(x)/u(x_j)."""
        h = self.grid.dx
        e = cmath.exp(ell[j + 1] - ell[j])
        return _hermite(t, v0, h * d0, v1 * e, h * d1 * e)

    def _ratios(self, j, t):
        """u-(x)/u-(x_j) and u+(x)/u+(x_j), each with h times its derivative."""
        return self._ratio(self._ym, self._lm, j, t), self._ratio(self._yp, self._lp, j, t)

    def _ratio(self, y, ell, j, t):
        return self._interpolate(ell, j, t, 1.0, y[j], 1.0, y[j + 1])

    def _node_value(self, j):
        """G(x_j, x_j) = 2m u- u+ / W = 2m / (y+ - y-)."""
        return 2.0 * self._mass / (self._yp[j] - self._ym[j])

    # -- Green's function values ------------------------------------------

    def point(self, x, x0):
        """G(x, x0), interpolating off-node arguments."""
        lo, hi = (x, x0) if x <= x0 else (x0, x)
        j, t = self._cell(lo)
        i, s = self._cell(hi)
        r_minus, _ = self._ratio(self._ym, self._lm, j, t)
        r_plus, _ = self._ratio(self._yp, self._lp, i, s)
        shift = cmath.exp(self._lp[i] - self._lp[j])
        return complex(self._node_value(j) * r_minus * r_plus * shift)

    def row(self, x0):
        """G(x_i, x0) on all grid nodes for a fixed x0."""
        j, t = self._cell(x0)
        (r_minus, _), (r_plus, _) = self._ratios(j, t)
        g = self._node_value(j)
        k = int(np.searchsorted(self.grid.points, x0, side="right"))
        return np.concatenate((
            g * r_plus * np.exp(self._lm[:k] - self._lm[j]),
            g * r_minus * np.exp(self._lp[k:] - self._lp[j]),
        ))

    def derivative_jump(self, x):
        """d/dx G(x, x0) jump across x = x0; equals 2m for the exact G."""
        j, t = self._cell(x)
        (r_minus, s_minus), (r_plus, s_plus) = self._ratios(j, t)
        jump = self._node_value(j) * (r_minus * s_plus - s_minus * r_plus) / self.grid.dx
        return complex(jump)

    # -- quadratures -------------------------------------------------------

    def _on_grid(self, f):
        f = np.asarray(f, dtype=complex)
        if f.shape != self.grid.points.shape:
            raise ValueError("wavefunction must be sampled on the evaluator grid")
        return f

    def vector(self, f, x0):
        """integral f(x) G(x, x0) dx = G(x0, x0) (A + B)(x0) for f sampled
        on the grid, with A and B taken at the cell's two nodes by direct
        sums and Hermite-interpolated between them."""
        f = self._on_grid(f)
        j, t = self._cell(x0)
        (r_minus, _), (r_plus, _) = self._ratios(j, t)
        h = self.grid.dx
        a_j, a_j1 = _sums_at(f, self._lm, h, j)
        b_j1, b_j = _sums_at(f[::-1], self._lp[::-1], h, f.size - 2 - j)
        # A u-(x0) / u-(x_j) and B u+(x0) / u+(x_j); d/dx (A u-) = f u-,
        # d/dx (B u+) = -f u+
        a0, _ = self._interpolate(self._lm, j, t, a_j, f[j], a_j1, f[j + 1])
        b0, _ = self._interpolate(self._lp, j, t, b_j, -f[j], b_j1, -f[j + 1])
        return complex(self._node_value(j) * (a0 * r_plus + b0 * r_minus))

    def matrix_element(self, f, g):
        """double integral f(x) G(x, x0) g(x0) dx dx0 = integral of
        g G(x, x) (A + B) over the nodes, O(N), with A and B from the
        running-sum recurrences of f."""
        f = self._on_grid(f)
        g = self._on_grid(g)
        h = self.grid.dx
        minus = _running_sums(f, self._lm, h)
        plus = _running_sums(f[::-1], self._lp[::-1], h)[::-1]
        diagonal = 2.0 * self._mass / (self._yp - self._ym)
        return complex(simpson(g * diagonal * (minus + plus), dx=h))


def build_resolvent_batch(curve, zs, grid=None):
    """Evaluators for one curve at several z values, sharing one set of
    integration sweeps (vectorized over z)."""
    if grid is None:
        grid = DEFAULT_GRID
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if np.any(zs.imag <= 0.0):
        raise ValueError("resolvents require Im z > 0")
    x = grid.points
    v_nodes = np.asarray(curve.evaluate(x), dtype=float)
    v_mid = np.asarray(curve.evaluate(grid.midpoints), dtype=float)
    _check_coverage(curve, zs, v_nodes, grid.dx)
    m = curve.mass
    # c = 2m(V - z): the real part varies along the grid, the imaginary
    # part -2m Im z does not
    c_nodes = 2.0 * m * (v_nodes[None, :] - zs.real[:, None])
    c_mid = 2.0 * m * (v_mid[None, :] - zs.real[:, None])
    c_imag = -(2.0 * m * zs.imag)

    v0 = _wkb_log_derivative(c_nodes[:, 0] + 1j * c_imag, m, float(curve.gradient(x[0])))
    ell_minus, y_minus = _sweep(c_nodes, c_mid, c_imag, grid.dx, v0)

    v0r = _wkb_log_derivative(c_nodes[:, -1] + 1j * c_imag, m, -float(curve.gradient(x[-1])))
    ell_r, y_r = _sweep(c_nodes[:, ::-1], c_mid[:, ::-1], c_imag, grid.dx, v0r)
    ell_plus = ell_r[:, ::-1]
    y_plus = np.negative(y_r, out=y_r)[:, ::-1]

    evaluators = []
    for k, z in enumerate(zs):
        ym, yp = y_minus[k], y_plus[k]
        dy = yp - ym
        # log W = ell- + ell+ + log(y+ - y-) is constant for the exact
        # solutions; the drift is its largest departure from the left edge,
        # the phase taken modulo 2 pi
        log_w = _log(dy, out=dy)
        log_w += ell_minus[k] + ell_plus[k]
        log_w -= log_w[0]
        phase = np.remainder(log_w.imag + np.pi, 2.0 * np.pi) - np.pi
        drift = float(np.max(np.hypot(log_w.real, phase)))
        if not drift < WRONSKIAN_DRIFT_LIMIT:
            raise DegenerateWronskianError(
                f"Wronskian drift {drift:.2e} at z = {z} is not below {WRONSKIAN_DRIFT_LIMIT:.0e}"
            )
        evaluators.append(
            ResolventEvaluator(curve, z, grid, ym, ell_minus[k], yp, ell_plus[k], drift)
        )
    return evaluators


def build_resolvent(curve, z, grid=None):
    """Evaluator of G(x, x0; z) for a single complex energy."""
    return build_resolvent_batch(curve, [z], grid)[0]


def _check_coverage(curve, zs, v_nodes, dx):
    """Edges where the curve confines must be classically forbidden; open
    channels (a dissociative curve's flat side, free propagation) are
    exempt because the WKB seed is the exact outgoing solution there.  The
    grid must also resolve the fastest local oscillation at the top of the
    scan: k_max dx <= MAX_K_DX."""
    z_top = float(np.max(zs.real))
    if isinstance(curve, HarmonicCurve):
        bad = v_nodes[0] <= z_top or v_nodes[-1] <= z_top
    elif isinstance(curve, MorseCurve):
        bad = v_nodes[-1] <= z_top
    else:
        bad = False
    if bad:
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
        return simpson(self._table * np.asarray(f)[None, :], dx=self.grid.dx, axis=1)

    def vector(self, f, x0):
        phi0 = harmonic_eigenstates(self.curve, self.n_max, np.array([x0]))[:, 0]
        return complex(np.sum(phi0 * self._overlaps(f) * self.weights))

    def matrix_element(self, f, g):
        return complex(np.sum(self._overlaps(f) * self._overlaps(g) * self.weights))

    def completeness_deficit(self, f):
        """1 - sum_n <phi_n|f>^2 / <f|f> for a real f on the grid."""
        f = np.asarray(f)
        norm = simpson(f * f, dx=self.grid.dx)
        return float(1.0 - np.sum(self._overlaps(f) ** 2) / norm)
