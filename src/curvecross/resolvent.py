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
depends on array alignment and SIMD lane.  Solutions grow through
hundreds of e-folds in the forbidden regions, so they are stored as
mantissa arrays with per-node log-scale offsets and every downstream
combination is assembled in log space.

A truncated eigenfunction expansion over harmonic eigenstates is provided
as an independent oracle for the same object.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .errors import DegenerateWronskianError
from .model import DEFAULT_GRID, HarmonicCurve, MorseCurve, harmonic_eigenstates

RESCALE_THRESHOLD = 1e100
WRONSKIAN_FLOOR = 1e-13
# Sweeps of at most this many energies run row by row on Python floats,
# larger ones on numpy rows; on a 2-core x86 host the two paths cost the
# same between nz = 7 and nz = 9.
SCALAR_ROWS = 8
# Nodes per block of step maps on the numpy-row path.
MAP_BLOCK = 128


def _log_abs(a):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(a))


def _unit_phase(a):
    a = np.asarray(a, dtype=complex)
    mag = np.abs(a)
    out = np.zeros_like(a)
    nz = mag > 1e-300  # subnormal magnitudes carry no usable phase
    out[nz] = a[nz] / mag[nz]
    return out


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
    c_imag (nz,) is Im c.  Each interval's step is its 2x2 map from
    _step_maps, and the recurrence (u, u') <- T (u, u') runs on the real
    and imaginary parts as four floats in one fixed order of correctly
    rounded operations: _sweep_scalar for up to SCALAR_ROWS energies,
    _sweep_rows above, with the same bits.  Returns mantissas of u and u'
    plus per-node log-scale offsets; a row is rescaled to |u| = 1 whenever
    |u| passes RESCALE_THRESHOLD.
    """
    nz, n = c_nodes.shape
    um = np.empty((nz, n), dtype=complex)
    ump = np.empty((nz, n), dtype=complex)
    jumps = np.zeros((nz, n))
    um[:, 0] = 1.0
    ump[:, 0] = v0
    sweep = _sweep_scalar if nz <= SCALAR_ROWS else _sweep_rows
    sweep(c_nodes, c_mid, c_imag[:, None], h, um, ump, jumps)
    return um, ump, np.cumsum(jumps, axis=1)


def _sweep_scalar(c_nodes, c_mid, c_imag, h, um, ump, jumps):
    """_sweep's recurrence one row at a time on Python floats: maps are read
    and states written through buffers, with no per-node numpy call."""
    maps = _step_maps(c_nodes[:, :-1], c_mid, c_nodes[:, 1:], c_imag, h)
    maps = np.stack(np.broadcast_arrays(*maps), axis=-1)
    limit = RESCALE_THRESHOLD**2
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
            usq = ur * ur + ui * ui
            if usq > limit:
                scale = math.sqrt(usq)
                ur, ui, vr, vi = ur / scale, ui / scale, vr / scale, vi / scale
                jumps[k, j // 2] = math.log(scale)
            u_out[j] = ur
            u_out[j + 1] = ui
            v_out[j] = vr
            v_out[j + 1] = vi
            j += 2


def _sweep_rows(c_nodes, c_mid, c_imag, h, um, ump, jumps):
    """_sweep's recurrence on numpy rows of all nz energies at once.

    The state (Re u, Im u, Re u', Im u') is multiplied column by column by
    a real 4x4 map per node and the four products are added in the order
    _sweep_scalar uses.  Maps and states are kept for MAP_BLOCK nodes at a
    time.
    """
    nz, n = c_nodes.shape
    limit = RESCALE_THRESHOLD**2
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
        for i, t in enumerate(block):
            np.multiply(t, state[:, None, :], out=prod)
            state = states[i]
            np.add(p0, p1, out=state)
            np.add(state, p2, out=state)
            np.add(state, p3, out=state)
            # the sum of |u|^2 over all rows bounds each row's; the margin
            # covers vdot's own rounding
            u = state[:2]
            if np.vdot(u, u) > 0.5 * limit:
                usq = state[0] * state[0] + state[1] * state[1]
                for k in np.flatnonzero(usq > limit):
                    scale = math.sqrt(usq[k])
                    state[:, k] /= scale
                    jumps[k, start + i + 1] = math.log(scale)
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


def _from_log(log_scale, value):
    """value * exp(log_scale) with the magnitudes combined in log space,
    so a huge scale times a tiny value never passes through inf * 0."""
    mag = abs(value)
    if mag == 0.0 or not np.isfinite(log_scale.real):
        return 0.0j
    total = math.log(mag) + log_scale.real
    if total < -745.0:
        return 0.0j
    return complex((value / mag) * np.exp(total + 1j * log_scale.imag))


def _cumulative(values, dx):
    if np.iscomplexobj(values):
        return cumulative_simpson(values.real, dx=dx, initial=0.0) + 1j * cumulative_simpson(
            values.imag, dx=dx, initial=0.0
        )
    return cumulative_simpson(values, dx=dx, initial=0.0)


def _segmented_cumulative(values, offsets, dx):
    """Cumulative integral of values(i) * exp(offsets(i)) from the left,
    returned as a mantissa array with the same per-node offsets.

    offsets must be piecewise constant and non-decreasing (the rescale
    ledger of an integration sweep); each constant segment is integrated
    at its own scale and the running total is re-expressed in the scale
    of every later segment, so interior values never collapse into
    subnormals no matter how large the overall dynamic range is.
    """
    n = values.size
    out = np.empty(n, dtype=complex)
    starts = np.flatnonzero(np.diff(offsets) != 0.0) + 1
    bounds = [0, *starts.tolist(), n]
    carry = 0.0j
    carry_log = -np.inf
    for s in range(len(bounds) - 1):
        a, b = bounds[s], bounds[s + 1]
        level = offsets[a]
        if a == 0:
            cum = _cumulative(values[a:b], dx)
        else:
            prev = values[a - 1] * math.exp(offsets[a - 1] - level)
            cum = _cumulative(np.concatenate(([prev], values[a:b])), dx)[1:]
        if np.isfinite(carry_log):
            cum = cum + carry * math.exp(carry_log - level)
        out[a:b] = cum
        carry = out[b - 1]
        carry_log = level
    return out


class PartialSums(NamedTuple):
    """One state's cumulative integrals against u- and u+ at one z, as
    returned by ResolventEvaluator.partial_sums."""

    evaluator: ResolventEvaluator
    minus: np.ndarray
    minus_integrand: np.ndarray
    plus: np.ndarray
    plus_integrand: np.ndarray


class ResolventEvaluator:
    """Immutable evaluator of G(x, x0; z) for one curve at one complex z."""

    def __init__(self, curve, z, grid, um, ump, logm, up, upp, logp, log_w, drift):
        self.curve = curve
        self.z = complex(z)
        self.grid = grid
        self._um = um
        self._ump = ump
        self._logm = logm
        self._up = up
        self._upp = upp
        self._logp = logp
        self._log_w = log_w
        self.wronskian_drift = drift
        self._mass = curve.mass

    # -- solution access -------------------------------------------------

    def _solution_at(self, x, side):
        """(value, derivative, logscale) of u- or u+ at arbitrary x,
        cubic-Hermite interpolated inside the containing cell."""
        u, du, logs = (
            (self._um, self._ump, self._logm)
            if side == "minus"
            else (self._up, self._upp, self._logp)
        )
        grid = self.grid
        if not grid.x_min <= x <= grid.x_max:
            raise ValueError(f"x = {x} outside the grid [{grid.x_min}, {grid.x_max}]")
        j = grid.index_below(x)
        h = grid.dx
        t = (x - grid.points[j]) / h
        ref = max(logs[j], logs[j + 1])
        s0 = math.exp(logs[j] - ref)
        s1 = math.exp(logs[j + 1] - ref)
        u0, u1 = u[j] * s0, u[j + 1] * s1
        m0, m1 = du[j] * s0 * h, du[j + 1] * s1 * h
        h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
        h10 = t * (1.0 - t) ** 2
        h01 = t**2 * (3.0 - 2.0 * t)
        h11 = t**2 * (t - 1.0)
        val = h00 * u0 + h10 * m0 + h01 * u1 + h11 * m1
        d00 = 6.0 * t * (t - 1.0)
        d10 = (1.0 - t) * (1.0 - 3.0 * t)
        d01 = -d00
        d11 = t * (3.0 * t - 2.0)
        der = (d00 * u0 + d10 * m0 + d01 * u1 + d11 * m1) / h
        return val, der, ref

    def _log_solution_at(self, x, side):
        val, _, ref = self._solution_at(x, side)
        return np.log(val) + ref

    # -- Green's function values ------------------------------------------

    def point(self, x, x0):
        """G(x, x0), interpolating off-node arguments."""
        lo, hi = (x, x0) if x <= x0 else (x0, x)
        log_g = (
            math.log(2.0 * self._mass)
            + self._log_solution_at(lo, "minus")
            + self._log_solution_at(hi, "plus")
            - self._log_w
        )
        return complex(np.exp(log_g))

    def row(self, x0):
        """G(x_i, x0) on all grid nodes for a fixed x0."""
        lm0 = self._log_solution_at(x0, "minus")
        lp0 = self._log_solution_at(x0, "plus")
        base = math.log(2.0 * self._mass) - self._log_w
        x = self.grid.points
        use_left = x <= x0
        log_mag = np.where(
            use_left,
            (base + lp0).real + _log_abs(self._um) + self._logm,
            (base + lm0).real + _log_abs(self._up) + self._logp,
        )
        phase = np.where(
            use_left,
            _unit_phase(self._um) * np.exp(1j * (base + lp0).imag),
            _unit_phase(self._up) * np.exp(1j * (base + lm0).imag),
        )
        return phase * np.exp(log_mag)

    def derivative_jump(self, x):
        """d/dx G(x, x0) jump across x = x0; equals 2m for the exact G."""
        um, dum, rm = self._solution_at(x, "minus")
        up, dup, rp = self._solution_at(x, "plus")
        w_local = np.log(um * dup - dum * up) + rm + rp
        return complex(2.0 * self._mass * np.exp(w_local - self._log_w))

    # -- quadratures -------------------------------------------------------

    def partial_sums(self, f):
        """Cumulative integrals of f u- (accumulated from the left) and
        f u+ (accumulated from the right) at this z, each a mantissa array
        carrying the matching solution's per-node log offsets.

        matrix_element and vector accept the result in place of f, so a
        state that enters several quadratures at one z is summed once.
        """
        f = np.asarray(f, dtype=complex)
        if f.shape != self.grid.points.shape:
            raise ValueError("wavefunction must be sampled on the evaluator grid")
        dx = self.grid.dx
        tm = f * self._um
        f_minus = _segmented_cumulative(tm, self._logm, dx)
        tp = f * self._up
        f_plus = _segmented_cumulative(tp[::-1], self._logp[::-1], dx)[::-1]
        return PartialSums(self, f_minus, tm, f_plus, tp)

    def _sums(self, f):
        if not isinstance(f, PartialSums):
            return self.partial_sums(f)
        if f.evaluator is not self:
            raise ValueError("partial sums were taken with another evaluator")
        return f

    def _interp_partial(self, cum, integrand, offsets, x):
        """Cumulative integral at off-node x via Hermite interpolation (the
        integrand is the cumulative's exact derivative up to sign); returns
        (mantissa, log offset)."""
        grid = self.grid
        j = grid.index_below(x)
        h = grid.dx
        t = (x - grid.points[j]) / h
        ref = max(offsets[j], offsets[j + 1])
        s0 = math.exp(offsets[j] - ref)
        s1 = math.exp(offsets[j + 1] - ref)
        m0, m1 = integrand[j] * s0 * h, integrand[j + 1] * s1 * h
        h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
        h10 = t * (1.0 - t) ** 2
        h01 = t**2 * (3.0 - 2.0 * t)
        h11 = t**2 * (t - 1.0)
        value = h00 * cum[j] * s0 + h10 * m0 + h01 * cum[j + 1] * s1 + h11 * m1
        return value, ref

    def vector(self, f, x0):
        """integral f(x) G(x, x0) dx for f sampled on the grid (or its
        partial_sums)."""
        sums = self._sums(f)
        fm0, lm0 = self._interp_partial(sums.minus, sums.minus_integrand, self._logm, x0)
        fp0, lp0 = self._interp_partial(sums.plus, -sums.plus_integrand, self._logp, x0)
        lum = self._log_solution_at(x0, "minus")
        lup = self._log_solution_at(x0, "plus")
        base = math.log(2.0 * self._mass) - self._log_w
        return _from_log(base + lup + lm0, fm0) + _from_log(base + lum + lp0, fp0)

    def matrix_element(self, f, g):
        """double integral f(x) G(x, x0) g(x0) dx dx0, O(N) via the
        u-/u+ factorization; the combined outer integrand is smooth.  f may
        be given as its partial_sums."""
        sums = self._sums(f)
        f_minus, f_plus = sums.minus, sums.plus
        g = np.asarray(g, dtype=complex)
        log_g = _log_abs(g)
        ph_g = _unit_phase(g)

        ell = self._logm + self._logp
        w1 = log_g + _log_abs(self._up) + _log_abs(f_minus) + ell
        w2 = log_g + _log_abs(self._um) + _log_abs(f_plus) + ell
        big = float(max(np.max(w1), np.max(w2)))
        if not np.isfinite(big):
            return 0.0j
        with np.errstate(under="ignore"):
            t1 = ph_g * _unit_phase(self._up) * _unit_phase(f_minus) * np.exp(w1 - big)
            t2 = ph_g * _unit_phase(self._um) * _unit_phase(f_plus) * np.exp(w2 - big)
        total = simpson(t1 + t2, dx=self.grid.dx)
        return _from_log(math.log(2.0 * self._mass) + big - self._log_w, complex(total))


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
    _check_coverage(curve, zs, v_nodes)
    m = curve.mass
    # c = 2m(V - z): the real part varies along the grid, the imaginary
    # part -2m Im z does not
    c_nodes = 2.0 * m * (v_nodes[None, :] - zs.real[:, None])
    c_mid = 2.0 * m * (v_mid[None, :] - zs.real[:, None])
    c_imag = -(2.0 * m * zs.imag)

    v0 = _wkb_log_derivative(c_nodes[:, 0] + 1j * c_imag, m, float(curve.gradient(x[0])))
    um, ump, logm = _sweep(c_nodes, c_mid, c_imag, grid.dx, v0)

    v0r = _wkb_log_derivative(c_nodes[:, -1] + 1j * c_imag, m, -float(curve.gradient(x[-1])))
    ur, urp, logr = _sweep(c_nodes[:, ::-1], c_mid[:, ::-1], c_imag, grid.dx, v0r)
    up = ur[:, ::-1]
    upp = -urp[:, ::-1]
    logp = logr[:, ::-1]

    w = um * upp - ump * up
    ell = logm + logp
    evaluators = []
    for k, z in enumerate(zs):
        r = int(np.argmax(_log_abs(w[k])))
        scale = np.abs(um[k, r] * upp[k, r]) + np.abs(ump[k, r] * up[k, r])
        if np.abs(w[k, r]) < WRONSKIAN_FLOOR * scale:
            raise DegenerateWronskianError(
                f"boundary solutions degenerate at z = {z}; grid or seeding failed"
            )
        log_w = complex(np.log(w[k, r]) + ell[k, r])
        d_mag = _log_abs(w[k]) + ell[k] - log_w.real
        d_phase = np.angle(w[k] * np.exp(-1j * log_w.imag))
        drift = float(np.max(np.abs(d_mag + 1j * d_phase)))
        evaluators.append(
            ResolventEvaluator(
                curve, z, grid, um[k], ump[k], logm[k], up[k], upp[k], logp[k], log_w, drift
            )
        )
    return evaluators


def build_resolvent(curve, z, grid=None):
    """Evaluator of G(x, x0; z) for a single complex energy."""
    return build_resolvent_batch(curve, [z], grid)[0]


def _check_coverage(curve, zs, v_nodes):
    """Edges where the curve confines must be classically forbidden; open
    channels (a dissociative curve's flat side, free propagation) are
    exempt because the WKB seed is the exact outgoing solution there."""
    z_top = float(np.max(zs.real))
    if isinstance(curve, HarmonicCurve):
        bad = v_nodes[0] <= z_top or v_nodes[-1] <= z_top
    elif isinstance(curve, MorseCurve):
        bad = v_nodes[-1] <= z_top
    else:
        bad = False
    if bad:
        raise ValueError(
            "grid does not cover the classically relevant region: potential at "
            "a confining grid edge lies below Re z"
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
