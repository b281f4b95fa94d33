"""Closed forms of G(x, x; z) = 2m u-(x) u+(x) / W on the harmonic and Morse
curves, evaluated with mpmath at DIGITS significant digits.

Harmonic, V = E0 + (m w^2 / 2)(x - x_min)^2: u-+ = D_nu(-+t), parabolic
cylinder functions of t = c (x - x_min), c = sqrt(2 m w), nu = (z - E0)/w
- 1/2, with W = -c sqrt(2 pi) / Gamma(-nu).

Morse, V = E0 + D (1 - exp(alpha (x - x_e)))^2: u- = xi^-1/2 M_{lam,mu}(xi)
and u+ = xi^-1/2 W_{lam,mu}(xi), Whittaker functions of xi = 2 lam
exp(alpha (x - x_e)), lam = sqrt(2 m D) / alpha, mu = sqrt(2m (E0 + D - z))
/ alpha, with W = -alpha Gamma(1 + 2 mu) / Gamma(1/2 + mu - lam).
"""

import mpmath

DIGITS = 30


def harmonic_diagonal(curve, z, x):
    """G(x, x) = -2m Gamma(-nu) D_nu(-t) D_nu(t) / (c sqrt(2 pi))."""
    with mpmath.workdps(DIGITS):
        m, w = mpmath.mpf(curve.mass), mpmath.mpf(curve.frequency)
        c = mpmath.sqrt(2 * m * w)
        t = c * (mpmath.mpf(x) - curve.minimum_position)
        nu = (mpmath.mpc(z) - curve.origin_energy) / w - mpmath.mpf(1) / 2
        product = mpmath.pcfd(nu, -t) * mpmath.pcfd(nu, t)
        return complex(-2 * m * mpmath.gamma(-nu) * product / (c * mpmath.sqrt(2 * mpmath.pi)))


def morse_diagonal(curve, z, x):
    """G(x, x) = -2m Gamma(1/2 + mu - lam) M(xi) W(xi) / (alpha xi Gamma(1 + 2 mu))."""
    with mpmath.workdps(DIGITS):
        m, a, d = (mpmath.mpf(v) for v in (curve.mass, curve.alpha, curve.well_depth))
        lam = mpmath.sqrt(2 * m * d) / a
        mu = mpmath.sqrt(2 * m * (curve.origin_energy + d - mpmath.mpc(z))) / a
        xi = 2 * lam * mpmath.exp(a * (mpmath.mpf(x) - curve.minimum_position))
        product = mpmath.whitm(lam, mu, xi) * mpmath.whitw(lam, mu, xi)
        ratio = mpmath.gamma(mpmath.mpf(1) / 2 + mu - lam) / mpmath.gamma(1 + 2 * mu)
        return complex(-2 * m * ratio * product / (a * xi))
