"""Reference values computed apart from dwlab.

Every function here restates a formula of the paper, or a defining
integral, in plain Python, so the benchmark can check the program's outputs
without calling the program.  Nothing in this module imports dwlab.
"""

from __future__ import annotations

import math

import mpmath

#: published continuation endpoints (alpha, beta, mu) = (0.5, 0.1, -1):
#: (h, c_cp target) -> (s, Omega)
PAPER_ENDPOINTS = {
    (0.5, 0.5): (0.112027, 0.447173),
    (10.1, -0.5): (3.99541, 8.05973),
}


def homogeneous_frame(alpha, beta, mu, h):
    """Selected (s0, Omega0) of the explicit wall family at c_cp = 0:
    s0 = (alpha h - beta)/(sqrt(-mu)(1 + alpha^2)),
    Omega0 = (h + alpha beta)/(1 + alpha^2)."""
    r = math.sqrt(-mu)
    return ((alpha * h - beta) / (r * (1.0 + alpha ** 2)),
            (h + alpha * beta) / (1.0 + alpha ** 2))


def center_field(alpha, beta, mu):
    """Upper field threshold h^* = beta/alpha - (2 mu/alpha^2)(1 + alpha^2),
    where the selected speed reaches 2 sqrt(-mu)/alpha (the center point)."""
    return beta / alpha - (2.0 * mu / alpha ** 2) * (1.0 + alpha ** 2)


def gap_a_hh(alpha, mu):
    """dh^2 coefficient of the energy-gap expansion about the center point,
    a_hh = (1 + alpha^2) pi^2 / (alpha rho^2 mu sqrt(-mu)),
    rho = e^{pi/alpha} - e^{-pi/alpha}."""
    rho = math.exp(math.pi / alpha) - math.exp(-math.pi / alpha)
    return ((1.0 + alpha ** 2) * math.pi ** 2
            / (alpha * rho ** 2 * mu * math.sqrt(-mu)))


def stability_region(alpha, beta, mu, h, c_cp):
    """Region of the uniform states +/- e3 from the curves
    Gamma+ = (beta/alpha)/(h - mu) - 1 (+e3 stable iff c_cp > Gamma+) and
    Gamma- = 1 - (beta/alpha)/(h + mu) (-e3 stable iff c_cp > Gamma-);
    None on a pole h = +/- mu."""
    if h == mu or h == -mu:
        return None
    ba = beta / alpha
    plus = c_cp > ba / (h - mu) - 1.0
    minus = c_cp > 1.0 - ba / (h + mu)
    if plus and minus:
        return "bistable"
    if plus:
        return "monostable+"
    if minus:
        return "monostable-"
    return "unstable"


def melnikov_integrals(alpha, mu, s0, digits=20):
    """(I_C, I_S, I_CC) by mpmath quadrature of their defining integrals,
    r = sqrt(-mu):

        I_C  = int e^{alpha s0 x} cos(-s0 x) / ((1 + e^{2rx})(1 + e^{-2rx}))
        I_S  = the same with sin(-s0 x)
        I_CC = int (1 - e^{2rx}) e^{(alpha s0 + 2r) x} cos(-s0 x)
                   / (1 + e^{2rx})^3

    For x > 0 the integrands decay only like e^{-(2r - alpha s0) x}, which
    is slow near the center point, while they oscillate with period
    2 pi / s0; that half-line goes through ``quadosc``, which sums the
    integral between zeros and extrapolates.
    """
    with mpmath.workdps(digits):
        a, s = mpmath.mpf(alpha), mpmath.mpf(s0)
        r = mpmath.sqrt(-mpmath.mpf(mu))

        def weight(x):
            return mpmath.exp(a * s * x) / ((1 + mpmath.exp(2 * r * x))
                                            * (1 + mpmath.exp(-2 * r * x)))

        def bump(x):
            e = mpmath.exp(2 * r * x)
            return (1 - e) * mpmath.exp((a * s + 2 * r) * x) / (1 + e) ** 3

        def integral(f):
            return float(mpmath.quad(f, [-mpmath.inf, 0])
                         + mpmath.quadosc(f, [0, mpmath.inf], omega=s))

        return (integral(lambda x: weight(x) * mpmath.cos(-s * x)),
                integral(lambda x: weight(x) * mpmath.sin(-s * x)),
                integral(lambda x: bump(x) * mpmath.cos(-s * x)))


def explicit_wall(xi, mu):
    """Explicit homogeneous wall (theta, p, q) =
    (2 arctan(e^{sqrt(-mu) xi}), sqrt(-mu), 0) at one point."""
    r = math.sqrt(-mu)
    arg = r * xi
    theta = math.pi if arg > 700.0 else 2.0 * math.atan(math.exp(arg))
    return theta, r, 0.0
