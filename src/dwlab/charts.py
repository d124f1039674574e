"""Closed-form chart analysis and the explicit homogeneous wall family.

On the invariant blow-up charts theta = 0 or pi (the poles +/-e3) the (p, q)
dynamics collapses to a complex scalar Riccati equation

    z' = A z^2 + B z + C,      z = p + i q,

with A = -cos(theta) = -/+1, B = -(alpha + i) s and
C = h - Omega + A*mu + i*(alpha*Omega - beta/(1 - A*c_cp)).  This module
provides the coefficients, the two equilibria with their spatial eigenvalues,
the explicit tangent-function flow, and the explicit homogeneous domain-wall
family with its selected speed and frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EquilibriumInput, PoleCrossing
from .model import MaterialParams, WaveFrame

__all__ = [
    "ChartId",
    "ChartCoefficients",
    "ChartEquilibrium",
    "chart_coefficients",
    "chart_equilibria",
    "chart_flow",
    "homogeneous_speed_frequency",
    "homogeneous_profile",
]

#: distance below which an initial condition counts as "at an equilibrium"
EQUILIBRIUM_GUARD = 1e-12

#: distance below which the tangent argument counts as "at a pole"
POLE_GUARD = 1e-10


@dataclass(frozen=True)
class ChartId:
    """Identifies an end chart by its angle: theta = 0 or pi."""

    theta: float

    def __post_init__(self):
        if self.theta not in (0.0, math.pi):
            raise ValueError("a chart angle is 0 or pi")

    @property
    def is_zero(self) -> bool:
        return self.theta == 0.0

    @property
    def A(self) -> float:
        """Quadratic coefficient A = -cos(theta): -1 at theta = 0, +1 at pi,
        the chart sign of every end-chart law."""
        return -1.0 if self.is_zero else 1.0


ZERO = ChartId(0.0)
PI = ChartId(math.pi)


@dataclass(frozen=True)
class ChartCoefficients:
    """Coefficients of z' = A z^2 + B z + C and gamma = sqrt(4AC - B^2)
    (principal branch)."""

    A: float
    B: complex
    C: complex
    gamma: complex


@dataclass(frozen=True)
class ChartEquilibrium:
    """Equilibrium z = p + i q on a chart with its three spatial eigenvalues:
    nu1, nu2 = conj(nu1) tangent to the chart, nu3 transverse."""

    chart: ChartId
    z: complex
    nu1: complex
    nu2: complex
    nu3: float

    @property
    def p(self) -> float:
        return self.z.real

    @property
    def q(self) -> float:
        return self.z.imag

    @property
    def eigenvalues(self):
        return (self.nu1, self.nu2, self.nu3)


def chart_coefficients(chart: ChartId, mp: MaterialParams,
                       wf: WaveFrame) -> ChartCoefficients:
    """Coefficients of the complex chart ODE for the given chart angle."""
    A = chart.A
    B = -(mp.alpha + 1j) * wf.s
    C = mp.h - wf.omega + A * mp.mu + 1j * (mp.alpha * wf.omega
                                             - mp.torque(A))
    gamma = np.sqrt(complex(4.0 * A * C - B * B))
    return ChartCoefficients(A=A, B=complex(B), C=complex(C),
                             gamma=complex(gamma))


def chart_equilibria(chart: ChartId, mp: MaterialParams, wf: WaveFrame):
    """The two equilibria (plus, minus) of the chart ODE on theta = 0 or pi.

    On theta = 0: z_+/- = (B -/+ i gamma)/2; on theta = pi:
    z_+/- = (-B +/- i gamma)/2.  Both are z = A (nu1 - B)/2, the root with
    tangent eigenvalue 2Az + B = nu1 = sigma*i*gamma; nu2 is its conjugate,
    and the transverse eigenvalue is -A*Re(z).
    """
    A = chart.A
    co = chart_coefficients(chart, mp, wf)
    out = []
    for sigma in (+1, -1):
        nu1 = sigma * 1j * co.gamma
        # A nu1 - A B part by part: exact for A = -/+1, where the complex
        # product (A + 0j) * x can flip the sign of a zero part
        z = 0.5 * complex(A * nu1.real - A * co.B.real,
                          A * nu1.imag - A * co.B.imag)
        out.append(ChartEquilibrium(chart=chart, z=z, nu1=nu1,
                                    nu2=nu1.conjugate(),
                                    nu3=float(-A * z.real)))
    return tuple(out)


def _pole_distance(w0: complex, w1: complex) -> float:
    """Distance from the segment [w0, w1] to the nearest pole pi/2 + k*pi of
    the complex tangent (all poles are real)."""
    lo = min(w0.real, w1.real)
    hi = max(w0.real, w1.real)
    k_lo = math.floor((lo - math.pi / 2) / math.pi) - 1
    k_hi = math.ceil((hi - math.pi / 2) / math.pi) + 1
    d = w1 - w0
    dd = (d * d.conjugate()).real
    best = math.inf
    for k in range(k_lo, k_hi + 1):
        pole = math.pi / 2 + k * math.pi
        if dd == 0.0:
            dist = abs(w0 - pole)
        else:
            t = ((pole - w0) * d.conjugate()).real / dd
            t = min(1.0, max(0.0, t))
            dist = abs(w0 + t * d - pole)
        best = min(best, dist)
    return best


def chart_flow(z0: complex, xi0: float, xi, coeffs: ChartCoefficients):
    """Exact solution z(xi) of z' = A z^2 + B z + C with z(xi0) = z0.

    The solution is
        z(xi) = (gamma/2A) tan(gamma xi / 2 + delta0) - B/(2A),
        delta0 = arctan((2 A z0 + B)/gamma) - gamma xi0 / 2,
    with principal-branch complex tan/arctan.

    ``xi`` may be a scalar or array.  Raises ``EquilibriumInput`` when z0 is
    within 1e-12 of an equilibrium (the constant solution applies) and
    ``PoleCrossing`` when the tangent argument passes within 1e-10 of a pole
    on the requested real interval.
    """
    A, B, gamma = coeffs.A, coeffs.B, coeffs.gamma
    xi_arr = np.asarray(xi, dtype=float)
    # u = 2 A z + B obeys u' = (u^2 + gamma^2)/2; the roots of
    # chart_equilibria are its rest points u = +/- i gamma
    u0 = 2 * A * z0 + B
    if min(abs(u0 - 1j * gamma),
           abs(u0 + 1j * gamma)) < 2 * EQUILIBRIUM_GUARD:
        raise EquilibriumInput("z0 is at a chart equilibrium")
    if gamma == 0:
        # degenerate double root: 1/u falls linearly, at rate 1/2
        out = np.asarray((1.0 / (1.0 / u0 - (xi_arr - xi0) / 2.0) - B)
                         / (2 * A))
        return out if out.shape else complex(out)

    delta0 = np.arctan(u0 / gamma) - gamma * xi0 / 2.0
    # pole proximity on the swept segment of the tangent argument
    xi_min = float(np.min(xi_arr))
    xi_max = float(np.max(xi_arr))
    lo = min(xi_min, xi0)
    hi = max(xi_max, xi0)
    w0 = gamma * lo / 2.0 + delta0
    w1 = gamma * hi / 2.0 + delta0
    if _pole_distance(complex(w0), complex(w1)) < POLE_GUARD:
        raise PoleCrossing(
            "tangent argument passes within 1e-10 of a pole on the interval")
    w = gamma * xi_arr / 2.0 + delta0
    out = (gamma / (2 * A)) * np.tan(w) - B / (2 * A)
    return out if out.shape else complex(out)


def homogeneous_speed_frequency(mp: MaterialParams) -> WaveFrame:
    """Selected speed and frequency of the explicit homogeneous wall family:

        s0 = (alpha*h - beta) / (sqrt(-mu) (1 + alpha^2)),
        Omega0 = (h + alpha*beta) / (1 + alpha^2).

    Requires mu < 0 and c_cp = 0 (the family only exists without polarization
    inhomogeneity).
    """
    if not (mp.mu < 0):
        raise ValueError("homogeneous walls require mu < 0")
    if mp.c_cp != 0.0:
        raise ValueError("the explicit homogeneous family requires c_cp = 0")
    r = math.sqrt(-mp.mu)
    s0 = (mp.alpha * mp.h - mp.beta) / (r * (1.0 + mp.alpha ** 2))
    omega0 = (mp.h + mp.alpha * mp.beta) / (1.0 + mp.alpha ** 2)
    return WaveFrame(s=s0, omega=omega0)


def homogeneous_profile(xi, mu: float) -> np.ndarray:
    """Explicit homogeneous domain wall on the nodes ``xi``: the (n, 3) array
    of (theta, p, q) = (2 arctan(e^{sqrt(-mu) xi}), sqrt(-mu), 0).  Where the
    exponential overflows, theta is exactly pi."""
    if not (mu < 0):
        raise ValueError("mu must be negative")
    r = math.sqrt(-mu)
    xi = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore"):
        theta = 2.0 * np.arctan(np.exp(r * xi))
    return np.stack([theta, np.full_like(theta, r),
                     np.zeros_like(theta)], axis=1)
