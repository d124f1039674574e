"""Closed-form chart analysis and the explicit homogeneous wall family.

On the invariant charts theta = 0, pi (and, for testing, on artificially
fixed interior angles) the (p, q) dynamics collapses to a complex scalar
Riccati equation

    z' = A z^2 + B z + C,      z = p + i q,

with A = -cos(theta), B = -(alpha + i) s and
C = h - Omega + A*mu + i*(alpha*Omega - beta/(1 - A*c_cp)).  This module
provides the coefficients, the two equilibria with their spatial eigenvalues,
the explicit tangent-function flow, and the explicit homogeneous domain-wall
family with its selected speed and frequency.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EquilibriumInput, PoleCrossing
from .model import ChartState, MaterialParams, WaveFrame

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
    """Identifies a chart by its fixed angle: 0, pi, or an interior value."""

    theta: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError("chart angle must lie in [0, pi]")

    @property
    def is_zero(self) -> bool:
        return self.theta == 0.0

    @property
    def is_pi(self) -> bool:
        return self.theta == math.pi

    @property
    def A(self) -> float:
        """Quadratic coefficient A = -cos(theta); -1 at theta=0, +1 at pi."""
        if self.is_zero:
            return -1.0
        if self.is_pi:
            return 1.0
        return -math.cos(self.theta)

    @classmethod
    def fixed(cls, theta: float) -> "ChartId":
        if not (0.0 < theta < math.pi):
            raise ValueError("a fixed interior chart requires theta in (0, pi)")
        return cls(theta)


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
    sigma: int
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

    def state(self) -> ChartState:
        return ChartState(self.chart.theta, self.z.real, self.z.imag)

    @property
    def eigenvalues(self):
        return (self.nu1, self.nu2, self.nu3)


def chart_coefficients(chart: ChartId, mp: MaterialParams,
                       wf: WaveFrame) -> ChartCoefficients:
    """Coefficients of the complex chart ODE for the given chart angle."""
    A = chart.A
    B = -(mp.alpha + 1j) * wf.s
    C = (mp.h - wf.omega + A * mp.mu
         + 1j * (mp.alpha * wf.omega - mp.beta / (1.0 - A * mp.c_cp)))
    gamma = np.sqrt(complex(4.0 * A * C - B * B))
    return ChartCoefficients(A=A, B=complex(B), C=complex(C),
                             gamma=complex(gamma))


def chart_equilibria(chart: ChartId, mp: MaterialParams, wf: WaveFrame):
    """The two equilibria (plus, minus) of the chart ODE on theta = 0 or pi.

    On theta = 0: z_+/- = (B -/+ i gamma)/2; on theta = pi:
    z_+/- = (-B +/- i gamma)/2.  Tangent eigenvalues are sigma*i*gamma and its
    conjugate; the transverse eigenvalue is -A*Re(z).
    """
    if not (chart.is_zero or chart.is_pi):
        raise ValueError("equilibria are provided only on the theta=0/pi charts")
    co = chart_coefficients(chart, mp, wf)
    out = []
    for sigma in (+1, -1):
        if chart.is_zero:
            z = 0.5 * (co.B - sigma * 1j * co.gamma)
        else:
            z = 0.5 * (-co.B + sigma * 1j * co.gamma)
        nu1 = sigma * 1j * co.gamma
        nu3 = -co.A * z.real
        out.append(ChartEquilibrium(chart=chart, sigma=sigma, z=z,
                                    nu1=nu1, nu2=nu1.conjugate(),
                                    nu3=float(nu3)))
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

    For A != 0 the solution is
        z(xi) = (gamma/2A) tan(gamma xi / 2 + delta0) - B/(2A),
        delta0 = arctan((2 A z0 + B)/gamma) - gamma xi0 / 2,
    with principal-branch complex tan/arctan; for A = 0 the linear equation
    gives z(xi) = (z0 + C/B) e^{B (xi - xi0)} - C/B.

    ``xi`` may be a scalar or array.  Raises ``EquilibriumInput`` when z0 is
    within 1e-12 of an equilibrium (the constant solution applies) and
    ``PoleCrossing`` when the tangent argument passes within 1e-10 of a pole
    on the requested real interval.
    """
    A, B, C, gamma = coeffs.A, coeffs.B, coeffs.C, coeffs.gamma
    xi_arr = np.asarray(xi, dtype=float)
    if A == 0.0:
        if B == 0:
            # z' = C: pure drift
            out = z0 + C * (xi_arr - xi0)
            return out if out.shape else complex(out)
        z_eq = -C / B
        if abs(z0 - z_eq) < EQUILIBRIUM_GUARD:
            raise EquilibriumInput("z0 is at the equilibrium -C/B")
        out = (z0 + C / B) * np.exp(B * (xi_arr - xi0)) - C / B
        return out if out.shape else complex(out)

    disc = gamma  # sqrt(4AC - B^2)
    for z_eq in ((-B + 1j * disc) / (2 * A), (-B - 1j * disc) / (2 * A)):
        if abs(z0 - z_eq) < EQUILIBRIUM_GUARD:
            raise EquilibriumInput("z0 is at a chart equilibrium")
    if gamma == 0:
        # degenerate double root: z(xi) = z* - 1/(A (xi - xi*))
        z_star = -B / (2 * A)
        inv0 = 1.0 / (z0 - z_star)
        out = z_star + 1.0 / (inv0 - A * (xi_arr - xi0))
        return out if out.shape else complex(out)

    delta0 = np.arctan((2 * A * z0 + B) / gamma) - gamma * xi0 / 2.0
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


def homogeneous_profile(xi, mu: float, sigma: int = +1) -> np.ndarray:
    """Explicit homogeneous domain wall on the nodes ``xi``: the (n, 3) array
    of (theta, p, q) = (2 arctan(e^{sigma sqrt(-mu) xi}), sigma sqrt(-mu), 0).
    Where the exponential overflows, theta is exactly pi."""
    if not (mu < 0):
        raise ValueError("mu must be negative")
    r = math.sqrt(-mu)
    xi = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore"):
        theta = 2.0 * np.arctan(np.exp(sigma * r * xi))
    return np.stack([theta, np.full_like(theta, sigma * r),
                     np.zeros_like(theta)], axis=1)
