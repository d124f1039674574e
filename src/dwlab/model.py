"""Core model: parameters, state representations and coherent-structure ODEs.

The magnetization dynamics on a nanowire

    dm/dt - alpha m x dm/dt = -m x h_eff + m x (m x J),
    h_eff = d^2m/dx^2 + (h - mu*m3) e3,   J = beta/(1 + c_cp*m3) e3,

restricted to coherent structures m(x, t) = m(xi), xi = x - s*t, rotating with
frequency Omega about e3, reduces to a three-dimensional ODE in the spherical
angle theta, its (desingularized) rate p and the local wavenumber q.  This
module holds the parameter containers, the two state representations
(chart, singular), the right-hand sides of the singular and desingularized
systems, together with their analytic partial derivatives used by the
boundary-value solvers, and the blow-down to the sphere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleEvaluation, SingularEvaluation

__all__ = [
    "MaterialParams",
    "WaveFrame",
    "ChartState",
    "SingularState",
    "desingularized_rhs",
    "singular_rhs",
    "sphere_rows",
    "local_wavenumber",
    "trapezoid_weights",
]

#: guard on |sin(theta)| below which the singular system is rejected
SINGULAR_GUARD = 1e-8

#: guard on 1 - m3^2 below which the local wavenumber is rejected
WAVENUMBER_GUARD = 1e-14


@dataclass(frozen=True)
class MaterialParams:
    """Physical constants of the wire: damping ``alpha`` (> 0), spin-transfer
    strength ``beta`` (>= 0), anisotropy ``mu`` (< 0 for a nanowire), applied
    field ``h`` and polarization ratio ``c_cp`` in (-1, 1)."""

    alpha: float
    beta: float
    mu: float
    h: float
    c_cp: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (self.beta >= 0):
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if not (abs(self.c_cp) < 1):
            raise ValueError(f"c_cp must lie in (-1, 1), got {self.c_cp}")
        for name in ("alpha", "beta", "mu", "h", "c_cp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def torque(self, A: float) -> float:
        """beta / (1 - A c_cp): effective torque strength on the chart with
        quadratic coefficient A = -cos(theta), i.e. at m3 = -A."""
        return self.beta / (1.0 - A * self.c_cp)

    def replace(self, **kw) -> "MaterialParams":
        # a direct call runs __post_init__, as dataclasses.replace does,
        # at about 60% of its cost
        return MaterialParams(**{**self.__dict__, **kw})


@dataclass(frozen=True)
class WaveFrame:
    """Relative-equilibrium frame: wave speed ``s`` and rotation frequency
    ``omega``."""

    s: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.omega)):
            raise ValueError("s and omega must be finite")


def _check_theta(theta: float) -> None:
    if not (0.0 <= theta <= math.pi):
        raise ValueError(f"theta must lie in [0, pi], got {theta}")


@dataclass(frozen=True)
class ChartState:
    """Desingularized state (theta, p, q): angle, desingularized angle rate
    (theta' = p sin(theta)) and local wavenumber."""

    theta: float
    p: float
    q: float

    def __post_init__(self):
        _check_theta(self.theta)


@dataclass(frozen=True)
class SingularState:
    """Singular state (theta, psi, q) with psi = theta' the raw angle rate;
    valid only strictly inside (0, pi)."""

    theta: float
    psi: float
    q: float

    def __post_init__(self):
        _check_theta(self.theta)


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

def rhs_raw(theta, p, q, alpha, beta, mu, h, c_cp, s, omega):
    """Desingularized right-hand side on raw (possibly array) arguments.

    Returns (theta', p', q') with

        theta' = sin(theta) * p
        p'     = h - Omega - alpha*s*p + s*q - (p^2 - q^2 + mu) cos(theta)
        q'     = alpha*Omega - beta/(1 + c_cp cos(theta)) - s*p
                 - alpha*s*q - 2 p q cos(theta)
    """
    ct = np.cos(theta)
    dtheta = np.sin(theta) * p
    dp = h - omega - alpha * s * p + s * q - (p * p - q * q + mu) * ct
    dq = (alpha * omega - beta / (1.0 + c_cp * ct) - s * p
          - alpha * s * q - 2.0 * p * q * ct)
    return dtheta, dp, dq


def rhs_jacobian_raw(theta, p, q, alpha, beta, mu, h, c_cp, s, omega):
    """State Jacobian of ``rhs_raw``; entries broadcast over the inputs.

    Returns a (3, 3) nested tuple d(theta',p',q')/d(theta,p,q).
    """
    ct = np.cos(theta)
    st = np.sin(theta)
    den = 1.0 + c_cp * ct
    return (
        (ct * p, st, np.zeros_like(st)),
        ((p * p - q * q + mu) * st, -alpha * s - 2.0 * p * ct,
         s + 2.0 * q * ct),
        (2.0 * p * q * st - beta * c_cp * st / (den * den),
         -s - 2.0 * q * ct, -alpha * s - 2.0 * p * ct),
    )


def rhs_param_derivatives_raw(theta, p, q, alpha, beta, mu, h, c_cp, s, omega):
    """Partial derivatives of ``rhs_raw`` with respect to (c_cp, s, omega, h).

    Returns a dict name -> (d theta', d p', d q') with array entries.
    """
    ct = np.cos(theta)
    z = np.zeros_like(ct)
    den = 1.0 + c_cp * ct
    return {
        "c_cp": (z, z, beta * ct / (den * den)),
        "s": (z, -alpha * p + q, -p - alpha * q),
        "omega": (z, -np.ones_like(ct), alpha * np.ones_like(ct)),
        "h": (z, np.ones_like(ct), z),
    }


def desingularized_rhs(state: ChartState, mp: MaterialParams,
                       wf: WaveFrame) -> np.ndarray:
    """Right-hand side of the desingularized coherent-structure system.

    Total on valid inputs; the charts theta = 0 and theta = pi are invariant
    (the theta'-component vanishes there exactly).
    """
    d = rhs_raw(state.theta, state.p, state.q, mp.alpha, mp.beta, mp.mu,
                mp.h, mp.c_cp, wf.s, wf.omega)
    return np.array(d, dtype=float)


def singular_rhs(state: SingularState, mp: MaterialParams,
                 wf: WaveFrame) -> np.ndarray:
    """Right-hand side of the singular (raw-angle) system

        theta' = psi
        psi'   = sin(theta)[h - Omega + s q + (q^2 - mu) cos(theta)]
                 - alpha*s*psi
        q'     = alpha*Omega - beta/(1 + c_cp cos(theta)) - alpha*s*q
                 - (s + 2 q cos(theta)) psi / sin(theta)

    Raises ``SingularEvaluation`` when |sin(theta)| < SINGULAR_GUARD: the
    caller must switch to the desingularized system near the poles.
    """
    st = math.sin(state.theta)
    if abs(st) < SINGULAR_GUARD:
        raise SingularEvaluation(
            f"|sin(theta)| = {abs(st):.3e} below guard {SINGULAR_GUARD:.3e}")
    ct = math.cos(state.theta)
    theta, psi, q = state.theta, state.psi, state.q
    s, omega = wf.s, wf.omega
    dpsi = (st * (mp.h - omega + s * q + (q * q - mp.mu) * ct)
            - mp.alpha * s * psi)
    dq = (mp.alpha * omega - mp.beta / (1.0 + mp.c_cp * ct)
          - mp.alpha * s * q - (s + 2.0 * q * ct) * psi / st)
    return np.array([psi, dpsi, dq], dtype=float)


def sphere_rows(theta, phi) -> np.ndarray:
    """The blow-down m = (cos(phi) sin(theta), sin(phi) sin(theta),
    cos(theta)) as (3, ...) component rows over the broadcast angles;
    theta = 0 maps to +e3 and theta = pi to -e3 for any azimuth phi."""
    st = np.sin(theta)
    return np.array([np.cos(phi) * st, np.sin(phi) * st, np.cos(theta)])


def local_wavenumber(m, m_prime):
    """Local wavenumber q = <(m1', m2'), (-m2, m1)> / (1 - m3^2) of a
    3-vector m, as a float, or of each column of (3, n) component rows.

    Undefined at the poles; raises ``PoleEvaluation`` when
    1 - m3^2 < WAVENUMBER_GUARD at any node.
    """
    m = np.asarray(m, dtype=float)
    mp_ = np.asarray(m_prime, dtype=float)
    den = 1.0 - m[2] * m[2]
    if np.any(den < WAVENUMBER_GUARD):
        raise PoleEvaluation(f"1 - m3^2 = {np.min(den):.3e} below guard "
                             f"{WAVENUMBER_GUARD:.3e}")
    q = (mp_[0] * (-m[1]) + mp_[1] * m[0]) / den
    return float(q) if q.ndim == 0 else q


@functools.lru_cache(maxsize=8)
def trapezoid_weights(n: int, dx: float) -> np.ndarray:
    """Trapezoid-rule weights of n uniformly spaced nodes dx apart, as a
    read-only array shared between calls."""
    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx
    w.flags.writeable = False
    return w
