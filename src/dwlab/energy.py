"""Chart Hamiltonians, the center condition and the energy-gap expansion.

When the frame frequency satisfies the chart's center condition
(Omega = beta+/alpha - s^2/2 on theta = 0, Omega = beta-/alpha + s^2/2 on
theta = pi) the in-chart (p, q) flow is integrable with first integral

    H^0   = -(p^2 + q^2 + alpha*s*p + s*q - h + beta+/alpha + mu)/(q + s/2)
    H^pi  =  (p^2 + q^2 - alpha*s*p - s*q + h - beta-/alpha + mu)/(q - s/2)

and a neighborhood of the center equilibrium is filled with periodic orbits.
The gap Htilde between the energy of the far-field orbit of a wall and the
energy of the shifted equilibrium measures flatness: Htilde = 0 for a flat
(point-to-point) wall, Htilde != 0 for a non-flat (point-to-cycle) wall.  Its
second-order expansion in the deviations (s - s0, h - h0) about the center
point is an explicit negative-definite quadratic form, and the first-order
oscillatory tail amplitudes are explicit linear maps of the deviations; both
are provided here together with the measured gap of a computed profile.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .charts import PI, ChartId, chart_equilibria
from .errors import CenterConditionViolated, ChartMiss, InvariantLine
from .model import MaterialParams, WaveFrame

__all__ = [
    "QuadraticForm2",
    "hamiltonian",
    "center_frequency",
    "periodic_neighborhood",
    "htilde_quadratic",
    "tail_oscillation_coefficients",
    "htilde_measured",
]

#: guard on |q -/+ s/2| for the invariant-line exclusion
INVARIANT_LINE_GUARD = 1e-12

#: tolerance on the center condition before warning
CENTER_CONDITION_TOL = 1e-10

#: |Htilde| above this value classifies a wall as non-flat ...
NONFLAT_THRESHOLD = 1e-7
#: ... and below this one as flat; in between is undetermined
FLAT_THRESHOLD = 1e-9


@dataclass(frozen=True)
class QuadraticForm2:
    """Quadratic form a_ss*ds^2 + a_sh*ds*dh + a_hh*dh^2 (negative definite
    for all alpha > 0, mu < 0)."""

    a_ss: float
    a_sh: float
    a_hh: float

    def value(self, ds: float, dh: float) -> float:
        return self.a_ss * ds * ds + self.a_sh * ds * dh + self.a_hh * dh * dh

    @property
    def negative_definite(self) -> bool:
        return self.a_ss < 0 and 4.0 * self.a_ss * self.a_hh - self.a_sh ** 2 > 0


def center_frequency(chart: ChartId, mp: MaterialParams, s: float) -> float:
    """Frequency satisfying the chart's center condition:
    theta = pi: Omega = beta-/alpha + s^2/2; theta = 0:
    Omega = beta+/alpha - s^2/2."""
    if chart.is_pi:
        return mp.beta_minus / mp.alpha + 0.5 * s * s
    if chart.is_zero:
        return mp.beta_plus / mp.alpha - 0.5 * s * s
    raise ValueError("center condition refers to the theta=0/pi charts")


def hamiltonian(chart: ChartId, p: float, q: float, mp: MaterialParams,
                wf: WaveFrame) -> float:
    """Chart Hamiltonian H^0 or H^pi at (p, q).

    Raises ``InvariantLine`` when q is within 1e-12 of -s/2 (theta = 0) or
    s/2 (theta = pi), where H is undefined.  Emits the warning
    ``CenterConditionViolated`` when the frequency is off the chart's center
    condition by more than 1e-10: the value is returned but is not conserved.
    """
    s, omega = wf.s, wf.omega
    omega_c = center_frequency(chart, mp, s)
    if abs(omega - omega_c) > CENTER_CONDITION_TOL:
        warnings.warn(
            f"frequency {omega} violates the center condition {omega_c}; "
            "H is not a first integral here", CenterConditionViolated,
            stacklevel=2)
    if chart.is_zero:
        den = q + 0.5 * s
        if abs(den) < INVARIANT_LINE_GUARD:
            raise InvariantLine("q = -s/2 is the invariant line of H^0")
        num = (p * p + q * q + mp.alpha * s * p + s * q - mp.h
               + mp.beta_plus / mp.alpha + mp.mu)
        return -num / den
    if chart.is_pi:
        den = q - 0.5 * s
        if abs(den) < INVARIANT_LINE_GUARD:
            raise InvariantLine("q = s/2 is the invariant line of H^pi")
        num = (p * p + q * q - mp.alpha * s * p - s * q + mp.h
               - mp.beta_minus / mp.alpha + mp.mu)
        return num / den
    raise ValueError("Hamiltonian is defined on the theta=0/pi charts")


def hamiltonian_gradient(chart: ChartId, p: float, q: float,
                         mp: MaterialParams, wf: WaveFrame):
    """Analytic gradient (dH/dp, dH/dq) of the chart Hamiltonian."""
    s = wf.s
    if chart.is_zero:
        den = q + 0.5 * s
        num = (p * p + q * q + mp.alpha * s * p + s * q - mp.h
               + mp.beta_plus / mp.alpha + mp.mu)
        dp = -(2.0 * p + mp.alpha * s) / den
        dq = -(2.0 * q + s) / den + num / (den * den)
        return dp, dq
    if chart.is_pi:
        den = q - 0.5 * s
        num = (p * p + q * q - mp.alpha * s * p - s * q + mp.h
               - mp.beta_minus / mp.alpha + mp.mu)
        dp = (2.0 * p - mp.alpha * s) / den
        dq = (2.0 * q - s) / den - num / (den * den)
        return dp, dq
    raise ValueError("Hamiltonian is defined on the theta=0/pi charts")


def periodic_neighborhood(chart: ChartId, mp: MaterialParams,
                          wf: WaveFrame) -> bool:
    """Strict inequality guaranteeing a neighborhood of the chart's center
    equilibrium filled with periodic orbits:
    theta = 0: Omega > h - mu + (s^2/4)(alpha^2 - 1);
    theta = pi: Omega < h + mu + (s^2/4)(1 + alpha^2)."""
    s, omega = wf.s, wf.omega
    if chart.is_zero:
        return omega > mp.h - mp.mu + 0.25 * s * s * (mp.alpha ** 2 - 1.0)
    if chart.is_pi:
        return omega < mp.h + mp.mu + 0.25 * s * s * (1.0 + mp.alpha ** 2)
    raise ValueError("periodic neighborhood refers to the theta=0/pi charts")


def htilde_quadratic(alpha: float, beta: float, mu: float) -> QuadraticForm2:
    """Second-order expansion of the energy gap Htilde in (ds, dh) about the
    center point; independent of beta and c_cp.

    With rho = e^{pi/alpha} - e^{-pi/alpha}:
        a_ss = -(1+alpha^2)^2 (4+alpha^2) pi^2 / (alpha^3 rho^2 sqrt(-mu))
        a_sh = -2 (1+alpha^2)(2+alpha^2) pi^2 / (alpha^2 rho^2 mu)
        a_hh = (1+alpha^2) pi^2 / (alpha rho^2 mu sqrt(-mu))
    """
    if not (alpha > 0 and mu < 0):
        raise ValueError("requires alpha > 0 and mu < 0")
    r = math.sqrt(-mu)
    rho = math.exp(math.pi / alpha) - math.exp(-math.pi / alpha)
    pi2 = math.pi ** 2
    a2 = alpha ** 2
    a_ss = -(1 + a2) ** 2 * (4 + a2) * pi2 / (alpha ** 3 * rho ** 2 * r)
    a_sh = -2.0 * (1 + a2) * (2 + a2) * pi2 / (a2 * rho ** 2 * mu)
    a_hh = (1 + a2) * pi2 / (alpha * rho ** 2 * mu * r)
    return QuadraticForm2(a_ss=a_ss, a_sh=a_sh, a_hh=a_hh)


def tail_oscillation_coefficients(ds: float, dh: float, alpha: float,
                                  mu: float) -> np.ndarray:
    """First-order cosine/sine amplitudes of the oscillatory (p, q) tail of a
    perturbed wall.

    Returns the 2x2 matrix [[p_cos, p_sin], [q_cos, q_sin]] with prefactor
    pi/rho, rho = e^{pi/alpha} - e^{-pi/alpha}; the matrix vanishes iff
    ds = dh = 0.  Deviations so small that every entry underflows (|ds|,
    |dh| in the subnormal range) keep that zero pattern: each entry is then
    the smallest positive float with the sign of its exact value.
    """
    r = math.sqrt(-mu)
    m = _tail_matrix(ds, dh, alpha, r)
    if (ds or dh) and not m.any():
        # scaling both deviations by a power of two is exact and keeps the
        # signs of the linear entries
        k = -math.frexp(max(abs(ds), abs(dh)))[1]
        m = math.ulp(0.0) * np.sign(
            _tail_matrix(math.ldexp(ds, k), math.ldexp(dh, k), alpha, r))
    return m


def _tail_matrix(ds: float, dh: float, alpha: float, r: float) -> np.ndarray:
    rho = math.exp(math.pi / alpha) - math.exp(-math.pi / alpha)
    pref = math.pi / rho
    a2 = alpha ** 2
    p_cos = pref * (-dh / (alpha * r) + 2.0 * ds / a2)
    p_sin = pref * (-dh / r + (3.0 + a2) * ds / alpha)
    q_cos = pref * (dh / r - (3.0 + a2) * ds / alpha)
    q_sin = pref * (-dh / (alpha * r) + 2.0 * ds / a2)
    return np.array([[p_cos, p_sin], [q_cos, q_sin]])


def htilde_measured(profile, mp: MaterialParams, wf: WaveFrame,
                    chart_tol: float = 1e-6) -> float:
    """Energy gap H(p, q at the right end) - H(Z^pi_-) of a computed profile.

    ``profile`` is any object with ``mesh`` and ``states`` arrays (the
    continuation Profile, or a (theta, p, q) trajectory sampled toward
    theta = pi).  Raises ``ChartMiss`` when the right end is not on the
    theta = pi chart within ``chart_tol``.  A result near zero identifies a
    flat (point-to-point) wall; a persistent non-zero value a non-flat one.
    """
    states = np.asarray(profile.states, dtype=float)
    theta_end, p_end, q_end = states[-1]
    if abs(theta_end - math.pi) > chart_tol:
        raise ChartMiss(
            f"right end theta = {theta_end} misses pi by more than {chart_tol}")
    eq_minus = chart_equilibria(PI, mp, wf)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CenterConditionViolated)
        h_end = hamiltonian(PI, p_end, q_end, mp, wf)
        h_eq = hamiltonian(PI, eq_minus.p, eq_minus.q, mp, wf)
    return h_end - h_eq
