"""Chart Hamiltonians, the center condition and the energy-gap expansion.

When the frame frequency satisfies the chart's center condition
(Omega = beta+/alpha - s^2/2 on theta = 0, Omega = beta-/alpha + s^2/2 on
theta = pi) the in-chart (p, q) flow is integrable with first integral

    H^0   = -(p^2 + q^2 + alpha*s*p + s*q - h + beta+/alpha + mu)/(q + s/2)
    H^pi  =  (p^2 + q^2 - alpha*s*p - s*q + h - beta-/alpha + mu)/(q - s/2)

and a neighborhood of the center equilibrium is filled with periodic orbits.
In the chart sign A = -/+1 of theta = 0/pi both are one fraction
H = A num/den, den = q - A s/2, which ``_fraction`` evaluates for
``hamiltonian``, ``hamiltonian_gradient`` and ``energy_gap`` alike.
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
    "hamiltonian_gradient",
    "energy_gap",
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

#: largest |theta - pi| at the right end of a profile whose gap is measured
CHART_TOL = 1e-6


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
    A = chart.A
    return mp.torque(A) / mp.alpha + A * (0.5 * s * s)


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
    A = chart.A
    num, den, _ = _fraction(A, p, q, mp, s)
    return A * num / den


def hamiltonian_gradient(chart: ChartId, p: float, q: float,
                         mp: MaterialParams, wf: WaveFrame):
    """Analytic gradient (dH/dp, dH/dq) of the chart Hamiltonian; raises
    ``InvariantLine`` where ``hamiltonian`` does."""
    A = chart.A
    num, den, (a, b) = _fraction(A, p, q, mp, wf.s)
    dp = A * (2.0 * p + a) / den
    dq = A * ((2.0 * q + b) / den - num / (den * den))
    return dp, dq


def _fraction(A: float, p, q, mp: MaterialParams, s: float):
    """H = A * num / den on the chart of sign A: (num, den, (a, b)), where
    num = p^2 + q^2 + a p + b q + const and den = q - A s/2 is the distance
    to the invariant line.  Raises ``InvariantLine`` when |den| < 1e-12."""
    den = q - A * (0.5 * s)
    if abs(den) < INVARIANT_LINE_GUARD:
        raise InvariantLine("q is on the invariant line q = -/+ s/2 of "
                            "H^0/H^pi, where H is undefined")
    num = (p * p + q * q - A * (mp.alpha * s * p) - A * (s * q) + A * mp.h
           - A * (mp.torque(A) / mp.alpha) + mp.mu)
    return num, den, (-A * (mp.alpha * s), -A * s)


def energy_gap(p: float, q: float, mp: MaterialParams,
               wf: WaveFrame) -> float:
    """The energy gap H^pi(p, q) - H^pi(Z^pi_-) of a state on the
    theta = pi chart.  Off the center condition H^pi is not conserved; the
    gap is still returned, without the ``CenterConditionViolated``
    warning."""
    z = chart_equilibria(PI, mp, wf)[1].z
    # the sign of theta = pi is A = 1, so H^pi = num/den
    num, den, _ = _fraction(1.0, p, q, mp, wf.s)
    num_z, den_z, _ = _fraction(1.0, z.real, z.imag, mp, wf.s)
    return num / den - num_z / den_z


def periodic_neighborhood(chart: ChartId, mp: MaterialParams,
                          wf: WaveFrame) -> bool:
    """Strict inequality guaranteeing a neighborhood of the chart's center
    equilibrium filled with periodic orbits:
    theta = 0: Omega > h - mu + (s^2/4)(alpha^2 - 1);
    theta = pi: Omega < h + mu + (s^2/4)(1 + alpha^2)."""
    A = chart.A
    s = wf.s
    return A * wf.omega < A * (mp.h + A * mp.mu
                               + 0.25 * s * s * (mp.alpha ** 2 + A))


def htilde_quadratic(alpha: float, mu: float) -> QuadraticForm2:
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


def htilde_measured(profile, mp: MaterialParams, wf: WaveFrame) -> float:
    """Energy gap ``energy_gap`` at the right end of a computed profile.

    ``profile`` is any object with a ``states`` array (the continuation
    Profile, or a (theta, p, q) trajectory sampled toward theta = pi).
    Raises ``ChartMiss`` when the right end is not on the theta = pi chart
    within CHART_TOL.  A result near zero identifies a flat (point-to-point)
    wall; a persistent non-zero value a non-flat one.
    """
    theta_end, p_end, q_end = np.asarray(profile.states, dtype=float)[-1]
    if abs(theta_end - math.pi) > CHART_TOL:
        raise ChartMiss(f"right end theta = {theta_end} misses pi by more "
                        f"than {CHART_TOL}")
    return energy_gap(p_end, q_end, mp, wf)
