"""Regime classification, thresholds, standing-wall and stability criteria.

The homogeneous wall family selects a speed s0; comparing s0 with
2*sqrt(-mu)/alpha splits the parameter space into three regimes that control
how many conditions pin the heteroclinic connection:

  * codim-2 (0 <= s0 < 2*sqrt(-mu)/alpha, i.e. beta/alpha <= h < h^*):
    the target equilibrium is an unstable focus inside its chart; both s and
    Omega are selected.
  * center (s0 = 2*sqrt(-mu)/alpha, h = h^*): the target equilibrium is a
    center surrounded by periodic orbits.
  * codim-0 (s0 > 2*sqrt(-mu)/alpha, h > h^*): the target equilibrium is
    attracting inside the chart; connections persist without tuning.

Also provided: the field thresholds h_* and h^*, the standing-wall frequency
conditions, detection of the simultaneous double-center configuration,
and the stability curves Gamma+/- of the uniform states +/-e3 in the
(h, c_cp) plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .charts import PI, ZERO, ChartId, chart_coefficients, \
    homogeneous_speed_frequency
from .errors import CurvePole
from .model import MaterialParams, WaveFrame

__all__ = [
    "Regime",
    "StabilityVerdict",
    "thresholds",
    "classify_regime",
    "eigenvalues_homogeneous",
    "standing_wall_condition",
    "simultaneous_center",
    "stability_verdict",
]

#: tolerance on s0 - 2*sqrt(-mu)/alpha for the regime boundary tie
REGIME_BOUNDARY_TOL = 1e-10

#: tolerance on |s0| for the zero-speed tie s0 = 0 (h = beta/alpha); covers
#: the round-off of alpha*h - beta, which is 0 or +/- 1 ulp at h = beta/alpha
ZERO_SPEED_TOL = 1e-10

#: tolerance on |Omega - beta+/-/alpha| for the standing-wall tie
STANDING_TOL = 1e-12

#: tolerance on Im(gamma) and |gamma| for a chart center
CENTER_TOL = 1e-10

#: distance from the poles h = +/- mu of the stability curves
CURVE_POLE_TOL = 1e-12

CODIM2 = "codim2"
CENTER = "center"
CODIM0 = "codim0"


@dataclass(frozen=True)
class Regime:
    """Classification result: the regime kind, the selected speed s0 >= 0
    and frequency omega0 of the right-moving problem, and whether that
    problem is the reflection of the given one (a left-moving wall)."""

    kind: str
    s0: float
    omega0: float
    reflected: bool


@dataclass(frozen=True)
class StabilityVerdict:
    """Linear stability of the uniform states +/- e3 and the combined region
    label: 'monostable-', 'bistable', 'monostable+' or 'unstable'."""

    plus_e3: str
    minus_e3: str
    region: str


def thresholds(alpha: float, beta: float, mu: float):
    """Field thresholds h_* = beta/alpha + (2 mu/alpha^2)(1 + alpha^2) and
    h^* = beta/alpha - (2 mu/alpha^2)(1 + alpha^2); h_* < h^* for mu < 0."""
    if not (alpha > 0 and mu < 0):
        raise ValueError("thresholds require alpha > 0 and mu < 0")
    shift = (2.0 * mu / alpha ** 2) * (1.0 + alpha ** 2)
    return beta / alpha + shift, beta / alpha - shift


def classify_regime(mp: MaterialParams) -> Regime:
    """Classify the regime of the homogeneous family at c_cp = 0, mu < 0.

    This is the one place where the sign of the selected speed s0 is
    decided.  A wall with h < beta/alpha moves left (s0 < 0); the profile
    ODE is symmetric under (theta, p, q)(xi) -> (theta, -p, -q)(-xi) with
    s -> -s and Omega unchanged, so such a wall is classified in the
    reflected frame: ``Regime.s0`` is |s0| and ``Regime.reflected`` is true.
    Within ZERO_SPEED_TOL of zero the wall stands: ``Regime.s0`` is exactly
    0.0 and it is not reflected.
    """
    if mp.c_cp != 0.0:
        raise ValueError("classification refers to the c_cp = 0 family")
    if not (mp.mu < 0):
        raise ValueError("classification requires mu < 0")
    wf = homogeneous_speed_frequency(mp)
    s0 = 0.0 if abs(wf.s) <= ZERO_SPEED_TOL else abs(wf.s)
    gap = s0 - 2.0 * math.sqrt(-mp.mu) / mp.alpha
    if abs(gap) <= REGIME_BOUNDARY_TOL:
        kind = CENTER
    elif gap < 0:
        kind = CODIM2
    else:
        kind = CODIM0
    return Regime(kind, s0, wf.omega, wf.s < -ZERO_SPEED_TOL)


def eigenvalues_homogeneous(alpha: float, mu: float, s0: float):
    """Spatial eigenvalues of the homogeneous-family end states at the
    selected speed s0 (the ``Regime.s0`` of ``classify_regime``).

    Returns (nu0_1, nu0_2, nu0_3, nupi_1, nupi_2, nupi_3) with

        nu0_k  = -alpha*s0 - 2 sqrt(-mu) - (-1)^k i s0,   nu0_3  =  sqrt(-mu)
        nupi_k = -alpha*s0 + 2 sqrt(-mu) - (-1)^k i s0,   nupi_3 = -sqrt(-mu)
    """
    r = math.sqrt(-mu)
    nu0 = (-alpha * s0 - 2.0 * r + 1j * s0,
           -alpha * s0 - 2.0 * r - 1j * s0,
           r)
    nupi = (-alpha * s0 + 2.0 * r + 1j * s0,
            -alpha * s0 + 2.0 * r - 1j * s0,
            -r)
    return nu0 + nupi


def standing_wall_condition(chart: ChartId, mp: MaterialParams,
                            omega: float) -> bool:
    """Existence condition for standing (s = 0) walls at the given chart.

    theta = 0: Omega != beta+/alpha, or Omega = beta+/alpha and Omega <= h-mu;
    theta = pi: Omega != beta-/alpha, or Omega = beta-/alpha and Omega >= h+mu;
    equality is up to STANDING_TOL.
    """
    A = chart.A
    return (abs(omega - mp.torque(A) / mp.alpha) > STANDING_TOL
            or A * omega >= A * (mp.h + A * mp.mu))


def simultaneous_center(mp: MaterialParams, wf: WaveFrame) -> bool:
    """True when both chart equilibrium pairs are centers simultaneously:
    gamma^0 and gamma^pi are both real and non-zero (within CENTER_TOL)."""
    g0 = chart_coefficients(ZERO, mp, wf).gamma
    gpi = chart_coefficients(PI, mp, wf).gamma
    for g in (g0, gpi):
        if abs(g.imag) > CENTER_TOL or abs(g) <= CENTER_TOL:
            return False
    return True


def stability_verdict(mp: MaterialParams) -> StabilityVerdict:
    """Linear stability of +/- e3 from the curves
    Gamma+ = (beta/alpha)/(h - mu) - 1 and Gamma- = 1 - (beta/alpha)/(h + mu):
    +e3 is stable iff c_cp > Gamma+(h) (stable to the right of Gamma+);
    -e3 is stable iff c_cp > Gamma-(h) (stable to the left of Gamma-, the
    curve being increasing in h), equivalently the torque beta/(1 - c_cp)
    exceeding the damping rate alpha*(h + mu).  Raises ``CurvePole`` within
    CURVE_POLE_TOL of the poles h = +/- mu."""
    if min(abs(mp.h - mp.mu), abs(mp.h + mp.mu)) < CURVE_POLE_TOL:
        raise CurvePole("stability curves have a pole at h = +/- mu")
    ba = mp.beta / mp.alpha
    gamma_plus = ba / (mp.h - mp.mu) - 1.0
    gamma_minus = 1.0 - ba / (mp.h + mp.mu)
    plus = "stable" if mp.c_cp > gamma_plus else "unstable"
    minus = "stable" if mp.c_cp > gamma_minus else "unstable"
    if plus == "stable" and minus == "stable":
        region = "bistable"
    elif plus == "stable":
        region = "monostable+"
    elif minus == "stable":
        region = "monostable-"
    else:
        region = "unstable"
    return StabilityVerdict(plus_e3=plus, minus_e3=minus, region=region)

