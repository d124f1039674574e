"""Initial-value integration and unstable-manifold shooting.

A wall corresponds to an orbit of the desingularized system leaving the
theta = 0 chart along the one-dimensional unstable manifold of its "minus"
equilibrium and approaching the theta = pi chart.  This module integrates the
system with an adaptive explicit scheme (dense output, event detection),
constructs the unstable seed, shoots to the far chart and classifies the tail
of the local wavenumber q as flat (q settles to a point) or non-flat
(persistent oscillation, i.e. the orbit approaches a cycle in the chart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .charts import ZERO, ChartEquilibrium, chart_equilibria
from .errors import BlowUp, NoConnection, SpectralMismatch, StepFailure
from .model import (ChartState, MaterialParams, SingularState, WaveFrame,
                    rhs_raw, singular_rhs)

__all__ = [
    "Trajectory",
    "TailVerdict",
    "integrate",
    "unstable_seed",
    "shoot_to_pi_chart",
]

#: default seed offset along the unstable eigenvector, and its upper limit:
#: the seed angle theta = epsilon must stay in (0, pi]
DEFAULT_EPSILON = 1e-6
EPSILON_MAX = math.pi

#: default local error tolerance of the integrator, and its admissible range
DEFAULT_TOL = 1e-10
TOL_MIN = 1e-13
TOL_MAX = 1e-3

#: |p| + |q| beyond this value counts as blow-up
BLOWUP_BOUND = 1e8

#: thresholds on the q-oscillation amplitude in the tail window
FLAT_AMPLITUDE = 1e-7
NONFLAT_AMPLITUDE = 1e-5


@dataclass(frozen=True)
class Trajectory:
    """Sampled orbit with dense-output interpolation.

    ``xs`` is strictly increasing; ``states`` has matching rows (theta, p, q).
    """

    xs: np.ndarray
    states: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def at(self, xi):
        """Dense-output evaluation at arbitrary xi inside the span."""
        sol = self.diagnostics.get("dense")
        if sol is None:
            raise ValueError("trajectory carries no dense output")
        out = sol(xi)
        return out.T if np.ndim(xi) else out

    @property
    def mesh(self):
        return self.xs


@dataclass(frozen=True)
class TailVerdict:
    """Flat / non-flat / undetermined classification of the far tail."""

    kind: str
    q_limit_estimate: float | None
    oscillation_amplitude: float


def _make_rhs(mp: MaterialParams, wf: WaveFrame, system: str):
    if system == "desingularized":
        def f(xi, y):
            return rhs_raw(y[0], y[1], y[2], mp.alpha, mp.beta, mp.mu,
                           mp.h, mp.c_cp, wf.s, wf.omega)
        return f
    if system == "singular":
        def f(xi, y):
            return singular_rhs(SingularState(*y), mp, wf)
        return f
    raise ValueError(f"unknown system {system!r}")


def integrate(state0: ChartState, span, mp: MaterialParams, wf: WaveFrame,
              tol: float = DEFAULT_TOL, system: str = "desingularized",
              events=None) -> Trajectory:
    """Adaptive integration of the chosen right-hand side over ``span``.

    ``tol`` (in [TOL_MIN, TOL_MAX]) bounds the local error per step; the result
    carries dense output.  Raises ``BlowUp`` when |p| + |q| exceeds 1e8 and
    ``StepFailure`` when the integrator cannot complete a step.
    """
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    f = _make_rhs(mp, wf, system)

    def blowup(xi, y):
        return abs(y[1]) + abs(y[2]) - BLOWUP_BOUND
    blowup.terminal = True

    ev = [blowup] + (list(events) if events else [])
    y0 = [state0.theta, state0.p, state0.q] if isinstance(state0, ChartState) \
        else list(state0)
    sol = solve_ivp(f, span, y0, method="DOP853", rtol=tol, atol=tol,
                    dense_output=True, events=ev)
    if sol.status == -1:
        raise StepFailure(sol.message)
    if len(sol.t_events[0]) > 0:
        raise BlowUp("|p| + |q| exceeded the blow-up bound")
    order = np.argsort(sol.t)
    diag = {
        "dense": sol.sol,
        "n_steps": len(sol.t) - 1,
        "tol": tol,
        "termination": sol.message if sol.status == 0 else "event",
        "events": sol.t_events[1:],
        "event_states": sol.y_events[1:] if events else [],
        "status": sol.status,
    }
    return Trajectory(xs=sol.t[order], states=sol.y.T[order], diagnostics=diag)


def unstable_seed(eq: ChartEquilibrium, epsilon: float = DEFAULT_EPSILON,
                  mp: MaterialParams = None, wf: WaveFrame = None
                  ) -> ChartState:
    """Point at distance ``epsilon`` from a theta = 0 chart equilibrium along
    its (unit) unstable eigenvector, oriented so the theta-component is
    positive.

    Requires exactly one eigenvalue with positive real part (the transverse
    one); raises ``SpectralMismatch`` otherwise.  At the chart equilibria the
    state Jacobian is block-diagonal, so the transverse eigendirection is the
    theta-axis exactly.
    """
    if not eq.chart.is_zero:
        raise ValueError("unstable seeding starts on the theta = 0 chart")
    eigs = [eq.nu1, eq.nu2, complex(eq.nu3)]
    n_unstable = sum(1 for nu in eigs if nu.real > 0)
    if n_unstable != 1 or not eq.nu3 > 0:
        raise SpectralMismatch(
            f"need exactly one unstable eigenvalue (transverse); got "
            f"{n_unstable} unstable, nu3 = {eq.nu3}")
    if not (0 < epsilon <= EPSILON_MAX):
        raise ValueError(f"epsilon must lie in (0, {EPSILON_MAX}]")
    return ChartState(theta=epsilon, p=eq.p, q=eq.q)


def classify_tail(xs: np.ndarray, qs: np.ndarray,
                  window: float = 0.25) -> TailVerdict:
    """Classify the q-tail on the trailing ``window`` fraction of the orbit:
    amplitude = half the peak-to-peak of q about its mean there."""
    n = len(xs)
    i0 = int(math.floor((1.0 - window) * n))
    tail = qs[i0:]
    if not np.all(np.isfinite(tail)):
        return TailVerdict(kind="undetermined", q_limit_estimate=None,
                           oscillation_amplitude=float("inf"))
    amp = 0.5 * (float(np.max(tail)) - float(np.min(tail)))
    mean = float(np.mean(tail))
    if amp < FLAT_AMPLITUDE:
        return TailVerdict(kind="flat", q_limit_estimate=mean,
                           oscillation_amplitude=amp)
    if amp > NONFLAT_AMPLITUDE:
        return TailVerdict(kind="nonflat", q_limit_estimate=None,
                           oscillation_amplitude=amp)
    return TailVerdict(kind="undetermined", q_limit_estimate=mean,
                       oscillation_amplitude=amp)


def shoot_to_pi_chart(mp: MaterialParams, wf: WaveFrame,
                      epsilon: float = DEFAULT_EPSILON,
                      tol: float = DEFAULT_TOL):
    """Shoot along the unstable manifold of the theta = 0 "minus" equilibrium
    toward the theta = pi chart.

    Integrates until theta > pi - 1e-4 or the xi-budget 400/sqrt(-mu) is
    exhausted, then classifies the q-tail on the trailing quarter of the run.
    Raises ``NoConnection`` when theta stalls below pi - 1e-2.
    Returns (Trajectory, TailVerdict).
    """
    eq_minus = chart_equilibria(ZERO, mp, wf)[1]
    seed = unstable_seed(eq_minus, epsilon)
    budget = 400.0 / math.sqrt(-mp.mu)

    def arrival(xi, y):
        return y[0] - (math.pi - 1e-4)
    arrival.terminal = True
    arrival.direction = 1

    traj = integrate(seed, (0.0, budget), mp, wf, tol=tol, events=[arrival])
    theta_max = float(np.max(traj.states[:, 0]))
    if theta_max < math.pi - 1e-2:
        raise NoConnection(
            f"theta reached only {theta_max:.6f} within the budget")
    # classify on a uniform resampling so the window is a true xi-fraction
    xs_fine = np.linspace(traj.xs[0], traj.xs[-1], 8000)
    qs_fine = traj.at(xs_fine)[:, 2]
    verdict = classify_tail(xs_fine, qs_fine, window=0.25)
    return traj, verdict
