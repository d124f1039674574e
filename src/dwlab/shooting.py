"""Initial-value integration and unstable-manifold shooting.

A wall corresponds to an orbit of the desingularized system leaving the
theta = 0 chart along the one-dimensional unstable manifold of its "minus"
equilibrium and approaching the theta = pi chart.  This module integrates the
system with an adaptive explicit scheme (dense output, event detection),
constructs the unstable seed, shoots to the far chart and classifies the tail
of the local wavenumber q as flat (q settles to a point) or non-flat
(persistent oscillation, i.e. the orbit approaches a cycle in the chart).

``scipy.integrate`` is imported at the first integration, not with this
module, so of the CLI commands only ``shoot`` loads it.  ``solve_ivp`` stays
a module-level name that forwards to SciPy's integrator, so it can be
replaced on the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import ZERO, ChartEquilibrium, chart_equilibria
from .errors import BlowUp, NoConnection, SpectralMismatch, StepFailure
from .model import ChartState, MaterialParams, WaveFrame, rhs_raw

__all__ = [
    "Trajectory",
    "TailVerdict",
    "check_tol",
    "check_epsilon",
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

#: thresholds on the q-oscillation amplitude in the tail window, the
#: trailing TAIL_WINDOW fraction of the orbit
FLAT_AMPLITUDE = 1e-7
NONFLAT_AMPLITUDE = 1e-5
TAIL_WINDOW = 0.25

#: number of uniform xi-samples of a shot, of which the tail test reads the
#: trailing TAIL_WINDOW fraction
TAIL_SAMPLES = 8000


@dataclass(frozen=True)
class Trajectory:
    """Sampled orbit with dense-output interpolation.

    ``xs`` is strictly increasing; ``states`` has matching rows (theta, p, q).
    ``dense`` is the integrator's dense output, and ``events`` holds the xi
    of each crossing of each requested event.
    """

    xs: np.ndarray
    states: np.ndarray
    dense: Callable
    events: list

    def at(self, xi):
        """Dense-output evaluation at arbitrary xi inside the span."""
        out = self.dense(xi)
        return out.T if np.ndim(xi) else out


@dataclass(frozen=True)
class TailVerdict:
    """Flat / non-flat / undetermined classification of the far tail."""

    kind: str
    q_limit_estimate: float | None
    oscillation_amplitude: float


def check_tol(tol: float) -> None:
    """Raise ``ValueError`` unless the integrator tolerance lies in
    [TOL_MIN, TOL_MAX]."""
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}]")


def check_epsilon(epsilon: float) -> None:
    """Raise ``ValueError`` unless the seed offset lies in (0, EPSILON_MAX],
    so that the seed angle theta = epsilon is a valid angle."""
    if not (0 < epsilon <= EPSILON_MAX):
        raise ValueError(f"epsilon must lie in (0, {EPSILON_MAX}]")


def solve_ivp(fun, t_span, y0, **options):
    """``scipy.integrate.solve_ivp``, imported at its first call."""
    from scipy.integrate import solve_ivp
    return solve_ivp(fun, t_span, y0, **options)


def integrate(state0: ChartState, span, mp: MaterialParams, wf: WaveFrame,
              tol: float = DEFAULT_TOL, events=None) -> Trajectory:
    """Adaptive integration of the desingularized system over ``span``.

    ``tol`` (checked by ``check_tol``) bounds the local error per step; the
    result carries dense output.  Raises ``BlowUp`` when |p| + |q| exceeds
    1e8 and ``StepFailure`` when the integrator cannot complete a step.
    """
    check_tol(tol)

    def f(xi, y):
        return rhs_raw(y[0], y[1], y[2], mp.alpha, mp.beta, mp.mu, mp.h,
                       mp.c_cp, wf.s, wf.omega)

    def blowup(xi, y):
        return abs(y[1]) + abs(y[2]) - BLOWUP_BOUND
    blowup.terminal = True

    ev = [blowup] + (list(events) if events else [])
    sol = solve_ivp(f, span, [state0.theta, state0.p, state0.q],
                    method="DOP853", rtol=tol, atol=tol, dense_output=True,
                    events=ev)
    if sol.status == -1:
        raise StepFailure(sol.message)
    if len(sol.t_events[0]) > 0:
        raise BlowUp("|p| + |q| exceeded the blow-up bound")
    order = np.argsort(sol.t)
    return Trajectory(xs=sol.t[order], states=sol.y.T[order], dense=sol.sol,
                      events=sol.t_events[1:])


def unstable_seed(eq: ChartEquilibrium,
                  epsilon: float = DEFAULT_EPSILON) -> ChartState:
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
    n_unstable, accepted = _spectral_test(eq)
    if not accepted:
        raise SpectralMismatch(
            f"need exactly one unstable eigenvalue (transverse); got "
            f"{n_unstable} unstable, nu3 = {eq.nu3}")
    check_epsilon(epsilon)
    return ChartState(theta=epsilon, p=eq.p, q=eq.q)


def _spectral_test(eq: ChartEquilibrium):
    """(number of eigenvalues with positive real part, whether that is
    exactly one, the transverse one)"""
    n = sum(1 for nu in eq.eigenvalues if complex(nu).real > 0)
    return n, n == 1 and eq.nu3 > 0


def _tail_start(n: int) -> int:
    """Index of the first of ``n`` samples in the tail window."""
    return int(math.floor((1.0 - TAIL_WINDOW) * n))


def classify_tail(tail: np.ndarray) -> TailVerdict:
    """Classify the q-tail from its samples in the tail window, the
    trailing TAIL_WINDOW fraction of the orbit: amplitude = half the
    peak-to-peak of q about its mean there."""
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

    The label [1] is the transversally unstable root for s > 0.  At s = 0
    it can be the stable one, and the shot starts from [0] when
    ``unstable_seed`` accepts that root instead.

    Integrates until theta > pi - 1e-4 or the xi-budget 400/sqrt(-mu) is
    exhausted, then classifies the q-tail by ``classify_tail`` on the
    trailing quarter of the run: on those of TAIL_SAMPLES uniform samples of
    the span that fall there.  The dense output is evaluated only at them:
    it is pointwise, so they are the values a full resampling would give.
    Raises ``NoConnection`` when theta stalls below pi - 1e-2.
    Returns (Trajectory, TailVerdict).
    """
    eqs = chart_equilibria(ZERO, mp, wf)
    eq = next((e for e in (eqs[1], eqs[0]) if _spectral_test(e)[1]), eqs[1])
    seed = unstable_seed(eq, epsilon)
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
    xs_fine = np.linspace(traj.xs[0], traj.xs[-1], TAIL_SAMPLES)
    tail = xs_fine[_tail_start(TAIL_SAMPLES):]
    return traj, classify_tail(traj.at(tail)[:, 2])
