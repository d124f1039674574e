"""Time integration of the magnetization PDE with the freezing method.

The wall dynamics are integrated in Cartesian magnetization coordinates on a
uniform grid with homogeneous Neumann ends.  The frame unknowns (s, Omega)
are added to the equation,

    dm/dt = F(m) + s dm/dx - Omega e3 x m,

and determined at every step by two phase conditions against a reference
profile (the previous step), so a traveling-rotating wall becomes a steady
state whose selected speed and frequency are read off directly.  Time
stepping is semi-implicit Euler: the exchange diffusion with coefficient
1/(1 + alpha^2) is treated implicitly (one tridiagonal solve per component),
everything else explicitly, followed by nodewise renormalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .charts import homogeneous_profile, homogeneous_speed_frequency
from .errors import PhaseDegeneracy
from .model import MaterialParams

__all__ = [
    "LineState",
    "FreezeSeries",
    "pde_rhs",
    "freeze_step",
    "initial_wall",
    "run_selection",
    "dt_max",
    "grid_spacing",
    "check_schedule",
]

#: |det| of the phase Gram matrix below this value raises PhaseDegeneracy
PHASE_DET_GUARD = 1e-12


@dataclass(frozen=True)
class LineState:
    """Magnetization line: uniform grid, unit 3-vector per node, time, and
    the current frame estimates."""

    grid: np.ndarray
    m: np.ndarray
    t: float = 0.0
    s_est: float = 0.0
    omega_est: float = 0.0
    #: max nodewise | ||m|| - 1 | of the previous step before renormalization
    norm_deviation: float = 0.0

    def __post_init__(self):
        if self.m.shape != (len(self.grid), 3):
            raise ValueError("m must be (n_nodes, 3)")
        norms = np.linalg.norm(self.m, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("m must be unit-norm per node (within 1e-9)")

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])


@dataclass(frozen=True)
class FreezeSeries:
    """Frame-estimate time series plus the terminal profile."""

    times: np.ndarray
    s: np.ndarray
    omega: np.ndarray
    terminal: LineState
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (len(self.times) == len(self.s) == len(self.omega)):
            raise ValueError("series lengths must match")

    def asymptotic(self, window: float = 0.1):
        """Mean (s, omega) over the trailing ``window`` fraction."""
        n = max(1, int(round(window * len(self.times))))
        return float(np.mean(self.s[-n:])), float(np.mean(self.omega[-n:]))


def dt_max(dx: float, alpha: float) -> float:
    """Stability guard of the semi-implicit splitting."""
    return 0.4 * dx * dx * (1.0 + alpha * alpha)


def grid_spacing(Lx: float, n_nodes: int) -> float:
    """Node spacing of the uniform ``n_nodes``-point grid on [-Lx, Lx] that
    ``initial_wall`` builds, rounded as ``LineState.dx`` reads it off the
    grid: the second node, -Lx + 2 Lx/(n_nodes - 1), less the first.
    Raises ``ValueError`` unless Lx > 0 and n_nodes >= 2."""
    if not (Lx > 0 and n_nodes >= 2):
        raise ValueError(f"the grid needs Lx > 0 and n_nodes >= 2, got "
                         f"Lx = {Lx}, n_nodes = {n_nodes}")
    return (2.0 * Lx / (n_nodes - 1) - Lx) + Lx


def check_schedule(dt: float, dx: float, alpha: float, T: float = None):
    """Raise ``ValueError`` unless 0 < dt <= dt_max(dx, alpha) and, when a
    run length ``T`` is given, T >= dt, so that the run takes a step."""
    if not (dt > 0 and dt <= dt_max(dx, alpha)):
        raise ValueError(f"dt must lie in (0, {dt_max(dx, alpha):.3e}]")
    if T is not None and not T >= dt:
        raise ValueError(f"T must be at least dt = {dt}, got T = {T}")


def _laplacian(m: np.ndarray, dx: float) -> np.ndarray:
    """Second-order central Laplacian with Neumann (reflected-ghost) ends."""
    lap = np.empty_like(m)
    lap[1:-1] = (m[2:] - 2.0 * m[1:-1] + m[:-2]) / (dx * dx)
    lap[0] = 2.0 * (m[1] - m[0]) / (dx * dx)
    lap[-1] = 2.0 * (m[-2] - m[-1]) / (dx * dx)
    return lap


def _gradient(m: np.ndarray, dx: float) -> np.ndarray:
    """Central first derivative; Neumann ends have zero slope."""
    grad = np.empty_like(m)
    grad[1:-1] = (m[2:] - m[:-2]) / (2.0 * dx)
    grad[0] = 0.0
    grad[-1] = 0.0
    return grad


def pde_rhs(state: LineState, mp: MaterialParams) -> np.ndarray:
    """Per-node time derivative of the magnetization.

    Evaluates the damped precession equation in its explicit
    (1 + alpha^2)-normalized form

        dm/dt = (G + alpha m x G) / (1 + alpha^2),
        G = -m x h_eff + m x (m x J),
        h_eff = d^2m/dx^2 + (h - mu m3) e3,
        J = beta / (1 + c_cp m3) e3,

    with second-order central differences and homogeneous Neumann ends.
    """
    m = state.m
    dx = state.dx
    heff = _laplacian(m, dx)
    heff[:, 2] += mp.h - mp.mu * m[:, 2]
    jz = mp.beta / (1.0 + mp.c_cp * m[:, 2])
    J = np.zeros_like(m)
    J[:, 2] = jz
    G = -np.cross(m, heff) + np.cross(m, np.cross(m, J))
    return (G + mp.alpha * np.cross(m, G)) / (1.0 + mp.alpha ** 2)


def _banded_operator(n: int, kappa: float) -> np.ndarray:
    """Banded form of I - kappa * Laplacian (Neumann) for solve_banded."""
    ab = np.zeros((3, n))
    ab[1, :] = 1.0 + 2.0 * kappa
    ab[0, 1:] = -kappa
    ab[2, :-1] = -kappa
    ab[0, 1] = -2.0 * kappa
    ab[2, -2] = -2.0 * kappa
    return ab


def freeze_step(state: LineState, mp: MaterialParams, dt: float,
                frame=None) -> LineState:
    """One frozen-frame step.

    The diffusive part D*m_xx, D = 1/(1+alpha^2), goes implicit; the rest of
    the dynamics plus the frame terms s*m_x - Omega*e3 x m explicit, with
    (s, Omega) solved from the phase conditions <m - mhat, d/dx mhat> = 0 and
    <m - mhat, e3 x mhat> = 0 against the incoming profile ``mhat``.  The
    result is renormalized nodewise.  Passing ``frame=(s, omega)`` skips the
    phase conditions and steps with that fixed frame instead.  Raises
    ``PhaseDegeneracy`` when the phase Gram determinant falls below 1e-12
    (e.g. a uniform state).
    """
    check_schedule(dt, state.dx, mp.alpha)
    m = state.m
    dx = state.dx
    n = len(state.grid)
    Dc = 1.0 / (1.0 + mp.alpha ** 2)
    kappa = dt * Dc / (dx * dx)
    ab = _banded_operator(n, kappa)

    f_exp = pde_rhs(state, mp) - Dc * _laplacian(m, dx)
    mx = _gradient(m, dx)
    e3m = np.cross(np.array([0.0, 0.0, 1.0]), m)
    # m_new = a + s*b + Omega*c; batch all nine tridiagonal solves
    rhs = np.hstack([m + dt * f_exp, dt * mx, -dt * e3m])
    sol = solve_banded((1, 1), ab, rhs)
    a, b, c = sol[:, 0:3], sol[:, 3:6], sol[:, 6:9]

    if frame is not None:
        s_new, omega_new = frame
    else:
        mhat = m
        mhat_x = _gradient(mhat, dx)
        mhat_r = np.cross(np.array([0.0, 0.0, 1.0]), mhat)
        w = np.full(n, dx)
        w[0] = w[-1] = 0.5 * dx

        def ip(u, v):
            return float(np.sum(w[:, None] * u * v))

        # <a + s b + Om c - mhat, T> = 0 for T in {mhat_x, mhat_r}
        A = np.array([[ip(b, mhat_x), ip(c, mhat_x)],
                      [ip(b, mhat_r), ip(c, mhat_r)]])
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        if abs(det) < PHASE_DET_GUARD * dt * dt:
            raise PhaseDegeneracy(
                f"phase Gram determinant {det:.3e} below guard")
        rvec = -np.array([ip(a - mhat, mhat_x), ip(a - mhat, mhat_r)])
        s_new, omega_new = np.linalg.solve(A, rvec)
    m_new = a + s_new * b + omega_new * c
    norms = np.linalg.norm(m_new, axis=1)
    deviation = float(np.max(np.abs(norms - 1.0)))
    m_new = m_new / norms[:, None]
    return LineState(grid=state.grid, m=m_new, t=state.t + dt,
                     s_est=float(s_new), omega_est=float(omega_new),
                     norm_deviation=deviation)


def initial_wall(mp: MaterialParams, Lx: float = 100.0, n_nodes: int = 2048,
                 perturbation: np.ndarray = None) -> LineState:
    """Blow-down of the homogeneous wall onto the grid (azimuth zero),
    optionally perturbed (the perturbation is renormalized away in norm).
    Raises ``ValueError`` unless Lx > 0 and n_nodes >= 2."""
    grid_spacing(Lx, n_nodes)
    grid = np.linspace(-Lx, Lx, n_nodes)
    theta = homogeneous_profile(grid, mp.mu)[:, 0]
    m = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=1)
    # snap the far tails to the exact poles: the uniform far states can be
    # convectively unstable, and seeding them with rounding-level noise
    # (sin(pi) != 0 in floating point) triggers a spurious global flip
    snap = np.abs(m[:, 0]) < 1e-12
    m[snap, 0] = 0.0
    m[snap, 2] = np.sign(m[snap, 2])
    if perturbation is not None:
        m = m + perturbation
        m /= np.linalg.norm(m, axis=1)[:, None]
    # frame estimate of the homogeneous wall, whose shape depends on mu only
    wf0 = homogeneous_speed_frequency(mp.replace(c_cp=0.0))
    return LineState(grid=grid, m=m, t=0.0, s_est=wf0.s, omega_est=wf0.omega)


def run_selection(mp: MaterialParams, init: LineState = None, T: float = 20.0,
                  dt: float = 1e-3, record_every: int = 10) -> FreezeSeries:
    """Integrate the frozen dynamics to time ``T`` and report the selected
    frame.

    The reference profile is the previous step (a genuinely moving frame);
    the asymptotic (s, Omega) are the series means over the final 10% of the
    run, available via ``FreezeSeries.asymptotic``.  Raises ``ValueError``
    unless the step passes ``check_schedule`` with T >= dt, so that the run
    takes at least one step.
    """
    state = init if init is not None else initial_wall(mp)
    check_schedule(dt, state.dx, mp.alpha, T)
    n_steps = int(round(T / dt))
    times, ss, oms = [], [], []
    for k in range(n_steps):
        state = freeze_step(state, mp, dt)
        if (k + 1) % record_every == 0 or k == n_steps - 1:
            times.append(state.t)
            ss.append(state.s_est)
            oms.append(state.omega_est)
    series = FreezeSeries(times=np.array(times), s=np.array(ss),
                          omega=np.array(oms), terminal=state,
                          diagnostics={"dt": dt, "n_steps": n_steps})
    return series
