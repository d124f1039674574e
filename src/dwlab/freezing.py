"""Time integration of the magnetization PDE with the freezing method.

The wall dynamics are integrated in Cartesian magnetization coordinates on a
uniform grid with homogeneous Neumann ends.  The frame unknowns (s, Omega)
are added to the equation,

    dm/dt = F(m) + s dm/dx - Omega e3 x m,

and determined at every step by two phase conditions against a reference
profile (the previous step), so a traveling-rotating wall becomes a steady
state whose selected speed and frequency are read off directly.  Time
stepping is semi-implicit Euler: the exchange diffusion with coefficient
1/(1 + alpha^2) is treated implicitly, everything else explicitly, followed
by nodewise renormalization.  The implicit matrix I - kappa * Laplacian
with Neumann ends is symmetric in the trapezoid inner product: halving its
first and last rows makes it symmetric positive definite, so it is factored
once per grid and kappa (LAPACK's LDL^T, ``dpttrf``) and every step solves
with that factor.  The arithmetic works on component rows: the (3, n)
transpose of the (n, 3) magnetization.

``scipy.linalg`` is imported at the first step, not with this module, so of
the CLI commands only ``freeze`` loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .charts import homogeneous_profile
from .errors import PhaseDegeneracy
from .model import MaterialParams, sphere_rows, trapezoid_weights

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

#: an end node whose |m_perp| = hypot(m1, m2) exceeds this bound has left its
#: far state, a pole: the run has collapsed.  Criterion 10's run (h = 50,
#: n = 4096, T = 20) reaches at most 6.2e-49 at an end; the n = 2048 run
#: passes the bound at t = 19.3, where |m_perp| grows about e^(20 t)
FAR_STATE_BOUND = 1e-3


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
        # written so that a NaN norm fails too
        if not np.max(np.abs(norms - 1.0)) <= 1e-9:
            raise ValueError("m must be finite and unit-norm per node "
                             "(within 1e-9)")

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """Component rows (3, n) of m; a view when m is Fortran-ordered, as
        every initial wall and stepped state is."""
        return np.ascontiguousarray(self.m.T)


@dataclass(frozen=True)
class FreezeSeries:
    """Frame-estimate time series plus the terminal profile, and why the
    run ended: 'reached_T', or 'far_state_lost' when an end node left its
    pole (``run_selection``)."""

    times: np.ndarray
    s: np.ndarray
    omega: np.ndarray
    terminal: LineState
    terminated: str = "reached_T"

    def __post_init__(self):
        if not (len(self.times) == len(self.s) == len(self.omega)):
            raise ValueError("series lengths must match")

    def asymptotic(self):
        """Mean (s, omega) over the trailing 10% of the records, NaN when
        there is none.  A run that lost its far state holds only the
        records before the loss."""
        if not len(self.times):
            return math.nan, math.nan
        n = max(1, int(round(0.1 * len(self.times))))
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


def _laplacian(M: np.ndarray, dx: float) -> np.ndarray:
    """Second-order central Laplacian of component rows (3, n) with Neumann
    (reflected-ghost) ends.  The interior stencil runs once over the rows
    laid end to end; the nodes where it straddles two rows are the ends,
    which are then overwritten."""
    lap = np.empty(M.shape)
    f = M.ravel()
    lap.ravel()[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (dx * dx)
    lap[:, 0] = 2.0 * (M[:, 1] - M[:, 0]) / (dx * dx)
    lap[:, -1] = 2.0 * (M[:, -2] - M[:, -1]) / (dx * dx)
    return lap


def _gradient(M: np.ndarray, dx: float) -> np.ndarray:
    """Central first derivative of component rows, over the rows laid end
    to end as in ``_laplacian``; Neumann ends have zero slope."""
    grad = np.empty(M.shape)
    f = M.ravel()
    grad.ravel()[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    grad[:, 0] = 0.0
    grad[:, -1] = 0.0
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
    The result is the (n, 3) transpose of component rows.
    """
    M = state.rows
    m0, m1, m2 = M
    l0, l1, l2 = _laplacian(M, state.dx)
    hz = l2 + (mp.h - mp.mu * m2)
    jz = mp.beta / (1.0 + mp.c_cp * m2)
    jm2 = jz * m2
    # G, with m x (m x J) written as its exact products
    # jz (m2 m0, m2 m1, -(m0^2 + m1^2))
    g0 = l1 * m2 - hz * m1 + jm2 * m0
    g1 = hz * m0 - l0 * m2 + jm2 * m1
    g2 = l0 * m1 - l1 * m0 - jz * (m0 * m0 + m1 * m1)
    a = mp.alpha
    F = np.empty_like(M)
    np.add(g0, a * (m1 * g2 - m2 * g1), out=F[0])
    np.add(g1, a * (m2 * g0 - m0 * g2), out=F[1])
    np.add(g2, a * (m0 * g1 - m1 * g0), out=F[2])
    F /= 1.0 + a * a
    return F.T


@functools.lru_cache(maxsize=8)
def _implicit_factor(n: int, kappa: float):
    """LDL^T factor (d, e) of I - kappa * Laplacian (Neumann) with its
    first and last rows halved, as read-only arrays for ``dpttrs``.

    The Neumann matrix is symmetric in the trapezoid inner product: halving
    the end rows, as the trapezoid weights over dx do, makes it symmetric
    positive definite, and the halving is exact.  Raises ``LinAlgError``
    when ``dpttrf`` fails.
    """
    from scipy.linalg.lapack import dpttrf
    d = np.full(n, 1.0 + 2.0 * kappa)
    d[0] = d[-1] = 0.5 * (1.0 + 2.0 * kappa)
    d, e, info = dpttrf(d, np.full(n - 1, -kappa), overwrite_d=True,
                        overwrite_e=True)
    if info:
        raise np.linalg.LinAlgError(f"dpttrf failed with info = {info}")
    d.flags.writeable = e.flags.writeable = False
    return d, e


def freeze_step(state: LineState, mp: MaterialParams, dt: float) -> LineState:
    """One frozen-frame step.

    The diffusive part D*m_xx, D = 1/(1+alpha^2), goes implicit; the rest of
    the dynamics plus the frame terms s*m_x - Omega*e3 x m explicit, with
    (s, Omega) solved from the phase conditions <m - mhat, d/dx mhat> = 0 and
    <m - mhat, e3 x mhat> = 0 against the incoming profile ``mhat``.  The
    result is renormalized nodewise, and the solved (s, Omega) become the
    new state's frame estimates.  Raises ``PhaseDegeneracy`` when the phase
    Gram determinant falls below 1e-12 (e.g. a uniform state).

    Everything is evaluated on component rows.  The update is linear in
    the frame, m_new = mhat + u + s b + Omega c, where u solves the
    implicit system for dt * ``pde_rhs``, b for dt d/dx mhat and c for
    -dt e3 x mhat, whose z row is zero.  The implicit matrix is factored
    once per grid and kappa (``_implicit_factor``), and each step solves
    its eight right-hand sides, end rows halved, in place with ``dpttrs``.
    The returned ``m`` is the Fortran-ordered (n, 3) view of the new rows.
    """
    from scipy.linalg.lapack import dpttrs
    check_schedule(dt, state.dx, mp.alpha)
    dx = state.dx
    n = len(state.grid)
    kappa = dt * (1.0 / (1.0 + mp.alpha ** 2)) / (dx * dx)

    M = state.rows
    mx = _gradient(M, dx)
    # rows 0-2 hold u, rows 3-5 b and rows 6-7 the x and y rows of c: first
    # their right-hand sides, after the solve the solutions
    X = np.empty((8, n))
    np.multiply(dt, pde_rhs(state, mp).T, out=X[0:3])
    np.multiply(dt, mx, out=X[3:6])
    np.multiply(dt, M[1], out=X[6])
    np.multiply(-dt, M[0], out=X[7])
    X[:, 0] *= 0.5
    X[:, -1] *= 0.5
    info = dpttrs(*_implicit_factor(n, kappa), X.T, overwrite_b=True)[-1]
    if info:
        raise np.linalg.LinAlgError(f"dpttrs failed with info = {info}")

    # the reference mhat is the incoming m, so its tangents are mx and
    # e3 x m = (-m1, m0, 0); P holds the trapezoid inner products of every
    # solved row with every weighted tangent row
    w = trapezoid_weights(n, dx)
    T = np.empty((5, n))
    np.multiply(w, mx, out=T[0:3])
    np.multiply(-w, M[1], out=T[3])
    np.multiply(w, M[0], out=T[4])
    P = (X @ T.T).tolist()
    # <v, mx> and <v, e3 x m> for v = u, b, c
    ux, bx, cx = (P[0][0] + P[1][1] + P[2][2], P[3][0] + P[4][1] + P[5][2],
                  P[6][0] + P[7][1])
    ue, be, ce = P[0][3] + P[1][4], P[3][3] + P[4][4], P[6][3] + P[7][4]
    det = bx * ce - cx * be
    if abs(det) < PHASE_DET_GUARD * dt * dt:
        raise PhaseDegeneracy(f"phase Gram determinant {det:.3e} below guard")
    # Cramer's rule for [[bx, cx], [be, ce]] (s, Omega) = -(ux, ue)
    s_new = (cx * ue - ux * ce) / det
    omega_new = (ux * be - bx * ue) / det
    X[3:6] *= s_new
    X[0:3] += X[3:6]
    X[6:8] *= omega_new
    X[0:2] += X[6:8]
    m_new = M + X[0:3]
    norms = np.sqrt((m_new * m_new).sum(axis=0))
    deviation = float(np.max(np.abs(norms - 1.0)))
    m_new /= norms
    return LineState(grid=state.grid, m=m_new.T, t=state.t + dt,
                     s_est=s_new, omega_est=omega_new,
                     norm_deviation=deviation)


def initial_wall(mp: MaterialParams, Lx: float, n_nodes: int) -> LineState:
    """Blow-down of the homogeneous wall of ``mp`` onto the uniform
    ``n_nodes``-point grid on [-Lx, Lx] (azimuth zero, zero frame
    estimates).  Raises ``ValueError`` unless Lx > 0 and n_nodes >= 2."""
    grid_spacing(Lx, n_nodes)
    grid = np.linspace(-Lx, Lx, n_nodes)
    m = sphere_rows(homogeneous_profile(grid, mp.mu)[:, 0], 0.0).T
    # snap the far tails to the exact poles: the uniform far states can be
    # convectively unstable, and seeding them with rounding-level noise
    # (sin(pi) != 0 in floating point) triggers a spurious global flip
    snap = np.abs(m[:, 0]) < 1e-12
    m[snap, 0] = 0.0
    m[snap, 2] = np.sign(m[snap, 2])
    return LineState(grid=grid, m=m)


def run_selection(mp: MaterialParams, init: LineState, T: float,
                  dt: float) -> FreezeSeries:
    """Integrate the frozen dynamics of ``mp`` from ``init`` to time ``T``
    in steps ``dt``, and report the selected frame, recorded every 10th
    step and at the last.

    The reference profile is the previous step (a genuinely moving frame);
    the asymptotic (s, Omega) are the series means over the final 10% of the
    run, available via ``FreezeSeries.asymptotic``.  The run stops early,
    as 'far_state_lost', at the first step that takes an end node's
    |m_perp| above FAR_STATE_BOUND; that step is the terminal state, and
    it is not recorded.  Raises ``ValueError`` unless the step passes
    ``check_schedule`` with T >= dt, so that the run takes at least one
    step.
    """
    state = init
    check_schedule(dt, state.dx, mp.alpha, T)
    n_steps = int(round(T / dt))
    times, ss, oms = [], [], []
    terminated = "reached_T"
    for k in range(n_steps):
        state = freeze_step(state, mp, dt)
        m = state.m
        if max(math.hypot(m[0, 0], m[0, 1]),
               math.hypot(m[-1, 0], m[-1, 1])) > FAR_STATE_BOUND:
            terminated = "far_state_lost"
            break
        if (k + 1) % 10 == 0 or k == n_steps - 1:
            times.append(state.t)
            ss.append(state.s_est)
            oms.append(state.omega_est)
    return FreezeSeries(times=np.array(times), s=np.array(ss),
                        omega=np.array(oms), terminal=state,
                        terminated=terminated)
