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

The arithmetic works on component rows: the (3, n) transpose of the (n, 3)
magnetization.  Cross products are written out term by term as ``np.cross``
evaluates them, the nine tridiagonal right-hand sides of a step share one
buffer that LAPACK's ``dgtsv`` solves in place, and the phase inner products
add their terms in the order the (n, 3) layout gave them, so every bit of a
run matches the straightforward (n, 3) evaluation.

``scipy.linalg`` is imported at the first step, not with this module, so of
the CLI commands only ``freeze`` loads it.
"""

from __future__ import annotations

import functools
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
        every stepped state is."""
        return np.ascontiguousarray(self.m.T)

    @functools.cached_property
    def laplacian(self) -> np.ndarray:
        """Laplacian of the component rows, computed once per state for
        ``pde_rhs`` and ``freeze_step`` alike; read-only."""
        lap = _laplacian(self.rows, self.dx)
        lap.flags.writeable = False
        return lap


@dataclass(frozen=True)
class FreezeSeries:
    """Frame-estimate time series plus the terminal profile."""

    times: np.ndarray
    s: np.ndarray
    omega: np.ndarray
    terminal: LineState

    def __post_init__(self):
        if not (len(self.times) == len(self.s) == len(self.omega)):
            raise ValueError("series lengths must match")

    def asymptotic(self):
        """Mean (s, omega) over the trailing 10% of the records."""
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
    (reflected-ghost) ends."""
    lap = np.empty_like(M)
    lap[:, 1:-1] = (M[:, 2:] - 2.0 * M[:, 1:-1] + M[:, :-2]) / (dx * dx)
    lap[:, 0] = 2.0 * (M[:, 1] - M[:, 0]) / (dx * dx)
    lap[:, -1] = 2.0 * (M[:, -2] - M[:, -1]) / (dx * dx)
    return lap


def _gradient(M: np.ndarray, dx: float) -> np.ndarray:
    """Central first derivative of component rows; Neumann ends have zero
    slope."""
    grad = np.empty_like(M)
    grad[:, 1:-1] = (M[:, 2:] - M[:, :-2]) / (2.0 * dx)
    grad[:, 0] = 0.0
    grad[:, -1] = 0.0
    return grad


def _cross(a, b) -> np.ndarray:
    """a x b for vectors given as three component rows (arrays or scalars),
    term by term as ``np.cross`` evaluates it.  Zero components stay in
    the terms: they fix the signs of zero results."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0])


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
    lap = state.laplacian
    heff = (lap[0], lap[1], lap[2] + (mp.h - mp.mu * M[2]))
    jz = mp.beta / (1.0 + mp.c_cp * M[2])
    G = -_cross(M, heff) + _cross(M, _cross(M, (0.0, 0.0, jz)))
    return ((G + mp.alpha * _cross(M, G)) / (1.0 + mp.alpha ** 2)).T


@functools.lru_cache(maxsize=8)
def _tridiagonal(n: int, kappa: float):
    """Sub-, main and super-diagonal of I - kappa * Laplacian (Neumann), as
    read-only arrays (``dgtsv`` overwrites copies of them)."""
    dl = np.full(n - 1, -kappa)
    d = np.full(n, 1.0 + 2.0 * kappa)
    du = np.full(n - 1, -kappa)
    dl[-1] = du[0] = -2.0 * kappa
    for diag in (dl, d, du):
        diag.flags.writeable = False
    return dl, d, du


def _inner(WU: np.ndarray, V: np.ndarray, order: str) -> list:
    """Inner products <U_k, V> of component rows from the weighted rows
    WU[k] = w U_k.  Each sum adds its terms as ``np.sum`` adds an (n, 3)
    array of memory order ``order``: 'F' takes all x components, then y,
    then z; 'C' goes node by node."""
    if order == "F":
        P = WU * V
    else:
        k, _, n = WU.shape
        P = np.empty((k, n, 3))
        np.multiply(WU, V, out=P.transpose(0, 2, 1))
    return [float(p.sum()) for p in P]


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
    the frame, m_new = a + s b + Omega c, and a, b and c are nine rows of
    one buffer: their transpose is the Fortran-ordered (n, 9) right-hand
    side that one ``dgtsv`` call overwrites with the nine solutions.  The
    inner products with d/dx mhat add their terms in the memory order of
    ``state.m``, those with e3 x mhat node by node, as the (n, 3)
    evaluation did.  The returned ``m`` is the Fortran-ordered (n, 3) view
    of the new rows.
    """
    from scipy.linalg.lapack import dgtsv
    check_schedule(dt, state.dx, mp.alpha)
    dx = state.dx
    n = len(state.grid)
    Dc = 1.0 / (1.0 + mp.alpha ** 2)
    kappa = dt * Dc / (dx * dx)

    M = state.rows
    f_exp = pde_rhs(state, mp).T - Dc * state.laplacian
    mx = _gradient(M, dx)
    e3m = _cross((0.0, 0.0, 1.0), M)
    # rows 0-8 hold the right-hand sides of a, b and c, and after the solve
    # the solutions; rows 9-11 receive a - mhat for the phase conditions
    X = np.empty((12, n))
    np.add(M, dt * f_exp, out=X[0:3])
    np.multiply(dt, mx, out=X[3:6])
    np.multiply(-dt, e3m, out=X[6:9])
    info = dgtsv(*_tridiagonal(n, kappa), X[0:9].T, overwrite_b=True)[-1]
    if info:
        raise np.linalg.LinAlgError(f"dgtsv failed with info = {info}")
    a, b, c = X[0:3], X[3:6], X[6:9]

    # the reference mhat is the incoming m, so its tangents d/dx mhat and
    # e3 x mhat are mx and e3m
    np.subtract(a, M, out=X[9:12])
    WU = trapezoid_weights(n, dx) * X[3:12].reshape(3, 3, n)
    order = "F" if state.m.flags.f_contiguous else "C"
    # <a + s b + Om c - mhat, T> = 0 for T in {mx, e3m}; each list holds
    # <b, T>, <c, T> and <a - mhat, T>
    ipx = _inner(WU, mx, order)
    ipe = _inner(WU, e3m, "C")
    A = np.array([ipx[:2], ipe[:2]])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det) < PHASE_DET_GUARD * dt * dt:
        raise PhaseDegeneracy(f"phase Gram determinant {det:.3e} below guard")
    rvec = -np.array([ipx[2], ipe[2]])
    s_new, omega_new = np.linalg.solve(A, rvec)
    m_new = a + s_new * b + omega_new * c
    # (x^2 + y^2) + z^2, as np.linalg.norm adds a Fortran-ordered (n, 3) m
    sq = m_new * m_new
    norms = np.sqrt(sq[0] + sq[1] + sq[2])
    deviation = float(np.max(np.abs(norms - 1.0)))
    m_new /= norms
    return LineState(grid=state.grid, m=m_new.T, t=state.t + dt,
                     s_est=float(s_new), omega_est=float(omega_new),
                     norm_deviation=deviation)


def initial_wall(mp: MaterialParams, Lx: float, n_nodes: int) -> LineState:
    """Blow-down of the homogeneous wall of ``mp`` onto the uniform
    ``n_nodes``-point grid on [-Lx, Lx] (azimuth zero, zero frame
    estimates).  Raises ``ValueError`` unless Lx > 0 and n_nodes >= 2."""
    grid_spacing(Lx, n_nodes)
    grid = np.linspace(-Lx, Lx, n_nodes)
    m = sphere_rows(homogeneous_profile(grid, mp.mu)[:, 0], 0.0).T.copy()
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
    run, available via ``FreezeSeries.asymptotic``.  Raises ``ValueError``
    unless the step passes ``check_schedule`` with T >= dt, so that the run
    takes at least one step.
    """
    state = init
    check_schedule(dt, state.dx, mp.alpha, T)
    n_steps = int(round(T / dt))
    times, ss, oms = [], [], []
    for k in range(n_steps):
        state = freeze_step(state, mp, dt)
        if (k + 1) % 10 == 0 or k == n_steps - 1:
            times.append(state.t)
            ss.append(state.s_est)
            oms.append(state.omega_est)
    return FreezeSeries(times=np.array(times), s=np.array(ss),
                        omega=np.array(oms), terminal=state)
