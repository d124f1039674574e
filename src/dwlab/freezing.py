"""Time integration of the magnetization PDE with the freezing method.

The wall dynamics are integrated in Cartesian magnetization coordinates on a
uniform grid with homogeneous Neumann ends.  The frame unknowns (s, Omega)
are added to the equation,

    dm/dt = F(m) + s dm/dx - Omega e3 x m,

and determined at every step by two phase conditions that hold the rate
dm/dt orthogonal to the profile's tangents dm/dx and e3 x m (Beyn &
Thuemmler, SIADS 3, 2004), so a traveling-rotating wall becomes a steady
state whose selected speed and frequency are read off directly.  Time
stepping is semi-implicit Euler: the exchange diffusion with coefficient
1/(1 + alpha^2) is treated implicitly, everything else explicitly, followed
by nodewise renormalization.  The implicit matrix I - kappa * Laplacian
with Neumann ends is symmetric in the trapezoid inner product: halving its
first and last rows makes it symmetric positive definite, so it is factored
once per grid and kappa (LAPACK's LDL^T, ``dpttrf``) and every step solves
its one right-hand side with that factor.  The arithmetic works on
component rows: the (3, n) transpose of the (n, 3) magnetization.

A run (``run_selection``) builds one stepper, which holds the factor, the
trapezoid weights and every work row, and advances its own copy of the
rows in place; it builds a ``LineState`` only for the terminal state.
Each step checks its own norms before renormalizing, in place of the
unit-norm check of a new state.  ``freeze_step`` is one step of a stepper
built for it, so both give the same bits.

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

#: |det| of the tangents' Gram matrix below this value raises PhaseDegeneracy
PHASE_DET_GUARD = 1e-12

#: an end node whose |m_perp| = hypot(m1, m2) exceeds this bound has left its
#: far state, a pole: the run has collapsed.  Criterion 10's run (h = 50,
#: n = 4096, T = 20) reaches at most 6.2e-49 at an end; the n = 2048 run
#: passes the bound at t = 19.3, where |m_perp| grows about e^(20 t)
FAR_STATE_BOUND = 1e-3

UNIT_NORM_ERROR = "m must be finite and unit-norm per node (within 1e-9)"


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
            raise ValueError(UNIT_NORM_ERROR)

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])


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


#: the end nodes, and the node next to each, of a row
_ENDS, _NEXT = np.array([0, -1]), np.array([1, -2])


def _laplacian(M: np.ndarray, dx2: float, out: np.ndarray) -> np.ndarray:
    """Second-order central Laplacian of component rows (3, n) with Neumann
    (reflected-ghost) ends, written into ``out``; ``dx2`` is dx * dx.  The
    interior stencil runs once over the rows laid end to end; the nodes
    where it straddles two rows are the ends, which are then overwritten."""
    f, inner = M.ravel(), out.ravel()[1:-1]
    np.multiply(2.0, f[1:-1], out=inner)
    np.subtract(f[2:], inner, out=inner)
    inner += f[:-2]
    inner /= dx2
    out[:, _ENDS] = 2.0 * (M[:, _NEXT] - M[:, _ENDS]) / dx2
    return out


def _gradient(M: np.ndarray, two_dx: float, out: np.ndarray) -> np.ndarray:
    """Central first derivative of component rows, over the rows laid end
    to end as in ``_laplacian``, written into ``out``; ``two_dx`` is
    2 dx.  Neumann ends have zero slope."""
    f, inner = M.ravel(), out.ravel()[1:-1]
    np.subtract(f[2:], f[:-2], out=inner)
    inner /= two_dx
    out[:, _ENDS] = 0.0
    return out


def _rhs_rows(Mw: np.ndarray, Hw: np.ndarray, mp: MaterialParams,
              out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The rows (3, n) of ``pde_rhs``, written into ``out``.

    ``Mw`` (5, n) holds the component rows m0, m1, m2, m0, m1, so that
    ``Mw[1:4]`` and ``Mw[2:5]`` are the rows rotated by one and by two, and
    a cross product is two products of three rows each.  ``Hw`` (5, n)
    holds their Laplacian in its first three rows and becomes h_eff laid
    out the same way; ``work`` (11, n) holds G, laid out the same way, and
    two blocks of three temporary rows.
    """
    m2 = Mw[2]
    G, A, B = work[0:5], work[5:8], work[8:11]
    # hz = l2 + (h - mu m2)
    np.multiply(mp.mu, m2, out=A[0])
    np.subtract(mp.h, A[0], out=A[0])
    Hw[2] += A[0]
    Hw[3:5] = Hw[0:2]
    # G = -m x h_eff + m x (m x J): first h_eff x m ...
    np.multiply(Hw[1:4], Mw[2:5], out=G[0:3])
    np.multiply(Hw[2:5], Mw[1:4], out=A)
    G[0:3] -= A
    # ... then m x (m x J), J = jz e3, written as its exact products
    # jz (m2 m0, m2 m1, -(m0^2 + m1^2)), jz = beta / (1 + c_cp m2)
    jz, jm2 = A[0], A[1]
    np.multiply(mp.c_cp, m2, out=jz)
    np.add(1.0, jz, out=jz)
    np.divide(mp.beta, jz, out=jz)
    np.multiply(jz, m2, out=jm2)
    np.multiply(jm2, Mw[0:2], out=B[0:2])
    G[0:2] += B[0:2]
    np.multiply(Mw[0:2], Mw[0:2], out=B[0:2])
    np.add(B[0], B[1], out=B[2])
    B[2] *= jz
    G[2] -= B[2]
    # (G + alpha m x G) / (1 + alpha^2)
    G[3:5] = G[0:2]
    np.multiply(Mw[1:4], G[2:5], out=A)
    np.multiply(Mw[2:5], G[1:4], out=B)
    A -= B
    A *= mp.alpha
    np.add(G[0:3], A, out=out)
    out /= 1.0 + mp.alpha * mp.alpha
    return out


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
    n = len(state.grid)
    Mw, Hw = np.empty((5, n)), np.empty((5, n))
    Mw[0:3] = state.m.T
    Mw[3:5] = Mw[0:2]
    _laplacian(Mw[0:3], state.dx * state.dx, Hw[0:3])
    F = _rhs_rows(Mw, Hw, mp, np.empty((3, n)), np.empty((11, n)))
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


class _Stepper:
    """The frozen-frame steps of one run of ``mp`` in steps ``dt``, from
    ``state``, advanced in place.

    Holds the implicit factor, the trapezoid weights and every work row
    a step needs, and steps its own component rows ``M`` (a copy of the
    state's, kept in the rotated layout of ``_rhs_rows``); ``t``, ``s``,
    ``omega`` and ``deviation`` are the time, frame estimates and norm
    deviation of the last step.  Checks no schedule: its callers do.
    """

    def __init__(self, mp: MaterialParams, state: LineState, dt: float):
        from scipy.linalg.lapack import dpttrs
        self._dpttrs = dpttrs
        dx = state.dx
        n = len(state.grid)
        self.mp, self.dt, self.grid = mp, dt, state.grid
        self.dx2, self.two_dx = dx * dx, 2.0 * dx
        kappa = dt * (1.0 / (1.0 + mp.alpha ** 2)) / (dx * dx)
        self.factor = _implicit_factor(n, kappa)
        w = trapezoid_weights(n, dx)
        # the weights of the rows of e3 x m = (-m1, m0, 0), taken from
        # the rows (m1, m0)
        self.w, self.w_e3 = w, np.stack([-w, w])
        self.Mw = np.empty((5, n))
        self.Mw[0:3] = state.m.T
        self.Mw[3:5] = self.Mw[0:2]
        self.M = self.Mw[0:3]
        self.t, self.s, self.omega = state.t, state.s_est, state.omega_est
        self.deviation = state.norm_deviation
        self.Hw, self.work = np.empty((5, n)), np.empty((11, n))
        # rows 0-2 hold F, then dt R and, after the solve, the increment;
        # rows 3-5 hold mx, then the frame terms of R
        self.X = np.empty((6, n))
        # the weighted tangent rows w mx and w e3 x m
        self.T = np.empty((5, n))

    def step(self) -> None:
        """Advance ``M`` by one step, as ``freeze_step`` describes."""
        Mw, M, X, T, dt = self.Mw, self.M, self.X, self.T, self.dt
        n = M.shape[1]
        # the tangents are mx and e3 x m = (-m1, m0, 0)
        mx = _gradient(M, self.two_dx, X[3:6])
        np.multiply(self.w, mx, out=T[0:3])
        np.multiply(self.w_e3, M[1::-1], out=T[3:5])
        _laplacian(M, self.dx2, self.Hw[0:3])
        _rhs_rows(Mw, self.Hw, self.mp, X[0:3], self.work)
        # P and Q hold the trapezoid inner products of the rows F, mx and
        # (m0, m1) with every weighted tangent row
        P, Q = (X @ T.T).tolist(), (M[0:2] @ T.T).tolist()
        # <v, mx> and <v, e3 x m> for v = F, mx and c = (m1, -m0, 0)
        fx, bx, cx = (P[0][0] + P[1][1] + P[2][2],
                      P[3][0] + P[4][1] + P[5][2], Q[1][0] - Q[0][1])
        fe, be, ce = P[0][3] + P[1][4], P[3][3] + P[4][4], Q[1][3] - Q[0][4]
        det = bx * ce - cx * be
        if abs(det) < PHASE_DET_GUARD:
            raise PhaseDegeneracy(
                f"phase Gram determinant {det:.3e} below guard")
        # Cramer's rule for [[bx, cx], [be, ce]] (s, Omega) = -(fx, fe)
        s_new = (cx * fe - fx * ce) / det
        omega_new = (fx * be - bx * fe) / det
        # R = F + s mx + Omega c, then dt R with its end columns halved
        R = X[0:3]
        X[3:6] *= s_new
        R += X[3:6]
        np.multiply(M[1::-1], omega_new, out=X[3:5])
        R[0] += X[3]
        R[1] -= X[4]
        R *= dt
        R[:, ::n - 1] *= 0.5
        info = self._dpttrs(*self.factor, R.T, overwrite_b=True)[-1]
        if info:
            raise np.linalg.LinAlgError(f"dpttrs failed with info = {info}")
        M += R
        sq, norms = self.work[0:3], self.work[3]
        np.multiply(M, M, out=sq)
        np.add(sq[0], sq[1], out=norms)
        norms += sq[2]
        np.sqrt(norms, out=norms)
        # a zero, infinite or NaN norm leaves no unit vector to step on
        lo, hi = norms.min(), norms.max()
        if not (lo > 0.0 and hi < math.inf):
            raise ValueError(UNIT_NORM_ERROR)
        # max |norm - 1|: rounding is monotone, so the largest deviation
        # is at the largest or the smallest norm
        deviation = float(max(hi - 1.0, 1.0 - lo))
        M /= norms
        Mw[3:5] = Mw[0:2]
        self.t += dt
        self.s, self.omega, self.deviation = s_new, omega_new, deviation

    def state(self) -> LineState:
        """The current state, on a copy of the rows: its ``m`` is the
        Fortran-ordered (n, 3) transpose of that copy."""
        return LineState(grid=self.grid, m=self.M.copy().T, t=self.t,
                         s_est=self.s, omega_est=self.omega,
                         norm_deviation=self.deviation)


def freeze_step(state: LineState, mp: MaterialParams, dt: float) -> LineState:
    """One frozen-frame step.

    The diffusive part D*m_xx, D = 1/(1+alpha^2), goes implicit; the rest of
    the dynamics plus the frame terms s*m_x - Omega*e3 x m explicit.  With
    F = ``pde_rhs`` of the incoming profile m, (s, Omega) are solved from
    the phase conditions <R, m_x> = 0 and <R, e3 x m> = 0 on the explicit
    rate R = F + s m_x - Omega e3 x m, in the trapezoid inner product.  The
    new profile is m + (I - dt D d^2/dx^2)^-1 dt R, renormalized nodewise,
    and the solved (s, Omega) become the new state's frame estimates.
    Raises ``PhaseDegeneracy`` when the Gram determinant of the tangents
    m_x and e3 x m falls below 1e-12 (e.g. a uniform state), and
    ``ValueError`` when a node's norm before renormalization is zero or
    not finite.

    Everything is evaluated on component rows; the 2 x 2 system for
    (s, Omega) needs no tridiagonal solve.  The implicit matrix is factored
    once per grid and kappa (``_implicit_factor``), and each step solves
    the three rows of dt R, end columns halved, in place with ``dpttrs``.
    The returned ``m`` is the Fortran-ordered (n, 3) view of the new rows.
    This is one step of the stepper that ``run_selection`` runs.
    """
    check_schedule(dt, state.dx, mp.alpha)
    stepper = _Stepper(mp, state, dt)
    stepper.step()
    return stepper.state()


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

    Each step takes its phase conditions on its incoming profile (a
    genuinely moving frame); the asymptotic (s, Omega) are the series means
    over the final 10% of the run, available via ``FreezeSeries.asymptotic``.
    The run stops early, as 'far_state_lost', at the first step that takes
    an end node's |m_perp| above FAR_STATE_BOUND; that step is the terminal
    state, and it is not recorded.  Raises ``ValueError`` unless the step
    passes ``check_schedule`` with T >= dt, so that the run takes at least
    one step.
    """
    check_schedule(dt, init.dx, mp.alpha, T)
    n_steps = int(round(T / dt))
    stepper = _Stepper(mp, init, dt)
    M = stepper.M
    times, ss, oms = [], [], []
    terminated = "reached_T"
    for k in range(n_steps):
        stepper.step()
        if max(math.hypot(M[0, 0], M[1, 0]),
               math.hypot(M[0, -1], M[1, -1])) > FAR_STATE_BOUND:
            terminated = "far_state_lost"
            break
        if (k + 1) % 10 == 0 or k == n_steps - 1:
            times.append(stepper.t)
            ss.append(stepper.s)
            oms.append(stepper.omega)
    return FreezeSeries(times=np.array(times), s=np.array(ss),
                        omega=np.array(oms), terminal=stepper.state(),
                        terminated=terminated)
