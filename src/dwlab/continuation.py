"""Heteroclinic boundary-value continuation.

Walls are computed as solutions of the desingularized system on a truncated
domain [-L, L], discretized by piecewise-polynomial collocation at Gauss
points on a uniform mesh, with boundary conditions pinning the appropriate
components to the analytic chart equilibria and one integral phase
condition fixing translation.  The interval width 2L/n_mesh, not L, sets
the error (see ``BvpConfig``).  The boundary rows and free scalars follow
the regime, and the table ``REGIMES`` below is their one definition:

  * codim-2: p, q pinned at both ends; (s, Omega) free.
  * center:  p, q pinned at the left end; Omega slaved to the center
    condition Omega = beta-/alpha + s^2/2; the right end is constrained only
    through the energy-gap equation H(p, q at +L) - H(Z^pi_-) = htilde with
    the gap htilde itself the free scalar (a measurement, since the far
    state is generically a periodic orbit rather than the equilibrium).
  * codim-0: p, q pinned at the left end, nothing at the right; nothing
    free.  Z^0_- has one unstable direction and Z^pi_- three stable
    ones, so the left end takes two conditions and the right none.

Solving uses chord and full-step Newton iteration on an analytically
assembled sparse Jacobian; branches in any of (c_cp, s, Omega, h) are
traced by pseudo-arclength continuation with a secant predictor, whose last
step ends exactly on the target.  The continuation parameter is one more
free scalar of the same system, and the arclength equation one more row.

The Newton matrix is the almost block-diagonal collocation block (one block
per mesh interval) bordered by the scalar columns and the boundary, phase
and continuation rows.  Each system builds its CSC structure once, at its
first Jacobian, with every border entry kept even where its value is zero,
so each iteration only writes values:
  * the states at the Gauss points are strided sums over the nodal states
    (``_gauss_values``), with no array of interval-local states gathered;
  * each 3 x 3 state block D/h - W Jf is written in place into one value
    array, laid out so that every block is one contiguous array, and the
    structure's fixed order gathers that array into CSC data once.
Every factorization of it is a sparse LU ordered by minimum degree on the
pattern of J^T + J, which keeps the fill near nnz(J).

Along a branch the Newton matrix barely changes, so most iterations factor
nothing (the chord, or simplified Newton, method; Kelley, *Iterative
Methods for Linear and Nonlinear Equations*, SIAM 1995, section 5.4).  Each
system keeps the last LU it made, and an iteration first takes the full
step with it; the step is kept when it cuts the max-norm residual below
CHORD_RATE times the current one.  Otherwise the iteration factors J
afresh and takes its full Newton step once, and that LU serves the chord
steps that follow; a Newton step that does not lower the residual fails
the corrector, and the continuation halves its step (Allgower & Georg,
*Introduction to Numerical Continuation Methods*, SIAM 2003, section 6.1).

Each system holds one Newton structure, plain or bordered by the extra
row, and at most one LU; a continuation factors one system at a time:
  * ``continue_branch`` drops the LU of the solved system it starts from,
    and factors only its own, bordered system;
  * a system drops its LU before it factors the next one;
  * each Newton iteration assembles J once, and holds it only through its
    factorization.

SciPy's sparse modules (``scipy.sparse`` and ``scipy.sparse.linalg``) are
imported at the first Jacobian and the first factorization, not with this
module, so only the commands that solve a boundary-value problem
(``continue`` and ``center``) load them.  ``splu`` stays a module-level name
that forwards to SciPy's routine, so it can be replaced on the module, as
tests do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import legendre

from .charts import PI, ZERO, chart_equilibria, homogeneous_profile
from .classify import CENTER, CODIM0, CODIM2, classify_regime
from .energy import center_frequency, energy_gap, hamiltonian_gradient
from .errors import (NoConvergence, OrientationError, RegimeError,
                     SingularJacobian)
from .model import (MaterialParams, WaveFrame, rhs_jacobian_raw,
                    rhs_param_derivatives_raw, rhs_raw, trapezoid_weights)

__all__ = [
    "BvpConfig",
    "Profile",
    "Branch",
    "BranchPoint",
    "build_bvp",
    "newton_solve",
    "continue_branch",
    "check_step0",
    "termination_boundary",
    "far_state_distance",
]

#: pseudo-arclength steps: the default first step and the bounds; a step
#: doubles after each accepted point, up to STEP_MAX, and halves on failure
STEP0 = 0.01
STEP_MIN = 1e-5
STEP_MAX = 0.05

#: Newton stops when the max-norm residual falls below NEWTON_TOL, and fails
#: after MAX_NEWTON iterations, chord and Newton alike.  The chord converges
#: linearly and stops just under the tolerance, so it is set where the
#: stopping error lies below the discretization error of the default
#: interval width 0.25: 1.6e-13 to 5.5e-9 in the (s, Omega) of criterion
#: 8's branches against a mesh four times finer (tools/work_precision.py)
NEWTON_TOL = 1e-12
MAX_NEWTON = 12
#: a chord step, with the last LU of the system, is accepted when it cuts
#: the max-norm residual below CHORD_RATE times the current one
CHORD_RATE = 0.25

#: state components that a boundary row pins, and the end nodes
P, Q = 1, 2
LEFT, RIGHT = 0, -1
#: the energy-gap row: H^pi at the right end minus H^pi(Z^pi_-) equals htilde
GAP = "energy_gap"

#: per regime: (default free scalars, boundary rows).  A row is ``GAP`` or a
#: (node, component) pin of the state at that end to the chart equilibrium
#: there, Z^0_- on the left and Z^pi_- on the right.
REGIMES = {
    CODIM2: (("s", "omega"), ((LEFT, P), (LEFT, Q), (RIGHT, P), (RIGHT, Q))),
    CENTER: (("htilde",), ((LEFT, P), (LEFT, Q), GAP)),
    CODIM0: ((), ((LEFT, P), (LEFT, Q))),
}


@dataclass(frozen=True)
class BvpConfig:
    """Discretization settings: the domain [-L, L], its number of uniform
    mesh intervals and the collocation order.

    The default keeps the interval width 2L/n_mesh at 0.25 on a domain of
    L = 20.  That width, not L, sets the error.  Gauss collocation of
    order m errs at the mesh points by O(width^2m) (de Boor & Swartz, SIAM
    J. Numer. Anal. 10 (1973) 582), while truncating the line to [-L, L]
    errs by O(exp(-rate L)) (Beyn, IMA J. Numer. Anal. 10 (1990) 379),
    where the rate is the slowest decay of the tails, sqrt(-mu) for the
    walls of the paper's material.  At width 0.25 the errors of the
    criteria's endpoints, gaps and sup-norm (tools/work_precision.py) stay
    within 1.3 times of their values at L = 50, or below 1e-13, for every
    L from 12 to 50, and at L = 20 theta lies within 1e-8 of its far
    states along criterion 8's branches.  A softer material (mu nearer 0)
    has wider walls, width 1/sqrt(-mu), and needs a longer domain;
    ``far_state_distance`` reports how far a solution's ends lie from
    their far states."""

    L: float = 20.0
    n_mesh: int = 160
    collocation_order: int = 4

    def __post_init__(self):
        if not (self.L > 0):
            raise ValueError("L must be positive")
        if self.n_mesh < 50:
            raise ValueError("n_mesh must be at least 50")
        if self.collocation_order not in (3, 4, 5):
            raise ValueError("collocation_order must be 3, 4 or 5")


@dataclass(frozen=True)
class Profile:
    """Discretized wall profile: fine-mesh nodes, states (theta, p, q) per
    node, the parameters it solves, and diagnostics (free-scalar values,
    boundary/phase residuals, energy gap where applicable)."""

    mesh: np.ndarray
    states: np.ndarray
    mp: MaterialParams
    wf: WaveFrame
    regime: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BranchPoint:
    """One accepted continuation point."""

    param: float
    scalars: dict
    profile: Profile | None
    diagnostics: dict


@dataclass(frozen=True)
class Branch:
    """Ordered continuation results plus the termination reason, one of
    'reached_target' and 'newton_failure'.  Folds do not end a branch; they
    are flagged in the point diagnostics."""

    points: list
    terminated: str
    cont_name: str

    @property
    def end(self) -> BranchPoint:
        return self.points[-1]


# ---------------------------------------------------------------------------
# Collocation machinery
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _lagrange_matrices(order: int):
    """Interpolation and derivative matrices of the Lagrange basis on the
    equally spaced representation nodes j/order (j = 0..order) of the unit
    interval, evaluated at the ``order`` Gauss points; computed once per
    order, as read-only arrays."""
    m = order
    rep = np.arange(m + 1) / m
    gauss = 0.5 * (legendre.leggauss(m)[0] + 1.0)
    W = np.empty((m, m + 1))
    D = np.empty((m, m + 1))
    for j in range(m + 1):
        e = np.zeros(m + 1)
        e[j] = 1.0
        coeffs = np.polynomial.polynomial.polyfit(rep, e, m)
        W[:, j] = np.polynomial.polynomial.polyval(gauss, coeffs)
        D[:, j] = np.polynomial.polynomial.polyval(
            gauss, np.polynomial.polynomial.polyder(coeffs))
    W.flags.writeable = D.flags.writeable = False
    return W, D


def _gauss_values(M, u, m):
    """Values at the Gauss points of the interpolants through the nodal
    states ``u`` (n_nodes, 3): ``M`` is W or D of ``_lagrange_matrices``,
    and out[g, c, i] = sum_j M[g, j] u[i*m + j, c] for interval i.

    The sum runs from zero over j = 0..m in order, as
    ``np.einsum("gj,ijc->igc", M, u[loc])`` with loc[i, j] = i*m + j adds
    it, so the two agree bit for bit, signed zeros included.  Each term
    reads node j of every interval as one strided view of ``u``; no array
    of interval-local states is gathered."""
    N = (len(u) - 1) // m
    out = np.zeros((m, 3, N))
    term = np.empty_like(out)
    for j in range(m + 1):
        np.multiply(M[:, j, None, None], u[j: j + N * m: m].T, out=term)
        out += term
    return out


class HeteroclinicBVP:
    """Discretized nonlinear system for one regime on a fixed mesh.

    Unknowns are the nodal states followed by the free scalars, by default
    the regime's from ``REGIMES``; ``continue_branch`` frees its
    continuation parameter as one more.  ``base`` holds the fixed parameter
    values; unknown scalars override them.  Raises ``RegimeError`` for a mode
    without an entry in ``REGIMES``.
    """

    def __init__(self, mode: str, mp: MaterialParams, wf: WaveFrame,
                 cfg: BvpConfig, free_scalars=None):
        if mode not in REGIMES:
            raise RegimeError(f"unsupported regime {mode!r}")
        default_free, self.bc_rows = REGIMES[mode]
        self.mode = mode
        self.cfg = cfg
        self.free_scalars = tuple(default_free if free_scalars is None
                                  else free_scalars)
        # Omega is slaved to the center condition in center mode
        self.slave_omega = mode == CENTER
        self.base = dict(alpha=mp.alpha, beta=mp.beta, mu=mp.mu, h=mp.h,
                         c_cp=mp.c_cp, s=wf.s, omega=wf.omega, htilde=0.0)

        m = cfg.collocation_order
        N = cfg.n_mesh
        self.m, self.N = m, N
        self.h_mesh = 2.0 * cfg.L / N
        self.n_nodes = N * m + 1
        self.nU = 3 * self.n_nodes
        self.mesh = np.linspace(-cfg.L, cfg.L, self.n_nodes)
        self.W, self.D = _lagrange_matrices(m)
        # D[g, j]/h on the diagonal a = b, as (a, b, g, j)
        self._eye_D = (np.einsum("gj,ab->gjab", self.D, np.eye(3))
                       / self.h_mesh).transpose(2, 3, 0, 1).copy()
        # trapezoid weights on the uniform fine mesh, for the phase condition
        self.phase_w = trapezoid_weights(self.n_nodes, self.h_mesh / m)
        # reference profile for the phase condition (set via set_reference)
        self.uhat = None
        self.uhat_prime = None
        self.n_bc = len(self.bc_rows)
        self.n_colloc = 3 * N * m
        # the Newton structure's kind, None until ``_structure`` builds it;
        # the solve function of the last LU (``factor``) and the LU count
        self._bordered = None
        self.lu = None
        self.factorizations = 0

    # -- parameter handling -------------------------------------------------

    def frees_or_slaves(self, name: str) -> bool:
        """Whether the regime already determines the scalar ``name``, as a
        free unknown or as the slaved frequency; such a scalar cannot be a
        continuation parameter."""
        return name in self.free_scalars or (name == "omega"
                                             and self.slave_omega)

    def params_from(self, scalars: dict) -> dict:
        """Full parameter dict from the base values and scalar overrides."""
        par = dict(self.base)
        par.update(scalars)
        if self.slave_omega:
            mp = self._mp(par)
            par["omega"] = center_frequency(PI, mp, par["s"])
        return par

    @staticmethod
    def _mp(par) -> MaterialParams:
        return MaterialParams(alpha=par["alpha"], beta=par["beta"],
                              mu=par["mu"], h=par["h"], c_cp=par["c_cp"])

    @staticmethod
    def _wf(par) -> WaveFrame:
        return WaveFrame(s=par["s"], omega=par["omega"])

    def unpack(self, x):
        u = x[: self.nU].reshape(self.n_nodes, 3)
        scalars = {name: x[self.nU + k]
                   for k, name in enumerate(self.free_scalars)}
        return u, scalars

    def pack(self, states: np.ndarray, scalars: dict):
        return np.concatenate([np.asarray(states, dtype=float).ravel(),
                               [scalars[n] for n in self.free_scalars]])

    def set_reference(self, states: np.ndarray, scalars: dict):
        """Fix the phase-condition reference profile (and its derivative)."""
        par = self.params_from(scalars)
        u = np.asarray(states, dtype=float)
        d = rhs_raw(u[:, 0], u[:, 1], u[:, 2], par["alpha"], par["beta"],
                    par["mu"], par["h"], par["c_cp"], par["s"], par["omega"])
        self.uhat = u.copy()
        self.uhat_prime = np.stack(d, axis=1)

    # -- residual -----------------------------------------------------------

    def _bc_residual(self, u, par):
        mp, wf = self._mp(par), self._wf(par)
        # the pinned chart equilibria (Z^0_-, Z^pi_-), indexed by end node
        ends = (chart_equilibria(ZERO, mp, wf)[1].z,
                chart_equilibria(PI, mp, wf)[1].z)
        res = []
        for row in self.bc_rows:
            if row == GAP:
                res.append(energy_gap(u[RIGHT, P], u[RIGHT, Q], mp, wf)
                           - par["htilde"])
            else:
                node, comp = row
                z = ends[node]
                res.append(u[node, comp] - (z.real if comp == P else z.imag))
        return np.array(res)

    def residual(self, x):
        u, scalars = self.unpack(x)
        par = self.params_from(scalars)
        u_g = _gauss_values(self.W, u, self.m)
        du_g = _gauss_values(self.D, u, self.m)
        du_g /= self.h_mesh
        f = rhs_raw(u_g[:, 0], u_g[:, 1], u_g[:, 2], par["alpha"],
                    par["beta"], par["mu"], par["h"], par["c_cp"], par["s"],
                    par["omega"])
        nc = self.n_colloc
        r = np.empty(nc + self.n_bc + 1)
        # collocation row 3*(i*m + g) + c, written from the (g, c, i) values
        r_coll = r[:nc].reshape(self.N, self.m, 3).transpose(1, 2, 0)
        for c in range(3):
            np.subtract(du_g[:, c], f[c], out=r_coll[:, c])
        r[nc:-1] = self._bc_residual(u, par)
        r[-1] = np.sum(self.phase_w[:, None] * (u - self.uhat)
                       * self.uhat_prime)
        return r

    # -- Jacobian -----------------------------------------------------------

    def _structure(self, bordered: bool):
        """Build the CSC structure of the Newton matrix, with a dense last
        row when ``bordered``, unless the system holds one of that kind.  A
        structure of the other kind is replaced, and its LU dropped.

        ``jacobian`` writes the values into one array of six sections,
        split at ``_splits``: the collocation block, the scalar columns of
        the collocation rows as (k, a, g, i), the boundary state entries,
        the boundary scalar entries, the phase row and the extra row (empty
        unless bordered).  ``_order`` takes that array to CSC data order.
        The block's entries are laid out as (a, b, g, j, i): row
        3*(i*m + g) + a (component a at Gauss point g of interval i) and
        column 3*(i*m + j) + b (component b at node j of interval i), so
        that each (a, b) state block is one contiguous (m, m+1, N) array."""
        if self._bordered == bordered:
            return
        self.lu = None
        self._bordered = bordered
        N, m, nc, nb, nU = self.N, self.m, self.n_colloc, self.n_bc, self.nU
        shape = (3, 3, m, m + 1, N)
        a, b, g, j, i = np.ix_(*map(range, shape))
        rows_coll = np.broadcast_to(3 * (i * m + g) + a, shape)
        cols_coll = np.broadcast_to(3 * (i * m + j) + b, shape)
        # the (node, component) state entries of each boundary row: the
        # pinned one, or p and q at the right end for the gap
        pins = [((RIGHT, P), (RIGHT, Q)) if row == GAP else (row,)
                for row in self.bc_rows]
        n_scal = len(self.free_scalars)
        n_x = nU + n_scal
        n_row = n_x if bordered else 0
        scal_cols = nU + np.arange(n_scal)
        rows = [rows_coll.ravel(),
                np.tile(rows_coll[:, 0, :, 0].ravel(), n_scal),
                np.repeat(nc + np.arange(nb), [len(p) for p in pins]),
                np.repeat(nc + np.arange(nb), n_scal),
                np.full(nU, nc + nb), np.full(n_row, nc + nb + 1)]
        cols = [cols_coll.ravel(), np.repeat(scal_cols, nc),
                [3 * (node % self.n_nodes) + comp
                 for p in pins for node, comp in p],
                np.tile(scal_cols, nb), np.arange(nU), np.arange(n_row)]
        self._splits = np.cumsum([len(r) for r in rows[:-1]])
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        n_rows = nc + nb + 1 + int(bordered)
        # by column, then by row: each (row, column) pair occurs once, so
        # the combined key is unique (a stable sort of it runs fastest)
        self._order = np.argsort(cols * n_rows + rows, kind="stable")
        self._indices = rows[self._order].astype(np.int32)
        self._indptr = np.zeros(n_x + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n_x), out=self._indptr[1:])
        self._shape = (n_rows, n_x)

    def _scalar_chain(self, name, par):
        """Names and weights of the raw-parameter derivatives behind one
        unknown scalar, accounting for the slaved frequency."""
        if name == "htilde":
            return []
        chain = [(name, 1.0)]
        if self.slave_omega:
            if name == "s":
                chain.append(("omega", par["s"]))
            elif name == "c_cp":
                dod = par["beta"] / (par["alpha"] * (1.0 - par["c_cp"]) ** 2)
                chain.append(("omega", dod))
        return chain

    def _bc_jacobian(self, u, par):
        """Values of the boundary rows: the state entries (in the order of
        the structure's boundary columns) and the dense (n_bc, n_scal) block of
        free-scalar derivatives."""
        # derivative w.r.t. scalar values by central differences on the
        # boundary targets (the state contribution is handled analytically)
        eps = 1e-6
        dscal = np.zeros((self.n_bc, len(self.free_scalars)))
        for k, name in enumerate(self.free_scalars):
            if name == "htilde":
                # only the gap row reads htilde, as gap - htilde
                dscal[:, k] = [-1.0 if row == GAP else 0.0
                               for row in self.bc_rows]
                continue
            par_p = self.params_from({**par, name: par[name] + eps})
            par_m = self.params_from({**par, name: par[name] - eps})
            dscal[:, k] = (self._bc_residual(u, par_p)
                           - self._bc_residual(u, par_m)) / (2 * eps)
        state = []
        for row in self.bc_rows:
            if row == GAP:
                state += hamiltonian_gradient(PI, u[RIGHT, P], u[RIGHT, Q],
                                              self._mp(par), self._wf(par))
            else:
                state.append(1.0)
        return np.array(state, dtype=float), dscal

    def jacobian(self, x, extra_grad=None):
        """Sparse (CSC) Jacobian of ``residual`` and, when ``extra_grad`` is
        given, that gradient as a dense last row (the continuation driver's
        arclength or target row).  Each call computes values only, into
        the structure of ``_structure``."""
        u, scalars = self.unpack(x)
        par = self.params_from(scalars)
        self._structure(extra_grad is not None)
        values = np.empty(len(self._order))
        coll, scal, bc_state, bc_scal, phase, extra = np.split(values,
                                                               self._splits)

        u_g = _gauss_values(self.W, u, self.m)
        args = (u_g[:, 0], u_g[:, 1], u_g[:, 2], par["alpha"], par["beta"],
                par["mu"], par["h"], par["c_cp"], par["s"], par["omega"])
        # coll[a, b, g, j, i] = D[g, j]/h * delta_ab - W[g, j] * Jf[a, b, g, i]
        Jf = np.array(rhs_jacobian_raw(*args))
        coll = coll.reshape(3, 3, self.m, self.m + 1, self.N)
        np.multiply(self.W[:, :, None], Jf[:, :, :, None, :], out=coll)
        np.subtract(self._eye_D[..., None], coll, out=coll)

        # scalar columns of the collocation rows, as (k, a, g, i)
        if self.free_scalars:
            pder = rhs_param_derivatives_raw(*args)
            scal = scal.reshape(len(self.free_scalars), 3, self.m, self.N)
            scal.fill(0.0)
            for k, name in enumerate(self.free_scalars):
                for raw, wgt in self._scalar_chain(name, par):
                    for a, d in enumerate(pder[raw]):
                        scal[k, a] -= wgt * d

        bc_state[:], dscal = self._bc_jacobian(u, par)
        bc_scal[:] = dscal.ravel()
        np.multiply(self.phase_w[:, None], self.uhat_prime,
                    out=phase.reshape(-1, 3))
        if extra_grad is not None:
            extra[:] = extra_grad
        from scipy.sparse import csc_matrix
        J = csc_matrix((values.take(self._order), self._indices,
                        self._indptr), shape=self._shape)
        # the rows of each column are sorted and distinct by construction,
        # so J is marked canonical, and ``splu`` does not scan it
        J.has_canonical_format = True
        return J

    def factor(self, J):
        """Factor J, a matrix of this system's structure, by ``_factorize``
        and return the solve function of its LU, kept as ``lu``.  The last
        LU is dropped first, so at most one is alive per system.  Raises
        ``RuntimeError`` when J is singular."""
        self.lu = None
        self.lu = _factorize(J).solve
        self.factorizations += 1
        return self.lu

    # -- profile plumbing ---------------------------------------------------

    def admits(self, x) -> bool:
        """Whether the scalars of ``x`` make a valid material and frame.  A
        Newton trial can carry them out of it, c_cp past +-1 for one."""
        try:
            par = self.params_from(self.unpack(x)[1])
            self._mp(par), self._wf(par)
        except ValueError:
            return False
        return True

    def make_profile(self, u, scalars) -> Profile:
        """The profile of a solution, with its free-scalar values, boundary
        residual, ``far_state_distance`` and, where the regime frees it,
        the energy gap htilde in the diagnostics."""
        par = self.params_from(scalars)
        diag = {"free_scalars": dict(scalars),
                "boundary_residual": float(np.max(np.abs(
                    self._bc_residual(u, par)))),
                "far_state_distance": far_state_distance(u)}
        if "htilde" in self.free_scalars:
            diag["htilde"] = float(scalars["htilde"])
        return Profile(mesh=self.mesh.copy(), states=np.asarray(u).copy(),
                       mp=self._mp(par), wf=self._wf(par), regime=self.mode,
                       diagnostics=diag)


def far_state_distance(states) -> dict:
    """How far the ends of a profile lie from the far states theta = 0 and
    theta = pi: |theta(-L)| on the left and |pi - theta(L)| on the right.
    On the c_cp = 0 wall both are about 2 exp(-sqrt(-mu) L); a domain too
    short for the material shows as a large value."""
    return {"left": float(abs(states[LEFT, 0])),
            "right": float(abs(math.pi - states[RIGHT, 0]))}


# ---------------------------------------------------------------------------
# Public builders and solvers
# ---------------------------------------------------------------------------

def build_bvp(mp: MaterialParams, cfg: BvpConfig = BvpConfig(),
              wf: WaveFrame | None = None) -> HeteroclinicBVP:
    """Discretized heteroclinic system of the wall of ``mp``, with its
    regime's default free scalars.

    The regime is that of the c_cp = 0 family of ``mp`` (``classify_regime``
    of ``mp`` at c_cp = 0), and the wall is framed at the family's selected
    (s0, Omega0) unless a frame ``wf`` is given, such as a seed profile's.
    Raises ``OrientationError`` when the wall moves left (h < beta/alpha),
    and ``ValueError`` unless mu < 0."""
    regime = classify_regime(mp.replace(c_cp=0.0))
    if regime.reflected:
        raise OrientationError("h < beta/alpha: the wall moves left, and "
                               "walls are solved moving right")
    if wf is None:
        wf = WaveFrame(s=regime.s0, omega=regime.omega0)
    return HeteroclinicBVP(regime.kind, mp, wf, cfg)


def splu(A, **options):
    """``scipy.sparse.linalg.splu``, imported at its first call."""
    from scipy.sparse.linalg import splu
    return splu(A, **options)


def lsmr(A, b, **options):
    """``scipy.sparse.linalg.lsmr``, imported at its first call; unused,
    kept while perfbench's tracer wraps this name."""
    from scipy.sparse.linalg import lsmr
    return lsmr(A, b, **options)


def _factorize(J):
    """Sparse LU of the Newton matrix, ordered by minimum degree on the
    pattern of J^T + J: the symbolic analysis and the numeric factorization
    in one call.

    Apart from its border (boundary, phase and extra rows, scalar columns),
    the matrix is almost block diagonal, one block per mesh interval, and a
    symmetric ordering keeps its fill near its own nonzero count.  COLAMD,
    which orders by the columns alone, spreads fill from the dense border
    rows across the whole factor (about 20 times more nonzeros)."""
    return splu(J, permc_spec="MMD_AT_PLUS_A")


def newton_solve(bvp: HeteroclinicBVP, states: np.ndarray, scalars: dict,
                 extra_row=None):
    """Chord and Newton iteration on the discretized system, to a max-norm
    residual below NEWTON_TOL within MAX_NEWTON iterations.

    When the system holds an LU (``HeteroclinicBVP.lu``), an iteration
    first takes the full chord step with it, dx = -LU^-1 r, and accepts it
    when it cuts the residual below CHORD_RATE times the current one.
    Otherwise the trial is dropped and the iteration is a Newton one from
    the same point: J assembled and factored afresh (the system keeps that
    LU for the next chord steps), and its full step taken once.  Both kinds
    count as iterations.  A trial whose scalars leave the material's domain
    (``HeteroclinicBVP.admits``) has no residual and is rejected, as one
    with a NaN residual (a non-finite step's) is.

    ``extra_row`` optionally appends one dense equation (value, gradient)
    callback pair used by the pseudo-arclength driver.  Returns the solved
    (states, scalars) and the number of iterations taken.  The residual is
    evaluated once per point: an accepted step carries its own into the next
    iteration.  Raises ``NoConvergence``, also when a Newton step does not
    lower the residual, and ``SingularJacobian`` when the LU of J fails.
    """
    def with_residual(z):
        if not bvp.admits(z):
            return z, None, math.nan
        r = bvp.residual(z)
        if extra_row is not None:
            r = np.append(r, extra_row[0](z))
        return z, r, float(np.max(np.abs(r)))

    x, r, res_norm = with_residual(bvp.pack(states, scalars))
    for it in range(MAX_NEWTON + 1):
        if not math.isfinite(res_norm):
            raise NoConvergence("residual is not finite")
        if res_norm < NEWTON_TOL:
            return (*bvp.unpack(x), it)
        if it == MAX_NEWTON:
            break
        if bvp.lu is not None:
            # a NaN norm compares false and rejects the chord step
            chord = with_residual(x + bvp.lu(-r))
            if chord[2] < CHORD_RATE * res_norm:
                x, r, res_norm = chord
                continue
        grad = None if extra_row is None else extra_row[1](x)
        try:
            solve = bvp.factor(bvp.jacobian(x, grad))
        except RuntimeError as exc:
            raise SingularJacobian(f"sparse LU failed: {exc}") from None
        newton = with_residual(x + solve(-r))
        # a NaN norm compares false
        if not newton[2] < res_norm:
            raise NoConvergence(f"Newton step failed at {res_norm:.3e}")
        x, r, res_norm = newton
    raise NoConvergence(
        f"no convergence after {MAX_NEWTON} iterations "
        f"(residual {res_norm:.3e})")


def solve_regime(bvp: HeteroclinicBVP, guess_states=None, scalars=None):
    """Convenience: set the phase reference to the guess (by default the
    homogeneous wall) and Newton-solve."""
    if guess_states is None:
        guess_states = homogeneous_profile(bvp.mesh, bvp.base["mu"])
    if scalars is None:
        scalars = {n: bvp.base[n] for n in bvp.free_scalars}
    bvp.set_reference(guess_states, scalars)
    return newton_solve(bvp, guess_states, scalars)[:2]


def _weighted_dot(bvp, a, b):
    """Inner product weighting profile components by 1/n_nodes so arclength
    steps are mesh-independent."""
    nU = bvp.nU
    return (float(np.dot(a[:nU], b[:nU])) / bvp.n_nodes
            + float(np.dot(a[nU:], b[nU:])))


def continue_branch(bvp: HeteroclinicBVP, start_states, start_scalars,
                    cont_name: str, target: float,
                    step0: float = STEP0) -> Branch:
    """Pseudo-arclength continuation of a solved profile in ``cont_name``
    toward ``target``.

    The start must solve ``bvp`` at its base parameter value.  The branch is
    traced on a copy of ``bvp`` that frees ``cont_name`` as its last
    unknown, so ``bvp`` itself, its phase reference and Newton structure
    included, is left as it was, apart from its LU: that is dropped before
    the copy factors, and ``bvp`` factors afresh if it is solved again.
    Steps adapt within [1e-5, 0.05]: doubled after each accepted point
    whose corrector did not fail first, and a failed corrector's step, the
    shortened one that lands on the target included, halved.  A corrector
    that was not pinned to the target but carries the parameter past it is
    rejected, and its step redone from the previous point with the
    parameter pinned to the target, so a branch that reaches its target
    ends exactly on it.  Every
    accepted point is recorded with the regime's free scalars and, in its
    diagnostics, its corrector's iterations (``newton_iters``, chord and
    Newton alike), the LUs it made (``factorizations``), the failed
    correctors since the previous point (``rejected_steps``) and its
    ``far_state_distance``; the last one carries its full profile.
    Termination is reported in the Branch (never raised) as reached_target
    or newton_failure, the latter once a halved step falls below 1e-5.
    Folds do not end a branch; each point's diagnostics flag whether one has
    been passed.  Raises ``ValueError`` when the regime already frees or
    slaves ``cont_name``, and when ``step0`` fails ``check_step0``.
    """
    check_step0(step0)
    if bvp.frees_or_slaves(cont_name):
        raise ValueError(f"the {bvp.mode} regime already determines "
                         f"{cont_name}; it cannot be continued")
    base = bvp.base
    cbvp = HeteroclinicBVP(bvp.mode, bvp._mp(base), bvp._wf(base), bvp.cfg,
                           free_scalars=bvp.free_scalars + (cont_name,))
    # the base system's LU is not read while cbvp is solved
    bvp.lu = None
    lam0 = base[cont_name]
    direction = 1.0 if target >= lam0 else -1.0
    scalars = dict(start_scalars)
    scalars[cont_name] = lam0
    x = cbvp.pack(start_states, scalars)
    cbvp.set_reference(start_states, scalars)

    def record(u, sc, diag):
        pt_scalars = {n: float(sc[n]) for n in bvp.free_scalars}
        par = cbvp.params_from(sc)
        pt_scalars.setdefault("s", float(par["s"]))
        pt_scalars.setdefault("omega", float(par["omega"]))
        diag["far_state_distance"] = far_state_distance(u)
        points.append(BranchPoint(param=float(sc[cont_name]),
                                  scalars=pt_scalars, profile=None,
                                  diagnostics=diag))

    points = []
    record(start_states, scalars, {"step": 0.0})

    n_x = len(x)
    tangent = np.zeros(n_x)
    tangent[-1] = direction
    e_last = np.zeros(n_x)
    e_last[-1] = 1.0
    step = min(step0, STEP_MAX)
    rejected = 0
    fold_seen = False
    # (ds, predictor) of a step redone with lambda pinned to the target
    pinned = None

    while True:
        lam = x[-1]
        remaining = (target - lam) * direction
        if remaining <= 1e-14:
            term = "reached_target"
            break
        # the step that would pass the target is shortened to end on it, and
        # its corrector pins lambda = target in place of the arclength row,
        # which could carry lambda past the target
        t_lam = tangent[-1] * direction
        if pinned is not None:
            (ds, x_pred), pinned = pinned, None
            clamped = True
        else:
            clamped = t_lam > 1e-12 and remaining / t_lam <= step
            ds = remaining / t_lam if clamped else step
            x_pred = x + ds * tangent
        if clamped:
            x_pred[-1] = target
            row = (lambda z: z[-1] - target, lambda z: e_last)
        else:
            arc_grad = tangent.copy()
            arc_grad[: cbvp.nU] /= cbvp.n_nodes
            row = (lambda z: _weighted_dot(cbvp, z - x_pred, tangent),
                   lambda z: arc_grad)

        u_pred, sc_pred = cbvp.unpack(x_pred)
        made = cbvp.factorizations
        try:
            u_new, sc_new, iters = newton_solve(cbvp, u_pred, sc_pred,
                                                extra_row=row)
        except (NoConvergence, SingularJacobian):
            # halved from the step tried: halving a longer step that the
            # target shortened would retry the same trial
            rejected += 1
            step = 0.5 * ds
            if step < STEP_MIN:
                term = "newton_failure"
                break
            continue
        x_new = cbvp.pack(u_new, sc_new)
        past = (x_new[-1] - target) * direction
        if not clamped and past > 0.0:
            # the arclength corrector carried lambda past the target: redo
            # the step from x with lambda pinned to the target, predicted
            # on the chord to the point it passed to
            frac = remaining / (remaining + past)
            pinned = (frac * ds, x + frac * (x_new - x))
            continue
        x_prev, x = x, x_new
        # secant tangent for the next step
        diff = x - x_prev
        nrm = math.sqrt(_weighted_dot(cbvp, diff, diff))
        if nrm > 0:
            new_tangent = diff / nrm
            if new_tangent[-1] * tangent[-1] < 0:
                fold_seen = True
            tangent = new_tangent
        cbvp.set_reference(u_new, sc_new)
        record(u_new, sc_new, {"step": ds, "newton_iters": iters,
                               "factorizations": cbvp.factorizations - made,
                               "rejected_steps": rejected,
                               "fold": fold_seen})
        # a step that just had to be halved is not grown at once, which
        # would retry the length that failed
        if not rejected:
            step = min(2.0 * step, STEP_MAX)
        rejected = 0

    # attach the final full profile
    prof = cbvp.make_profile(*cbvp.unpack(x))
    points[-1] = replace(points[-1], profile=prof)
    return Branch(points=points, terminated=term, cont_name=cont_name)


def check_step0(step0: float) -> None:
    """Raise ``ValueError`` unless the initial arclength step is finite and
    positive; a zero step never moves the branch."""
    if not (step0 > 0 and math.isfinite(step0)):
        raise ValueError(f"step0 must be finite and positive, got {step0}")


def termination_boundary(mp: MaterialParams, c_cp_values,
                         cfg: BvpConfig = BvpConfig()):
    """Existence-boundary estimate: for each c_cp, continue the codim-2 wall
    in s toward 0 (h and Omega free) and record the last converged point.
    The c_cp = 0 wall of ``build_bvp(mp, cfg)`` is solved once and each c_cp
    is walked to from it.

    The last converged point is not always a boundary of existence.  At
    (alpha, beta, mu, h) = (0.5, 0.1, -1, 0.5) and c_cp = 0.3 it is
    s = 0.0397619, where two chart roots swap labels (``chart_equilibria``)
    and a pinned boundary target jumps; the branch goes on to a standing
    wall (s = 0).

    Returns a list of (c_cp, s_terminal, omega_terminal), with NaN for s
    and omega where the walk to c_cp failed.  Raises ``OrientationError``
    for a left-moving wall and ``RegimeError`` outside the codim-2 regime.
    """
    bvp0 = build_bvp(mp, cfg)
    if bvp0.mode != CODIM2:
        raise RegimeError(f"the termination boundary requires the codim-2 "
                          f"regime, got {bvp0.mode}")
    u0, sc0 = solve_regime(bvp0)
    results = []
    for ccp in c_cp_values:
        # first walk c_cp from 0 to its target at fixed h
        u, sc = u0, sc0
        if ccp != 0.0:
            br = continue_branch(bvp0, u, sc, "c_cp", ccp)
            if br.terminated != "reached_target":
                results.append((float(ccp), float("nan"), float("nan")))
                continue
            u = br.end.profile.states
            sc = dict(br.end.scalars)
        # then continue in s toward zero with (omega, h) free
        mp_c = mp.replace(c_cp=ccp)
        wf_c = WaveFrame(s=sc["s"], omega=sc["omega"])
        bvp = HeteroclinicBVP(CODIM2, mp_c, wf_c, cfg,
                              free_scalars=("omega", "h"))
        u2, sc2 = solve_regime(bvp, u, {"omega": sc["omega"], "h": mp.h})
        br = continue_branch(bvp, u2, sc2, "s", 0.0)
        end = br.end
        results.append((float(ccp), float(end.param),
                        float(end.scalars["omega"])))
    return results
