"""Boundary-value continuation tests: Newton recovery of the explicit
family, agreement with the first-order splitting prediction for small
polarization, branch mechanics (steps, folds, termination), and the
existence-boundary helper."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from dwlab import (BvpConfig, MaterialParams, NoConvergence,
                   OrientationError, RegimeError, WaveFrame, build_bvp,
                   classify_regime, continue_branch, homogeneous_profile,
                   newton_solve, solve_regime, termination_boundary)
from dwlab import continuation
from dwlab.continuation import _factorize, _gauss_values, _lagrange_matrices
from dwlab.errors import SingularJacobian

ALPHA, BETA, MU = 0.5, 0.1, -1.0
CFG = BvpConfig(L=30.0, n_mesh=120, collocation_order=4)
CFG_FINE = BvpConfig(L=30.0, n_mesh=240, collocation_order=4)


def mk(h, c_cp=0.0):
    return MaterialParams(alpha=ALPHA, beta=BETA, mu=MU, h=h, c_cp=c_cp)


def setup(h, cfg=CFG):
    mp = mk(h)
    bvp = build_bvp(mp, cfg)
    return bvp, mp, WaveFrame(s=bvp.base["s"], omega=bvp.base["omega"])


class TestBvpConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BvpConfig(L=-1.0)
        with pytest.raises(ValueError):
            BvpConfig(n_mesh=10)
        with pytest.raises(ValueError):
            BvpConfig(collocation_order=2)


class TestStructure:
    def test_free_scalar_counts(self):
        """Free parameters per regime: 2 / 1 / 0."""
        assert len(setup(0.5)[0].free_scalars) == 2
        assert len(setup(10.2)[0].free_scalars) == 1
        assert len(setup(50.0)[0].free_scalars) == 0

    def test_boundary_condition_counts(self):
        assert setup(0.5)[0].n_bc == 4
        assert setup(10.2)[0].n_bc == 3
        assert setup(50.0)[0].n_bc == 2

    def test_jacobian_matches_finite_differences(self):
        """Every regime, plain and bordered: with the c_cp continuation
        column (at c_cp = 0.1, where the slaved frequency depends on it) and
        a dense extra row, as in a continuation corrector."""
        for h in (0.5, 10.2, 50.0):
            for bordered in (False, True):
                self._check_jacobian(h, bordered)

    @staticmethod
    def _check_jacobian(h, bordered):
        bvp, mp, wf = setup(h, BvpConfig(L=10.0, n_mesh=50,
                                         collocation_order=3))
        if bordered:
            # the unknowns of a continuation in c_cp: c_cp is one more free
            # scalar
            bvp = continuation.HeteroclinicBVP(
                bvp.mode, mp, wf, bvp.cfg,
                free_scalars=bvp.free_scalars + ("c_cp",))
        u = homogeneous_profile(bvp.mesh, mp.mu)
        u[:, 1] += 0.01 * np.cos(bvp.mesh)  # move off the exact solution
        sc = {n: bvp.base[n] for n in bvp.free_scalars}
        bvp.set_reference(u, sc)
        rng = np.random.default_rng(0)
        if bordered:
            x = bvp.pack(u, dict(sc, c_cp=0.1))
            g = rng.normal(size=len(x))
            J = bvp.jacobian(x, g).toarray()

            def res(z):
                return np.append(bvp.residual(z), g @ (z - x))
        else:
            x = bvp.pack(u, sc)
            J = bvp.jacobian(x).toarray()
            res = bvp.residual
        assert J.shape == (len(x), len(x))
        eps = 1e-7
        ks = np.concatenate([rng.integers(0, bvp.nU, 20),
                             np.arange(bvp.nU, len(x))])
        for k in ks:
            xp, xm = x.copy(), x.copy()
            xp[k] += eps
            xm[k] -= eps
            col = (res(xp) - res(xm)) / (2 * eps)
            assert np.max(np.abs(J[:, k] - col)) < 1e-5, (h, bordered, k)

    @pytest.mark.parametrize("bordered", [False, True],
                             ids=["plain", "bordered"])
    @pytest.mark.parametrize("h", [0.5, 10.2, 50.0],
                             ids=["codim2", "center", "codim0"])
    def test_factorization_fill_stays_near_the_matrix(self, h, bordered):
        """Apart from its dense border the Newton matrix is almost block
        diagonal, and its LU keeps nnz(L + U) within 3 nnz(J) (a column-only
        ordering gives about 20 nnz(J) on the codim-2 plain one), in every
        regime, plain and bordered as in a continuation corrector (c_cp
        free, one dense extra row), on the default mesh."""
        bvp, mp, wf = setup(h, BvpConfig())
        if bordered:
            bvp = continuation.HeteroclinicBVP(
                bvp.mode, mp, wf, bvp.cfg,
                free_scalars=bvp.free_scalars + ("c_cp",))
        u = homogeneous_profile(bvp.mesh, mp.mu)
        sc = {n: bvp.base[n] for n in bvp.free_scalars}
        bvp.set_reference(u, sc)
        x = bvp.pack(u, sc)
        rng = np.random.default_rng(7)
        J = bvp.jacobian(x, rng.normal(size=len(x)) if bordered else None)
        lu = _factorize(J)
        assert lu.L.nnz + lu.U.nnz <= 3 * J.nnz
        b = np.random.default_rng(0).normal(size=J.shape[0])
        assert np.max(np.abs(J @ lu.solve(b) - b)) < 1e-10


def bits(a):
    """The bit patterns of a float array, so equality includes signbits."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def counting_splu(monkeypatch):
    """Wrap ``continuation.splu``; returns the list of (permc_spec, LU) of
    every call made from then on."""
    calls = []

    def wrapper(A, permc_spec):
        lu = splu(A, permc_spec=permc_spec)
        calls.append((permc_spec, lu))
        return lu
    monkeypatch.setattr(continuation, "splu", wrapper)
    return calls


class TestNewtonMatrixLifetime:
    def test_every_factorization_orders_by_minimum_degree(self,
                                                          monkeypatch):
        """Every LU of a branch's correctors orders by minimum degree on
        the Newton matrix itself: each ``splu`` call takes the J that the
        last ``jacobian`` call returned, marked canonical, as a fresh scan
        finds, and there are as many calls as Jacobians.  Chord steps are
        off, so that every iteration factors."""
        monkeypatch.setattr(continuation, "CHORD_RATE", 0.0)
        bvp, mp, wf = setup(0.5)
        u, sc = solve_regime(bvp)
        jacobians = []
        jacobian = continuation.HeteroclinicBVP.jacobian

        def tracked(self, *args):
            J = jacobian(self, *args)
            jacobians.append(weakref.ref(J))
            return J
        monkeypatch.setattr(continuation.HeteroclinicBVP, "jacobian",
                            tracked)
        calls = []

        def counted(A, permc_spec):
            assert A is jacobians[-1]() and A.has_canonical_format
            assert csc_matrix((A.data, A.indices, A.indptr),
                              shape=A.shape).has_canonical_format
            calls.append(permc_spec)
            return splu(A, permc_spec=permc_spec)
        monkeypatch.setattr(continuation, "splu", counted)
        br = continue_branch(bvp, u, sc, "c_cp", 0.1, step0=0.02)
        assert br.terminated == "reached_target"
        assert len(jacobians) > 1
        assert calls == ["MMD_AT_PLUS_A"] * len(jacobians)

    def test_one_jacobian_is_alive_while_an_lu_factors(self, monkeypatch):
        """A continuation holds one Newton matrix at a time: while ``splu``
        runs, exactly one matrix that ``jacobian`` returned is alive.  Chord
        steps are off, so that every iteration factors."""
        monkeypatch.setattr(continuation, "CHORD_RATE", 0.0)
        bvp, mp, wf = setup(0.5)
        u, sc = solve_regime(bvp)
        returned = []
        jacobian = continuation.HeteroclinicBVP.jacobian

        def tracked(self, *args):
            J = jacobian(self, *args)
            returned.append(weakref.ref(J))
            return J
        monkeypatch.setattr(continuation.HeteroclinicBVP, "jacobian",
                            tracked)
        alive = []

        def counted(A, permc_spec):
            alive.append((permc_spec,
                          sum(ref() is not None for ref in returned)))
            return splu(A, permc_spec=permc_spec)
        monkeypatch.setattr(continuation, "splu", counted)
        br = continue_branch(bvp, u, sc, "c_cp", 0.1, step0=0.02)
        assert br.terminated == "reached_target"
        assert len(alive) > 1
        assert alive == [("MMD_AT_PLUS_A", 1)] * len(alive)

    def test_no_earlier_jacobian_is_alive_while_one_is_assembled(
            self, monkeypatch):
        """A corrector of two Newton iterations drops the first one's J
        before the second assembles its own: at every ``jacobian`` call no
        matrix that an earlier call returned is alive.  Chord steps are
        off, so that every iteration assembles."""
        monkeypatch.setattr(continuation, "CHORD_RATE", 0.0)
        bvp, mp, wf = setup(10.1)
        u, sc = solve_regime(bvp)
        returned, alive = [], []
        jacobian = continuation.HeteroclinicBVP.jacobian

        def tracked(self, *args):
            alive.append(sum(ref() is not None for ref in returned))
            J = jacobian(self, *args)
            returned.append(weakref.ref(J))
            return J
        monkeypatch.setattr(continuation.HeteroclinicBVP, "jacobian",
                            tracked)
        br = continue_branch(bvp, u, sc, "c_cp", -0.2)
        assert br.terminated == "reached_target"
        # some corrector took more than one Newton iteration
        assert len(alive) > len(br.points) - 1
        assert alive == [0] * len(alive)

    def test_branch_drops_the_base_lu(self):
        """After a branch the solved base system holds no LU; solved again,
        it factors afresh and gives the same bits."""
        bvp, mp, wf = setup(0.5)
        u, sc = solve_regime(bvp)
        assert bvp.lu is not None
        before = solve_regime(bvp, u, sc)
        br = continue_branch(bvp, u, sc, "c_cp", 0.1, step0=0.02)
        assert br.terminated == "reached_target"
        assert bvp.lu is None
        after = solve_regime(bvp, u, sc)
        assert np.array_equal(bits(after[0]), bits(before[0]))
        assert after[1] == before[1]

    def test_other_kind_of_jacobian_rebuilds_the_structure(self):
        """One system asked for a plain, then a bordered, then a plain
        Jacobian builds the structure of each kind in turn: every J equals
        a fresh system's bit for bit, and each switch drops the LU, which
        a call of the same kind keeps."""
        bvp, mp, wf = setup(0.5)
        u = homogeneous_profile(bvp.mesh, mp.mu)
        sc = {n: bvp.base[n] for n in bvp.free_scalars}
        bvp.set_reference(u, sc)
        x = bvp.pack(u, sc)
        grad = np.random.default_rng(3).normal(size=len(x))

        def same(A, B):
            return (A.shape == B.shape
                    and np.array_equal(bits(A.data), bits(B.data))
                    and np.array_equal(A.indices, B.indices)
                    and np.array_equal(A.indptr, B.indptr))
        # stands for the solve function of an LU: only its identity is read
        marker = object()
        for extra in (None, grad, None):
            fresh = build_bvp(mp, CFG)
            fresh.set_reference(u, sc)
            bvp.lu = marker
            # the first call builds the structure, and each later one
            # switches its kind
            J = bvp.jacobian(x, extra)
            assert bvp.lu is None
            assert same(J, fresh.jacobian(x, extra))
            bvp.lu = marker
            assert same(bvp.jacobian(x, extra), J)
            assert bvp.lu is marker

    def test_center_sweep_factors_three_systems(self, monkeypatch):
        """A center sweep over two values factors three systems: the base
        system and its two continuation systems."""
        from dwlab.cli import _center_sweep
        from dwlab import thresholds
        factored = []
        systems = []
        jacobian = continuation.HeteroclinicBVP.jacobian

        def tracked(self, *args):
            systems.append(self)
            return jacobian(self, *args)
        monkeypatch.setattr(continuation.HeteroclinicBVP, "jacobian",
                            tracked)

        def counted(A, permc_spec):
            factored.append(id(systems[-1]))
            return splu(A, permc_spec=permc_spec)
        monkeypatch.setattr(continuation, "splu", counted)
        _, h_star = thresholds(ALPHA, BETA, MU)
        _, results = _center_sweep(mk(h_star), "h",
                                   [h_star + 0.15, h_star - 0.15], CFG,
                                   continuation.STEP0)
        assert [term for *_, term in results] == ["reached_target"] * 2
        assert len(set(factored)) == 3


class TestChordCorrectors:
    def test_branch_factors_a_third_as_often_as_it_corrects(
            self, monkeypatch):
        """On the default mesh, the h = 0.5 branch to c_cp = 0.5 takes most
        of its corrections as chord steps with a structure's last LU: it
        makes at most a third as many factorizations as corrections, and
        each point's diagnostics count the LUs its corrector made."""
        calls = counting_splu(monkeypatch)
        bvp, mp, wf = setup(0.5, BvpConfig())
        u, sc = solve_regime(bvp)
        before = len(calls)
        br = continue_branch(bvp, u, sc, "c_cp", 0.5)
        assert br.terminated == "reached_target"
        made = len(calls) - before
        corrections = sum(pt.diagnostics.get("newton_iters", 0)
                          for pt in br.points)
        assert 0 < 3 * made <= corrections
        assert made == sum(pt.diagnostics.get("factorizations", 0)
                           for pt in br.points)

    def test_no_earlier_lu_is_alive_while_splu_runs(self, monkeypatch):
        """A structure keeps its last LU for chord steps and drops it
        before it factors again, and a branch drops the base system's: no
        LU that ``splu`` returned before is alive when it runs.  Each LU is
        wrapped, since SuperLU objects take no weak reference."""
        class Tracked:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return self.lu.solve(b)

        made, alive = [], []

        def tracked(A, permc_spec):
            alive.append(sum(ref() is not None for ref in made))
            lu = Tracked(splu(A, permc_spec=permc_spec))
            made.append(weakref.ref(lu))
            return lu
        monkeypatch.setattr(continuation, "splu", tracked)
        bvp, mp, wf = setup(10.1)
        u, sc = solve_regime(bvp)
        br = continue_branch(bvp, u, sc, "c_cp", -0.5)
        assert br.terminated == "reached_target"
        assert len(alive) > 2
        assert alive == [0] * len(alive)

    def test_center_gap_is_the_exact_discrete_one(self, monkeypatch):
        """The center-regime c_cp sweep at +-0.05 (default mesh) ends with a
        boundary residual below 1e-12, and its gap htilde within 1e-13 of
        the one that plain Newton iteration to 1e-13 gives."""
        def sweep():
            bvp = build_bvp(mk(10.2), BvpConfig())
            u, sc = solve_regime(bvp)
            ends = [continue_branch(bvp, u, sc, "c_cp", t).end.profile
                    for t in (-0.05, 0.05)]
            return [(p.diagnostics["boundary_residual"],
                     p.diagnostics["htilde"]) for p in ends]
        got = sweep()
        with monkeypatch.context() as m:
            m.setattr(continuation, "CHORD_RATE", 0.0, raising=False)
            m.setattr(continuation, "NEWTON_TOL", 1e-13)
            ref = sweep()
        for (res, gap), (_, gap_ref) in zip(got, ref):
            assert res < 1e-12
            assert abs(gap - gap_ref) < 1e-13


class TestGaussValues:
    @seed(22)
    @settings(max_examples=100, deadline=None)
    @given(order=st.sampled_from([3, 4, 5]), n=st.integers(50, 401),
           state=st.integers(0, 2**32 - 1),
           zeros=st.sampled_from([0.0, 0.2, 1.0]))
    @example(order=3, n=50, state=0, zeros=1.0)
    def test_equals_the_gathered_einsum(self, order, n, state, zeros):
        """The strided sum equals the einsum over gathered interval states,
        values and signbits, for W and D: at orders 3, 4 and 5, over
        magnitudes 1e-8 to 1e8 of both signs, with a share of the states
        signed zeros (all of them in the explicit example)."""
        rng = np.random.default_rng(state)
        u = (rng.normal(size=(n * order + 1, 3))
             * 10.0 ** rng.integers(-8, 9, size=(n * order + 1, 3)))
        zero = rng.random(u.shape) < zeros
        u[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        loc = np.arange(n)[:, None] * order + np.arange(order + 1)
        for M in _lagrange_matrices(order):
            ref = np.einsum("gj,ijc->igc", M, u[loc])
            got = _gauss_values(M, u, order).transpose(2, 0, 1)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestNewton:
    @pytest.mark.parametrize("h", [0.5, 5.0, 10.2, 50.0])
    def test_recovers_analytic_family(self, h):
        bvp, mp, wf = setup(h, CFG_FINE)
        u, sc = solve_regime(bvp)
        ref = homogeneous_profile(bvp.mesh, mp.mu)
        assert np.max(np.abs(u - ref)) < 1e-6
        par = bvp.params_from(sc)
        assert par["s"] == pytest.approx(wf.s, abs=1e-8)
        assert par["omega"] == pytest.approx(wf.omega, abs=1e-8)

    def test_exact_guess_converges_immediately(self):
        bvp, mp, wf = setup(0.5)
        u = homogeneous_profile(bvp.mesh, mp.mu)
        sc = {n: bvp.base[n] for n in bvp.free_scalars}
        bvp.set_reference(u, sc)
        _, _, iters = newton_solve(bvp, u, sc)
        assert iters <= 2

    def test_perturbed_speed_converges_back(self):
        bvp, mp, wf = setup(0.5)
        u = homogeneous_profile(bvp.mesh, mp.mu)
        sc = {"s": wf.s + 1e-3, "omega": wf.omega}
        bvp.set_reference(u, sc)
        u2, sc2, _ = newton_solve(bvp, u, sc)
        assert sc2["s"] == pytest.approx(wf.s, abs=1e-8)
        assert sc2["omega"] == pytest.approx(wf.omega, abs=1e-8)

    def test_each_point_has_one_residual(self, monkeypatch):
        """An accepted step carries its residual into the next iteration, so
        no point's residual is evaluated twice."""
        bvp, mp, wf = setup(0.5)
        u = homogeneous_profile(bvp.mesh, mp.mu)
        sc = {"s": wf.s + 1e-3, "omega": wf.omega}
        bvp.set_reference(u, sc)
        points = []
        residual = continuation.HeteroclinicBVP.residual

        def recorded(self, x):
            points.append(x.tobytes())
            return residual(self, x)
        monkeypatch.setattr(continuation.HeteroclinicBVP, "residual",
                            recorded)
        _, _, iters = newton_solve(bvp, u, sc)
        assert iters >= 2
        assert len(points) == len(set(points)) >= iters + 1

    @staticmethod
    def _noise_guess():
        bvp, mp, wf = setup(0.5)
        rng = np.random.default_rng(1)
        u = homogeneous_profile(bvp.mesh, mp.mu)
        u[:, 1:] += rng.normal(0.0, 1.0, size=(bvp.n_nodes, 2))
        u[:, 0] = np.clip(u[:, 0] + rng.normal(0.0, 1.0, bvp.n_nodes),
                          0.0, math.pi)
        sc = {n: bvp.base[n] for n in bvp.free_scalars}
        bvp.set_reference(u, sc)
        return bvp, u, sc

    def test_noise_guess_fails(self):
        bvp, u, sc = self._noise_guess()
        with pytest.raises(NoConvergence):
            newton_solve(bvp, u, sc)

    def test_failed_lu_is_a_singular_jacobian(self, monkeypatch):
        """A Newton iteration whose sparse LU fails raises at once: the
        corrector has no least-squares fallback.  A system that a solve
        has already factored still converges on the chord steps of that
        LU, and assembles no Jacobian."""
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        bvp, mp, wf = setup(0.5)
        u = homogeneous_profile(bvp.mesh, mp.mu)
        sc = {"s": wf.s + 1e-3, "omega": wf.omega}
        bvp.set_reference(u, sc)
        with monkeypatch.context() as m:
            m.setattr(continuation, "splu", singular)
            with pytest.raises(SingularJacobian):
                newton_solve(bvp, u, sc)
        assert bvp.lu is None and bvp.factorizations == 0

        solve_regime(bvp)
        bvp.set_reference(u, sc)
        made = bvp.factorizations
        jacobians = []
        jacobian = continuation.HeteroclinicBVP.jacobian

        def counted(self, *args, **kwargs):
            jacobians.append(1)
            return jacobian(self, *args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(continuation, "splu", singular)
            m.setattr(continuation.HeteroclinicBVP, "jacobian", counted)
            _, sc2, iters = newton_solve(bvp, u, sc)
        assert iters >= 1 and jacobians == []
        assert bvp.factorizations == made
        assert sc2["s"] == pytest.approx(wf.s, abs=1e-8)


class TestContinuation:
    def test_small_ccp_matches_corrected_splitting_kernel(self):
        """For small c_cp the continued (s, Omega) move along the kernel of
        the corrected-convention splitting matrix, which at this point is
        exactly (ds, dOmega) = (0, 0.006) per unit c_cp.  (The primary-
        convention kernel, (-0.00283744, 0.000240252), does NOT match the
        branch tangent -- independent evidence for the corrected sign of the
        cross integral.)"""
        from dwlab import melnikov_integrals_closed_corrected
        from dwlab.melnikov import assemble_matrix
        bvp, mp, wf = setup(0.5, CFG_FINE)
        u, sc = solve_regime(bvp)
        ccp = 0.01
        br = continue_branch(bvp, u, sc, "c_cp", ccp, step0=0.005)
        assert br.terminated == "reached_target"
        reg = classify_regime(mp)
        ints = melnikov_integrals_closed_corrected(mp.alpha, mp.mu, reg.s0)
        m = assemble_matrix(mp.alpha, mp.beta, mp.mu, ints)
        ds_pred, dom_pred = np.linalg.solve(m[:, 1:], -m[:, 0])
        assert ds_pred == pytest.approx(0.0, abs=1e-12)
        assert dom_pred == pytest.approx(0.006, abs=1e-12)
        ds = br.end.scalars["s"] - wf.s
        dom = br.end.scalars["omega"] - wf.omega
        # quadratic remainder budget: |branch(ccp) - kernel*ccp| = O(ccp^2)
        assert ds == pytest.approx(ds_pred * ccp, abs=5e-6)
        assert dom == pytest.approx(dom_pred * ccp, abs=2e-6)

    @pytest.mark.parametrize("h, target", [(0.5, 0.5), (10.1, -0.5)])
    def test_branch_ends_on_the_target(self, h, target):
        """The corrector of the last step pins the parameter, so the branch
        ends exactly on the target, never past it (an arclength corrector
        can carry it past, as at h = 10.1)."""
        bvp, mp, wf = setup(h)
        u, sc = solve_regime(bvp)
        br = continue_branch(bvp, u, sc, "c_cp", target)
        assert br.terminated == "reached_target"
        assert br.end.param == target
        assert br.end.profile.mp.c_cp == target
        params = np.array([pt.param for pt in br.points])
        assert np.all(np.diff(params) * np.sign(target) > 0)

    @pytest.mark.parametrize("h, target", [(7.388889, 0.5),
                                           (12.233333, -0.5)])
    def test_corrector_past_the_target_is_redone_pinned(self, h, target):
        """At (alpha, beta, mu) = (0.3, 0.4, -0.5) on the default mesh the
        last predictor of each branch stops short of the target, and its
        arclength corrector carried c_cp past it, to 0.5032338 and to
        -0.5004499, where the branch ended as reached_target.  That point
        is rejected, and the step redone with c_cp pinned to the target."""
        mp = MaterialParams(alpha=0.3, beta=0.4, mu=-0.5, h=h)
        bvp = build_bvp(mp)
        u, sc = solve_regime(bvp)
        br = continue_branch(bvp, u, sc, "c_cp", target)
        assert br.terminated == "reached_target"
        assert br.end.param == target
        assert br.end.profile.mp.c_cp == target
        params = np.array([pt.param for pt in br.points])
        assert np.all(np.diff(params) * np.sign(target) > 0)

    def test_start_on_the_target(self):
        """A branch whose start is its target is one point that carries the
        profile."""
        bvp, mp, wf = setup(0.5)
        u, sc = solve_regime(bvp)
        br = continue_branch(bvp, u, sc, "c_cp", 0.0)
        assert br.terminated == "reached_target"
        assert len(br.points) == 1 and br.end.param == 0.0
        assert br.end.profile is not None

    @pytest.mark.parametrize("h, name", [(0.5, "s"), (0.5, "omega"),
                                         (10.2, "omega"), (10.2, "htilde")])
    def test_rejects_a_parameter_the_regime_determines(self, h, name):
        """codim-2 frees (s, Omega); the center regime frees the gap and
        slaves Omega."""
        bvp, mp, wf = setup(h)
        assert bvp.frees_or_slaves(name)
        with pytest.raises(ValueError):
            continue_branch(bvp, None, {}, name, 1.0)

    @pytest.mark.parametrize("step0", [0.0, -0.01, float("nan"),
                                       float("inf")])
    def test_rejects_a_step0_that_is_not_finite_and_positive(self, step0):
        """A zero initial step never moved the branch and looped forever."""
        bvp, mp, wf = setup(0.5)
        with pytest.raises(ValueError, match="step0"):
            continue_branch(bvp, None, {}, "c_cp", 0.1, step0=step0)

    def test_branch_bookkeeping(self):
        bvp, mp, wf = setup(0.5)
        u, sc = solve_regime(bvp)
        uhat = bvp.uhat.copy()
        br = continue_branch(bvp, u, sc, "c_cp", 0.1, step0=0.02)
        # the caller's system keeps its phase reference
        assert np.array_equal(bvp.uhat, uhat)
        params = [pt.param for pt in br.points]
        assert params[0] == 0.0 and params[-1] == pytest.approx(0.1)
        steps = np.abs(np.diff(params))
        assert np.all(steps <= 0.05 + 1e-12)
        assert br.end.profile is not None
        assert br.end.profile.mp.c_cp == pytest.approx(0.1)

    def test_step_doubles_up_to_the_cap(self):
        """On the default mesh, the h = 0.5 branch to c_cp = 0.5 doubles
        its step after each point, 0.01, 0.02, 0.04, then holds the cap
        0.05 until the last step, which is shortened to end on the
        target."""
        bvp, mp, wf = setup(0.5, BvpConfig())
        u, sc = solve_regime(bvp)
        br = continue_branch(bvp, u, sc, "c_cp", 0.5)
        assert br.terminated == "reached_target"
        steps = [pt.diagnostics["step"] for pt in br.points[1:]]
        assert steps[:3] == [0.01, 0.02, 0.04]
        assert steps[3:-1] == [continuation.STEP_MAX] * (len(steps) - 4)
        assert 0 < steps[-1] <= continuation.STEP_MAX
        assert len(br.points) <= 14
        assert all(pt.diagnostics["rejected_steps"] == 0
                   for pt in br.points[1:])

    @staticmethod
    def _failing(monkeypatch, fails):
        """Wrap ``continuation.newton_solve`` so that its continuation
        trials fail where ``fails(c_cp predicted, trial index)`` says the
        first time; returns the list of predicted c_cp of every trial."""
        newton = continuation.newton_solve
        trials = []
        failed = []

        def wrapper(bvp, states, scalars, extra_row=None):
            if extra_row is not None:
                trials.append(scalars["c_cp"])
                if not failed and fails(scalars["c_cp"], len(trials) - 1):
                    failed.append(True)
                    raise NoConvergence("forced")
            return newton(bvp, states, scalars, extra_row)
        monkeypatch.setattr(continuation, "newton_solve", wrapper)
        return trials

    def test_failed_step_on_the_target_halves_the_step_tried(
            self, monkeypatch):
        """A failed step that was shortened to end on the target is halved
        from its own length, not from the longer step it replaced: the next
        trial goes half as far, rather than repeating the same trial."""
        target = 0.1
        trials = self._failing(monkeypatch, lambda c, i: c == target)
        bvp, mp, wf = setup(0.5)
        u, sc = solve_regime(bvp)
        br = continue_branch(bvp, u, sc, "c_cp", target)
        assert br.terminated == "reached_target"
        first = trials.index(target)
        assert trials[first + 1] != target
        # both trials start at the same point along the same tangent, so
        # their predicted c_cp go as their steps
        lam = br.points[first].param
        assert (trials[first + 1] - lam) == pytest.approx(
            0.5 * (target - lam), rel=1e-12)
        assert br.points[first + 1].diagnostics["rejected_steps"] == 1

    def test_records_rejected_steps(self, monkeypatch):
        """One failed corrector is recorded as 1 in the diagnostics of the
        next accepted point, and as 0 everywhere else; the halved step is
        taken twice."""
        self._failing(monkeypatch, lambda c, i: i == 2)
        bvp, mp, wf = setup(0.5)
        u, sc = solve_regime(bvp)
        br = continue_branch(bvp, u, sc, "c_cp", 0.1)
        assert br.terminated == "reached_target"
        rejected = [pt.diagnostics["rejected_steps"] for pt in br.points[1:]]
        assert rejected == [0, 0, 1] + [0] * (len(rejected) - 3)
        # the third trial, 0.04 long, failed
        steps = [pt.diagnostics["step"] for pt in br.points[1:]]
        assert steps[:4] == [0.01, 0.02, 0.02, 0.02]

    def test_termination_reported_not_raised(self):
        """Pushing c_cp toward its (1-) limit fails at some point; the branch
        reports the failure instead of raising."""
        bvp, mp, wf = setup(0.5, BvpConfig(L=20.0, n_mesh=60,
                                           collocation_order=3))
        u, sc = solve_regime(bvp)
        br = continue_branch(bvp, u, sc, "c_cp", 0.999, step0=0.05)
        assert br.terminated == "newton_failure"
        assert 0.0 < br.end.param < 0.999

    def test_center_branch_records_energy_gap(self):
        bvp, mp, wf = setup(10.2)
        u, sc = solve_regime(bvp)
        br = continue_branch(bvp, u, sc, "c_cp", 0.1)
        assert br.terminated == "reached_target"
        assert "htilde" in br.end.scalars
        # Omega stays slaved to the center condition
        from dwlab import center_frequency, PI
        om = br.end.scalars["omega"]
        s_end = br.end.scalars["s"]
        mp_end = mp.replace(c_cp=0.1)
        assert om == pytest.approx(center_frequency(PI, mp_end, s_end),
                                   abs=1e-12)


class TestCodim0Pins:
    def test_continuation_in_h_pins_the_left_end(self):
        """The codim-0 wall pins p and q at the left end and nothing at the
        right: Z^0_- has one unstable direction and Z^pi_- three stable
        ones.  From h = 50 to 45 (L = 20, 80 intervals) the Newton matrix is
        regular, the left node sits on Z^0_- and the right node reaches
        Z^pi_- by itself."""
        from dwlab import PI, ZERO, chart_equilibria
        bvp, mp, wf = setup(50.0, BvpConfig(L=20.0, n_mesh=80))
        u, sc = solve_regime(bvp)
        sigma = np.linalg.svd(bvp.jacobian(bvp.pack(u, sc)).toarray(),
                              compute_uv=False)
        assert sigma[-1] > 1e-4 * sigma[0]
        br = continue_branch(bvp, u, sc, "h", 45.0)
        assert br.terminated == "reached_target" and br.end.param == 45.0
        prof = br.end.profile
        z = prof.states[:, 1] + 1j * prof.states[:, 2]
        left = chart_equilibria(ZERO, prof.mp, prof.wf)[1].z
        right = chart_equilibria(PI, prof.mp, prof.wf)[1].z
        assert abs(z[0] - left) < 1e-9
        assert abs(z[-1] - right) < 1e-12


class TestFarStateDistance:
    @pytest.mark.parametrize("mu, L", [(-1.0, 20.0), (-0.5, 15.0)])
    def test_wall_ends_at_the_tail_decay(self, mu, L):
        """On the c_cp = 0 wall theta = 2 arctan(exp(sqrt(-mu) xi)), so
        each end lies 2 exp(-sqrt(-mu) L) from its far state, to first
        order."""
        mp = MaterialParams(alpha=ALPHA, beta=BETA, mu=mu, h=0.5)
        bvp = build_bvp(mp, BvpConfig(L=L, n_mesh=int(4 * L)))
        u, sc = solve_regime(bvp)
        expected = 2.0 * math.exp(-math.sqrt(-mu) * L)
        far = bvp.make_profile(u, sc).diagnostics["far_state_distance"]
        assert far == continuation.far_state_distance(u)
        assert far["left"] == pytest.approx(expected, rel=1e-4)
        assert far["right"] == pytest.approx(expected, rel=1e-4)

    def test_every_branch_point_records_it(self):
        bvp, mp, wf = setup(0.5)
        u, sc = solve_regime(bvp)
        br = continue_branch(bvp, u, sc, "c_cp", 0.1, step0=0.02)
        far = [pt.diagnostics["far_state_distance"] for pt in br.points]
        assert far[0] == continuation.far_state_distance(u)
        assert far[-1] == br.end.profile.diagnostics["far_state_distance"]
        assert max(max(d.values()) for d in far) < 1e-11


class TestMaterialDomain:
    def test_admits_only_a_material(self):
        """A trial whose c_cp leaves (-1, 1) has no residual to take."""
        bvp, mp, wf = setup(0.5)
        cbvp = continuation.HeteroclinicBVP(
            bvp.mode, mp, wf, CFG, free_scalars=("s", "omega", "c_cp"))
        u = homogeneous_profile(cbvp.mesh, MU)
        for c_cp, ok in ((0.99, True), (-0.99, True), (1.0, False),
                         (-1.0065, False), (math.nan, False)):
            x = cbvp.pack(u, {"s": wf.s, "omega": wf.omega, "c_cp": c_cp})
            assert cbvp.admits(x) is ok

    def test_start_outside_is_no_convergence(self):
        bvp, mp, wf = setup(0.5)
        cbvp = continuation.HeteroclinicBVP(
            bvp.mode, mp, wf, CFG, free_scalars=("s", "omega", "c_cp"))
        u = homogeneous_profile(cbvp.mesh, MU)
        sc = {"s": wf.s, "omega": wf.omega, "c_cp": 1.2}
        cbvp.set_reference(u, {**sc, "c_cp": 0.0})
        with pytest.raises(NoConvergence):
            newton_solve(cbvp, u, sc)

    def test_trial_past_the_domain_is_rejected(self, monkeypatch):
        """A Newton trial that carries c_cp past 1 from inside the domain,
        here by an extra row that pins c_cp = 1.2, counts as rejected, as
        one with a NaN residual does: the corrector fails with
        ``NoConvergence``, which a continuation takes as a failed step,
        and no ``ValueError`` of the material escapes."""
        bvp, mp, wf = setup(0.5)
        cbvp = continuation.HeteroclinicBVP(
            bvp.mode, mp, wf, CFG, free_scalars=("s", "omega", "c_cp"))
        u = homogeneous_profile(cbvp.mesh, MU)
        sc = {"s": wf.s, "omega": wf.omega, "c_cp": 0.9}
        cbvp.set_reference(u, sc)
        e_last = np.zeros(cbvp.nU + 3)
        e_last[-1] = 1.0
        admitted = []
        admits = continuation.HeteroclinicBVP.admits

        def tracked(self, x):
            admitted.append((float(x[-1]), admits(self, x)))
            return admitted[-1][1]
        monkeypatch.setattr(continuation.HeteroclinicBVP, "admits", tracked)
        with pytest.raises(NoConvergence):
            newton_solve(cbvp, u, sc,
                         extra_row=(lambda z: z[-1] - 1.2,
                                    lambda z: e_last))
        assert admitted[0] == (0.9, True)
        assert admitted[-1] == (pytest.approx(1.2, abs=1e-12), False)


class TestRobustness:
    def test_mesh_and_domain_independence(self):
        """Endpoint scalars shift below 1e-8 under mesh doubling and domain
        enlargement on a short codim-2 run."""
        results = []
        for cfg in (BvpConfig(L=30.0, n_mesh=120),
                    BvpConfig(L=30.0, n_mesh=240),
                    BvpConfig(L=40.0, n_mesh=160)):
            bvp, mp, wf = setup(0.5, cfg)
            u, sc = solve_regime(bvp)
            br = continue_branch(bvp, u, sc, "c_cp", 0.1)
            assert br.terminated == "reached_target"
            results.append((br.end.scalars["s"], br.end.scalars["omega"]))
        base = np.array(results[0])
        for other in results[1:]:
            assert np.max(np.abs(np.array(other) - base)) < 1e-8


class TestTerminationBoundary:
    def test_family_extends_to_standing_walls(self):
        """At c_cp = 0 the branch in s reaches 0 (the explicit family covers
        standing walls); at c_cp != 0 it terminates at positive speed."""
        mp = mk(0.5)
        cfg = BvpConfig(L=20.0, n_mesh=60, collocation_order=3)
        results = termination_boundary(mp, [0.0, 0.3], cfg=cfg)
        (c0, s0_term, _), (c3, s3_term, _) = results
        assert c0 == 0.0 and s0_term == pytest.approx(0.0, abs=1e-8)
        assert c3 == 0.3 and s3_term > 0.0

    def test_solves_the_base_wall_once(self, monkeypatch):
        """Every c_cp is walked to from one solved c_cp = 0 wall, and each
        result is bit-identical to a call for that c_cp alone."""
        mp = mk(0.5)
        cfg = BvpConfig(L=20.0, n_mesh=60, collocation_order=3)
        alone = [termination_boundary(mp, [c], cfg=cfg)[0]
                 for c in (0.05, 0.0)]
        solves = []

        def counting(bvp, *args, **kwargs):
            solves.append(bvp.free_scalars)
            return solve_regime(bvp, *args, **kwargs)
        monkeypatch.setattr(continuation, "solve_regime", counting)
        assert termination_boundary(mp, [0.05, 0.0], cfg=cfg) == alone
        assert solves.count(("s", "omega")) == 1

    def test_left_moving_wall_rejected(self):
        """h < beta/alpha: the base wall moves left, and it is refused
        before any solve, as ``build_bvp`` refuses it."""
        with pytest.raises(OrientationError):
            termination_boundary(mk(0.1), [0.0])

    def test_codim0_wall_rejected(self):
        """Above h^* the wall is codim-0, with no speed to continue."""
        with pytest.raises(RegimeError, match="codim-2"):
            termination_boundary(mk(50.0), [0.0])
