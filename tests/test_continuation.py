"""Boundary-value continuation tests: Newton recovery of the explicit
family, agreement with the first-order splitting prediction for small
polarization, branch mechanics (steps, folds, termination), and the
existence-boundary helper."""

import math

import numpy as np
import pytest

from dwlab import (BvpConfig, MaterialParams, NoConvergence, WaveFrame,
                   build_bvp, classify_regime, continue_branch,
                   homogeneous_profile, homogeneous_speed_frequency,
                   newton_solve, solve_regime, termination_boundary)
from dwlab import continuation
from dwlab.continuation import _factorize

ALPHA, BETA, MU = 0.5, 0.1, -1.0
CFG = BvpConfig(L=30.0, n_mesh=120, collocation_order=4)
CFG_FINE = BvpConfig(L=30.0, n_mesh=240, collocation_order=4)


def mk(h, c_cp=0.0):
    return MaterialParams(alpha=ALPHA, beta=BETA, mu=MU, h=h, c_cp=c_cp)


def setup(h, cfg=CFG, **kw):
    mp = mk(h)
    regime = classify_regime(mp)
    wf = WaveFrame(s=regime.s0, omega=regime.omega0)
    return build_bvp(regime, mp, wf, cfg, **kw), mp, wf


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
        u = homogeneous_profile(bvp.mesh, mp.mu)
        u[:, 1] += 0.01 * np.cos(bvp.mesh)  # move off the exact solution
        sc = {n: bvp.base[n] for n in bvp.free_scalars}
        bvp.set_reference(u, sc)
        rng = np.random.default_rng(0)
        if bordered:
            x = bvp.pack(u, dict(sc, c_cp=0.1), "c_cp")
            g = rng.normal(size=len(x))
            J = bvp.jacobian(x, "c_cp", g).toarray()

            def res(z):
                return np.append(bvp.residual(z, "c_cp"), g @ (z - x))
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

    def test_factorization_fill_stays_near_the_matrix(self):
        """Apart from its dense border the Newton matrix is almost block
        diagonal, and its LU keeps nnz(L + U) within 3 nnz(J) (a column-only
        ordering gives about 20 nnz(J) here)."""
        bvp, mp, wf = setup(0.5, BvpConfig())
        u = homogeneous_profile(bvp.mesh, mp.mu)
        sc = {n: bvp.base[n] for n in bvp.free_scalars}
        bvp.set_reference(u, sc)
        J = bvp.jacobian(bvp.pack(u, sc))
        lu = _factorize(J)
        assert lu.L.nnz + lu.U.nnz <= 3 * J.nnz
        b = np.random.default_rng(0).normal(size=J.shape[0])
        assert np.max(np.abs(J @ lu.solve(b) - b)) < 1e-10


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
        _, _, iters = newton_solve(bvp, u, sc, return_iters=True)
        assert iters <= 2

    def test_perturbed_speed_converges_back(self):
        bvp, mp, wf = setup(0.5)
        u = homogeneous_profile(bvp.mesh, mp.mu)
        sc = {"s": wf.s + 1e-3, "omega": wf.omega}
        bvp.set_reference(u, sc)
        u2, sc2 = newton_solve(bvp, u, sc)
        assert sc2["s"] == pytest.approx(wf.s, abs=1e-8)
        assert sc2["omega"] == pytest.approx(wf.omega, abs=1e-8)

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

    def test_least_squares_solved_at_most_once_per_jacobian(
            self, monkeypatch):
        """Without the LU step every iteration falls back to the least-
        squares step; one that cannot be damped is not solved again."""
        calls = {"lsmr": 0, "jacobian": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def singular(J):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(continuation, "_factorize", singular)
        monkeypatch.setattr(continuation, "lsmr",
                            counted("lsmr", continuation.lsmr))
        monkeypatch.setattr(continuation.HeteroclinicBVP, "jacobian",
                            counted("jacobian",
                                    continuation.HeteroclinicBVP.jacobian))
        bvp, u, sc = self._noise_guess()
        with pytest.raises(NoConvergence):
            newton_solve(bvp, u, sc)
        assert calls["jacobian"] > 0
        assert calls["lsmr"] == calls["jacobian"]


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
        br = continue_branch(bvp, u, sc, "c_cp", 0.1, step0=0.02)
        params = [pt.param for pt in br.points]
        assert params[0] == 0.0 and params[-1] == pytest.approx(0.1)
        steps = np.abs(np.diff(params))
        assert np.all(steps <= 0.05 + 1e-12)
        assert br.end.profile is not None
        assert br.end.profile.mp.c_cp == pytest.approx(0.1)

    def test_termination_reported_not_raised(self):
        """Pushing c_cp toward its (1-) limit fails at some point; the branch
        reports the failure instead of raising."""
        bvp, mp, wf = setup(0.5, BvpConfig(L=20.0, n_mesh=60,
                                           collocation_order=3))
        u, sc = solve_regime(bvp)
        br = continue_branch(bvp, u, sc, "c_cp", 0.999, step0=0.05)
        assert br.terminated in ("newton_failure", "step_underflow", "fold")
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
        wf = homogeneous_speed_frequency(mp)
        cfg = BvpConfig(L=20.0, n_mesh=60, collocation_order=3)
        results, coeffs = termination_boundary(mp, wf, [0.0, 0.3], cfg=cfg)
        (c0, s0_term, _), (c3, s3_term, _) = results
        assert c0 == 0.0 and s0_term == pytest.approx(0.0, abs=1e-8)
        assert c3 == 0.3 and s3_term > 0.0
        assert np.all(np.isfinite(coeffs))
