"""Shooting tests: the adaptive integrator against the exact chart flow, the
unstable-manifold seed, tail classification, and wall reproduction by
shooting against the explicit family."""

import math

import numpy as np
import pytest

from scipy.integrate import solve_ivp

from dwlab import (PI, ZERO, BlowUp, ChartState, MaterialParams,
                   SingularState, SpectralMismatch, WaveFrame,
                   chart_coefficients, chart_equilibria, chart_flow,
                   classify_tail, homogeneous_profile,
                   homogeneous_speed_frequency, integrate, shoot_to_pi_chart,
                   singular_rhs, unstable_seed)
from dwlab.shooting import EPSILON_MAX, TAIL_SAMPLES, _tail_start

MP = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=5.0, c_cp=0.0)
WF0 = homogeneous_speed_frequency(MP)


class TestIntegrate:
    def test_matches_exact_chart_flow(self):
        """On the invariant theta = pi chart the integrator must reproduce
        the closed-form tangent flow."""
        mp = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=10.2, c_cp=0.0)
        wf = WaveFrame(s=4.0, omega=8.2)
        co = chart_coefficients(PI, mp, wf)
        z0 = 1.6 + 0.1j
        traj = integrate(ChartState(math.pi, z0.real, z0.imag), (0.0, 3.0),
                         mp, wf, tol=1e-12)
        xs = np.linspace(0.0, 3.0, 31)
        states = traj.at(xs)
        exact = chart_flow(z0, 0.0, xs, co)
        err = np.abs(states[:, 1] + 1j * states[:, 2] - exact)
        assert np.max(err) < 1e-8
        # chart trapping
        assert np.max(np.abs(states[:, 0] - math.pi)) < 1e-10 * 3.0

    def test_equilibrium_stays_put(self):
        eq = chart_equilibria(ZERO, MP, WF0)[1]
        tol = 1e-10
        traj = integrate(ChartState(0.0, eq.p, eq.q), (0.0, 10.0), MP, WF0,
                         tol=tol)
        drift = np.max(np.abs(traj.states - traj.states[0]), axis=0)
        assert np.max(drift) < 10 * tol

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            integrate(ChartState(1.0, 0.0, 0.0), (0, 1), MP, WF0, tol=1e-2)

    def test_blowup_detected(self):
        """Outside the separatrix of a center chart the closed-form solution
        passes through infinity in finite xi."""
        mp = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=10.2, c_cp=0.0)
        wf = WaveFrame(s=4.0, omega=8.2)
        co = chart_coefficients(PI, mp, wf)
        z0 = (co.gamma * 1.0 - co.B) / (2.0 * co.A)  # on the separatrix
        with pytest.raises(BlowUp):
            integrate(ChartState(math.pi, z0.real, z0.imag), (0.0, 10.0),
                      mp, wf, tol=1e-10)

    def test_singular_system_consistency(self):
        """The raw-angle system integrates to the same orbit as the
        desingularized one away from the poles."""
        state0 = ChartState(0.5, 1.0, 0.0)
        t1 = integrate(state0, (0.0, 1.5), MP, WF0, tol=1e-11)
        psi0 = state0.p * math.sin(state0.theta)
        t2 = solve_ivp(lambda xi, y: singular_rhs(SingularState(*y), MP, WF0),
                       (0.0, 1.5), [state0.theta, psi0, state0.q],
                       method="DOP853", rtol=1e-11, atol=1e-11,
                       dense_output=True)
        xs = np.linspace(0, 1.5, 16)
        s1, s2 = t1.at(xs), t2.sol(xs).T
        assert np.max(np.abs(s1[:, 0] - s2[:, 0])) < 1e-8
        assert np.max(np.abs(s1[:, 2] - s2[:, 2])) < 1e-7
        assert np.max(np.abs(s1[:, 1] * np.sin(s1[:, 0]) - s2[:, 1])) < 1e-7


class TestUnstableSeed:
    def test_seed_geometry(self):
        eq = chart_equilibria(ZERO, MP, WF0)[1]
        seed = unstable_seed(eq, epsilon=1e-6)
        assert seed.theta == 1e-6
        assert seed.p == eq.p and seed.q == eq.q

    def test_reverse_integration_returns_to_equilibrium(self):
        """Reversing xi from the seed contracts back onto the equilibrium.
        Note the quadratic off-manifold error of the seed grows in reverse at
        the (p, q) reentry rate, so the check uses a small drive field where
        that rate stays moderate over the span."""
        mp = MP.replace(h=0.5)
        wf = homogeneous_speed_frequency(mp)
        eq = chart_equilibria(ZERO, mp, wf)[1]
        seed = unstable_seed(eq, epsilon=1e-6)
        span = 10.0 / math.sqrt(-mp.mu)
        traj = integrate(seed, (0.0, -span), mp, wf, tol=1e-12)
        final = traj.states[0]  # rows are sorted by increasing xi
        dist = np.linalg.norm(final - np.array([0.0, eq.p, eq.q]))
        assert dist < 1e-6

    def test_negative_epsilon_rejected(self):
        eq = chart_equilibria(ZERO, MP, WF0)[1]
        with pytest.raises(ValueError):
            unstable_seed(eq, epsilon=-1e-6)

    def test_epsilon_beyond_the_angle_domain_rejected(self):
        eq = chart_equilibria(ZERO, MP, WF0)[1]
        with pytest.raises(ValueError, match="epsilon"):
            unstable_seed(eq, epsilon=2 * EPSILON_MAX)

    def test_spectral_mismatch(self):
        """The attracting 'plus' equilibrium has no unstable direction when
        its transverse eigenvalue is negative."""
        eqs = chart_equilibria(ZERO, MP, WF0)
        bad = [e for e in eqs if e.nu3 < 0]
        if bad:
            with pytest.raises(SpectralMismatch):
                unstable_seed(bad[0], epsilon=1e-6)


class TestClassifyTail:
    #: the tail window of 1000 samples over [0, 10]
    XS = np.linspace(0, 10, 1000)[_tail_start(1000):]

    def test_flat(self):
        v = classify_tail(np.full_like(self.XS, 0.3))
        assert v.kind == "flat" and v.q_limit_estimate == pytest.approx(0.3)

    def test_nonflat(self):
        v = classify_tail(0.3 + 1e-3 * np.sin(5 * self.XS))
        assert v.kind == "nonflat"

    def test_undetermined(self):
        v = classify_tail(0.3 + 1e-6 * np.sin(5 * self.XS))
        assert v.kind == "undetermined"


class TestShootToPiChart:
    def _analytic_error(self, traj):
        """Sup distance to the explicit wall after aligning theta = pi/2 at
        xi = 0."""
        xs = np.linspace(traj.xs[0], traj.xs[-1], 4000)
        states = traj.at(xs)
        i_mid = int(np.argmin(np.abs(states[:, 0] - math.pi / 2)))
        # refine the alignment shift by inverting the analytic profile
        th_mid = states[i_mid, 0]
        xi_star = xs[i_mid] - math.log(math.tan(th_mid / 2.0))
        ref = homogeneous_profile(xs - xi_star, -1.0)
        return float(np.max(np.abs(states - ref)))

    def test_codim2_reproduces_family(self):
        traj, verdict = shoot_to_pi_chart(MP, WF0)
        assert verdict.kind == "flat"
        assert self._analytic_error(traj) < 1e-6

    def test_codim0_flat_endpoint(self):
        mp = MP.replace(h=50.0)
        wf = homogeneous_speed_frequency(mp)
        traj, verdict = shoot_to_pi_chart(mp, wf)
        assert verdict.kind == "flat"
        eq = chart_equilibria(PI, mp, wf)
        z_end = traj.states[-1, 1] + 1j * traj.states[-1, 2]
        assert min(abs(z_end - e.z) for e in eq) < 1e-4

    @pytest.mark.parametrize("h", [0.3, 0.5, 2.0, 5.0, 8.0, 10.2, 12.0,
                                   20.0, 35.0, 50.0])
    def test_tail_verdict_equals_full_resampling(self, h):
        """At the criterion-7 fields the verdict from the tail window's
        samples alone equals the one from all TAIL_SAMPLES samples."""
        mp = MP.replace(h=h)
        traj, verdict = shoot_to_pi_chart(mp, homogeneous_speed_frequency(mp),
                                          tol=1e-12)
        xs = np.linspace(traj.xs[0], traj.xs[-1], TAIL_SAMPLES)
        assert verdict == classify_tail(
            traj.at(xs)[_tail_start(TAIL_SAMPLES):, 2])

    def test_center_perturbation_is_nonflat(self):
        """Off the flat surface (ds = 0.1, recentered frequency) the tail
        oscillates with amplitude of the predicted order of magnitude."""
        from dwlab import center_frequency, tail_oscillation_coefficients
        mp = MP.replace(h=10.2)
        s = 4.0 + 0.1
        wf = WaveFrame(s=s, omega=center_frequency(PI, mp, s))
        traj, verdict = shoot_to_pi_chart(mp, wf)
        assert verdict.kind == "nonflat"
        pred = np.abs(tail_oscillation_coefficients(0.1, 0.0, mp.alpha,
                                                    mp.mu)).max()
        assert 0.02 * pred < verdict.oscillation_amplitude < 50 * pred
