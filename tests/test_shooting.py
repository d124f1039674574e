"""Shooting tests: the adaptive integrator against the exact chart flow, the
unstable-manifold seed, tail classification, and wall reproduction by
shooting against the explicit family."""

import math

import numpy as np
import pytest

from dwlab import (PI, ZERO, BlowUp, ChartState, MaterialParams, NoConnection,
                   SpectralMismatch, Trajectory, WaveFrame, chart_coefficients,
                   chart_equilibria, chart_flow, classify_tail,
                   homogeneous_profile, homogeneous_speed_frequency,
                   integrate, shoot_to_pi_chart, unstable_seed)
from dwlab.shooting import EPSILON_MAX

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
        traj = integrate(eq.state(), (0.0, 10.0), MP, WF0, tol=tol)
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
        t2 = integrate((state0.theta, psi0, state0.q), (0.0, 1.5), MP, WF0,
                       tol=1e-11, system="singular")
        xs = np.linspace(0, 1.5, 16)
        s1, s2 = t1.at(xs), t2.at(xs)
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
    def test_flat(self):
        xs = np.linspace(0, 10, 1000)
        v = classify_tail(xs, np.full_like(xs, 0.3))
        assert v.kind == "flat" and v.q_limit_estimate == pytest.approx(0.3)

    def test_nonflat(self):
        xs = np.linspace(0, 10, 1000)
        v = classify_tail(xs, 0.3 + 1e-3 * np.sin(5 * xs))
        assert v.kind == "nonflat"

    def test_undetermined(self):
        xs = np.linspace(0, 10, 1000)
        v = classify_tail(xs, 0.3 + 1e-6 * np.sin(5 * xs))
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
