"""Energy-structure tests: chart Hamiltonians (value, conservation along the
flow, analytic gradient vs finite differences), the center condition, the
quadratic energy-gap expansion and the oscillatory tail coefficients."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwlab import (PI, ZERO, CenterConditionViolated, ChartMiss, ChartState,
                   InvariantLine, MaterialParams, WaveFrame, center_frequency,
                   hamiltonian, hamiltonian_gradient, homogeneous_profile,
                   htilde_measured, htilde_quadratic, integrate,
                   periodic_neighborhood, tail_oscillation_coefficients)
from dwlab.continuation import BvpConfig, build_bvp

MP_C = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=10.2, c_cp=0.0)
WF_C = WaveFrame(s=4.0, omega=8.2)


class TestCenterFrequency:
    def test_pi_chart_values(self):
        assert center_frequency(PI, MP_C, 4.0) == pytest.approx(8.2, abs=1e-12)
        assert center_frequency(PI, MP_C, 0.0) == pytest.approx(0.2)

    def test_zero_chart_value(self):
        assert center_frequency(ZERO, MP_C, 4.0) == pytest.approx(-7.8)


class TestHamiltonian:
    def test_equilibrium_value(self):
        """H^pi at (1, 0) with the center parameters equals -4."""
        assert hamiltonian(PI, 1.0, 0.0, MP_C, WF_C) == pytest.approx(
            -4.0, abs=1e-12)

    def test_invariant_line(self):
        with pytest.raises(InvariantLine):
            hamiltonian(PI, 1.0, 2.0, MP_C, WF_C)  # q = s/2

    def test_gradient_invariant_line(self):
        """The gradient is guarded like the value: at q = s/2 on the pi
        chart it raises, where it divided by zero before."""
        with pytest.raises(InvariantLine):
            hamiltonian_gradient(PI, 1.0, 2.0, MP_C, WF_C)

    def test_off_center_warning(self):
        with pytest.warns(CenterConditionViolated):
            hamiltonian(PI, 1.0, 0.0, MP_C, WaveFrame(s=4.0, omega=9.0))

    def test_conserved_along_chart_flow(self):
        """Drift below 1e-8 over xi-span 100 at tolerance 1e-10 along the
        pi-chart flow from (7/4, 0)."""
        traj = integrate(ChartState(math.pi, 1.75, 0.0), (0.0, 100.0),
                         MP_C, WF_C, tol=1e-10)
        xs = np.linspace(0.0, 100.0, 2001)
        states = traj.at(xs)
        h0 = hamiltonian(PI, 1.75, 0.0, MP_C, WF_C)
        hs = [hamiltonian(PI, p, q, MP_C, WF_C) for _, p, q in states]
        assert np.max(np.abs(np.array(hs) - h0)) < 1e-8

    def test_closed_orbit(self):
        """The pi-chart center flow from (7/4, 0) is periodic: the state
        returns within 1e-6 of the start."""
        def back_to_start(xi, y):
            return y[2]  # q returns to 0 moving in the starting direction
        back_to_start.direction = -1
        traj = integrate(ChartState(math.pi, 1.75, 0.0), (0.0, 30.0),
                         MP_C, WF_C, tol=1e-12, events=[back_to_start])
        crossings = [t for t in traj.events[0] if t > 0.1]
        assert len(crossings) >= 1
        state_T = traj.at(float(crossings[0]))
        assert abs(state_T[1] - 1.75) < 1e-6 and abs(state_T[2]) < 1e-6

    @given(p=st.floats(min_value=-2, max_value=2),
           q=st.floats(min_value=-1.5, max_value=1.5))
    @settings(max_examples=40, deadline=None)
    def test_gradient_matches_finite_differences(self, p, q):
        for chart, wf in ((PI, WF_C),
                          (ZERO, WaveFrame(s=4.0, omega=-7.8))):
            try:
                gp, gq = hamiltonian_gradient(chart, p, q, MP_C, wf)
            except InvariantLine:
                continue
            den = q + 0.5 * wf.s if chart.is_zero else q - 0.5 * wf.s
            if abs(den) < 0.05:
                continue
            eps = 1e-6
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CenterConditionViolated)
                fp = (hamiltonian(chart, p + eps, q, MP_C, wf)
                      - hamiltonian(chart, p - eps, q, MP_C, wf)) / (2 * eps)
                fq = (hamiltonian(chart, p, q + eps, MP_C, wf)
                      - hamiltonian(chart, p, q - eps, MP_C, wf)) / (2 * eps)
            assert gp == pytest.approx(fp, rel=1e-5, abs=1e-5)
            assert gq == pytest.approx(fq, rel=1e-5, abs=1e-5)


class TestPeriodicNeighborhood:
    def test_printed_cases(self):
        assert periodic_neighborhood(PI, MP_C, WF_C)
        assert not periodic_neighborhood(PI, MP_C.replace(h=3.0), WF_C)

    def test_strict_boundary(self):
        h_eq = 8.2 + 1.0 - 0.25 * 16.0 * 1.25  # omega = h + mu + s^2/4 (1+a^2)
        assert not periodic_neighborhood(PI, MP_C.replace(h=h_eq), WF_C)


class TestHtildeQuadratic:
    @given(alpha=st.floats(min_value=0.05, max_value=10),
           mu=st.floats(min_value=-10, max_value=-0.01))
    @settings(max_examples=60, deadline=None)
    def test_negative_definite(self, alpha, mu):
        qf = htilde_quadratic(alpha, mu)
        assert qf.negative_definite
        assert qf.value(0.0, 0.0) == 0.0
        assert qf.value(0.3, -0.2) < 0.0


class TestTailCoefficients:
    def test_zero_iff_zero(self):
        assert np.all(tail_oscillation_coefficients(0.0, 0.0, 0.5, -1.0)
                      == 0.0)

    @given(ds=st.floats(min_value=-1, max_value=1),
           dh=st.floats(min_value=-1, max_value=1))
    # every entry underflows for a deviation of the smallest subnormal
    @example(ds=0.0, dh=5e-324)
    @example(ds=-5e-324, dh=0.0)
    @settings(max_examples=50, deadline=None)
    def test_nonzero_for_nonzero_deviation(self, ds, dh):
        m = tail_oscillation_coefficients(ds, dh, 0.5, -1.0)
        if ds == 0.0 and dh == 0.0:
            assert np.all(m == 0.0)
        else:
            assert np.max(np.abs(m)) > 0.0

    def test_printed_row(self):
        rho = math.exp(math.pi / 0.5) - math.exp(-math.pi / 0.5)
        m = tail_oscillation_coefficients(1.0, 0.0, 0.5, -1.0)
        assert m[0, 0] == pytest.approx(math.pi / rho * 8.0, rel=1e-12)
        assert m[0, 1] == pytest.approx(math.pi / rho * 6.5, rel=1e-12)


class TestHtildeMeasured:
    def test_zero_on_homogeneous_profile(self):
        cfg = BvpConfig(L=30.0, n_mesh=60, collocation_order=3)
        bvp = build_bvp(MP_C, cfg)
        u = homogeneous_profile(bvp.mesh, MP_C.mu)

        class P:
            mesh = bvp.mesh
            states = u
        assert abs(htilde_measured(P(), MP_C, WF_C)) < 1e-10

    def test_chart_miss(self):
        class P:
            mesh = np.linspace(-1, 1, 5)
            states = np.tile([1.0, 1.0, 0.0], (5, 1))
        with pytest.raises(ChartMiss):
            htilde_measured(P(), MP_C, WF_C)
