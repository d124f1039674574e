"""Chart-ODE tests: coefficients, equilibria and their eigenvalues against
independent oracles (root residuals, holomorphic linearization, numerical
integration), the explicit tangent flow, and the homogeneous family."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from dwlab import (PI, ZERO, ChartId, ChartState, EquilibriumInput,
                   MaterialParams, PoleCrossing, WaveFrame,
                   chart_coefficients, chart_equilibria, chart_flow,
                   desingularized_rhs, homogeneous_profile,
                   homogeneous_speed_frequency)

MP = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=5.0, c_cp=0.3)
WF = WaveFrame(s=1.2, omega=3.4)

mats = st.builds(
    MaterialParams,
    alpha=st.floats(min_value=0.05, max_value=3.0),
    beta=st.floats(min_value=0.0, max_value=2.0),
    mu=st.floats(min_value=-5.0, max_value=-0.1),
    h=st.floats(min_value=-5.0, max_value=20.0),
    c_cp=st.floats(min_value=-0.9, max_value=0.9),
)
frames = st.builds(WaveFrame, s=st.floats(min_value=-5, max_value=5),
                   omega=st.floats(min_value=-10, max_value=10))


class TestChartId:
    def test_quadratic_coefficient(self):
        assert ZERO.A == -1.0
        assert PI.A == 1.0
        assert ChartId.fixed(math.pi / 2).A == pytest.approx(0.0, abs=1e-16)

    def test_domain(self):
        with pytest.raises(ValueError):
            ChartId(-0.1)
        with pytest.raises(ValueError):
            ChartId.fixed(0.0)


class TestEquilibria:
    @given(mp=mats, wf=frames)
    @settings(max_examples=50, deadline=None)
    def test_roots_of_chart_polynomial(self, mp, wf):
        for chart in (ZERO, PI):
            co = chart_coefficients(chart, mp, wf)
            for eq in chart_equilibria(chart, mp, wf):
                res = co.A * eq.z ** 2 + co.B * eq.z + co.C
                scale = max(1.0, abs(co.B), abs(co.C))
                assert abs(res) < 1e-10 * scale

    @given(mp=mats, wf=frames)
    @settings(max_examples=50, deadline=None)
    def test_tangent_eigenvalues_are_holomorphic_derivative(self, mp, wf):
        """For the holomorphic field f(z) = Az^2 + Bz + C the real 2x2
        linearization at a root has eigenvalues f'(z) and conj(f'(z))."""
        for chart in (ZERO, PI):
            co = chart_coefficients(chart, mp, wf)
            for eq in chart_equilibria(chart, mp, wf):
                fp = 2.0 * co.A * eq.z + co.B
                got = sorted((eq.nu1, eq.nu2), key=lambda z: z.imag)
                want = sorted((fp, fp.conjugate()), key=lambda z: z.imag)
                for g, w in zip(got, want):
                    assert abs(g - w) < 1e-9 * max(1.0, abs(w))

    def test_transverse_eigenvalue_is_angle_derivative(self):
        """nu3 equals d(theta')/d(theta) of the full system at the chart."""
        eps = 1e-7
        for chart in (ZERO, PI):
            base = 0.0 if chart.is_zero else math.pi
            for eq in chart_equilibria(chart, MP, WF):
                th = base + eps if chart.is_zero else base - eps
                d = desingularized_rhs(ChartState(th, eq.p, eq.q), MP, WF)
                num = d[0] / (th - base)
                assert num == pytest.approx(eq.nu3, rel=1e-5, abs=1e-5)


class TestChartFlow:
    def _ivp_oracle(self, co, z0, xis):
        def f(xi, y):
            z = y[0] + 1j * y[1]
            dz = co.A * z * z + co.B * z + co.C
            return [dz.real, dz.imag]
        sol = solve_ivp(f, (xis[0], xis[-1]), [z0.real, z0.imag],
                        t_eval=xis, rtol=1e-12, atol=1e-12, method="DOP853")
        return sol.y[0] + 1j * sol.y[1]

    def test_matches_numerical_integration(self):
        co = chart_coefficients(PI, MP, WF)
        z0 = 0.3 + 0.2j
        xis = np.linspace(0.0, 0.4, 21)
        exact = chart_flow(z0, 0.0, xis, co)
        oracle = self._ivp_oracle(co, z0, xis)
        assert np.max(np.abs(exact - oracle)) < 1e-8

    def test_linear_chart(self):
        """With A = 0 the chart equation is linear (exponential solution)."""
        from dwlab import ChartCoefficients
        co0 = chart_coefficients(ChartId.fixed(math.pi / 2), MP, WF)
        co = ChartCoefficients(A=0.0, B=co0.B, C=co0.C, gamma=0.0)
        z0 = 1.0 + 0.5j
        xis = np.linspace(0.0, 1.0, 11)
        exact = chart_flow(z0, 0.0, xis, co)
        oracle = self._ivp_oracle(co, z0, xis)
        assert np.max(np.abs(exact - oracle)) < 1e-9

    def test_equilibrium_input_rejected(self):
        co = chart_coefficients(PI, MP, WF)
        eq = chart_equilibria(PI, MP, WF)[0]
        with pytest.raises(EquilibriumInput):
            chart_flow(eq.z, 0.0, [0.0, 1.0], co)

    def test_pole_crossing_detected(self):
        """On a real-center chart the tangent argument is real and must hit a
        pole within one period."""
        mp = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=10.2, c_cp=0.0)
        wf = WaveFrame(s=4.0, omega=8.2)
        co = chart_coefficients(PI, mp, wf)
        # real gamma: pick z0 on the separatrix through infinity, where the
        # tangent argument is real and must sweep through a pole
        assert abs(co.gamma.imag) < 1e-12
        z0 = (co.gamma * 1.0 - co.B) / (2.0 * co.A)
        with pytest.raises(PoleCrossing):
            chart_flow(z0, 0.0, np.linspace(0, 50, 11), co)


class TestHomogeneousFamily:
    def test_selected_frame_values(self):
        mp = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=50.0, c_cp=0.0)
        wf = homogeneous_speed_frequency(mp)
        assert wf.s == pytest.approx(19.92, abs=1e-12)
        assert wf.omega == pytest.approx(40.04, abs=1e-12)

    @given(h=st.floats(min_value=-5, max_value=50),
           theta=st.floats(min_value=0.01, max_value=math.pi - 0.01))
    @settings(max_examples=50, deadline=None)
    def test_family_solves_the_system(self, h, theta):
        """(theta, sqrt(-mu), 0) with the selected frame is an exact orbit:
        the p- and q-equations vanish at every angle."""
        mp = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=h, c_cp=0.0)
        wf = homogeneous_speed_frequency(mp)
        d = desingularized_rhs(ChartState(theta, 1.0, 0.0), mp, wf)
        assert abs(d[1]) < 1e-12 and abs(d[2]) < 1e-12

    def test_profile_is_ode_solution(self):
        """The arctan profile satisfies theta' = sin(theta) * sqrt(-mu), with
        p = sqrt(-mu) and q = 0 at every node."""
        xi = np.linspace(-5, 5, 2001)
        for mu in (-1.0, -2.0):
            theta, p, q = homogeneous_profile(xi, mu).T
            dtheta = np.gradient(theta, xi)
            residual = dtheta - np.sin(theta) * math.sqrt(-mu)
            assert np.max(np.abs(residual[5:-5])) < 1e-3  # FD-limited
            assert np.all(p == math.sqrt(-mu)) and np.all(q == 0.0)

    def test_profile_far_tails_are_exact(self):
        """Where e^{sqrt(-mu) xi} overflows, theta is exactly pi, without
        an overflow warning; far left it underflows to exactly 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = homogeneous_profile([-1000.0, 1000.0], -1.0)
        assert u[0, 0] == 0.0 and u[1, 0] == math.pi
        left = homogeneous_profile([-3.0, 3.0], -1.0, sigma=-1)
        assert left[0, 1] == -1.0 and left[0, 0] > math.pi / 2 > left[1, 0]

    def test_requires_unpolarized(self):
        with pytest.raises(ValueError):
            homogeneous_speed_frequency(MP)  # c_cp != 0
