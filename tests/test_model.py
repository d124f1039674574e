"""Core model tests: parameter validation, right-hand sides and their
analytic derivatives (against finite differences), coordinate consistency
between the singular and desingularized systems, and blow-down geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab import (ChartState, MaterialParams, PoleEvaluation,
                   SingularEvaluation, SingularState, WaveFrame,
                   desingularized_rhs, local_wavenumber, singular_rhs)
from dwlab.model import (rhs_jacobian_raw, rhs_param_derivatives_raw, rhs_raw,
                         sphere_rows, trapezoid_weights)

MP = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=5.0, c_cp=0.3)
WF = WaveFrame(s=1.2, omega=3.4)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
angles = st.floats(min_value=0.05, max_value=math.pi - 0.05)


class TestMaterialParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MaterialParams(alpha=0.0, beta=0.1, mu=-1.0, h=1.0)
        with pytest.raises(ValueError):
            MaterialParams(alpha=0.5, beta=-0.1, mu=-1.0, h=1.0)
        with pytest.raises(ValueError):
            MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=1.0, c_cp=1.0)
        with pytest.raises(ValueError):
            MaterialParams(alpha=0.5, beta=0.1, mu=float("nan"), h=1.0)

    def test_effective_torques(self):
        assert MP.torque(-1.0) == pytest.approx(0.1 / 1.3)
        assert MP.torque(1.0) == pytest.approx(0.1 / 0.7)

    def test_replace(self):
        mp2 = MP.replace(h=7.0)
        assert mp2.h == 7.0 and mp2.alpha == MP.alpha
        assert MP.h == 5.0  # original untouched

    def test_replace_validates(self):
        """A replaced material is checked as a constructed one is, and an
        unknown field is an error."""
        with pytest.raises(ValueError):
            MP.replace(c_cp=1.0)
        with pytest.raises(TypeError):
            MP.replace(bogus=1)

    def test_waveframe_validation(self):
        with pytest.raises(ValueError):
            WaveFrame(s=float("inf"), omega=0.0)


class TestStates:
    def test_theta_domain(self):
        with pytest.raises(ValueError):
            ChartState(theta=-0.1, p=0.0, q=0.0)
        with pytest.raises(ValueError):
            SingularState(theta=math.pi + 0.1, psi=0.0, q=0.0)


def _fd(f, x, eps=1e-6):
    return (f(x + eps) - f(x - eps)) / (2 * eps)


class TestRhsDerivatives:
    @given(theta=angles, p=finite, q=finite)
    @settings(max_examples=40, deadline=None)
    def test_state_jacobian_matches_finite_differences(self, theta, p, q):
        args = (MP.alpha, MP.beta, MP.mu, MP.h, MP.c_cp, WF.s, WF.omega)
        J = rhs_jacobian_raw(theta, p, q, *args)
        y0 = np.array([theta, p, q])
        for a in range(3):
            for b in range(3):
                def comp(x, a=a, b=b):
                    y = y0.copy()
                    y[b] = x
                    return rhs_raw(y[0], y[1], y[2], *args)[a]
                num = _fd(comp, y0[b])
                assert np.asarray(J[a][b]) == pytest.approx(num, abs=1e-6)

    @given(theta=angles, p=finite, q=finite)
    @settings(max_examples=40, deadline=None)
    def test_parameter_derivatives_match_finite_differences(self, theta, p, q):
        base = dict(alpha=MP.alpha, beta=MP.beta, mu=MP.mu, h=MP.h,
                    c_cp=MP.c_cp, s=WF.s, omega=WF.omega)
        der = rhs_param_derivatives_raw(theta, p, q, **base)
        for name in ("c_cp", "s", "omega", "h"):
            for a in range(3):
                def comp(x, name=name, a=a):
                    par = dict(base)
                    par[name] = x
                    return rhs_raw(theta, p, q, **par)[a]
                num = _fd(comp, base[name])
                assert np.asarray(der[name][a]) == pytest.approx(
                    num, abs=1e-6)


class TestCoordinateConsistency:
    @given(theta=angles, p=finite, q=finite)
    @settings(max_examples=40, deadline=None)
    def test_singular_matches_desingularized(self, theta, p, q):
        """psi = p sin(theta) converts the two systems into each other:
        dtheta agrees, dq agrees, and dpsi equals the chain rule
        p' sin(theta) + p cos(theta) theta'."""
        st_ = math.sin(theta)
        ct = math.cos(theta)
        d_des = desingularized_rhs(ChartState(theta, p, q), MP, WF)
        d_sin = singular_rhs(SingularState(theta, p * st_, q), MP, WF)
        assert d_sin[0] == pytest.approx(d_des[0], rel=1e-12, abs=1e-12)
        assert d_sin[2] == pytest.approx(d_des[2], rel=1e-9, abs=1e-9)
        dpsi_chain = d_des[1] * st_ + p * ct * d_des[0]
        assert d_sin[1] == pytest.approx(dpsi_chain, rel=1e-9, abs=1e-9)

    def test_singular_guard(self):
        with pytest.raises(SingularEvaluation):
            singular_rhs(SingularState(1e-10, 0.0, 0.0), MP, WF)

    def test_charts_invariant(self):
        for theta in (0.0, math.pi):
            d = desingularized_rhs(ChartState(theta, 2.0, -1.0), MP, WF)
            assert abs(d[0]) < 1e-15


class TestBlowDown:
    def test_poles(self):
        assert tuple(sphere_rows(0.0, 0.7)) == (
            pytest.approx(0.0, abs=1e-15), pytest.approx(0.0, abs=1e-15), 1.0)
        m = sphere_rows(math.pi, 0.7)
        assert m[2] == pytest.approx(-1.0)

    @given(theta=angles, phi=finite)
    @settings(max_examples=30, deadline=None)
    def test_unit_norm(self, theta, phi):
        m = sphere_rows(theta, phi)
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)


class TestLocalWavenumber:
    @given(theta=angles, phi=finite, p=finite, q=finite)
    @settings(max_examples=40, deadline=None)
    def test_recovers_azimuthal_rate(self, theta, phi, p, q):
        """m built from (theta(xi), phi(xi)) with theta' = p sin(theta) and
        phi' = q has local wavenumber exactly q."""
        st_, ct = math.sin(theta), math.cos(theta)
        dtheta = p * st_
        m = np.array([math.cos(phi) * st_, math.sin(phi) * st_, ct])
        m_prime = np.array([
            -math.sin(phi) * st_ * q + math.cos(phi) * ct * dtheta,
            math.cos(phi) * st_ * q + math.sin(phi) * ct * dtheta,
            -st_ * dtheta,
        ])
        assert local_wavenumber(m, m_prime) == pytest.approx(
            q, rel=1e-9, abs=1e-9)

    def test_pole_guard(self):
        with pytest.raises(PoleEvaluation):
            local_wavenumber([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])

    def test_rows_match_vectors(self):
        """(3, n) component rows give each column's value bit for bit, and
        one node at a pole raises."""
        rng = np.random.default_rng(0)
        m = sphere_rows(rng.uniform(0.1, 3.0, 50), rng.uniform(-3, 3, 50))
        m_prime = rng.normal(size=(3, 50))
        q = local_wavenumber(m, m_prime)
        assert q.shape == (50,)
        assert list(q) == [local_wavenumber(m[:, i], m_prime[:, i])
                           for i in range(50)]
        with pytest.raises(PoleEvaluation):
            local_wavenumber(sphere_rows(np.array([1.0, 0.0]), 0.0),
                             np.zeros((3, 2)))


def test_trapezoid_weights_are_shared_and_read_only():
    """Two calls with the same grid return the one cached array, which
    cannot be written."""
    w = trapezoid_weights(5, 0.25)
    assert trapezoid_weights(5, 0.25) is w
    assert list(w) == [0.125, 0.25, 0.25, 0.25, 0.125]
    with pytest.raises(ValueError):
        w[0] = 1.0
