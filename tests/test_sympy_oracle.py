"""Symbolic oracle for the analytic derivatives.

The desingularized right-hand side and the chart Hamiltonians are written
out here as sympy expressions and differentiated symbolically.  The
library's ``rhs_jacobian_raw``, ``rhs_param_derivatives_raw`` and
``hamiltonian_gradient`` are compared with those derivatives at random
points.  That each Hamiltonian is conserved by its chart flow on the center
condition is checked symbolically, so the expression compared against is
the first integral and not a copy of the library's formula.  The pulled-front
closed form for (s, Omega) is checked to make the pi-chart discriminant
4AC - B^2 vanish identically."""

import math

import numpy as np
import pytest
import sympy as sp

from dwlab import (PI, ZERO, MaterialParams, WaveFrame, center_frequency,
                   chart_coefficients, hamiltonian, hamiltonian_gradient)
from dwlab.model import rhs_jacobian_raw, rhs_param_derivatives_raw, rhs_raw

THETA, P, Q, ALPHA, BETA, MU, H, CCP, S, OMEGA = ARGS = sp.symbols(
    "theta p q alpha beta mu h c_cp s omega", real=True)
PARAMS = {"c_cp": CCP, "s": S, "omega": OMEGA, "h": H}


def chart_rates(ct):
    """(p', q') of the profile ODE at cos(theta) = ct."""
    return (H - OMEGA - ALPHA * S * P + S * Q - (P ** 2 - Q ** 2 + MU) * ct,
            ALPHA * OMEGA - BETA / (1 + CCP * ct) - S * P - ALPHA * S * Q
            - 2 * P * Q * ct)


#: the desingularized right-hand side (theta', p', q')
RHS = sp.Matrix([sp.sin(THETA) * P, *chart_rates(sp.cos(THETA))])


def chart_hamiltonian(A):
    """H on the chart of sign A = -cos(theta) (-1 on theta = 0, +1 on
    theta = pi), with the torque beta/(1 - A c_cp) of that chart."""
    torque = BETA / (1 - A * CCP)
    return A * (P ** 2 + Q ** 2 - A * ALPHA * S * P - A * S * Q + A * H
                - A * torque / ALPHA + MU) / (Q - A * S / 2)


def center_condition(A):
    return {OMEGA: BETA / (1 - A * CCP) / ALPHA + A * S ** 2 / 2}


def random_points(n=60, seed=20191):
    """n random values of each of ARGS, off the poles and |c_cp| < 1."""
    rng = np.random.default_rng(seed)
    u = rng.uniform
    return (u(0.05, math.pi - 0.05, n), u(-3, 3, n), u(-3, 3, n),
            u(0.05, 3, n), u(0, 2, n), u(-5, 5, n), u(-10, 10, n),
            u(-0.9, 0.9, n), u(-5, 5, n), u(-5, 5, n))


def evaluate(exprs, x):
    """Each expression at the points x, broadcast to their count."""
    n = len(x[0])
    return np.array([np.broadcast_to(np.asarray(sp.lambdify(ARGS, e)(*x),
                                                dtype=float), n)
                     for e in exprs])


def test_rhs_is_the_stated_system():
    x = random_points()
    np.testing.assert_allclose(np.array(rhs_raw(*x)), evaluate(RHS, x),
                               rtol=1e-13, atol=1e-13)


def test_state_jacobian():
    x = random_points()
    n = len(x[0])
    got = np.array([[np.broadcast_to(e, n) for e in row]
                    for row in rhs_jacobian_raw(*x)])
    want = evaluate(RHS.jacobian([THETA, P, Q]), x).reshape(3, 3, n)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_parameter_derivatives(name):
    x = random_points()
    got = np.array(rhs_param_derivatives_raw(*x)[name])
    np.testing.assert_allclose(got, evaluate(RHS.diff(PARAMS[name]), x),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("A", [-1, 1])
def test_hamiltonian_is_a_first_integral(A):
    """dH/dxi = H_p p' + H_q q' vanishes identically on the chart's center
    condition, with the chart flow at cos(theta) = -A."""
    Hc = chart_hamiltonian(A)
    dp, dq = chart_rates(-A)
    rate = (Hc.diff(P) * dp + Hc.diff(Q) * dq).subs(center_condition(A))
    assert sp.simplify(rate) == 0


@pytest.mark.parametrize("chart", [ZERO, PI], ids=["zero", "pi"])
def test_hamiltonian_and_gradient(chart):
    """``hamiltonian`` and ``hamiltonian_gradient`` against H and its
    symbolic gradient, on the center condition and at least 0.1 off the
    invariant line."""
    A = int(chart.A)
    Hc = chart_hamiltonian(A)
    exprs = [e.subs(center_condition(A))
             for e in (Hc, Hc.diff(P), Hc.diff(Q))]
    x = random_points()
    want = evaluate(exprs, x)
    checked = 0
    for k, (_, p, q, alpha, beta, mu, h, ccp, s, _) in enumerate(zip(*x)):
        if abs(q - A * s / 2) < 0.1:
            continue
        mp = MaterialParams(alpha=alpha, beta=beta, mu=mu, h=h, c_cp=ccp)
        wf = WaveFrame(s=s, omega=center_frequency(chart, mp, s))
        got = (hamiltonian(chart, p, q, mp, wf),
               *hamiltonian_gradient(chart, p, q, mp, wf))
        np.testing.assert_allclose(got, want[:, k], rtol=1e-11, atol=1e-11)
        checked += 1
    assert checked >= 40


def chart_ode_coefficients(A):
    """(B, C) of the complex chart ODE on the chart of sign A."""
    B = -(ALPHA + sp.I) * S
    C = (H - OMEGA + A * MU
         + sp.I * (ALPHA * OMEGA - BETA / (1 - A * CCP)))
    return B, C


def pulled_front(alpha, beta_minus, mu, h):
    """(eps, omega0) of the pulled front (s*, Omega*) = (2 sqrt(eps/alpha),
    omega0 + eps/alpha): eps = (alpha (h + mu) - beta-)/(1 + alpha^2) and
    omega0 = (h + mu + alpha beta-)/(1 + alpha^2)."""
    return ((alpha * (h + mu) - beta_minus) / (1 + alpha ** 2),
            (h + mu + alpha * beta_minus) / (1 + alpha ** 2))


def test_pulled_front_closes_the_pi_chart_discriminant():
    """4AC - B^2 on theta = pi (A = 1) vanishes identically at the
    pulled-front (s*, Omega*), with beta- = beta/(1 - c_cp)."""
    B, C = chart_ode_coefficients(1)
    eps, omega0 = pulled_front(ALPHA, BETA / (1 - CCP), MU, H)
    disc = (4 * C - B ** 2).subs({S: 2 * sp.sqrt(eps / ALPHA),
                                  OMEGA: omega0 + eps / ALPHA})
    assert sp.simplify(sp.expand(disc)) == 0


def test_pulled_front_discriminant_in_the_library():
    """``chart_coefficients`` has the coefficients written above, and its
    pi-chart discriminant vanishes to roundoff at the pulled front, on
    seeded draws with eps > 0.  At the paper's h = 50 the front is
    (12.4964, 78.2800)."""
    B, C = chart_ode_coefficients(1)
    coefficients = sp.lambdify(ARGS, [B, C])
    checked = 0
    for _, _, _, alpha, beta, mu, h, ccp, _, _ in zip(*random_points(200)):
        mp = MaterialParams(alpha=alpha, beta=beta, mu=mu, h=h, c_cp=ccp)
        eps, omega0 = pulled_front(alpha, mp.torque(1.0), mu, h)
        if eps <= 0:
            continue
        s, omega = 2 * math.sqrt(eps / alpha), omega0 + eps / alpha
        co = chart_coefficients(PI, mp, WaveFrame(s=s, omega=omega))
        want = coefficients(0.0, 0.0, 0.0, alpha, beta, mu, h, ccp, s, omega)
        np.testing.assert_allclose([co.B, co.C], want, rtol=1e-13,
                                   atol=1e-13)
        assert abs(4 * co.A * co.C - co.B ** 2) <= 1e-13 * abs(co.B) ** 2
        checked += 1
    assert checked >= 40
    eps, omega0 = pulled_front(0.5, 0.1, -1.0, 50.0)
    s, omega = 2 * math.sqrt(eps / 0.5), omega0 + eps / 0.5
    assert (s, omega) == pytest.approx((12.4964, 78.2800), abs=1e-4)
