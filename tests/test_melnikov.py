"""Splitting-matrix tests: closed-form integrals against the quadrature
oracle, rank structure (including the degenerate beta = 0 and s0 = 0 cases),
kernel extraction and the determinant-identity bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from dwlab import (MaterialParams, MelnikovDomainError, RegimeError,
                   determinant_identity_check, melnikov_integrals_closed,
                   melnikov_integrals_closed_corrected,
                   melnikov_integrals_quadrature, splitting_matrix)
from dwlab.melnikov import _kernel, assemble_matrix

MP05 = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=0.5, c_cp=0.0)


def codim2_draws():
    return st.tuples(
        st.floats(min_value=0.25, max_value=2.0),    # alpha
        st.floats(min_value=-4.0, max_value=-0.25),  # mu
        st.floats(min_value=0.01, max_value=0.75),   # fraction of the domain
    )


class TestClosedForms:
    def test_zero_speed_limit(self):
        ints = melnikov_integrals_closed(0.5, -1.0, 0.0)
        assert ints.as_tuple() == (0.5, 0.0, 0.0, 0.0)

    def test_continuity_at_zero_speed(self):
        # the limit error is O(s0)
        small = melnikov_integrals_closed(0.5, -1.0, 1e-4)
        assert small.i_c == pytest.approx(0.5, abs=1e-3)
        assert abs(small.i_s) < 1e-3
        assert abs(small.i_cc) < 1e-3 and abs(small.i_cs) < 1e-3

    def test_domain_guard(self):
        with pytest.raises(MelnikovDomainError):
            melnikov_integrals_closed(0.5, -1.0, 4.0)  # 2 sqrt(-mu)/alpha = 4

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @given(draw=codim2_draws())
    # an unweighted Gauss-Kronrod rule hits QUADPACK roundoff in I_CS here
    @example(draw=(0.5, -1.0, 0.75))
    # a slow oscillatory tail cancels I_CS far below int |f|: a fixed
    # 1e-14 absolute tolerance ends in a QUADPACK roundoff warning here
    @example(draw=(0.5625, -0.25, 0.75))
    @example(draw=(2.0, -0.25, 0.75))
    @settings(max_examples=25, deadline=None)
    def test_closed_vs_quadrature(self, draw):
        """I_C, I_S, I_CC match the quadrature oracle to 1e-9 relative; the
        corrected I_CS variant matches too (the primary convention flips the
        sign of its first term, checked separately below)."""
        alpha, mu, frac = draw
        s0 = frac * 2.0 * math.sqrt(-mu) / alpha
        closed = melnikov_integrals_closed(alpha, mu, s0)
        corrected = melnikov_integrals_closed_corrected(alpha, mu, s0)
        quad = melnikov_integrals_quadrature(alpha, mu, s0)
        # abs floor: adaptive quadrature cannot certify below ~1e-15 absolute
        assert closed.i_c == pytest.approx(quad.i_c, rel=1e-9, abs=1e-15)
        assert closed.i_s == pytest.approx(quad.i_s, rel=1e-9, abs=1e-15)
        assert closed.i_cc == pytest.approx(quad.i_cc, rel=1e-9, abs=1e-15)
        assert corrected.i_cs == pytest.approx(quad.i_cs, rel=1e-9, abs=1e-15)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("s0", [1e-16, 1e-12, 1e-8, 1e-4])
    @pytest.mark.parametrize("alpha,mu", [(0.5, -1.0), (1.3, -2.0)])
    def test_closed_vs_quadrature_near_zero_speed(self, alpha, mu, s0):
        """The closed forms stay finite and accurate as s0 -> 0, where
        1 + E^2 - 2E cos(...) cancels to exactly zero in floating point."""
        closed = melnikov_integrals_closed(alpha, mu, s0)
        corrected = melnikov_integrals_closed_corrected(alpha, mu, s0)
        quad = melnikov_integrals_quadrature(alpha, mu, s0)
        assert all(math.isfinite(v)
                   for v in closed.as_tuple() + corrected.as_tuple())
        assert closed.i_c == pytest.approx(quad.i_c, rel=1e-9, abs=1e-15)
        assert closed.i_s == pytest.approx(quad.i_s, rel=1e-9, abs=1e-15)
        assert closed.i_cc == pytest.approx(quad.i_cc, rel=1e-9, abs=1e-15)
        assert corrected.i_cs == pytest.approx(quad.i_cs, rel=1e-9, abs=1e-15)

    def test_primary_and_corrected_differ_only_in_ics(self):
        a = melnikov_integrals_closed(0.5, -1.0, 0.12)
        b = melnikov_integrals_closed_corrected(0.5, -1.0, 0.12)
        assert (a.i_c, a.i_s, a.i_cc) == (b.i_c, b.i_s, b.i_cc)
        assert a.i_cs != b.i_cs


class TestCorrectedKernelIdentities:
    """With r = sqrt(-mu), the corrected closed forms satisfy
    I_CC = -(s0/2r)(I_S + alpha I_C) and I_CS = (s0/2r)(I_C - alpha I_S),
    so the matrix assembled from them annihilates (1, 0, beta s0/(2r)):
    to first order, polarization moves the frequency, not the speed.  Each
    residual is taken relative to the sum of the magnitudes of its terms;
    over 20000 random draws from the same ranges the worst was 8.5e-16."""

    @given(alpha=st.floats(min_value=0.05, max_value=3.0),
           beta=st.floats(min_value=0.0, max_value=2.0),
           mu=st.floats(min_value=-5.0, max_value=-0.05),
           frac=st.floats(min_value=1e-6, max_value=0.999))
    @seed(5)
    @settings(max_examples=500, deadline=None)
    def test_identities_and_kernel(self, alpha, beta, mu, frac):
        r = math.sqrt(-mu)
        s0 = frac * 2.0 * r / alpha
        ints = melnikov_integrals_closed_corrected(alpha, mu, s0)
        i_c, i_s, i_cc, i_cs = ints.as_tuple()
        k = s0 / (2.0 * r)
        assert (abs(i_cc + k * (i_s + alpha * i_c))
                <= 1e-13 * k * (abs(i_s) + alpha * abs(i_c)))
        assert (abs(i_cs - k * (i_c - alpha * i_s))
                <= 1e-13 * k * (abs(i_c) + alpha * abs(i_s)))
        m = assemble_matrix(alpha, beta, mu, ints)
        v = np.array([1.0, 0.0, beta * k])
        assert (np.linalg.norm(m @ v)
                <= 1e-13 * np.linalg.norm(m) * np.linalg.norm(v))


class TestSplittingMatrix:
    def test_zero_speed_matrix(self):
        mp = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=0.2, c_cp=0.0)
        sm = splitting_matrix(mp)
        expect = np.array([[0.0, -0.5, 0.25], [0.0, -0.25, -0.5]])
        assert np.max(np.abs(sm.m - expect)) < 1e-14
        assert np.linalg.matrix_rank(sm.m) == 2

    @given(alpha=st.floats(min_value=0.25, max_value=2.0),
           beta=st.floats(min_value=0.0, max_value=1.0),
           mu=st.floats(min_value=-4.0, max_value=-0.25),
           frac=st.one_of(st.just(0.0),
                          st.floats(min_value=0.01, max_value=0.9)))
    # at frac = 0, alpha*h - beta rounds to -1 ulp (s0 < 0 before the
    # zero-speed tie) or to +1 ulp (s0 ~ 1e-16, inside the closed forms)
    @example(alpha=0.8253089398651224, beta=1.0, mu=-1.0, frac=0.0)
    @example(alpha=1.625, beta=0.9375, mu=-1.0, frac=0.0)
    @example(alpha=0.3, beta=0.7, mu=-1.0, frac=0.0)
    @settings(max_examples=30, deadline=None)
    def test_rank_two_everywhere(self, alpha, beta, mu, frac):
        """Rank 2 across the codim-2 regime, including beta = 0 (first column
        identically zero) and s0 = 0."""
        r = math.sqrt(-mu)
        s0 = frac * 2.0 * r / alpha
        # invert the selected-speed formula for the field giving this s0
        h = max((s0 * r * (1 + alpha ** 2) + beta) / alpha, beta / alpha)
        mp = MaterialParams(alpha=alpha, beta=beta, mu=mu, h=h, c_cp=0.0)
        sm = splitting_matrix(mp)
        minor = np.linalg.det(sm.m[:, 1:])
        assert abs(minor) > 0.0
        assert np.linalg.matrix_rank(sm.m, tol=1e-12 * np.abs(sm.m).max()) == 2
        if beta == 0.0:
            assert np.all(sm.m[:, 0] == 0.0)

    def test_kernel_annihilated(self):
        sm = splitting_matrix(MP05)
        assert np.max(np.abs(sm.m @ sm.kernel)) < 1e-12
        assert np.linalg.norm(sm.kernel) == pytest.approx(1.0)
        assert sm.kernel[0] >= 0.0

    @pytest.mark.parametrize("m", [[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                                   [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]])
    def test_kernel_sign_without_a_first_component(self, m):
        """A kernel with k[0] == 0 is signed by its second component; the
        SVD returns (0, -1, 0) for the first matrix and (0, 1, 0) for the
        second."""
        assert np.array_equal(_kernel(np.array(m)), [0.0, 1.0, 0.0])

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            splitting_matrix(MP05.replace(h=50.0))
        with pytest.raises(ValueError):
            splitting_matrix(MP05.replace(c_cp=0.2))

    def test_splitting_value_is_linear(self):
        sm = splitting_matrix(MP05)
        assert np.max(np.abs(sm.m @ sm.kernel)) < 1e-12


class TestDeterminantIdentity:
    def test_sides_relate_by_the_omitted_factor(self):
        """lhs equals rhs / (4 mu^2 D): the printed right-hand side omits the
        factor 1/(4 mu^2 D), D = 1 + E^2 - 2 E cos(pi alpha s0 / sqrt(-mu))."""
        for alpha, mu, s0 in ((0.5, -1.0, 0.12), (1.0, -1.0, 1.0),
                              (0.7, -2.0, 0.5)):
            lhs, rhs = determinant_identity_check(
                alpha, mu, s0, melnikov_integrals_closed(alpha, mu, s0))
            r = math.sqrt(-mu)
            E = math.exp(math.pi * s0 / r)
            D = 1.0 + E * E - 2.0 * E * math.cos(math.pi * alpha * s0 / r)
            assert lhs == pytest.approx(rhs / (4.0 * mu * mu * D), rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            determinant_identity_check(
                0.5, -1.0, 0.0, melnikov_integrals_closed(0.5, -1.0, 0.0))
