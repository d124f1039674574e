"""Classification tests: thresholds, regimes, homogeneous eigenvalues
(cross-checked against the chart equilibria), the double-center detector,
uniform-state stability curves, and the reflection symmetry."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwlab import (PI, ZERO, BvpConfig, ChartState, CurvePole,
                   MaterialParams, OrientationError, WaveFrame, build_bvp,
                   chart_equilibria, classify_regime, desingularized_rhs,
                   eigenvalues_homogeneous, homogeneous_speed_frequency,
                   simultaneous_center, splitting_matrix, stability_verdict,
                   standing_wall_condition, thresholds)

ALPHA, BETA, MU = 0.5, 0.1, -1.0


def mk(h, c_cp=0.0):
    return MaterialParams(alpha=ALPHA, beta=BETA, mu=MU, h=h, c_cp=c_cp)


class TestThresholds:
    def test_values(self):
        h_lo, h_hi = thresholds(ALPHA, BETA, MU)
        assert h_hi == pytest.approx(10.2, abs=1e-12)
        assert h_lo == pytest.approx(0.2 - 10.0, abs=1e-12)

    @given(alpha=st.floats(min_value=0.05, max_value=5),
           beta=st.floats(min_value=0, max_value=2),
           mu=st.floats(min_value=-10, max_value=-0.01))
    @settings(max_examples=50, deadline=None)
    def test_ordering(self, alpha, beta, mu):
        h_lo, h_hi = thresholds(alpha, beta, mu)
        assert h_lo < h_hi


class TestRegime:
    @pytest.mark.parametrize("h,kind", [
        (0.5, "codim2"), (5.0, "codim2"), (10.2, "center"), (50.0, "codim0"),
        (0.2, "codim2"),  # s0 = 0 boundary of the right-moving convention
    ])
    def test_kinds(self, h, kind):
        assert classify_regime(mk(h)).kind == kind

    def test_boundary_tolerance(self):
        r = classify_regime(mk(10.2 + 1e-12))
        assert r.kind == "center"

    def test_threshold_consistency(self):
        """codim0 iff h > h^* and center iff h = h^*, via the selected
        speed."""
        for h in np.linspace(0.2, 20.0, 40):
            reg = classify_regime(mk(float(h)))
            if h > 10.2 + 1e-9:
                assert reg.kind == "codim0"
            elif h < 10.2 - 1e-9:
                assert reg.kind == "codim2"

    def test_left_moving_rejected(self):
        """h < beta/alpha is classified reflected; the consumers that need
        a right-moving wall reject it."""
        mp = mk(0.1)
        reg = classify_regime(mp)
        assert reg.reflected
        with pytest.raises(OrientationError):
            build_bvp(mp, BvpConfig(L=20.0, n_mesh=60, collocation_order=3))
        with pytest.raises(OrientationError):
            splitting_matrix(mp)

    def test_polarized_rejected(self):
        with pytest.raises(ValueError):
            classify_regime(mk(5.0, c_cp=0.2))


class TestEigenvalues:
    def test_matches_chart_equilibria(self):
        """The printed end-state eigenvalues agree with the chart-equilibrium
        eigenvalues at the homogeneous frame: the wall departs the theta=0
        equilibrium at z = sqrt(-mu) and lands on the theta=pi equilibrium at
        z = -sqrt(-mu)."""
        for h in (0.5, 5.0, 10.2):
            mp = mk(h)
            wf = homogeneous_speed_frequency(mp)
            nus = eigenvalues_homogeneous(ALPHA, MU, classify_regime(mp).s0)
            r = math.sqrt(-MU)
            eq0 = min(chart_equilibria(ZERO, mp, wf),
                      key=lambda e: abs(e.z - r))
            eqpi = min(chart_equilibria(PI, mp, wf),
                       key=lambda e: abs(e.z - r))
            assert abs(eq0.z - r) < 1e-10 and abs(eqpi.z - r) < 1e-10
            got0 = sorted(eq0.eigenvalues, key=lambda z: complex(z).imag)
            want0 = sorted(nus[:3], key=lambda z: complex(z).imag)
            for g, w in zip(got0, want0):
                assert abs(complex(g) - complex(w)) < 1e-10
            gotpi = sorted(eqpi.eigenvalues, key=lambda z: complex(z).imag)
            wantpi = sorted(nus[3:], key=lambda z: complex(z).imag)
            for g, w in zip(gotpi, wantpi):
                assert abs(complex(g) - complex(w)) < 1e-10

    @given(alpha=st.floats(min_value=0.05, max_value=5),
           beta=st.floats(min_value=0, max_value=2),
           mu=st.floats(min_value=-10, max_value=-0.01),
           h=st.floats(min_value=-20, max_value=60))
    @settings(max_examples=200, deadline=None)
    @example(alpha=3.0, beta=1e-9, mu=-1.0, h=0.0)
    def test_chart_spectra_agree(self, alpha, beta, mu, h):
        """The closed-form end-state spectrum and the chart equilibria's,
        at the homogeneous frame, agree within 1e-12 (5.9e-14 worst over
        80 000 roots of random fields) but not bit for bit.  The matching
        root is the wall's end state z = sqrt(-mu), label [1] or [0]
        depending on the field; the conjugate pair may come in either
        order.  Both sides take the frame's own signed speed; the example
        has s0 = -1e-10, which the zero-speed tie would round to 0."""
        mp = MaterialParams(alpha=alpha, beta=beta, mu=mu, h=h)
        wf = homogeneous_speed_frequency(mp)
        nus = eigenvalues_homogeneous(alpha, mu, wf.s)
        r = math.sqrt(-mu)
        for chart, (w1, w2, w3) in ((ZERO, nus[:3]), (PI, nus[3:])):
            eq = min(chart_equilibria(chart, mp, wf),
                     key=lambda e: abs(e.z - r))
            assert abs(eq.z - r) < 1e-12
            assert min(max(abs(eq.nu1 - w1), abs(eq.nu2 - w2)),
                       max(abs(eq.nu1 - w2), abs(eq.nu2 - w1))) < 1e-12
            assert abs(eq.nu3 - w3) < 1e-12

    def test_transverse_signs(self):
        nus = eigenvalues_homogeneous(ALPHA, MU, classify_regime(mk(5.0)).s0)
        assert nus[2].real > 0 and nus[5].real < 0


class TestDoubleCenter:
    MP4 = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=10.0, c_cp=-0.99)
    WF4 = WaveFrame(s=math.sqrt(3960.0 / 199.0), omega=2000.0 / 199.0)

    def test_detected(self):
        assert simultaneous_center(self.MP4, self.WF4)

    def test_rejected_off_the_point(self):
        assert not simultaneous_center(
            self.MP4, WaveFrame(s=self.WF4.s + 0.01, omega=self.WF4.omega))
        assert not simultaneous_center(
            self.MP4.replace(c_cp=-0.9), self.WF4)
        # the applied field alone does not break the double center: both
        # gamma^2 shift by the same real amount
        assert simultaneous_center(self.MP4.replace(h=10.1), self.WF4)


class TestStability:
    def test_center_case_minus_unstable(self):
        v = stability_verdict(mk(10.2))
        assert v.minus_e3 == "unstable"

    def test_plus_stable_high_field(self):
        mp = MaterialParams(alpha=1.0, beta=0.5, mu=-1.0, h=10.0, c_cp=0.0)
        v = stability_verdict(mp)
        assert v.plus_e3 == "stable"

    def test_curve_intersection(self):
        """Gamma+ = Gamma- at h = beta/(2 alpha) + sqrt(beta^2/(4 alpha^2)
        + mu^2) for (1, 0.5, -1)."""
        alpha, beta, mu = 1.0, 0.5, -1.0
        h_int = beta / (2 * alpha) + math.sqrt(
            beta ** 2 / (4 * alpha ** 2) + mu ** 2)
        assert h_int == pytest.approx(1.28078, abs=1e-5)
        ba = beta / alpha
        gp = ba / (h_int - mu) - 1.0
        gm = 1.0 - ba / (h_int + mu)
        assert gp == pytest.approx(gm, abs=1e-12)

    @given(h=st.floats(min_value=2.0, max_value=20.0),
           eps=st.floats(min_value=1e-6, max_value=1e-3))
    @settings(max_examples=40, deadline=None)
    def test_verdict_flips_exactly_at_the_curves(self, h, eps):
        ba = BETA / ALPHA
        gp = ba / (h - MU) - 1.0
        if abs(gp) < 0.99 - eps:
            assert stability_verdict(
                mk(h, c_cp=gp + eps)).plus_e3 == "stable"
            assert stability_verdict(
                mk(h, c_cp=gp - eps)).plus_e3 == "unstable"
        gm = 1.0 - ba / (h + MU)
        if abs(gm) < 0.99 - eps:
            assert stability_verdict(
                mk(h, c_cp=gm + eps)).minus_e3 == "stable"
            assert stability_verdict(
                mk(h, c_cp=gm - eps)).minus_e3 == "unstable"

    def test_pole(self):
        with pytest.raises(CurvePole):
            stability_verdict(mk(1.0))  # h = -mu

    def test_monostable_minus(self):
        """Just above the pole h = -mu, Gamma- lies far below -1, so -e3 is
        stable, and c_cp = -0.95 lies below Gamma+ = -0.9005, so +e3 is
        not."""
        v = stability_verdict(mk(1.01, c_cp=-0.95))
        assert (v.plus_e3, v.minus_e3, v.region) == ("unstable", "stable",
                                                     "monostable-")

    def test_region_labels(self):
        assert stability_verdict(mk(0.5, c_cp=0.0)).region in (
            "bistable", "monostable-", "monostable+", "unstable")


class TestStandingWall:
    def test_generic_frequency(self):
        assert standing_wall_condition(ZERO, mk(5.0), omega=1.0)
        assert standing_wall_condition(PI, mk(5.0), omega=1.0)

    def test_critical_frequency(self):
        mp = mk(5.0)
        crit = mp.torque(-1.0) / mp.alpha  # = 0.2
        # theta=0 branch: requires Omega <= h - mu = 6
        assert standing_wall_condition(ZERO, mp, omega=crit)
        mp_hi = mk(5.0).replace(h=crit + MU - 1.0)  # h - mu < crit
        assert not standing_wall_condition(ZERO, mp_hi, omega=crit)


class TestReflection:
    def test_flag(self):
        """Only a left-moving wall is reflected; the standing one at
        h = beta/alpha is not."""
        assert not classify_regime(mk(5.0)).reflected
        assert not classify_regime(mk(0.2)).reflected
        assert classify_regime(mk(0.1)).reflected

    def test_left_moving_classifies_after_reflection(self):
        """At h = 0.1 the wall moves left at s = -0.04; the regime is that
        of the reflected wall, with s0 = |s| exactly and the same
        frequency."""
        mp = mk(0.1)
        wf = homogeneous_speed_frequency(mp)
        reg = classify_regime(mp)
        assert wf.s < 0
        assert reg.s0 == -wf.s and reg.omega0 == wf.omega
        assert reg.kind == "codim2"

    def test_reflected_profile_solves_reflected_system(self):
        """(theta, -p, -q)(-xi) with s -> -s satisfies the same equations:
        check the pointwise identity f(theta,-p,-q; -s) = (-f1, f2, f3) at
        the original state."""
        mp = mk(5.0, c_cp=0.3)
        wf = WaveFrame(s=1.2, omega=3.4)
        state = ChartState(1.1, 0.7, -0.4)
        d = desingularized_rhs(state, mp, wf)
        d_ref = desingularized_rhs(ChartState(1.1, -0.7, 0.4), mp,
                                   WaveFrame(s=-1.2, omega=3.4))
        assert d_ref[0] == pytest.approx(-d[0], abs=1e-14)
        assert d_ref[1] == pytest.approx(d[1], abs=1e-14)
        assert d_ref[2] == pytest.approx(d[2], abs=1e-14)
