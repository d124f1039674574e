"""Freezing-method tests: the semi-discrete right-hand side against the
traveling-rotating ansatz, grid convergence, fixed points, step mechanics and
phase-condition behavior, and frame selection on a short run."""

import math

import numpy as np
import pytest

from dwlab import (FreezeSeries, LineState, MaterialParams, PhaseDegeneracy,
                   dt_max, freeze_step, homogeneous_profile,
                   homogeneous_speed_frequency, initial_wall, pde_rhs,
                   run_selection)
from dwlab.freezing import grid_spacing

MP = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=0.5, c_cp=0.0)


def uniform_state(n=64, up=True):
    grid = np.linspace(-10, 10, n)
    m = np.zeros((n, 3))
    m[:, 2] = 1.0 if up else -1.0
    return LineState(grid=grid, m=m)


class TestLineState:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LineState(grid=np.linspace(0, 1, 5), m=np.zeros((4, 3)))

    def test_norm_validation(self):
        grid = np.linspace(0, 1, 4)
        m = np.zeros((4, 3))
        m[:, 2] = 1.01
        with pytest.raises(ValueError):
            LineState(grid=grid, m=m)

    def test_dx(self):
        st = uniform_state(n=21)
        assert st.dx == pytest.approx(1.0)


class TestPdeRhs:
    def test_uniform_poles_are_fixed_points(self):
        """m = +-e3 is an equilibrium of the line dynamics."""
        for up in (True, False):
            r = pde_rhs(uniform_state(up=up), MP)
            assert np.max(np.abs(r)) < 1e-14

    def test_wall_satisfies_traveling_rotating_ansatz(self):
        """On the explicit wall, dm/dt = -s0 m_x + Omega0 e3 x m up to the
        spatial discretization error."""
        st = initial_wall(MP, Lx=50.0, n_nodes=2001)  # dx = 0.05
        wf = homogeneous_speed_frequency(MP)
        dx = st.dx
        mx = np.gradient(st.m, dx, axis=0)
        e3m = np.cross(np.array([0.0, 0.0, 1.0]), st.m)
        resid = pde_rhs(st, MP) + wf.s * mx - wf.omega * e3m
        # interior only: np.gradient is first order at the ends
        resid = resid[2:-2]
        assert np.max(np.abs(resid)) < 1e-3
        assert np.sqrt(np.mean(resid ** 2)) < 1e-4

    def test_second_order_in_dx(self):
        """Halving dx cuts the ansatz residual by ~4."""
        wf = homogeneous_speed_frequency(MP)
        errs = []
        for n in (1001, 2001):
            st = initial_wall(MP, Lx=50.0, n_nodes=n)
            mx = np.gradient(st.m, st.dx, axis=0)
            e3m = np.cross(np.array([0.0, 0.0, 1.0]), st.m)
            resid = pde_rhs(st, MP) + wf.s * mx - wf.omega * e3m
            errs.append(np.max(np.abs(resid[2:-2])))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0


class TestInitialWall:
    def test_tails_snapped_to_exact_poles(self):
        st = initial_wall(MP, Lx=100.0, n_nodes=2048)
        assert np.all(st.m[0] == np.array([0.0, 0.0, 1.0]))
        assert np.all(st.m[-1] == np.array([0.0, 0.0, -1.0]))

    def test_matches_profile_in_the_core(self):
        st = initial_wall(MP, Lx=20.0, n_nodes=801)
        theta = homogeneous_profile(st.grid, MP.mu)[:, 0]
        assert np.max(np.abs(st.m[:, 2] - np.cos(theta))) < 1e-12

    def test_perturbation_applied_and_renormalized(self):
        pert = np.zeros((801, 3))
        pert[400, 0] = 0.05
        st = initial_wall(MP, Lx=20.0, n_nodes=801, perturbation=pert)
        norms = np.linalg.norm(st.m, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


class TestFreezeStep:
    def test_dt_validation(self):
        st = initial_wall(MP, Lx=20.0, n_nodes=401)
        too_big = dt_max(st.dx, MP.alpha) * 1.01
        with pytest.raises(ValueError):
            freeze_step(st, MP, too_big)
        with pytest.raises(ValueError):
            freeze_step(st, MP, 0.0)

    def test_phase_degeneracy_on_uniform_state(self):
        st = uniform_state(n=201)
        with pytest.raises(PhaseDegeneracy):
            freeze_step(st, MP, 1e-4)

    def test_norm_deviation_small(self):
        st = initial_wall(MP, Lx=50.0, n_nodes=1001)
        st2 = freeze_step(st, MP, 1e-3)
        assert st2.norm_deviation < 1e-6
        assert st2.t == pytest.approx(st.t + 1e-3)

    def test_fixed_frame_near_stationary(self):
        """Stepping with the exact selected frame leaves the wall almost
        unchanged (only discretization drift)."""
        st = initial_wall(MP, Lx=50.0, n_nodes=2001)
        wf = homogeneous_speed_frequency(MP)
        dt = 1e-4
        st2 = freeze_step(st, MP, dt, frame=(wf.s, wf.omega))
        assert np.max(np.abs(st2.m - st.m)) < 2e-3 * dt
        assert st2.s_est == wf.s and st2.omega_est == wf.omega

    def test_selected_frame_close_to_exact(self):
        """The phase conditions recover (s0, Omega0) already on the first
        step."""
        st = initial_wall(MP, Lx=50.0, n_nodes=2001)
        wf = homogeneous_speed_frequency(MP)
        st2 = freeze_step(st, MP, 1e-4)
        assert st2.s_est == pytest.approx(wf.s, abs=1e-3)
        assert st2.omega_est == pytest.approx(wf.omega, abs=1e-3)


class TestRunSelection:
    def test_short_run_selects_the_homogeneous_frame(self):
        st = initial_wall(MP, Lx=40.0, n_nodes=512)
        series = run_selection(MP, init=st, T=0.1, dt=5e-4)
        s_inf, om_inf = series.asymptotic()
        wf = homogeneous_speed_frequency(MP)
        assert s_inf == pytest.approx(wf.s, abs=5e-3)
        assert om_inf == pytest.approx(wf.omega, abs=5e-3)
        assert series.terminal.norm_deviation < 1e-6

    def test_series_bookkeeping(self):
        st = initial_wall(MP, Lx=20.0, n_nodes=256)
        series = run_selection(MP, init=st, T=0.02, dt=1e-3, record_every=5)
        assert len(series.times) == len(series.s) == len(series.omega)
        assert series.times[-1] == pytest.approx(0.02)
        assert series.diagnostics["n_steps"] == 20

    @pytest.mark.parametrize("T", [-1.0, 0.04])
    def test_run_without_a_step_rejected(self, T):
        """round(T/dt) = 0 gave a series with no samples and NaN
        asymptotics."""
        st = initial_wall(MP, Lx=100.0, n_nodes=256)
        with pytest.raises(ValueError, match="T must be at least dt"):
            run_selection(MP, init=st, T=T, dt=0.1)

    @pytest.mark.parametrize("Lx, n_nodes", [(0.0, 256), (-100.0, 256),
                                             (20.0, 1)])
    def test_degenerate_grid_rejected(self, Lx, n_nodes):
        with pytest.raises(ValueError, match="Lx > 0 and n_nodes >= 2"):
            initial_wall(MP, Lx=Lx, n_nodes=n_nodes)

    @pytest.mark.parametrize("Lx, n_nodes", [(20.0, 200), (100.0, 2048),
                                             (50.0, 2001), (0.3, 7)])
    def test_grid_spacing_is_the_walls_dx(self, Lx, n_nodes):
        st = initial_wall(MP, Lx=Lx, n_nodes=n_nodes)
        assert grid_spacing(Lx, n_nodes) == st.dx

    def test_asymptotic_window(self):
        series = FreezeSeries(times=np.arange(10.0), s=np.arange(10.0),
                              omega=np.zeros(10), terminal=uniform_state())
        s_inf, om_inf = series.asymptotic(window=0.2)
        assert s_inf == pytest.approx(8.5) and om_inf == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FreezeSeries(times=np.arange(3.0), s=np.arange(2.0),
                         omega=np.zeros(3), terminal=uniform_state())
