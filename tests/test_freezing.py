"""Freezing-method tests: the semi-discrete right-hand side against the
traveling-rotating ansatz, grid convergence, fixed points, step mechanics and
phase-condition behavior, and frame selection on a short run."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from dwlab import (FreezeSeries, LineState, MaterialParams, PhaseDegeneracy,
                   dt_max, freeze_step, homogeneous_profile,
                   homogeneous_speed_frequency, initial_wall, pde_rhs,
                   run_selection)
from dwlab.freezing import PHASE_DET_GUARD, grid_spacing

MP = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=0.5, c_cp=0.0)


def uniform_state(n=64, up=True):
    grid = np.linspace(-10, 10, n)
    m = np.zeros((n, 3))
    m[:, 2] = 1.0 if up else -1.0
    return LineState(grid=grid, m=m)


def reference_rhs(m, dx, mp):
    """pde_rhs in its (n, 3) form with np.cross."""
    heff = np.empty_like(m)
    heff[1:-1] = (m[2:] - 2.0 * m[1:-1] + m[:-2]) / (dx * dx)
    heff[0] = 2.0 * (m[1] - m[0]) / (dx * dx)
    heff[-1] = 2.0 * (m[-2] - m[-1]) / (dx * dx)
    lap = heff.copy()
    heff[:, 2] += mp.h - mp.mu * m[:, 2]
    J = np.zeros_like(m)
    J[:, 2] = mp.beta / (1.0 + mp.c_cp * m[:, 2])
    G = -np.cross(m, heff) + np.cross(m, np.cross(m, J))
    return (G + mp.alpha * np.cross(m, G)) / (1.0 + mp.alpha ** 2), lap


def reference_step(state, mp, dt):
    """freeze_step in its (n, 3) form: np.cross, solve_banded and
    w[:, None] * u * v."""
    m, dx, n = state.m, state.dx, len(state.grid)
    Dc = 1.0 / (1.0 + mp.alpha ** 2)
    kappa = dt * Dc / (dx * dx)
    ab = np.zeros((3, n))
    ab[1, :] = 1.0 + 2.0 * kappa
    ab[0, 1:] = -kappa
    ab[2, :-1] = -kappa
    ab[0, 1] = -2.0 * kappa
    ab[2, -2] = -2.0 * kappa
    rhs, lap = reference_rhs(m, dx, mp)
    f_exp = rhs - Dc * lap
    mx = np.empty_like(m)
    mx[1:-1] = (m[2:] - m[:-2]) / (2.0 * dx)
    mx[0] = mx[-1] = 0.0
    e3m = np.cross(np.array([0.0, 0.0, 1.0]), m)
    sol = solve_banded((1, 1), ab,
                       np.hstack([m + dt * f_exp, dt * mx, -dt * e3m]))
    a, b, c = sol[:, 0:3], sol[:, 3:6], sol[:, 6:9]
    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx

    def ip(u, v):
        return float(np.sum(w[:, None] * u * v))

    A = np.array([[ip(b, mx), ip(c, mx)], [ip(b, e3m), ip(c, e3m)]])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    assert abs(det) >= PHASE_DET_GUARD * dt * dt
    rvec = -np.array([ip(a - m, mx), ip(a - m, e3m)])
    s_new, omega_new = np.linalg.solve(A, rvec)
    m_new = a + s_new * b + omega_new * c
    norms = np.linalg.norm(m_new, axis=1)
    return LineState(grid=state.grid, m=m_new / norms[:, None],
                     t=state.t + dt, s_est=float(s_new),
                     omega_est=float(omega_new),
                     norm_deviation=float(np.max(np.abs(norms - 1.0))))


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

    def test_nan_node_rejected(self):
        """A NaN norm used to pass the unit-norm check."""
        st = uniform_state(n=8)
        m = st.m.copy()
        m[3] = np.nan
        with pytest.raises(ValueError, match="finite and unit-norm"):
            LineState(grid=st.grid, m=m)

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


class TestBitIdentity:
    """The component-row evaluation reproduces every bit of the (n, 3)
    evaluation with np.cross, solve_banded and the (n, 3) inner products."""

    @pytest.mark.parametrize("c_cp", [0.0, 0.5])
    def test_pde_rhs(self, c_cp):
        mp = MP.replace(c_cp=c_cp)
        st0 = initial_wall(mp, Lx=100.0, n_nodes=2048)
        st2 = freeze_step(freeze_step(st0, mp, 1e-3), mp, 1e-3)
        for state in (st0, st2, LineState(grid=st2.grid,
                                          m=np.ascontiguousarray(st2.m))):
            ref, _ = reference_rhs(state.m, state.dx, mp)
            new = pde_rhs(state, mp)
            assert np.array_equal(new, ref)
            assert np.array_equal(np.signbit(new), np.signbit(ref))

    @pytest.mark.parametrize("c_cp", [0.0, 0.5])
    def test_fifty_steps(self, c_cp):
        """The benchmark's grid, from a C-ordered, perturbed and
        renormalized initial wall; the steps after the first see the
        Fortran-ordered m that a step returns."""
        mp = MP.replace(c_cp=c_cp)
        st = initial_wall(mp, Lx=100.0, n_nodes=2048)
        rng = np.random.default_rng(3)
        pert = np.zeros((2048, 3))
        pert[900:1150] = 1e-3 * rng.standard_normal((250, 3))
        m = st.m + pert
        m /= np.linalg.norm(m, axis=1)[:, None]
        new = ref = LineState(grid=st.grid, m=m)
        for _ in range(50):
            new = freeze_step(new, mp, 1e-3)
            ref = reference_step(ref, mp, 1e-3)
            assert np.array_equal(new.m, ref.m)
            assert np.array_equal(np.signbit(new.m), np.signbit(ref.m))
            assert (new.s_est, new.omega_est, new.norm_deviation) == (
                ref.s_est, ref.omega_est, ref.norm_deviation)

    def test_run_selection(self):
        mp = MP.replace(c_cp=0.5)
        st = initial_wall(mp, Lx=100.0, n_nodes=2048)
        series = run_selection(mp, init=st, T=0.05, dt=1e-3)
        ref = st
        for _ in range(50):
            ref = reference_step(ref, mp, 1e-3)
        assert np.array_equal(series.terminal.m, ref.m)
        assert series.s[-1] == ref.s_est
        assert series.omega[-1] == ref.omega_est


class TestInitialWall:
    def test_tails_snapped_to_exact_poles(self):
        st = initial_wall(MP, Lx=100.0, n_nodes=2048)
        assert np.all(st.m[0] == np.array([0.0, 0.0, 1.0]))
        assert np.all(st.m[-1] == np.array([0.0, 0.0, -1.0]))

    def test_matches_profile_in_the_core(self):
        st = initial_wall(MP, Lx=20.0, n_nodes=801)
        theta = homogeneous_profile(st.grid, MP.mu)[:, 0]
        assert np.max(np.abs(st.m[:, 2] - np.cos(theta))) < 1e-12


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
        series = run_selection(MP, init=st, T=0.025, dt=1e-3)
        assert len(series.times) == len(series.s) == len(series.omega)
        # 25 steps, recorded after every 10th step and after the last
        assert series.times == pytest.approx([0.01, 0.02, 0.025])

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

    def test_line_too_short_for_its_far_states_stops_at_once(self):
        """On [-2, 2] the wall's ends lie off the poles (|m_perp| = 0.27),
        so the first step stops the run: nothing is recorded, and the
        asymptotic frame is NaN."""
        st = initial_wall(MP, Lx=2.0, n_nodes=64)
        series = run_selection(MP, init=st, T=0.1, dt=1e-3)
        assert series.terminated == "far_state_lost"
        assert series.terminal.t == 1e-3 and len(series.times) == 0
        assert all(math.isnan(v) for v in series.asymptotic())

    def test_asymptotic_window(self):
        """The mean over the trailing 10% of the records, and over the last
        record at least."""
        series = FreezeSeries(times=np.arange(20.0), s=np.arange(20.0),
                              omega=np.zeros(20), terminal=uniform_state())
        s_inf, om_inf = series.asymptotic()
        assert s_inf == pytest.approx(18.5) and om_inf == 0.0
        short = FreezeSeries(times=np.arange(3.0), s=np.arange(3.0),
                             omega=np.ones(3), terminal=uniform_state())
        assert short.asymptotic() == (2.0, 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FreezeSeries(times=np.arange(3.0), s=np.arange(2.0),
                         omega=np.zeros(3), terminal=uniform_state())
