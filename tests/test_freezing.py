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
from dwlab.freezing import (FAR_STATE_BOUND, PHASE_DET_GUARD,
                             _implicit_factor, grid_spacing)

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
    """freeze_step in its (n, 3) form: np.cross, w[:, None] * u * v and
    solve_banded on the one right-hand side dt R."""
    m, dx, n = state.m, state.dx, len(state.grid)
    kappa = dt * (1.0 / (1.0 + mp.alpha ** 2)) / (dx * dx)
    ab = np.zeros((3, n))
    ab[1, :] = 1.0 + 2.0 * kappa
    ab[0, 1:] = -kappa
    ab[2, :-1] = -kappa
    ab[0, 1] = -2.0 * kappa
    ab[2, -2] = -2.0 * kappa
    rhs, _ = reference_rhs(m, dx, mp)
    mx = np.empty_like(m)
    mx[1:-1] = (m[2:] - m[:-2]) / (2.0 * dx)
    mx[0] = mx[-1] = 0.0
    e3m = np.cross(np.array([0.0, 0.0, 1.0]), m)
    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx

    def ip(u, v):
        return float(np.sum(w[:, None] * u * v))

    # <R, mx> = <R, e3m> = 0 for R = rhs + s mx - Omega e3m
    A = np.array([[ip(mx, mx), -ip(e3m, mx)], [ip(mx, e3m), -ip(e3m, e3m)]])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    assert abs(det) >= PHASE_DET_GUARD
    s_new, omega_new = np.linalg.solve(A, -np.array([ip(rhs, mx),
                                                     ip(rhs, e3m)]))
    R = rhs + s_new * mx - omega_new * e3m
    m_new = m + solve_banded((1, 1), ab, dt * R)
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


class TestOracleAgreement:
    """The component-row evaluation agrees with the (n, 3) evaluation with
    np.cross, solve_banded and the (n, 3) inner products to rounding: over
    50 steps m moved by at most 3.4e-16, s by 2.8e-16 and Omega by 5.6e-16."""

    #: bounds on |dm| (and the norm deviation) and on |ds|, |dOmega|
    M_TOL, FRAME_TOL = 1e-13, 1e-12

    @pytest.mark.parametrize("c_cp", [0.0, 0.5])
    def test_pde_rhs(self, c_cp):
        """Values of size 0.44 agree to 5.6e-17."""
        mp = MP.replace(c_cp=c_cp)
        st0 = initial_wall(mp, Lx=100.0, n_nodes=2048)
        st2 = freeze_step(freeze_step(st0, mp, 1e-3), mp, 1e-3)
        for state in (st0, st2, LineState(grid=st2.grid,
                                          m=np.ascontiguousarray(st2.m))):
            ref, _ = reference_rhs(state.m, state.dx, mp)
            assert np.max(np.abs(pde_rhs(state, mp) - ref)) <= 1e-15

    @pytest.mark.parametrize("c_cp", [0.0, 0.5])
    def test_fifty_steps(self, c_cp):
        """The benchmark's grid, from a C-ordered, perturbed and
        renormalized initial wall; the steps after the first see the
        Fortran-ordered m that a step returns."""
        mp = MP.replace(c_cp=c_cp)
        new = ref = perturbed_wall(mp)
        for _ in range(50):
            new = freeze_step(new, mp, 1e-3)
            ref = reference_step(ref, mp, 1e-3)
            assert np.max(np.abs(new.m - ref.m)) <= self.M_TOL
            assert abs(new.norm_deviation - ref.norm_deviation) <= self.M_TOL
            assert abs(new.s_est - ref.s_est) <= self.FRAME_TOL
            assert abs(new.omega_est - ref.omega_est) <= self.FRAME_TOL

    def test_run_selection(self):
        mp = MP.replace(c_cp=0.5)
        st = initial_wall(mp, Lx=100.0, n_nodes=2048)
        series = run_selection(mp, init=st, T=0.05, dt=1e-3)
        ref = st
        for _ in range(50):
            ref = reference_step(ref, mp, 1e-3)
        assert np.max(np.abs(series.terminal.m - ref.m)) <= self.M_TOL
        assert abs(series.s[-1] - ref.s_est) <= self.FRAME_TOL
        assert abs(series.omega[-1] - ref.omega_est) <= self.FRAME_TOL

    @pytest.mark.parametrize("dt", [1e-3, "dt_max"])
    def test_symmetric_factor_solves_the_neumann_matrix(self, dt):
        """dpttrs on the LDL^T factor of the matrix with halved end rows,
        given right-hand sides with halved end rows, solves the Neumann
        matrix as solve_banded does, to 1e-14 relative (2.5e-16
        measured), at the benchmark's kappa and at dt_max."""
        from scipy.linalg.lapack import dpttrs
        n, alpha = 2048, MP.alpha
        dx = grid_spacing(100.0, n)
        dt = dt_max(dx, alpha) if dt == "dt_max" else dt
        kappa = dt * (1.0 / (1.0 + alpha ** 2)) / (dx * dx)
        ab = np.zeros((3, n))
        ab[1, :] = 1.0 + 2.0 * kappa
        ab[0, 1:] = ab[2, :-1] = -kappa
        ab[0, 1] = ab[2, -2] = -2.0 * kappa
        rhs = np.random.default_rng(0).standard_normal((n, 8))
        ref = solve_banded((1, 1), ab, rhs)
        halved = np.asfortranarray(rhs)
        halved[[0, -1]] *= 0.5
        x, info = dpttrs(*_implicit_factor(n, kappa), halved)
        assert info == 0
        assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))


def stepped_series(mp, init, T, dt):
    """run_selection's records, recorded and stopped as it does, from a
    loop of freeze_step calls: ([(t, s, omega), ...], terminal state,
    terminated)."""
    n_steps = int(round(T / dt))
    state, records = init, []
    for k in range(n_steps):
        state = freeze_step(state, mp, dt)
        if max(math.hypot(*state.m[0, :2]),
               math.hypot(*state.m[-1, :2])) > FAR_STATE_BOUND:
            return records, state, "far_state_lost"
        if (k + 1) % 10 == 0 or k == n_steps - 1:
            records.append((state.t, state.s_est, state.omega_est))
    return records, state, "reached_T"


class TestBitIdentity:
    """run_selection steps one stepper in place; a loop of freeze_step
    calls, each of which builds a stepper for one step, gives the same
    bits: every record, the terminal state and why the run ended."""

    @pytest.mark.parametrize("mp, Lx, n, T, terminated", [
        (MP, 100.0, 2048, 0.2, "reached_T"),
        (MP.replace(c_cp=0.5), 100.0, 2048, 0.2, "reached_T"),
        # loses a far state at t = 0.315
        (MP.replace(h=20.0), 10.0, 256, 1.0, "far_state_lost")])
    def test_a_run_is_a_loop_of_freeze_step(self, mp, Lx, n, T, terminated):
        init = initial_wall(MP, Lx=Lx, n_nodes=n)
        series = run_selection(mp, init=init, T=T, dt=1e-3)
        records, terminal, stopped = stepped_series(mp, init, T, 1e-3)
        assert series.terminated == stopped == terminated
        times, s, omega = np.array(records).reshape(-1, 3).T
        assert np.array_equal(series.times, times)
        assert np.array_equal(series.s, s)
        assert np.array_equal(series.omega, omega)
        end = series.terminal
        assert np.array_equal(end.m, terminal.m)
        assert end.m.flags.f_contiguous
        assert (end.t, end.s_est, end.omega_est, end.norm_deviation) == (
            terminal.t, terminal.s_est, terminal.omega_est,
            terminal.norm_deviation)
        assert np.array_equal(init.m, initial_wall(MP, Lx=Lx, n_nodes=n).m)


class TestInitialWall:
    def test_tails_snapped_to_exact_poles(self):
        st = initial_wall(MP, Lx=100.0, n_nodes=2048)
        assert np.all(st.m[0] == np.array([0.0, 0.0, 1.0]))
        assert np.all(st.m[-1] == np.array([0.0, 0.0, -1.0]))

    def test_matches_profile_in_the_core(self):
        st = initial_wall(MP, Lx=20.0, n_nodes=801)
        theta = homogeneous_profile(st.grid, MP.mu)[:, 0]
        assert np.max(np.abs(st.m[:, 2] - np.cos(theta))) < 1e-12


def perturbed_wall(mp):
    """The benchmark's grid, from a C-ordered, perturbed and renormalized
    initial wall."""
    st = initial_wall(mp, Lx=100.0, n_nodes=2048)
    rng = np.random.default_rng(3)
    pert = np.zeros((2048, 3))
    pert[900:1150] = 1e-3 * rng.standard_normal((250, 3))
    m = st.m + pert
    m /= np.linalg.norm(m, axis=1)[:, None]
    return LineState(grid=st.grid, m=m)


class TestFreezeStep:
    @pytest.mark.parametrize("c_cp", [0.0, 0.5])
    def test_phase_conditions_hold_on_the_explicit_rate(self, c_cp):
        """The selected frame makes the explicit rate R = F + s mx -
        Omega e3 x m of the incoming state trapezoid-orthogonal to both
        tangents: |<R, t>| / (|F| |t|) stayed below 3.0e-16 over 50 steps
        (4.3e-4 for the frame that held the implicit increment
        orthogonal)."""
        mp = MP.replace(c_cp=c_cp)
        state = perturbed_wall(mp)
        w = np.full(2048, state.dx)[:, None]
        w[[0, -1]] *= 0.5

        def ip(u, v):
            return float(np.sum(w * u * v))

        for _ in range(50):
            new = freeze_step(state, mp, 1e-3)
            m = state.m
            mx = np.zeros_like(m)
            mx[1:-1] = (m[2:] - m[:-2]) / (2.0 * state.dx)
            e3m = np.cross(np.array([0.0, 0.0, 1.0]), m)
            F = pde_rhs(state, mp)
            R = F + new.s_est * mx - new.omega_est * e3m
            for t in (mx, e3m):
                assert abs(ip(R, t)) <= 1e-14 * math.sqrt(ip(F, F) * ip(t, t))
            state = new

    def test_dt_validation(self):
        st = initial_wall(MP, Lx=20.0, n_nodes=401)
        too_big = dt_max(st.dx, MP.alpha) * 1.01
        with pytest.raises(ValueError):
            freeze_step(st, MP, too_big)
        with pytest.raises(ValueError):
            freeze_step(st, MP, 0.0)

    @pytest.mark.parametrize("h", [1e160, 1e200])
    def test_non_finite_step_is_rejected(self, h):
        """At these fields the first step overflows, so a node's norm
        before renormalization is infinite: that step raises the
        unit-norm ValueError, rather than PhaseDegeneracy at the next."""
        mp = MP.replace(h=h)
        st = initial_wall(mp, Lx=20.0, n_nodes=256)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite and unit-norm"):
                run_selection(mp, init=st, T=0.01, dt=1e-3)
            with pytest.raises(ValueError, match="finite and unit-norm"):
                freeze_step(st, mp, 1e-3)

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

    def test_settled_frame_barely_depends_on_dt(self):
        """At n = 512 the settled s moves by 1.6e-6 between dt = 2e-2 and
        dt = 5e-3 (4.0e-5 when the phase conditions held the implicit
        increment orthogonal); both tend to about 0.1206795."""
        init = initial_wall(MP, Lx=100.0, n_nodes=512)
        s_coarse, s_fine = (run_selection(MP, init=init, T=32.0,
                                          dt=dt).asymptotic()[0]
                            for dt in (2e-2, 5e-3))
        assert abs(s_coarse - s_fine) < 5e-6

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
