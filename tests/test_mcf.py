import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.integrate._ivp.bdf
import scipy.linalg
from scipy import sparse
from scipy.integrate import BDF

from flowcert import harness, mcf
from flowcert import sequences as sq
from flowcert.cylinder import CylinderGraph, CylinderSpec, dist_R, graph_distance, graph_F
from flowcert.errors import (IntegrationError, InsufficientDataError, InvalidInputError,
                             PreconditionError)

SPEC1 = CylinderSpec(1)


def coarse_config(**overrides):
    base = dict(k=1, R_dom=20.0, h=0.1, dt_max=2e-3, amplitude=0.01,
                profile_kind="balanced_gauss", t1=0, t2=8, eps1=0.5, eps2=0.2,
                R1=6.0, R2=5.0, seed=42)
    base.update(overrides)
    return mcf.RunConfig(**base)


def evolve_and_close(cfg):
    """The closeness report of cfg on a fresh run."""
    hist = mcf.evolve(cfg.initial_state(), float(cfg.t2), cfg.controls())
    return mcf.close_experiment(cfg, hist)


def smooth_graph(amplitude=0.05, h=0.1):
    return CylinderGraph.from_profile(
        SPEC1, 20.0, h, lambda z: amplitude * np.exp(-(z**2) / 2.0))


def kernel_nan_after(n_calls):
    """A stand-in for mcf._kernel whose right-hand side is NaN from call
    n_calls + 1 on, counted over every grid it is built for."""
    real_kernel = mcf._kernel
    calls = itertools.count()

    def kernel(z, h, s):
        frhs = real_kernel(z, h, s)

        def broken(w):
            out = frhs(w)
            if next(calls) >= n_calls:
                out[1:-1] = np.nan
            return out
        return broken
    return kernel


def kernel_chatter(after, eps=1e-6):
    """A stand-in for mcf._kernel that adds +-eps to the interior rows, the
    sign flipping from call to call, from call after + 1 on."""
    real_kernel = mcf._kernel
    calls = itertools.count()

    def kernel(z, h, s):
        frhs = real_kernel(z, h, s)

        def chattering(w):
            out = frhs(w)
            n = next(calls)
            if n >= after:
                out[1:-1] += eps if n % 2 else -eps
            return out
        return chattering
    return kernel


def reference_kernel(z, h, s):
    """The kernel as an out-of-place formula: fresh arrays, one expression."""
    zhalf = 0.5 * z[1:-1]
    inv2h = 1.0 / (2.0 * h)
    invh2 = 1.0 / (h * h)

    def frhs(w):
        a, b, c = w[2:], w[:-2], w[1:-1]
        w_z = (a - b) * inv2h
        w_zz = (a - 2.0 * c + b) * invh2
        out = np.zeros_like(w)
        out[1:-1] = w_zz / (1.0 + w_z * w_z) + c * (2.0 * s + c) / (2.0 * (s + c)) - zhalf * w_z
        return out

    return frhs


def kernel_rhs(g):
    """Time derivative of the profile (zero at the ends), through mcf._kernel."""
    return mcf._kernel(g.z, g.h, g.spec.radius)(g.u)


def tridiagonal(diagonals):
    """The N x N matrix of (3, N) diagonals laid out as mcf._jacobian's: row 0
    holds the sub diagonal in columns 0 .. N-2, row 2 the super diagonal in
    columns 1 .. N-1, each entry in the column it multiplies."""
    return (np.diag(diagonals[0, :-1], -1) + np.diag(diagonals[1])
            + np.diag(diagonals[2, 1:], 1))


def central_differences(frhs, w, step):
    """d frhs/dw at w, column by column from central differences."""
    J = np.empty((w.size, w.size))
    e = np.zeros(w.size)
    for i in range(w.size):
        e[i] = step
        J[:, i] = (frhs(w + e) - frhs(w - e)) / (2.0 * step)
        e[i] = 0.0
    return J


def random_bumps(amplitude, z, rng):
    """An asymmetric start profile: four Gaussians with amplitude
    amplitude * U(-1, 1), centre U(-3, 3) and width U(0.8, 2.5), drawn in
    that order from rng."""
    u = np.zeros_like(z)
    for _ in range(4):
        a = amplitude * rng.uniform(-1.0, 1.0)
        c = rng.uniform(-3.0, 3.0)
        w = rng.uniform(0.8, 2.5)
        u += a * np.exp(-((z - c) ** 2) / w**2)
    return u


def random_graphs(n_points, count=2, R_dom=20.0, seed=7):
    rng = np.random.default_rng(seed)
    h = 2.0 * R_dom / (n_points - 1)
    return [CylinderGraph.from_profile(SPEC1, R_dom, h, lambda z: random_bumps(0.05, z, rng))
            for _ in range(count)]


class TestKernelBits:
    @pytest.mark.parametrize("n_points", [801, 2001])
    def test_rhs_matches_reference(self, n_points):
        g1, g2 = random_graphs(n_points)
        assert g1.z.size == n_points
        frhs = mcf._kernel(g1.z, g1.h, SPEC1.radius)
        ref = reference_kernel(g1.z, g1.h, SPEC1.radius)
        for g in (g1, g2, g1):  # one kernel, different inputs in turn
            out = frhs(g.u)
            assert out.tobytes() == ref(g.u).tobytes()
            assert out[[0, -1]].tobytes() == np.zeros(2).tobytes()  # +0.0, not -0.0

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_rhs_matches_reference_for_every_k(self, k):
        # the radial term reads s = sqrt(2k)
        (g,) = random_graphs(801, count=1)
        s = CylinderSpec(k).radius
        assert mcf._kernel(g.z, g.h, s)(g.u).tobytes() == reference_kernel(g.z, g.h, s)(g.u).tobytes()

    def test_each_call_returns_a_fresh_row(self):
        # scipy's BDF keeps f(t0) while it calls the kernel again, and fault
        # rows add into the row they get back: only the scratch is shared
        g1, g2 = random_graphs(801)
        frhs = mcf._kernel(g1.z, g1.h, SPEC1.radius)
        ref = reference_kernel(g1.z, g1.h, SPEC1.radius)
        first = frhs(g1.u)
        second = frhs(g2.u)
        assert second is not first and not np.shares_memory(first, second)
        second[1:-1] += 1.0
        assert first.tobytes() == ref(g1.u).tobytes()

    def test_kernels_on_one_grid_keep_their_own_scratch(self):
        g1, g2 = random_graphs(801)
        ref = reference_kernel(g1.z, g1.h, SPEC1.radius)
        kernels = [mcf._kernel(g1.z, g1.h, SPEC1.radius) for _ in range(2)]
        outs = [(w, frhs(w)) for w in (g1.u, g2.u, g2.u, g1.u) for frhs in kernels]
        for w, out in outs:
            assert out.tobytes() == ref(w).tobytes()

    @pytest.mark.parametrize("n_points", [801, 2001])
    def test_zero_row_maps_to_positive_zeros(self, n_points):
        # +0.0 in every entry, so the cylinder is an exact fixed point of the
        # scheme, while the scratch still holds the terms of a nonzero row
        (g,) = random_graphs(n_points, count=1)
        frhs = mcf._kernel(g.z, g.h, SPEC1.radius)
        frhs(g.u)
        assert frhs(np.zeros(n_points)).tobytes() == np.zeros(n_points).tobytes()


class TestRhs:
    def test_cylinder_is_exact_fixed_point(self):
        g = CylinderGraph.zero(SPEC1, 20.0, 0.05)
        assert np.max(np.abs(kernel_rhs(g))) == 0.0

    def test_cylinder_fixed_point_all_k(self):
        for k in (1, 2, 3):
            g = CylinderGraph.zero(CylinderSpec(k), 20.0, 0.1)
            assert np.max(np.abs(kernel_rhs(g))) == 0.0

    def test_tilt_mode_vanishes_at_center(self):
        # linear profile: second difference and the radial term vanish at z = 0,
        # and the drift term carries a factor z (the grid node sits at z = 0 up
        # to linspace rounding, so the residual is at roundoff scale)
        a = 0.05
        g = CylinderGraph.from_profile(SPEC1, 20.0, 0.1, lambda z: a * z)
        center = int(np.argmin(np.abs(g.z)))
        assert abs(g.z[center]) < 1e-13
        # grid nodes are not exact negatives of each other, and the second
        # difference amplifies that roundoff by 1/h^2
        assert abs(kernel_rhs(g)[center]) < 1e-12

    def test_matches_the_pde_to_second_order_in_h(self):
        # u = a exp(-z^2/2) has closed-form slopes, so r_t of the PDE
        # r_zz/(1 + r_z^2) - k/r + (r - z r_z)/2 is exact at every node; the
        # central differences are off by O(h^2)
        a, s = 0.05, SPEC1.radius
        errs = []
        for h in (0.1, 0.05):
            g = smooth_graph(a, h)
            z = g.z
            u = a * np.exp(-(z**2) / 2.0)
            u_z, u_zz = -z * u, (z**2 - 1.0) * u
            r = s + u
            exact = u_zz / (1.0 + u_z**2) - 1.0 / r + (r - z * u_z) / 2.0
            errs.append(float(np.max(np.abs(kernel_rhs(g) - exact)[1:-1])))
        assert errs[0] < 1e-3
        assert math.log2(errs[0] / errs[1]) > 1.9

    def test_boundary_rows_are_zero(self):
        r = kernel_rhs(smooth_graph())
        assert r[0] == 0.0 and r[-1] == 0.0


class TestKernelLinearisation:
    @staticmethod
    def jacobian(k, h=0.1, R_dom=20.0, eps=1e-9):
        """d frhs / du at u = 0 on the interior rows, column by column from
        central differences; the cubic term of the diffusion part moves the
        entries by about eps^2/h^4, 1e-14 here."""
        g = CylinderGraph.zero(CylinderSpec(k), R_dom, h)
        return central_differences(mcf._kernel(g.z, g.h, g.spec.radius), g.u, eps)[1:-1, 1:-1]

    @pytest.mark.parametrize("k", [1, 2])
    def test_top_eigenvalues_are_the_hermite_modes(self, k):
        # at u = 0 the flow linearises to w_zz - (z/2) w_z + w (the radial
        # term -k/r + r/2 has slope k/s^2 + 1/2 = 1 at r = s for every k),
        # whose Hermite eigenfunctions H_n have eigenvalues 1 - n/2; central
        # differences keep a polynomial's degree and leading coefficient, so
        # the grid operator has the same top eigenvalues up to the far ends.
        # A tridiagonal matrix whose off-diagonal pairs have positive products
        # is similar to the symmetric one with their geometric means, which a
        # symmetric solver handles without the nonsymmetric one's e^(z^2/8) scaling.
        # The spectrum is mcf._jacobian's at u = 0, checked against the
        # central differences of the kernel first (2.8e-14 apart)
        g = CylinderGraph.zero(CylinderSpec(k), 20.0, 0.1)
        J = tridiagonal(mcf._jacobian(g.z, g.h, g.spec.radius)(g.u))[1:-1, 1:-1]
        assert np.max(np.abs(J - self.jacobian(k))) < 1e-12
        top = self.spectrum(J)[::-1][:5]
        assert np.max(np.abs(top - [1.0, 0.5, 0.0, -0.5, -1.0])) < 1e-8

    @staticmethod
    def spectrum(J):
        """Eigenvalues of the tridiagonal J, in ascending order, through the
        symmetric matrix with the geometric means of its off-diagonal pairs."""
        lower, upper = np.diag(J, -1), np.diag(J, 1)
        assert np.array_equal(np.triu(J, 2), np.zeros_like(J))
        assert np.array_equal(np.tril(J, -2), np.zeros_like(J))
        assert np.all(lower * upper > 0.0)
        return scipy.linalg.eigvalsh_tridiagonal(np.diag(J).copy(), np.sqrt(lower * upper))


def jacobian_test_profile(name, k, n_points):
    """A start profile on R_dom = 20 with n_points nodes: four random bumps
    of amplitude 0.3, or a bundled config's start at radius sqrt(2k)."""
    h = 40.0 / (n_points - 1)
    if name == "bumps":
        rng = np.random.default_rng(11)
        return CylinderGraph.from_profile(CylinderSpec(k), 20.0, h,
                                          lambda z: random_bumps(0.3, z, rng))
    cfg = dataclasses.replace(harness.load_bundled_config(name), k=k, h=h)
    return cfg.initial_state().graph


class TestJacobian:
    @pytest.mark.parametrize("name", ["bumps", "fit.cfg", "sweep.cfg", "blowup.cfg", "zero.cfg"])
    @pytest.mark.parametrize("n_points", [801, 2001])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_central_differences_of_the_kernel(self, k, n_points, name):
        # every entry of the dense difference quotient, the ones outside the
        # band included, agrees with the three diagonals.  The quotient's
        # rounding, about eps max|w| / (h^2 step), sets the error: 5.3e-10 of
        # the largest entry on the bumps, 3e-11 or less on the bundled starts
        g = jacobian_test_profile(name, k, n_points)
        s = g.spec.radius
        J = mcf._jacobian(g.z, g.h, s)(g.u)
        assert J.shape == (3, n_points)
        error = central_differences(mcf._kernel(g.z, g.h, s), g.u, 1e-7)
        rows = np.arange(n_points)
        error[rows[1:], rows[:-1]] -= J[0, :-1]
        error[rows, rows] -= J[1]
        error[rows[:-1], rows[1:]] -= J[2, 1:]
        assert np.max(np.abs(error)) < 1e-8 * np.max(np.abs(J))
        # the pinned rows and the two slots outside the matrix are exactly 0
        assert not J[[1, 2, 0, 1, 0, 2], [0, 1, -2, -1, -1, 0]].any()


class TestStep:
    def test_zero_profile_stays_zero(self):
        # frhs(0) is exactly 0, so every Newton iterate of the solver, every
        # accepted step and every interpolated mark stay exactly 0, on coarse
        # and fine grids and loose and tight tolerances
        for h, dt_max in [(0.1, 2e-3), (0.02, 1e-3), (0.01, 1e-4)]:
            g = CylinderGraph.zero(SPEC1, 2.0, h)
            hist = mcf.evolve(mcf.FlowState(g, 0.0), 3.0, mcf.FlowControls(dt_max=dt_max))
            assert hist.diag_t.size > 3 and hist.diag_t[-1] == 3.0
            assert hist.diag_max_u.tolist() == [0.0] * hist.diag_t.size
            assert [p.tobytes() for p in hist.profiles] == [np.zeros_like(g.u).tobytes()] * 4

    def test_area_does_not_increase(self):
        g = smooth_graph(0.02)
        hist = mcf.evolve(mcf.FlowState(g, 0.0), 2.0, mcf.FlowControls())
        assert hist.mark_F[0] == graph_F(g.spec, g.z, g.u)
        assert np.all(np.diff(hist.mark_F) <= 1e-8)

    def test_interpolated_marks_match_a_run_ending_there(self):
        # the mark at t = 2 of a run to 4 comes from the interpolant of the
        # step across it; a run to 2 lands its last step there.  They agree
        # to the tolerance's scale, not to the bit
        cfg = coarse_config(amplitude=0.02)
        long = mcf.evolve(cfg.initial_state(), 4.0, cfg.controls())
        short = mcf.evolve(cfg.initial_state(), 2.0, cfg.controls())
        assert 2.0 not in long.diag_t.tolist() and short.diag_t[-1] == 2.0
        assert np.max(np.abs(long.profiles[2] - short.profiles[2])) < 1e-8

    @pytest.mark.parametrize("mark", [1, 3])
    def test_every_interpolated_mark_matches_a_run_ending_there(self, mark):
        cfg = coarse_config(amplitude=0.02)
        long = mcf.evolve(cfg.initial_state(), 4.0, cfg.controls())
        short = mcf.evolve(cfg.initial_state(), float(mark), cfg.controls())
        assert float(mark) not in long.diag_t.tolist() and short.diag_t[-1] == mark
        assert np.max(np.abs(long.profiles[mark] - short.profiles[mark])) < 1e-8

    @pytest.mark.parametrize("dt_max", [8e-3, 4e-3, 2e-3])
    def test_halving_dt_max_refines_in_time(self, dt_max, time_reference):
        # rtol falls fourfold per halving; the marks' error falls at least twofold
        cfg, reference = time_reference

        def error(dt):
            hist = mcf.evolve(cfg.initial_state(), float(cfg.t2), mcf.FlowControls(dt_max=dt))
            return float(np.max(np.abs(np.array(hist.profiles) - reference)))

        coarse, fine = error(dt_max), error(dt_max / 2.0)
        assert 0.0 < fine < coarse / 2.0

    @pytest.mark.parametrize("kind", ["gauss", "balanced_gauss"])
    def test_even_profile_stays_even(self, kind):
        # the grid is symmetric up to linspace rounding (7e-15 at the ends)
        cfg = coarse_config(profile_kind=kind, amplitude=0.05, t2=3)
        hist = mcf.evolve(cfg.initial_state(), 3.0, cfg.controls())
        profiles = np.array(hist.profiles)
        assert np.max(np.abs(profiles)) > 0.03
        assert np.max(np.abs(profiles - profiles[:, ::-1])) < 1e-13

    @pytest.mark.parametrize("seed", [1, 2])
    def test_flow_commutes_with_reflection(self, seed):
        # the run from u(-z) is the mirror image of the run from u(z)
        cfg = coarse_config(t2=3)
        g = CylinderGraph.from_profile(SPEC1, cfg.R_dom, cfg.h,
                                       lambda z: random_bumps(0.05, z, np.random.default_rng(seed)))
        mirrored = CylinderGraph(g.spec, g.z, g.u[::-1].copy())
        hist = mcf.evolve(mcf.FlowState(g, 0.0), 3.0, cfg.controls())
        mirror = mcf.evolve(mcf.FlowState(mirrored, 0.0), 3.0, cfg.controls())
        assert not np.allclose(g.u, mirrored.u)
        assert np.max(np.abs(np.array(hist.profiles) - np.array(mirror.profiles)[:, ::-1])) < 1e-13

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_area_does_not_increase_for_every_k(self, k):
        cfg = coarse_config(k=k, amplitude=0.02, t2=4)
        hist = mcf.evolve(cfg.initial_state(), 4.0, cfg.controls())
        assert hist.stop_reason == "completed" and hist.n_marks == 5
        assert np.all(np.diff(hist.mark_F) <= 1e-8)
        assert hist.mark_F[-1] < hist.mark_F[0]


@pytest.fixture(scope="module")
def time_reference():
    """A coarse run to t = 3 and its marks at dt_max = 2.5e-4 (rtol 6.25e-10),
    the reference of the time refinement tests."""
    cfg = coarse_config(amplitude=0.02, t2=3)
    hist = mcf.evolve(cfg.initial_state(), 3.0, mcf.FlowControls(dt_max=2.5e-4))
    return cfg, np.array(hist.profiles)


class TestEvolve:
    def test_zero_data_constant_area(self):
        cfg = coarse_config(amplitude=0.0, profile_kind="zero", t2=10)
        hist = mcf.evolve(cfg.initial_state(), t_end=10.0, controls=cfg.controls())
        F_cyl = SPEC1.F_value
        assert np.max(np.abs(hist.mark_F - F_cyl)) <= 1e-8
        assert np.max(hist.mark_max_u) == 0.0
        assert hist.stop_reason == "completed"

    def test_unit_marks_are_consecutive_integers(self):
        cfg = coarse_config(t2=5)
        hist = mcf.evolve(cfg.initial_state(), t_end=5.0, controls=cfg.controls())
        assert np.array_equal(hist.mark_times, np.arange(6.0))

    def test_marks_count_up_from_a_nonzero_start(self):
        # close_experiment reads the mark at t1 + j as index t1 - mark_times[0] + j
        cfg = coarse_config()
        state = mcf.FlowState(cfg.initial_state().graph, 3.0)
        hist = mcf.evolve(state, t_end=7.0, controls=cfg.controls())
        assert np.array_equal(hist.mark_times, np.arange(3.0, 8.0))
        assert len(hist.profiles) == hist.mark_F.size == hist.n_marks == 5

    def test_marks_survive_time_drift(self):
        # from t = 8 the zero profile's steps grow tenfold, so one crosses
        # t = 9 (an interpolated mark) and the last lands on t = 10
        state = mcf.FlowState(CylinderGraph.zero(SPEC1, R_dom=2.0, h=0.05), 8.0)
        hist = mcf.evolve(state, t_end=10.0,
                          controls=mcf.FlowControls(dt_max=1.6e-4))
        assert np.array_equal(hist.mark_times, [8.0, 9.0, 10.0])
        assert hist.t_final == 10.0

    def test_small_bump_area_decreases_toward_limit(self):
        cfg = coarse_config(amplitude=0.01, t2=6)
        hist = mcf.evolve(cfg.initial_state(), t_end=6.0, controls=cfg.controls())
        F_cyl = SPEC1.F_value
        assert np.all(np.diff(hist.mark_F) < 0.0)  # strictly decreasing
        gaps = np.abs(hist.mark_F - F_cyl)
        positive = hist.mark_F - F_cyl > 0
        # while above the cylinder value, the gap itself shrinks
        assert np.all(np.diff(gaps[positive]) < 0.0)

    def test_large_amplitude_trips_stop_condition(self, monkeypatch):
        cfg = coarse_config(amplitude=0.3, profile_kind="gauss", t2=8)
        monkeypatch.setattr(mcf.FlowControls, "stop_max_abs_u", 0.5)
        hist = mcf.evolve(cfg.initial_state(), t_end=8.0, controls=cfg.controls())
        assert hist.stop_reason == "max_abs_u"
        assert hist.t_final < 8.0

    def test_spatial_convergence_order(self):
        vals = {}
        for h in (0.4, 0.2, 0.1):
            cfg = coarse_config(h=h, amplitude=0.05, t2=2, dt_max=5e-4)
            hist = mcf.evolve(cfg.initial_state(), t_end=2.0, controls=cfg.controls())
            vals[h] = hist.mark_F[-1]
        order = math.log2(abs((vals[0.4] - vals[0.1]) / (vals[0.2] - vals[0.1])) - 1.0)
        assert order >= 1.8

    def test_zero_step_cap_rejected(self):
        with pytest.raises(InvalidInputError):
            mcf.evolve(mcf.FlowState(smooth_graph(), 0.0), 2.0, mcf.FlowControls(dt_max=0.0))

    def test_tolerance_below_the_solvers_floor_rejected(self):
        # dt_max = 1e-7 asks for rtol 1e-16, which scipy would raise with a warning
        with pytest.raises(InvalidInputError, match="the solver's floor"):
            mcf.evolve(mcf.FlowState(smooth_graph(), 0.0), 1.0, mcf.FlowControls(dt_max=1e-7))

    def test_dt_max_whose_rtol_overflows_rejected(self):
        # 1e-2 dt_max^2 overflows a float from dt_max = 1.35e154 on
        with pytest.raises(InvalidInputError, match="beyond the float range"):
            mcf.evolve(mcf.FlowState(smooth_graph(), 0.0), 1.0, mcf.FlowControls(dt_max=1e200))

    def test_tolerance_at_the_solvers_floor_accepted(self):
        # dt_max = 1.5e-6 asks for rtol 2.25e-14, just above RTOL_MIN; scipy
        # takes it as it is, without a warning
        assert mcf.FlowControls(dt_max=1.5e-6).tolerances()[0] >= mcf.RTOL_MIN
        g = CylinderGraph.zero(SPEC1, 0.5, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hist = mcf.evolve(mcf.FlowState(g, 0.0), 1.0, mcf.FlowControls(dt_max=1.5e-6))
        assert hist.t_final == 1.0

    @pytest.mark.parametrize("extra_steps, refused", [(0, False), (1, True)])
    def test_max_steps_is_the_last_span_accepted(self, extra_steps, refused):
        # dt_max = 2^-14 and t_end = (MAX_STEPS + extra_steps) dt_max are exact floats
        dt_max = 2.0**-14
        t_end = (mcf.MAX_STEPS + extra_steps) * dt_max
        state = mcf.FlowState(CylinderGraph.zero(SPEC1, 0.5, 0.05), 0.0)
        if refused:
            with pytest.raises(InvalidInputError, match="MAX_STEPS"):
                mcf.evolve(state, t_end, mcf.FlowControls(dt_max=dt_max))
        else:
            hist = mcf.evolve(state, t_end, mcf.FlowControls(dt_max=dt_max))
            assert hist.t_final == t_end and hist.n_marks == math.floor(t_end) + 1

    @pytest.mark.parametrize("t_end", [3.0, 2.0])
    def test_t_end_not_after_the_start_rejected(self, t_end):
        with pytest.raises(InvalidInputError, match="t_end must exceed"):
            mcf.evolve(mcf.FlowState(smooth_graph(), 3.0), t_end, mcf.FlowControls())

    def test_start_on_the_stop_threshold_runs(self):
        # the stop condition is max |u| > stop_max_abs_u, so a start of exactly 1 runs
        g = CylinderGraph.from_profile(SPEC1, 2.0, 0.1, lambda z: np.exp(-(z**2)))
        assert np.max(np.abs(g.u)) == mcf.FlowControls.stop_max_abs_u
        hist = mcf.evolve(mcf.FlowState(g, 0.0), 1.0, mcf.FlowControls())
        assert hist.diag_t.size > 0 and hist.mark_max_u[0] == 1.0

    def test_start_above_the_stop_threshold_refused(self):
        g = CylinderGraph.from_profile(SPEC1, 2.0, 0.1, lambda z: 1.0000001 * np.exp(-(z**2)))
        with pytest.raises(PreconditionError, match="exceeds the stop condition"):
            mcf.evolve(mcf.FlowState(g, 0.0), 1.0, mcf.FlowControls())

    @pytest.mark.parametrize("stop", [0.35, 0.5, 0.8])
    def test_stops_after_the_first_step_above_the_threshold(self, stop, monkeypatch):
        monkeypatch.setattr(mcf.FlowControls, "stop_max_abs_u", stop)
        cfg = coarse_config(amplitude=0.3, profile_kind="gauss", t2=8)
        hist = mcf.evolve(cfg.initial_state(), 8.0, cfg.controls())
        assert hist.stop_reason == "max_abs_u" and hist.t_final == hist.diag_t[-1]
        assert np.all(hist.diag_max_u[:-1] <= stop) and hist.diag_max_u[-1] > stop
        assert np.array_equal(hist.mark_times, np.arange(math.floor(hist.t_final) + 1.0))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_leaving_the_graph_regime_raises(self, k, monkeypatch):
        # a stand-in flow u_t = -1 reaches r = 0 at t = s = sqrt(2k); BDF
        # follows it exactly and lands each run on its t_end
        def sinking(z, h, s):
            return lambda w: np.concatenate([[0.0], np.full(w.size - 2, -1.0), [0.0]])

        monkeypatch.setattr(mcf, "_kernel", sinking)
        monkeypatch.setattr(mcf.FlowControls, "stop_max_abs_u", math.inf)
        spec = CylinderSpec(k)
        state = mcf.FlowState(CylinderGraph.zero(spec, 2.0, 0.1), 0.0)
        hist = mcf.evolve(state, spec.radius - 0.01, mcf.FlowControls())
        assert hist.diag_max_u[-1] == pytest.approx(spec.radius - 0.01, rel=1e-12)
        with pytest.raises(PreconditionError, match="r <= 0"):
            mcf.evolve(state, spec.radius + 0.01, mcf.FlowControls())

    def test_non_integer_start_rejected(self):
        with pytest.raises(InvalidInputError):
            mcf.evolve(mcf.FlowState(smooth_graph(), 0.5), 2.0, mcf.FlowControls())

    def test_counts_are_the_solvers(self, monkeypatch):
        # n_rhs, njev and nlu are BDF's nfev, njev and nlu; the Jacobian is
        # analytic, so n_rhs counts every kernel call of the run
        calls = itertools.count()
        real = mcf._kernel

        def counting(z, h, s):
            frhs = real(z, h, s)

            def counted(w):
                next(calls)
                return frhs(w)
            return counted

        monkeypatch.setattr(mcf, "_kernel", counting)
        cfg = coarse_config()
        hist = mcf.evolve(cfg.initial_state(), 8.0, cfg.controls())
        assert hist.diag_t.size == 309 and (hist.n_rhs, hist.njev, hist.nlu) == (620, 1, 56)
        assert next(calls) == hist.n_rhs

    def test_non_finite_stage_raises_with_the_last_accepted_state(self, monkeypatch):
        # the kernel turns NaN on its 101st call: the run stops inside the
        # step after t = 0.177 with that step's start, a step of the clean run
        cfg = coarse_config(t2=2)
        clean = mcf.evolve(cfg.initial_state(), 2.0, cfg.controls())
        monkeypatch.setattr(mcf, "_kernel", kernel_nan_after(100))
        with pytest.raises(IntegrationError, match=r"non-finite right-hand side after t=0\.177") as exc:
            mcf.evolve(cfg.initial_state(), 2.0, cfg.controls())
        state = exc.value.last_state
        assert state.t in clean.diag_t.tolist()
        assert np.all(np.isfinite(state.graph.u))
        assert not np.array_equal(state.graph.u, cfg.initial_state().graph.u)

    def test_failed_step_raises_with_the_last_accepted_state(self, monkeypatch):
        # a right-hand side that flips sign from call to call from its 195th
        # on has no flow to follow: the solver halves its step below the
        # spacing of floats near t and fails inside the step after t = 0.716
        cfg = coarse_config(t2=2)
        clean = mcf.evolve(cfg.initial_state(), 2.0, cfg.controls())
        monkeypatch.setattr(mcf, "_kernel", kernel_chatter(after=194))
        failed = r"step failed after t=0\.716.*less than spacing"
        with pytest.raises(IntegrationError, match=failed) as exc:
            mcf.evolve(cfg.initial_state(), 2.0, cfg.controls())
        assert exc.value.last_state.t in clean.diag_t.tolist()

    def test_nan_at_the_first_call_carries_the_start(self, monkeypatch):
        # the solver evaluates the right-hand side once before its first step
        cfg = coarse_config(t2=2)
        monkeypatch.setattr(mcf, "_kernel", kernel_nan_after(0))
        with pytest.raises(IntegrationError, match=r"non-finite right-hand side after t=0\.0") as exc:
            mcf.evolve(cfg.initial_state(), 2.0, cfg.controls())
        state = exc.value.last_state
        assert state.t == 0.0
        assert np.array_equal(state.graph.u, cfg.initial_state().graph.u)

    def test_step_budget_ends_a_run_that_needs_more_steps(self, monkeypatch):
        # STARTUP_STEPS = 10 and dt_max = 0.5 over two time units: a budget of
        # 14 steps, where the clean run takes 68; it stops at its 14th step
        cfg = coarse_config(t2=2)
        clean = mcf.evolve(cfg.initial_state(), 2.0, mcf.FlowControls(dt_max=0.5))
        assert clean.diag_t.size > 14
        monkeypatch.setattr(mcf, "STARTUP_STEPS", 10)
        with pytest.raises(IntegrationError, match=r"gave up at t=\S+ after 14 steps") as exc:
            mcf.evolve(cfg.initial_state(), 2.0, mcf.FlowControls(dt_max=0.5))
        assert exc.value.last_state.t == clean.diag_t[13]

    def test_collapsing_step_ends_the_run_at_once(self, monkeypatch):
        # a right-hand side that flips sign from the first call on sends the
        # steps toward t = 0, below scipy's floor of 10 ulp of t; the first
        # accepted step is already under 10 ulp of 1
        monkeypatch.setattr(mcf, "_kernel", kernel_chatter(after=0))
        cfg = coarse_config(t2=2)
        collapsed = r"step collapsed to \S+ at t=\S+ \(dt_max 0\.5\)"
        with pytest.raises(IntegrationError, match=collapsed) as exc:
            mcf.evolve(cfg.initial_state(), 2.0, mcf.FlowControls(dt_max=0.5))
        assert 0.0 < exc.value.last_state.t < 1e-100

    def test_tighter_tolerance_takes_more_steps(self):
        cfg = coarse_config(t2=3)
        loose = mcf.evolve(cfg.initial_state(), 3.0, mcf.FlowControls(dt_max=2e-3))
        tight = mcf.evolve(cfg.initial_state(), 3.0, mcf.FlowControls(dt_max=1e-3))
        assert loose.diag_t.size < tight.diag_t.size and loose.n_rhs < tight.n_rhs
        assert tight.diag_t.size < 3.0 / 1e-3 / 10  # far fewer than steps of dt_max

    def test_mark_max_u_is_each_profiles_sup(self, sweep_run):
        # the profiles are one float64 array with a row per mark
        _, hist = sweep_run
        assert hist.profiles.shape == (hist.n_marks, hist.z.size) == (10, 801)
        assert hist.profiles.dtype == np.float64
        assert hist.mark_max_u.tolist() == [float(np.max(np.abs(p))) for p in hist.profiles]
        assert hist.mark_max_u[-1] == hist.diag_max_u[-1]  # the last step lands on t_end

    def test_mark_F_is_graph_F_of_each_row(self, sweep_run):
        # one graph_F over the stacked marks gives the bits of one call per row
        _, hist = sweep_run
        per_row = [graph_F(hist.spec, hist.z, p) for p in hist.profiles]
        assert hist.mark_F.tobytes() == np.array(per_row).tobytes()

    def test_profiles_are_pinned_at_both_ends(self, fit_run):
        # the solver leaves rounding at z = -R_dom (3.75e-49 at t = 1 on
        # fit.cfg); every stored row holds +0.0 at both ends
        _, hist = fit_run
        assert hist.profiles[:, [0, -1]].tobytes() == np.zeros((hist.n_marks, 2)).tobytes()

    def test_fit_config_counts(self, fit_run):
        # 272 steps where steps of dt_max would be 8,000; the Jacobian is
        # estimated once and refactored as the step and order change
        cfg, hist = fit_run
        assert hist.diag_t.size == 272
        assert (hist.n_rhs, hist.njev, hist.nlu) == (546, 1, 50)
        assert hist.diag_dt.max() > 90 * cfg.dt_max

    def test_diagnostics_are_float64(self):
        # one entry per accepted step; t grows by dt and ends on t_end, and
        # diag_err stays empty
        cfg = coarse_config(t2=2)
        hist = mcf.evolve(cfg.initial_state(), 2.0, cfg.controls())
        n = hist.diag_t.size
        assert n > 50
        for arr in (hist.diag_t, hist.diag_dt, hist.diag_max_u):
            assert arr.dtype == np.float64 and arr.shape == (n,)
        assert hist.diag_err.dtype == np.float64 and hist.diag_err.shape == (0,)
        t_before = np.concatenate([[0.0], hist.diag_t[:-1]])
        assert np.allclose(t_before + hist.diag_dt, hist.diag_t, rtol=1e-15, atol=0.0)
        assert np.all(hist.diag_dt > 0.0) and hist.diag_t[-1] == 2.0
        assert np.all(hist.diag_max_u > 0.0)

    def test_run_beyond_max_steps_refused_up_front(self):
        # t = 10^9 spans 10^12 steps of dt_max = 1e-3, beyond MAX_STEPS: the
        # run is refused before the solver starts
        g = CylinderGraph.zero(SPEC1, 0.5, 0.05)
        with pytest.raises(InvalidInputError, match="MAX_STEPS"):
            mcf.evolve(mcf.FlowState(g, 0.0), 1e9, mcf.FlowControls())


@pytest.fixture(scope="module")
def fit_run():
    """The bundled fit.cfg run: marks 0..8 on 801 grid points."""
    cfg = harness.load_bundled_config("fit.cfg")
    return cfg, mcf.evolve(cfg.initial_state(), float(cfg.t2), cfg.controls())


@pytest.fixture(scope="module")
def sweep_run():
    """The bundled sweep.cfg run: marks 0..9 on 801 grid points."""
    cfg = harness.load_bundled_config("sweep.cfg")
    return cfg, mcf.evolve(cfg.initial_state(), float(cfg.t2), cfg.controls())


def coarse_bundled(name):
    """A bundled config at h = 0.1 and 8 dt_max, as the fault table runs it."""
    cfg = harness.load_bundled_config(name)
    return dataclasses.replace(cfg, h=0.1, dt_max=8.0 * cfg.dt_max)


def superlu_reference(cfg):
    """cfg's run by plain scipy.integrate.BDF, whose Newton matrix goes to
    SuperLU: the accepted step times, the profiles at the unit marks (from the
    interpolant of the step that reaches each) and the solver's (nfev, njev,
    nlu)."""
    g = cfg.initial_state().graph
    frhs = mcf._kernel(g.z, g.h, g.spec.radius)
    rtol, atol = cfg.controls().tolerances()
    band = sparse.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(g.u.size, g.u.size))
    solver = BDF(lambda t, w: frhs(w), 0.0, g.u.copy(), float(cfg.t2), rtol=rtol, atol=atol,
                 jac_sparsity=band)
    times, marks = [], [g.u]
    while solver.status == "running":
        solver.step()
        times.append(solver.t)
        while len(marks) <= solver.t:
            marks.append(solver.dense_output()(float(len(marks))))
    return np.array(times), np.array(marks), (solver.nfev, solver.njev, solver.nlu)


class TestTridiagonalNewtonSolve:
    @pytest.mark.parametrize("name", ["fit.cfg", "sweep.cfg"])
    def test_matches_scipys_superlu_run(self, name):
        # the analytic Jacobian and LAPACK factorisation take the same steps
        # as scipy's numerical Jacobian and SuperLU: equal counts, step times
        # within 1e-7 (the error estimate is a difference of nearly equal
        # profiles, so rounding moves dt in its 8th digit) and mark profiles
        # within 1e-13
        cfg = coarse_bundled(name)
        hist = mcf.evolve(cfg.initial_state(), float(cfg.t2), cfg.controls())
        times, marks, counts = superlu_reference(cfg)
        assert (hist.n_rhs, hist.njev, hist.nlu) == counts
        assert hist.diag_t.shape == times.shape
        assert np.max(np.abs(hist.diag_t - times)) < 1e-7
        assert hist.profiles.shape == marks.shape
        assert np.max(np.abs(hist.profiles - marks)) < 1e-13

    def test_evolve_never_calls_superlu(self, monkeypatch):
        # with scipy's splu and its numerical Jacobian refusing, the run
        # completes, and every factorisation nlu counts is one gttrf call
        def refuse(*_):
            raise AssertionError("evolve called SuperLU or num_jac")

        gttrf = scipy.linalg.lapack.dgttrf
        calls = itertools.count()

        def counted(*args):
            next(calls)
            return gttrf(*args)

        monkeypatch.setattr(scipy.integrate._ivp.bdf, "splu", refuse)
        monkeypatch.setattr(scipy.integrate._ivp.bdf, "num_jac", refuse)
        monkeypatch.setattr(scipy.linalg.lapack, "dgttrf", counted)
        cfg = coarse_config(t2=3)
        hist = mcf.evolve(cfg.initial_state(), 3.0, cfg.controls())
        assert hist.stop_reason == "completed" and hist.t_final == 3.0
        assert hist.nlu > 0 and next(calls) == hist.nlu

    def test_factors_solve_the_tridiagonal_system(self):
        rng = np.random.default_rng(3)
        n = 9
        A = np.zeros((3, n))
        A[0, :-1] = rng.uniform(-1, 1, n - 1)
        A[1] = rng.uniform(3, 4, n)
        A[2, 1:] = rng.uniform(-1, 1, n - 1)
        b = rng.uniform(-1, 1, n)
        x = scipy.linalg.lapack.dgttrs(*mcf._tridiagonal_lu(A, None), b)[0]
        assert np.max(np.abs(tridiagonal(A) @ x - b)) < 1e-14

    def test_zero_pivot_raises_with_the_last_state(self):
        # the middle column is zero (so is the middle column of its
        # diagonals), so gttrf meets a zero pivot in row 3
        state = mcf.FlowState(smooth_graph(), 1.0)
        A = np.array([[1.0, 1.0, 0.0, 1.0, 0.0],
                      [2.0, 2.0, 0.0, 2.0, 2.0],
                      [0.0, 1.0, 0.0, 1.0, 1.0]])
        with pytest.raises(IntegrationError, match=r"zero pivot in row 3\) after t=1\.0") as exc:
            mcf._tridiagonal_lu(A, lambda: state)
        assert exc.value.last_state is state and exc.value.exit_code == 3

    def test_singular_newton_matrix_ends_the_run_with_the_last_accepted_state(self, monkeypatch):
        # from the 6th factorisation on gttrf sees an all-zero first column
        # (a singular Newton matrix); the run stops with a step of the clean run
        cfg = coarse_config(t2=2)
        clean = mcf.evolve(cfg.initial_state(), 2.0, cfg.controls())
        gttrf = scipy.linalg.lapack.dgttrf
        calls = itertools.count()

        def singular_after_five(dl, d, du):
            if next(calls) >= 5:
                dl, d = np.zeros_like(dl), np.zeros_like(d)
            return gttrf(dl, d, du)

        monkeypatch.setattr(scipy.linalg.lapack, "dgttrf", singular_after_five)
        with pytest.raises(IntegrationError, match="singular Newton matrix") as exc:
            mcf.evolve(cfg.initial_state(), 2.0, cfg.controls())
        assert exc.value.last_state.t in clean.diag_t.tolist()
        assert np.all(np.isfinite(exc.value.last_state.graph.u))


SWEEP_GATE = 5e-8  # max |u - u_ref| over the marks of sweep.cfg at a = 0.02


@pytest.fixture(scope="module")
def sweep_reference():
    """sweep.cfg at a = 0.02 and the run's profiles at dt_max/4 (rtol / 16,
    6.1e-10 from a run at dt_max/20), the reference of SWEEP_GATE."""
    cfg = dataclasses.replace(harness.load_bundled_config("sweep.cfg"), amplitude=0.02)
    fine = dataclasses.replace(cfg, dt_max=cfg.dt_max / 4.0)
    hist = mcf.evolve(fine.initial_state(), float(fine.t2), fine.controls())
    return cfg, np.array(hist.profiles)


def sweep_deviation(cfg, reference):
    hist = mcf.evolve(cfg.initial_state(), float(cfg.t2), cfg.controls())
    return float(np.max(np.abs(np.array(hist.profiles) - reference)))


class TestSweepReference:
    def test_marks_stay_near_fine_reference(self, sweep_reference):
        # BDF at dt_max = 1e-3 (rtol 1e-8) is 6.7e-9 from the reference
        assert sweep_deviation(*sweep_reference) < SWEEP_GATE

    def test_loosened_tolerance_trips_gate(self, sweep_reference, monkeypatch):
        # both tolerances times 1e4 (rtol 1e-4): 1.4e-5 off
        real = mcf.FlowControls.tolerances
        monkeypatch.setattr(mcf.FlowControls, "tolerances",
                            lambda self: tuple(1e4 * tol for tol in real(self)))
        assert sweep_deviation(*sweep_reference) > SWEEP_GATE


class TestLojasiewiczFit:
    def test_flat_flow_returns_grid_minimum(self):
        cfg = coarse_config(amplitude=0.0, profile_kind="zero", t2=8)
        hist = mcf.evolve(cfg.initial_state(), t_end=8.0, controls=cfg.controls())
        fit = mcf.lojasiewicz_fit(hist, R=6.0, eps=0.5)
        assert fit.tau_fit == 0.05
        assert fit.C_fit == 1.0
        assert np.allclose(fit.residuals, 0.0)

    def test_decaying_run_feasible(self):
        cfg = coarse_config(amplitude=0.005, t2=8)
        hist = mcf.evolve(cfg.initial_state(), t_end=8.0, controls=cfg.controls())
        fit = mcf.lojasiewicz_fit(hist, R=6.0, eps=0.5)
        assert fit.n_windows >= 5
        assert np.min(fit.residuals) >= 0.0

    def test_unreachable_cap_falls_back_to_the_smallest_C(self):
        # |F - F_cyl| < 1, so the needed C falls as tau grows: with the cap
        # out of reach the fit takes the grid's argmin, tau = 0.99, not its
        # first entry, which the default cap accepts
        cfg = coarse_config(amplitude=0.005, t2=8)
        hist = mcf.evolve(cfg.initial_state(), t_end=8.0, controls=cfg.controls())
        grid = np.array([0.5, 0.99, 0.2])
        fit = mcf.lojasiewicz_fit(hist, R=6.0, eps=0.5, tau_grid=grid)
        assert fit.cap_reached and fit.tau_fit == 0.5
        fit = mcf.lojasiewicz_fit(hist, R=6.0, eps=0.5, tau_grid=grid, max_C=1e-9)
        assert not fit.cap_reached
        assert fit.tau_fit == 0.99
        assert fit.C_fit == 1.0 and np.min(fit.residuals) >= 0.0

    def test_insufficient_windows(self):
        cfg = coarse_config(t2=3)
        hist = mcf.evolve(cfg.initial_state(), t_end=3.0, controls=cfg.controls())
        with pytest.raises(InsufficientDataError):
            mcf.lojasiewicz_fit(hist, R=6.0, eps=0.5)

    def test_stalled_window_is_insufficient_data(self, coarse_run):
        cfg, hist = stalled(coarse_run)
        no_drop = "^the window at t=3 has a gap but no area drop"
        with pytest.raises(InsufficientDataError, match=no_drop):
            mcf.lojasiewicz_fit(hist, R=cfg.R1, eps=cfg.eps1)

    def test_window_admissibility_respects_eps(self):
        cfg = coarse_config(amplitude=0.01, t2=8)
        hist = mcf.evolve(cfg.initial_state(), t_end=8.0, controls=cfg.controls())
        with pytest.raises(InsufficientDataError):
            mcf.lojasiewicz_fit(hist, R=6.0, eps=1e-9)

    def test_windows_are_the_marks_whose_neighbours_are_close_too(self, coarse_run, monkeypatch):
        # the mark 4 far from the cylinder rules out the windows at 3, 4 and
        # 5, as the loop over the marks says
        _, hist = coarse_run
        far = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        monkeypatch.setattr(mcf.FlowHistory, "dist", lambda self, R: far)
        ok = far < 0.5
        loop = [hist.mark_times[i] for i in range(1, hist.n_marks - 1)
                if ok[i - 1] and ok[i] and ok[i + 1]]
        fit = mcf.lojasiewicz_fit(hist, R=6.0, eps=0.5)
        assert fit.window_times.tolist() == loop == [1.0, 2.0, 6.0, 7.0, 8.0]


class TestCloseExperiment:
    def test_zero_data_trivial_bound(self):
        cfg = coarse_config(amplitude=0.0, profile_kind="zero", t2=8)
        rep = evolve_and_close(cfg)
        assert rep.hypotheses_ok
        assert rep.delta_F1 == pytest.approx(0.0, abs=1e-12)
        assert rep.max_dist_to_ref == 0.0
        assert rep.bound_holds
        assert rep.bound_value == pytest.approx(0.0, abs=1e-9)

    def test_small_bump_certifies(self):
        cfg = coarse_config(amplitude=0.01, t2=9)
        rep = evolve_and_close(cfg)
        assert rep.hypotheses_ok
        assert rep.certified
        assert rep.bound_holds
        assert rep.fit is not None and rep.fit.tau_in_range
        assert rep.c is not None and rep.alpha is not None

    def test_amplitude_sweep_trend(self):
        peaks, gaps = [], []
        for amp in (0.02, 0.01, 0.005):
            rep = evolve_and_close(coarse_config(amplitude=amp, t2=9))
            assert rep.bound_holds and rep.certified
            peaks.append(rep.max_dist_to_ref)
            gaps.append(abs(rep.delta_F1))
        assert gaps[0] > gaps[1] > gaps[2]
        assert peaks[0] >= peaks[1] >= peaks[2]

    def test_large_amplitude_reports_hypothesis_failure(self, monkeypatch):
        cfg = coarse_config(amplitude=0.3, profile_kind="gauss", t2=8)
        monkeypatch.setattr(mcf.FlowControls, "stop_max_abs_u", 0.5)
        rep = evolve_and_close(cfg)
        assert not rep.hypotheses_ok
        assert not rep.completed
        assert rep.failure_reason is not None
        assert rep.stop_reason == "max_abs_u"

    def test_certifier_violation_uncertifies(self, monkeypatch):
        real = sq.certify_part
        monkeypatch.setattr(sq, "certify_part", lambda values, consts: dataclasses.replace(
            real(values, consts), hypothesis_ok=False))
        rep = evolve_and_close(coarse_config(amplitude=0.01, t2=9))
        assert rep.hypotheses_ok and rep.fit is not None
        assert not rep.certified
        assert [p["hypothesis_ok"] for p in rep.parts] == [False, False]

    def test_reuses_precomputed_history(self):
        # the report is a function of the config and the history alone: a
        # second run of the same config gives the same report
        cfg = coarse_config(amplitude=0.005, t2=9)
        hist = mcf.evolve(cfg.initial_state(), t_end=float(cfg.t2), controls=cfg.controls())
        rep1 = mcf.close_experiment(cfg, hist=hist)
        assert harness.jsonable(evolve_and_close(cfg)) == harness.jsonable(rep1)

    def test_distances_are_dist_R_of_each_profile(self, sweep_run):
        # one pass over the marks gives the bits of one dist_R per profile, and
        # the report's fit equals a later fit on the same history
        cfg, hist = sweep_run
        for R in (cfg.R1, cfg.R2):
            per_profile = [dist_R(hist.z, u, R) for u in hist.profiles]
            assert hist.dist(R).tobytes() == np.array(per_profile).tobytes()
        assert np.all(hist.dist(cfg.R1) >= hist.dist(cfg.R2))  # the wider window sees more
        rep = mcf.close_experiment(cfg, hist)
        fit = mcf.lojasiewicz_fit(hist, R=cfg.R1, eps=cfg.eps1, tau_grid=mcf.TAU_GRID)
        assert rep.fit is not None and harness.jsonable(rep.fit) == harness.jsonable(fit)

    def test_distances_and_promotion_constant_match_their_loops(self, sweep_run):
        # one graph_distance over the marks from t1 + 1 and one masked max
        # give the bits of the per-mark loops they replace
        cfg, hist = sweep_run
        rep = mcf.close_experiment(cfg, hist)
        after = hist.profiles[cfg.t1 + 1:]
        dists = [graph_distance(hist.z, u, after[0], cfg.R2) for u in after]
        assert rep.dist_values.tobytes() == np.array(dists).tobytes()
        series = hist.mark_F[cfg.t1 + 1::2] - hist.spec.F_value
        partial = np.concatenate([[0.0], np.cumsum(np.sqrt(np.abs(np.diff(series))))])
        ctilde = 1.0
        for j, d in enumerate(dists):
            S = partial[min(j // 2, partial.size - 1)]
            if S > 1e-300:
                ctilde = max(ctilde, d / S)
        assert rep.promotion_constant == ctilde > 1.0

    def test_stalled_window_leaves_the_run_uncertified(self, coarse_run):
        rep = mcf.close_experiment(*stalled(coarse_run))
        assert rep.fit is None and not rep.certified and math.isnan(rep.bound_value)
        assert rep.failure_reason.startswith("decay fit unavailable: the window at t=3 ")


SHIFT = 199_990  # far enough out that a relative float search picks the wrong mark


@pytest.fixture(scope="module")
def coarse_run():
    cfg = coarse_config(t1=0, t2=9)
    return cfg, mcf.evolve(cfg.initial_state(), float(cfg.t2), cfg.controls())


def shifted(cfg, hist, shift):
    """cfg and hist moved by shift in time."""
    return (dataclasses.replace(cfg, t1=cfg.t1 + shift, t2=cfg.t2 + shift),
            dataclasses.replace(hist, mark_times=hist.mark_times + shift,
                                t_final=hist.t_final + shift))


def stalled(run):
    """run with F at mark 4 set to F at mark 2: the window at t = 3 keeps its
    F-gap, but F does not drop across it."""
    cfg, hist = run
    mark_F = hist.mark_F.copy()
    mark_F[4] = mark_F[2]
    return cfg, dataclasses.replace(hist, mark_F=mark_F)


@pytest.fixture(scope="module")
def blowup_run():
    """blowup.cfg to t2 = 9: max |u| passes 1 near t = 2.23 and the run stops."""
    cfg = dataclasses.replace(harness.load_bundled_config("blowup.cfg"), t2=9)
    return cfg, mcf.evolve(cfg.initial_state(), float(cfg.t2), cfg.controls())


def close_on_series(run, series, monkeypatch):
    """close_experiment on run (marks 0..9, t1 = 0) with the F-gaps at its odd
    marks set to series and those at its even marks falling in between.
    Returns the report, the parts passed to certify_part and the odd-mark
    series as close_experiment reads it back (F_cyl + gap - F_cyl rounds)."""
    cfg, hist = run
    series = np.asarray(series, dtype=float)
    gaps = np.empty(hist.n_marks)
    gaps[0] = series[0] + 0.1
    gaps[1::2] = series
    gaps[2::2] = (series[:-1] + series[1:]) / 2.0
    mark_F = hist.spec.F_value + gaps
    parts = []
    real = sq.certify_part
    monkeypatch.setattr(sq, "certify_part",
                        lambda values, consts: parts.append(values) or real(values, consts))
    rep = mcf.close_experiment(cfg, dataclasses.replace(hist, mark_F=mark_F))
    return rep, parts, mark_F[1::2] - hist.spec.F_value


class TestCloseSeriesSplit:
    """close_experiment splits the odd-mark F-series at its sign change into a
    positive prefix and a sign-flipped, backwards negative suffix."""

    def test_reproduces_extremal_parts(self, coarse_run, monkeypatch):
        pos_src = sq.extremal_sequence(1.0, 0.5, x1=0.5, n_steps=2)
        neg_src = sq.extremal_sequence(1.0, 0.5, x1=0.3, n_steps=1)
        series = np.concatenate([pos_src.values, -neg_src.values[::-1]])
        rep, (pos, neg), _ = close_on_series(coarse_run, series, monkeypatch)
        assert rep.case_tag == "crossing"
        # exact up to the rounding of F_cyl + gap - F_cyl
        np.testing.assert_allclose(pos, pos_src.values, rtol=0, atol=1e-15)
        np.testing.assert_allclose(neg, neg_src.values, rtol=0, atol=1e-15)
        # both parts certify against the drop law they were built to saturate
        for part in (pos, neg):
            rep = sq.check_hypothesis(sq.MonotoneSequence(part), C=1.0, tau=0.5)
            assert rep.ok

    def test_concatenated_diffs_reproduce_drops_except_crossing(self, coarse_run, monkeypatch):
        _, (pos, neg), series = close_on_series(coarse_run, [0.5, 0.3, 0.1, -0.2, -0.4],
                                                monkeypatch)
        part_diffs = np.concatenate([-np.diff(pos), -np.diff(neg)])
        all_drops = -np.diff(series)
        crossing = len(pos) - 1  # the one drop straddling the sign change
        kept = np.delete(all_drops, crossing)
        assert np.allclose(np.sort(part_diffs), np.sort(kept), rtol=0, atol=0)

    def test_rejects_increasing_series(self, coarse_run, monkeypatch):
        with pytest.raises(InvalidInputError, match="^series must be non-increasing$") as exc:
            close_on_series(coarse_run, [0.1, 0.5, 0.4, 0.3, 0.2], monkeypatch)
        assert exc.value.exit_code == 64

    def test_all_positive_and_all_negative(self, coarse_run, monkeypatch):
        rep, (pos, neg), _ = close_on_series(coarse_run, [0.5, 0.4, 0.3, 0.2, 0.1], monkeypatch)
        assert rep.case_tag == "above" and neg.size == 0 and pos.size == 5
        rep, (pos, neg), series = close_on_series(coarse_run, [-0.1, -0.2, -0.3, -0.4, -0.5],
                                                  monkeypatch)
        assert rep.case_tag == "below" and pos.size == 0
        assert np.array_equal(neg, -series[::-1])


class TestCloseMarks:
    def test_report_does_not_depend_on_the_start_time(self, coarse_run):
        cfg, hist = coarse_run
        rep = mcf.close_experiment(cfg, hist)
        far = mcf.close_experiment(*shifted(cfg, hist, SHIFT))
        assert rep.certified and rep.parts and rep.dist_values.size == 9
        for key in ("parts", "dist_values", "bound_value", "promotion_constant", "delta_F1",
                    "delta_F2", "case_tag", "certified"):
            assert harness.jsonable(getattr(far, key)) == harness.jsonable(getattr(rep, key)), key
        assert np.array_equal(far.dist_times, rep.dist_times + SHIFT)

    @pytest.mark.parametrize("late", [1, 3])
    def test_history_starting_after_t1_is_refused(self, coarse_run, late):
        cfg, hist = coarse_run
        _, late_hist = shifted(cfg, hist, late)
        with pytest.raises(InvalidInputError):
            mcf.close_experiment(cfg, late_hist)

    @pytest.mark.parametrize("t1", [2, 3, 5])
    def test_run_stopped_before_reference_mark(self, blowup_run, t1):
        cfg, hist = blowup_run
        assert hist.stop_reason == "max_abs_u" and 2.0 < hist.t_final < t1 + 1
        rep = mcf.close_experiment(dataclasses.replace(cfg, t1=t1), hist)
        assert rep.failure_reason == f"flow stopped early at t={hist.t_final} (max_abs_u)"
        assert not (rep.completed or rep.initial_dist_ok or rep.hypotheses_ok)
        assert not (rep.certified or rep.bound_holds)
        assert rep.t2_actual == 2.0 and rep.fit is None and rep.parts == []
        assert rep.dist_times.size == 0 and rep.dist_values.size == 0
        assert rep.max_dist_to_ref == 0.0 and math.isnan(rep.bound_value)
        # delta_F1 is measured only when the run reached t1
        assert math.isnan(rep.delta_F1) == (t1 > hist.t_final)

    def test_stop_on_the_step_that_lands_on_t2_is_not_completed(self):
        # at this amplitude max |u| passes 1 on the step that ends at t2 = 3:
        # the run got to t2 but stopped, which the manifest reads as not completed
        cfg = dataclasses.replace(harness.load_bundled_config("blowup.cfg"),
                                  amplitude=0.14582655068167497, t2=3)
        hist = mcf.evolve(cfg.initial_state(), float(cfg.t2), cfg.controls())
        assert (hist.stop_reason, hist.t_final) == ("max_abs_u", 3.0)
        rep = mcf.close_experiment(cfg, hist)
        assert not (rep.completed or rep.endpoint_F_ok or rep.hypotheses_ok)
        assert rep.failure_reason == "flow stopped early at t=3.0 (max_abs_u)"
        assert not hist.reached(cfg.t2)

    def test_a_completed_run_reached_its_end_and_no_later_time(self, coarse_run):
        cfg, hist = coarse_run
        assert hist.stop_reason == "completed"
        assert hist.reached(cfg.t2) and hist.reached(cfg.t2 - 1)
        assert not hist.reached(cfg.t2 + 1e-6)


class TestFlowControls:
    def test_dt_max_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(mcf.FlowControls)] == ["dt_max"]

    @pytest.mark.parametrize("key", ["rtol_per_dt2", "atol", "stop_max_abs_u", "cfl"])
    def test_scheme_constants_are_not_keywords(self, key):
        with pytest.raises(TypeError):
            mcf.FlowControls(**{key: 1.0})

    def test_scheme_constants(self):
        controls = mcf.FlowControls()
        assert (controls.rtol_per_dt2, controls.atol, controls.stop_max_abs_u) == (1e-2, 1e-12, 1.0)

    def test_dt_max_sets_the_relative_tolerance(self):
        # a second-order step's error: rtol 1e-8 at dt_max = 1e-3, 4x tighter at dt_max / 2
        rtol, atol = mcf.FlowControls(dt_max=1e-3).tolerances()
        assert rtol == pytest.approx(1e-8, rel=1e-15) and atol == 1e-12
        assert mcf.FlowControls(dt_max=5e-4).tolerances()[0] == pytest.approx(rtol / 4.0, rel=1e-15)


class TestRunConfig:
    @pytest.mark.parametrize("h", [3.0, 2.9, 2.5, 1.7])
    @pytest.mark.parametrize("R", [0.5, 1.0, 1.6, 2.0])
    def test_window_without_grid_node_is_refused_as_dist_R_would(self, h, R):
        graph = CylinderGraph.zero(SPEC1, R_dom=20.0, h=h)
        try:
            dist_R(graph.z, graph.u, R)
            empty = False
        except PreconditionError:
            empty = True
        for key in ("R1", "R2"):
            if empty:
                with pytest.raises(InvalidInputError, match=f"{key}: no grid point"):
                    coarse_config(h=h, **{key: R})
            else:
                coarse_config(h=h, **{key: R})

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            coarse_config(profile_kind="wiggle")
        with pytest.raises(InvalidInputError):
            coarse_config(t1=5, t2=6)
        with pytest.raises(InvalidInputError):
            coarse_config(R1=19.99)
        with pytest.raises(InvalidInputError):
            mcf.RunConfig(t1=0.5, t2=8)  # type: ignore[arg-type]

    def test_profile_kinds_build(self):
        assert list(mcf.PROFILES) == ["zero", "gauss", "balanced_gauss"]
        z = np.linspace(-20.0, 20.0, 401)
        for kind, build in mcf.PROFILES.items():
            u = build(0.01, z)
            assert u.shape == z.shape and u.dtype == np.float64
            g = coarse_config(profile_kind=kind).initial_state().graph
            assert g.u[1:-1].tobytes() == build(0.01, g.z)[1:-1].tobytes()  # ends pinned
        with pytest.raises(InvalidInputError, match="known: zero, gauss, balanced_gauss"):
            coarse_config(profile_kind="nope")

    def test_balanced_profile_has_no_gaussian_mean(self):
        z = np.linspace(-20.0, 20.0, 4001)
        u = mcf.PROFILES["balanced_gauss"](1.0, z)
        weight = np.exp(-(z**2) / 4.0)
        mean = np.trapezoid(u * weight, z) / np.trapezoid(weight, z)
        assert abs(mean) < 1e-12
