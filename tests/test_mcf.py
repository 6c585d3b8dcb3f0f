import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from flowcert import harness, mcf
from flowcert import sequences as sq
from flowcert.cylinder import CylinderGraph, CylinderSpec, cylinder_F, dist_R, graph_F
from flowcert.errors import (
    BlowupError,
    ConfigError,
    InsufficientDataError,
    InvalidInputError,
    PreconditionError,
)

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

        def broken(w, out):
            frhs(w, out)
            if next(calls) >= n_calls:
                out[1:-1] = np.nan
            return out
        return broken
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


def textbook_rkc2(s, eps=2.0 / 13.0):
    """Damped RKC2 coefficients as Sommeijer, Shampine & Verwer (1998) state
    them: w0 = 1 + eps/s^2, w1 = T_s'(w0)/T_s''(w0), b_j = T_j''(w0)/T_j'(w0)^2
    with b_0 = b_1 = b_2, a_j = 1 - b_j T_j(w0), mu~_1 = b_1 w1 and, for
    j = 2..s, mu_j = 2 b_j w0/b_{j-1}, nu_j = -b_j/b_{j-2},
    mu~_j = 2 b_j w1/b_{j-1}, gamma~_j = -a_{j-1} mu~_j; T_j from
    T_j = 2x T_{j-1} - T_{j-2} and its derivatives.  Returns (beta, mu~_1,
    per-stage tuples) with beta = (1 + w0)/w1."""
    x = 1.0 + eps / (s * s)
    T = {0: 1.0, 1: x}
    dT = {0: 0.0, 1: 1.0}
    ddT = {0: 0.0, 1: 0.0}
    for j in range(2, s + 1):
        T[j] = 2.0 * x * T[j - 1] - T[j - 2]
        dT[j] = 2.0 * T[j - 1] + 2.0 * x * dT[j - 1] - dT[j - 2]
        ddT[j] = 4.0 * dT[j - 1] + 2.0 * x * ddT[j - 1] - ddT[j - 2]
    w1 = dT[s] / ddT[s]
    b = {j: ddT[j] / (dT[j] * dT[j]) for j in range(2, s + 1)}
    b[0] = b[1] = b[2]
    a = {j: 1.0 - b[j] * T[j] for j in range(s + 1)}
    stages = tuple((2.0 * b[j] * x / b[j - 1], -b[j] / b[j - 2], 2.0 * b[j] * w1 / b[j - 1],
                    -a[j - 1] * (2.0 * b[j] * w1 / b[j - 1])) for j in range(2, s + 1))
    return (1.0 + x) / w1, b[1] * w1, stages


def reference_rkc2_step(frhs, u, dt, s, f0):
    """One damped RKC2 step of s stages from u with f0 = frhs(u), out of place,
    in the increment form d_j = Y_j - u.  Returns (u_new, f1 = frhs(u_new),
    err) with err Verwer's estimate in evolve's form 0.8 max|dt/2 (f0 + f1) - d_s|."""
    _, mu1_t, stages = textbook_rkc2(s)
    d2, d1 = np.zeros_like(u), f0 * (mu1_t * dt)
    for mu, nu, mu_t, gamma_t in stages:
        k = frhs(u + d1)
        d2, d1 = d1, d1 * mu + d2 * nu + k * (mu_t * dt) + f0 * (gamma_t * dt)
    u_new = u + d1
    f1 = frhs(u_new)
    err = 0.8 * float(np.max(np.abs((f0 + f1) * (0.5 * dt) - d1)))
    return u_new, f1, err


def stability_polynomial(s, z):
    """R_s(z), z = lambda dt: evolve's s-stage step applied to y' = lambda y
    from y = 1, through the stage recurrence of mcf._RKC2[s]."""
    _, mu1_t, stages = mcf._RKC2[s]
    d2, d1 = np.zeros_like(z), mu1_t * z
    for mu, nu, mu_t, gamma_t in stages:
        d2, d1 = d1, mu * d1 + nu * d2 + mu_t * z * (1.0 + d1) + gamma_t * z
    return 1.0 + d1


def first_step(h, dt_max, R_dom):
    """(stage count, dt) of evolve's first step from the zero profile."""
    g = CylinderGraph.zero(SPEC1, R_dom, h)
    hist = mcf.evolve(mcf.FlowState(g, 0.0), dt_max, mcf.FlowControls(dt_max=dt_max))
    return int(hist.diag_stages[0]), float(hist.diag_dt[0])


def kernel_rhs(g):
    """Time derivative of the profile (zero at the ends), through mcf._kernel."""
    return mcf._kernel(g.z, g.h, g.spec.radius)(g.u, np.zeros_like(g.u))


def rkc2_step(g, dt):
    """One reference RKC2 step of g's profile with 2 stages."""
    frhs = reference_kernel(g.z, g.h, g.spec.radius)
    u, _, _ = reference_rkc2_step(frhs, g.u, dt, 2, frhs(g.u))
    return CylinderGraph(g.spec, g.z, u)


def replay(g, hist):
    """Replay evolve's accepted steps (dt, stage count) from g with the
    reference stepper; asserts every error estimate and, at each unit mark,
    the max |u| of the step ending there, and returns the profiles at the
    unit marks."""
    frhs = reference_kernel(g.z, g.h, g.spec.radius)
    u, f0 = g.u, frhs(g.u)
    profiles = [u]
    for t, dt, s, err, max_u in zip(hist.diag_t, hist.diag_dt, hist.diag_stages, hist.diag_err,
                                    hist.diag_max_u):
        u_new, f1, ref_err = reference_rkc2_step(frhs, u, dt, int(s), f0)
        assert ref_err == err
        verwer = float(np.max(np.abs(12.0 * (u - u_new) + 6.0 * dt * (f0 + f1)))) / 15.0
        assert verwer == pytest.approx(err, rel=1e-6, abs=1e-18)
        u, f0 = u_new, f1
        if t == round(t):
            assert np.float64(max_u).tobytes() == np.abs(u).max().tobytes()
            profiles.append(u)
    return profiles


def random_graphs(n_points, count=2, R_dom=20.0, seed=7):
    rng = np.random.default_rng(seed)
    h = 2.0 * R_dom / (n_points - 1)
    return [CylinderGraph.from_profile(SPEC1, R_dom, h,
                                       lambda z: mcf.initial_profile("random", 0.05, z, rng))
            for _ in range(count)]


class TestKernelBits:
    @pytest.mark.parametrize("n_points", [801, 2001])
    def test_in_place_rhs_matches_reference(self, n_points):
        g1, g2 = random_graphs(n_points)
        assert g1.z.size == n_points
        frhs = mcf._kernel(g1.z, g1.h, SPEC1.radius)
        ref = reference_kernel(g1.z, g1.h, SPEC1.radius)
        out = np.zeros_like(g1.u)
        for g in (g1, g2, g1):  # one out buffer, different inputs in turn
            assert frhs(g.u, out) is out
            assert out.tobytes() == ref(g.u).tobytes()
            assert out[[0, -1]].tobytes() == np.zeros(2).tobytes()  # +0.0, not -0.0

    @pytest.mark.parametrize("n_points, R_dom, dt_max, stages", [
        pytest.param(801, 20.0, 1e-3, 2, id="801-20.0"),
        pytest.param(2001, 50.0, 1e-3, 2, id="2001-50.0"),
        pytest.param(1001, 20.0, 1.0 / 640, 3, id="1001-20.0-s3"),
        pytest.param(2001, 20.0, 1e-3, 4, id="2001-20.0-s4"),
        pytest.param(2001, 20.0, 1.0 / 720, 5, id="2001-20.0-s5"),
    ])
    def test_evolve_replays_reference_rkc2(self, n_points, R_dom, dt_max, stages):
        # one unit of time; h = 0.05 at dt = 1e-3 (4 dt/h^2 = 1.6, on N = 801
        # and, on the larger domain, N = 2001) takes 2 stages, so each step is
        # the j = 2 stage alone, where evolve drops the zero nu_2 d_0 term.
        # Each other case sits where its stage count is the cheapest per unit
        # time: h = 0.04 at dt = 1/640 (3.9, in (1.5 beta(2), beta(3)]) takes
        # 3, h = 0.02 at dt = 1/720 (13.9, in (1.25 beta(4), beta(5)]) takes
        # 5, and h = 0.02 at dt_max = 1e-3 (10) takes 4 at the cap
        # beta(4) h^2/4, usage 1
        (g,) = random_graphs(n_points, count=1, R_dom=R_dom)
        hist = mcf.evolve(mcf.FlowState(g, 0.0), 1.0, mcf.FlowControls(dt_max=dt_max))
        assert hist.n_rejected == 0
        assert set(hist.diag_stages.tolist()) == {stages}
        profiles = replay(g, hist)
        assert [p.tobytes() for p in profiles] == [p.tobytes() for p in hist.profiles]


class TestRkc2Coefficients:
    def test_table_is_the_textbook_recurrence(self):
        assert sorted(mcf._RKC2) == list(range(2, mcf.MAX_STAGES + 1))
        for s, coefficients in mcf._RKC2.items():
            assert coefficients == textbook_rkc2(s)

    @pytest.mark.parametrize("s", [2, 3, 5, 17, mcf.MAX_STAGES])
    def test_against_closed_forms(self, s):
        # T_j(cosh th) = cosh(j th), T_j' = j sinh(j th)/sinh(th) and
        # T_j'' = j (j cosh(j th) sinh(th) - sinh(j th) cosh(th)) / sinh(th)^3
        eps = mcf.RKC_DAMPING
        th = math.acosh(1.0 + eps / s**2)

        def T(j, d):
            if d == 0:
                return math.cosh(j * th)
            if d == 1:
                return j * math.sinh(j * th) / math.sinh(th)
            return j * (j * math.cosh(j * th) * math.sinh(th)
                        - math.sinh(j * th) * math.cosh(th)) / math.sinh(th) ** 3

        w0, w1 = math.cosh(th), T(s, 1) / T(s, 2)
        b = [T(max(j, 2), 2) / T(max(j, 2), 1) ** 2 for j in range(s + 1)]
        beta, mu1_t, stages = mcf._RKC2[s]
        assert beta == pytest.approx((1.0 + w0) / w1, rel=1e-9)
        assert beta == pytest.approx(2.0 / 3.0 * (s * s - 1) * (1.0 - 2.0 / 15.0 * eps), rel=5e-3)
        assert mu1_t == pytest.approx(b[1] * w1, rel=1e-9)
        for j, (mu, nu, mu_t, gamma_t) in enumerate(stages, 2):
            assert mu == pytest.approx(2.0 * b[j] * w0 / b[j - 1], rel=1e-9)
            assert nu == pytest.approx(-b[j] / b[j - 2], rel=1e-9)
            assert mu_t == pytest.approx(2.0 * b[j] * w1 / b[j - 1], rel=1e-9)
            assert gamma_t == pytest.approx(-(1.0 - b[j - 1] * T(j - 1, 0)) * mu_t, rel=1e-9)

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 10, mcf.MAX_STAGES])
    def test_stability_polynomial(self, s):
        # second order (R = 1 + z + z^2/2 + O(z^3)) and |R| <= 1 on [-beta, 0]
        for z in (-1e-2, -5e-3):
            R = stability_polynomial(s, np.array(z))
            assert abs(R - (1.0 + z + z * z / 2.0)) < 0.2 * abs(z) ** 3
        z = np.linspace(-mcf._RKC2[s][0], 0.0, 20001)
        assert np.max(np.abs(stability_polynomial(s, z))) <= 1.0 + 1e-12


class TestStageRule:
    def test_chosen_stages_are_stable_up_to_the_need(self):
        # need = 4 dt/h^2 on a dense grid over (0, beta(MAX_STAGES)], on a
        # domain small enough that the advective cap does not bind: the stage
        # count evolve takes keeps |R_s| <= 1 on [-need, 0] and damps the
        # stiffest mode, at -need, strictly
        h = 0.01
        top = mcf._RKC2[mcf.MAX_STAGES][0]
        grid = np.union1d(np.geomspace(1e-3, top, 400), np.linspace(0.0, top, 2001)[1:])
        for need in grid:
            s, dt = first_step(h, 0.25 * need * h * h, R_dom=0.3)
            need = 4.0 * dt / h**2
            R = stability_polynomial(s, np.linspace(-need, 0.0, 401))
            assert np.max(np.abs(R)) <= 1.0 + 1e-12, (need, s)
            assert abs(R[0]) < 1.0, (need, s)

    def test_cap_takes_the_cheapest_stage_count(self):
        # on a dense grid of (h, 4 dt_max/h^2), on domains of 20 intervals,
        # the steps of the largest length, dt_cap, take the s that minimises
        # s / min(cap, beta(s) h^2/4), ties toward the longer step, where cap
        # is the smallest of dt_max, beta(MAX_STAGES) h^2/4 and the advective
        # cap; their usage is at most 1 exactly, and R_s damps -need strictly
        betas = {s: mcf._RKC2[s][0] for s in range(2, mcf.MAX_STAGES + 1)}
        top = betas[mcf.MAX_STAGES]
        controls = mcf.FlowControls()
        for h in np.union1d(np.linspace(0.01, 0.1, 10), [0.025, 0.04]):
            g = CylinderGraph.zero(SPEC1, 10.0 * h, h)
            for need in np.geomspace(0.5, 1.2 * top, 120):
                controls.dt_max = 0.25 * need * g.h**2
                cap = min(controls.dt_max, 0.25 * top * g.h**2, controls.cfl * 2.0 * g.h / g.R_dom)
                reach = {s: min(cap, 0.25 * b * g.h**2) for s, b in betas.items()}
                best = min(reach, key=lambda s: (s / reach[s], -reach[s]))
                hist = mcf.evolve(mcf.FlowState(g, 0.0), 3.0 * controls.dt_max, controls)
                dt_cap = hist.diag_dt[0]
                at_cap = hist.diag_dt == dt_cap
                assert dt_cap == hist.diag_dt.max() and at_cap.sum() >= 2, (h, need)
                assert set(hist.diag_stages[at_cap].tolist()) == {best}, (h, need)
                assert np.all(hist.diag_cfl[at_cap] <= 1.0), (h, need)
                assert abs(stability_polynomial(best, np.array(-4.0 * dt_cap / g.h**2))) < 1.0

    def test_bundled_steps_damp_every_decaying_mode(self):
        # the u = 0 linearisation at each bundled (k, R_dom, h, dt_max): every
        # eigenvalue below zero, down to about -4/h^2, is damped by the stage
        # count evolve takes there
        settings = {(c.k, c.R_dom, c.h, c.dt_max)
                    for c in map(harness.load_bundled_config,
                                 ("zero.cfg", "fit.cfg", "sweep.cfg", "blowup.cfg"))}
        for k, R_dom, h, dt_max in sorted(settings):
            s, dt = first_step(h, dt_max, R_dom)
            lam = TestKernelLinearisation.spectrum(TestKernelLinearisation.jacobian(k, h, R_dom))
            decaying = lam[lam < 0.0]
            assert dt * decaying.min() < -0.99 * 4.0 * dt / h**2
            assert np.max(np.abs(stability_polynomial(s, dt * decaying))) < 1.0, (h, s)


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

    def test_matches_one_step_difference_quotient(self):
        g = smooth_graph()
        r = kernel_rhs(g)
        errs = []
        for dt in (1e-4, 5e-5):
            quotient = (rkc2_step(g, dt).u - g.u) / dt
            errs.append(np.max(np.abs(quotient - r)))
        assert errs[0] < 1e-3
        assert errs[1] < 0.75 * errs[0]  # first-order in dt

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
        frhs = mcf._kernel(g.z, g.h, g.spec.radius)
        w, plus, minus = (np.zeros(g.z.size) for _ in range(3))
        J = np.empty((g.z.size - 2, g.z.size - 2))
        for i in range(1, g.z.size - 1):
            w[i] = eps
            frhs(w, plus)
            w[i] = -eps
            frhs(w, minus)
            w[i] = 0.0
            J[:, i - 1] = (plus[1:-1] - minus[1:-1]) / (2.0 * eps)
        return J

    @pytest.mark.parametrize("k", [1, 2])
    def test_top_eigenvalues_are_the_hermite_modes(self, k):
        # at u = 0 the flow linearises to w_zz - (z/2) w_z + w (the radial
        # term -k/r + r/2 has slope k/s^2 + 1/2 = 1 at r = s for every k),
        # whose Hermite eigenfunctions H_n have eigenvalues 1 - n/2; central
        # differences keep a polynomial's degree and leading coefficient, so
        # the grid operator has the same top eigenvalues up to the far ends.
        # A tridiagonal matrix whose off-diagonal pairs have positive products
        # is similar to the symmetric one with their geometric means, which a
        # symmetric solver handles without the nonsymmetric one's e^(z^2/8) scaling
        top = self.spectrum(self.jacobian(k))[::-1][:5]
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


class TestStep:
    def test_zero_profile_stays_zero(self):
        # every stage count evolve can take: 4 dt/h^2 sits between beta(s - 1)
        # and beta(s), on a domain small enough that the advective cap does
        # not bind
        g = CylinderGraph.zero(SPEC1, 0.3, 0.01)
        controls = mcf.FlowControls()
        limits = [0.25 * mcf._RKC2[s][0] * g.h**2 for s in range(2, mcf.MAX_STAGES + 1)]
        for s, lo, hi in zip(range(2, mcf.MAX_STAGES + 1), [0.0, *limits], limits):
            controls.dt_max = 0.5 * (lo + hi)
            hist = mcf.evolve(mcf.FlowState(g, 0.0), 2.0 * controls.dt_max, controls)
            assert hist.diag_stages.tolist() == [s, s]
            assert hist.diag_max_u.tolist() == [0.0, 0.0]
            assert hist.diag_err.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("h, s, dts", [
        pytest.param(0.1, 2, (1.0 / 400, 1.0 / 800), id="0.1-2"),
        pytest.param(0.05, 3, (1.0 / 320, 1.0 / 520), id="0.05-3"),
    ])
    def test_temporal_order_at_fixed_stages(self, h, s, dts, monkeypatch):
        # both dt take s stages; the error at t = 1 against a run at dt =
        # 1/6400 falls as dt^2 for a second-order method.  At h = 0.05 three
        # stages are the cheapest only for 4 dt/h^2 in (1.5 beta(2), beta(3)],
        # a dt ratio of 1.78 with no halving inside, so the order is the log
        # of the error ratio to base dt1/dt2 = 1.625 (4 dt/h^2 = 5.0 and 3.1)
        g = smooth_graph(h=h)
        monkeypatch.setattr(mcf.FlowControls, "step_tol", 1.0)

        def final(dt):
            hist = mcf.evolve(mcf.FlowState(g, 0.0), 1.0, mcf.FlowControls(dt_max=dt))
            return hist.profiles[-1], set(hist.diag_stages.tolist())

        ref, _ = final(1.0 / 6400)
        errs = []
        for dt in dts:
            u, stages = final(dt)
            assert stages == {s}
            errs.append(float(np.max(np.abs(u - ref))))
        assert math.log(errs[0] / errs[1], dts[0] / dts[1]) >= 1.9

    def test_area_does_not_increase(self):
        g = smooth_graph(0.02)
        before = graph_F(g).value
        after = graph_F(rkc2_step(g, 1e-3)).value
        assert after <= before + 1e-8

    def test_replays_evolve_bit_for_bit(self, monkeypatch):
        # a tolerance below the error estimate makes the controller refuse and
        # shrink steps; the accepted ones, at whatever dt and stage count,
        # replay through the reference stepper to the same bits
        cfg = coarse_config()
        g = cfg.initial_state().graph
        monkeypatch.setattr(mcf.FlowControls, "step_tol", 1e-12)
        hist = mcf.evolve(mcf.FlowState(g, 0.0), t_end=2.0, controls=cfg.controls())
        assert hist.n_rejected > 0 and len(set(hist.diag_dt.tolist())) > 10
        profiles = replay(g, hist)
        assert [p.tobytes() for p in profiles] == [p.tobytes() for p in hist.profiles]


class TestEvolve:
    def test_zero_data_constant_area(self):
        cfg = coarse_config(amplitude=0.0, profile_kind="zero", t2=10)
        hist = mcf.evolve(cfg.initial_state(), t_end=10.0, controls=cfg.controls())
        F_cyl = cylinder_F(SPEC1)
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
        # 1.6e-4 steps accumulate rounding in t, which ends a few 1e-12 short
        # of t = 9; that step must still land on the mark
        state = mcf.FlowState(CylinderGraph.zero(SPEC1, R_dom=2.0, h=0.05), 8.0)
        hist = mcf.evolve(state, t_end=10.0,
                          controls=mcf.FlowControls(dt_max=1.6e-4))
        assert np.array_equal(hist.mark_times, [8.0, 9.0, 10.0])
        assert hist.t_final == 10.0

    def test_small_bump_area_decreases_toward_limit(self):
        cfg = coarse_config(amplitude=0.01, t2=6)
        hist = mcf.evolve(cfg.initial_state(), t_end=6.0, controls=cfg.controls())
        F_cyl = cylinder_F(SPEC1)
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

    def test_zero_advective_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(mcf.FlowControls, "cfl", 0.0)
        with pytest.raises(InvalidInputError):
            mcf.evolve(mcf.FlowState(smooth_graph(), 0.0), 2.0, mcf.FlowControls())

    def test_non_integer_start_rejected(self):
        with pytest.raises(InvalidInputError):
            mcf.evolve(mcf.FlowState(smooth_graph(), 0.5), 2.0, mcf.FlowControls())

    def test_counts_stage_rhs_per_attempted_step(self, monkeypatch):
        # h = 0.1: every dt up to dt_max = 2e-3 takes 2 stages, so a refused
        # step costs 2 evaluations too; the first stage of the run costs 1
        cfg = coarse_config()
        hist = mcf.evolve(cfg.initial_state(), 8.0, cfg.controls())
        assert hist.diag_t.size == 4000 and hist.n_rejected == 0
        assert hist.n_rhs == 1 + int(np.sum(hist.diag_stages)) == 1 + 2 * 4000
        cfg = coarse_config(t2=2)
        monkeypatch.setattr(mcf.FlowControls, "step_tol", 1e-12)
        hist = mcf.evolve(cfg.initial_state(), 2.0, cfg.controls())
        assert hist.n_rejected > 0
        assert set(hist.diag_stages.tolist()) == {2}
        assert hist.n_rhs == 1 + int(np.sum(hist.diag_stages)) + 2 * hist.n_rejected

    def test_non_finite_stage_raises_with_the_last_accepted_state(self, monkeypatch):
        # h = 0.1 takes two stages per step of dt_max = 2e-3 and the run's
        # first evaluation is one more, so call 202 is the first stage of step 101
        monkeypatch.setattr(mcf, "_kernel", kernel_nan_after(201))
        cfg = coarse_config(t2=2)
        with pytest.raises(BlowupError, match="non-finite profile at t=0.2") as exc:
            mcf.evolve(cfg.initial_state(), 2.0, cfg.controls())
        state = exc.value.last_state
        assert state.t == pytest.approx(0.2)
        assert np.all(np.isfinite(state.graph.u))
        assert not np.array_equal(state.graph.u, cfg.initial_state().graph.u)

    def test_fit_config_rejects_no_step(self):
        cfg = harness.load_bundled_config("fit.cfg")
        hist = mcf.evolve(cfg.initial_state(), float(cfg.t2), cfg.controls())
        assert hist.n_rejected == 0
        assert np.allclose(hist.diag_dt, cfg.dt_max, rtol=1e-9, atol=0.0)
        assert np.all(hist.diag_stages == 2)
        assert hist.n_rhs == 1 + int(np.sum(hist.diag_stages)) == 16_001
        # the largest estimate is 1.08e-3 step_tol; the bound keeps 1.24x of headroom
        assert np.max(hist.diag_err) < 1.34e-3 * cfg.controls().step_tol

    def test_fewest_stages_and_usage_at_most_one(self):
        # R_dom = 0.5, h = 1e-3: the advective cap alone would need about 140
        # stages, so the stage cap shortens dt to its own stability limit; the
        # controller first refuses and then regrows dt, and s follows dt
        g = CylinderGraph.from_profile(SPEC1, 0.5, 1e-3, lambda z: 1e-3 * np.cos(np.pi * z))
        controls = mcf.FlowControls()
        hist = mcf.evolve(mcf.FlowState(g, 0.0), 0.01, controls)
        beta = np.array([mcf._RKC2[s][0] for s in hist.diag_stages])
        need = 4.0 * hist.diag_dt / g.h**2
        assert hist.n_rejected > 0 and hist.diag_stages.min() < 20
        assert hist.diag_stages.max() == mcf.MAX_STAGES
        assert np.max(hist.diag_dt) == pytest.approx(
            0.25 * mcf._RKC2[mcf.MAX_STAGES][0] * g.h**2, rel=1e-15)
        assert np.array_equal(hist.diag_cfl, need / beta)
        assert np.all(hist.diag_cfl <= 1.0 + 1e-15)
        fewer = np.array([mcf._RKC2[max(s - 1, 2)][0] for s in hist.diag_stages])
        assert np.all((hist.diag_stages == 2) | (fewer < need))

    def test_diagnostics_are_float64_and_int64(self, monkeypatch):
        # a refusing tolerance varies dt from step to step; every per-step
        # array has one entry per accepted step, in its dtype, and the values
        # the step took: t grows by dt (landing on the marks) and usage is
        # 4 dt/(h^2 beta(s))
        cfg = coarse_config(t2=2)
        monkeypatch.setattr(mcf.FlowControls, "step_tol", 1e-12)
        hist = mcf.evolve(cfg.initial_state(), 2.0, cfg.controls())
        n = hist.diag_t.size
        assert n > 1000 and hist.n_rejected > 0
        for arr in (hist.diag_t, hist.diag_dt, hist.diag_err, hist.diag_max_u, hist.diag_cfl):
            assert arr.dtype == np.float64 and arr.shape == (n,)
        assert hist.diag_stages.dtype == np.int64 and hist.diag_stages.shape == (n,)
        t_before = np.concatenate([[0.0], hist.diag_t[:-1]])
        marks = np.isin(hist.diag_t, [1.0, 2.0])
        assert np.array_equal((t_before + hist.diag_dt)[~marks], hist.diag_t[~marks])
        assert hist.diag_t[marks].tolist() == [1.0, 2.0]
        beta = np.array([mcf._RKC2[s][0] for s in hist.diag_stages])
        h = cfg.initial_state().graph.h
        assert np.array_equal(hist.diag_cfl, 4.0 * hist.diag_dt / (h * h) / beta)
        assert np.all(hist.diag_err <= 1e-12) and np.all(hist.diag_max_u > 0.0)

    def test_run_beyond_max_steps_refused_up_front(self):
        # h = 1e-5 on R_dom = 0.5 caps dt near 3e-8, so t = 2 is out of reach
        g = CylinderGraph.zero(SPEC1, 0.5, 1e-5)
        with pytest.raises(InvalidInputError, match="MAX_STEPS"):
            mcf.evolve(mcf.FlowState(g, 0.0), 2.0, mcf.FlowControls())

    def test_history_csv(self, tmp_path):
        cfg = coarse_config(t2=3)
        hist = mcf.evolve(cfg.initial_state(), t_end=3.0, controls=cfg.controls())
        path = tmp_path / "history.csv"
        hist.to_csv(path, 6.0, 5.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,F,dist_R1,dist_R2,max_abs_u"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows[:, 2], hist.dist(6.0))
        assert np.array_equal(rows[:, 3], hist.dist(5.0))
        assert np.all(hist.dist(6.0) >= hist.dist(5.0))  # the wider window sees more


SWEEP_GATE = 5e-8  # max |u - u_ref| over the marks of sweep.cfg at a = 0.02


@pytest.fixture(scope="module")
def sweep_reference():
    """sweep.cfg at a = 0.02 and the run's profiles at dt_max/4 (2 stages per
    step, 2.0e-9 from a run at dt_max/20), the reference of SWEEP_GATE."""
    cfg = dataclasses.replace(harness.load_bundled_config("sweep.cfg"), amplitude=0.02)
    fine = dataclasses.replace(cfg, dt_max=cfg.dt_max / 4.0)
    hist = mcf.evolve(fine.initial_state(), float(fine.t2), fine.controls())
    return cfg, np.array(hist.profiles)


def sweep_deviation(cfg, reference):
    hist = mcf.evolve(cfg.initial_state(), float(cfg.t2), cfg.controls())
    return float(np.max(np.abs(np.array(hist.profiles) - reference)))


class TestSweepReference:
    def test_marks_stay_near_fine_reference(self, sweep_reference):
        # RKC2 at dt_max = 1e-3 (2 stages) is 3.1e-8 from the reference (1.9e-8
        # with 3 stages); the step-doubling pair it replaced was 8.3e-9
        assert sweep_deviation(*sweep_reference) < SWEEP_GATE

    def test_scaled_first_stage_coefficient_trips_gate(self, sweep_reference, monkeypatch):
        # mu~_1 times 1.01 leaves the method first order: 8.7e-4 off
        monkeypatch.setattr(mcf, "_RKC2", {s: (beta, 1.01 * mu1_t, stages)
                                           for s, (beta, mu1_t, stages) in mcf._RKC2.items()})
        assert sweep_deviation(*sweep_reference) > SWEEP_GATE


CAP_GATE = 3.9e-9  # max |u - u_ref| over the first two marks of fit.cfg at h/2, a = 0.02


class TestCapAccuracy:
    def test_cheaper_step_stays_near_fine_reference(self):
        # fit.cfg at h/2 (4 dt_max/h^2 = 6.4) and a = 0.02 to t = 2, against
        # the run at dt_max/8: the 3-stage steps of beta(3) h^2/4 = 8.2e-4 the
        # cap takes stay 3.44e-9 away, inside CAP_GATE; the 4-stage steps of
        # dt_max, the fewest stages covering it, replayed through the
        # reference stepper, end 4.30e-9 away, outside it
        fit = harness.load_bundled_config("fit.cfg")
        cfg = dataclasses.replace(fit, h=fit.h / 2.0, amplitude=0.02, t2=2)
        fine = dataclasses.replace(cfg, dt_max=cfg.dt_max / 8.0)
        reference = mcf.evolve(fine.initial_state(), 2.0, fine.controls()).profiles
        hist = mcf.evolve(cfg.initial_state(), 2.0, cfg.controls())
        assert set(hist.diag_stages.tolist()) == {3}
        assert np.max(np.abs(np.array(hist.profiles) - np.array(reference))) < CAP_GATE
        g = cfg.initial_state().graph
        frhs = reference_kernel(g.z, g.h, g.spec.radius)
        u, f0 = g.u, frhs(g.u)
        for _ in range(round(2.0 / cfg.dt_max)):
            u, f0, _ = reference_rkc2_step(frhs, u, cfg.dt_max, 4, f0)
        assert np.max(np.abs(u - reference[-1])) > CAP_GATE


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

    def test_window_admissibility_respects_eps(self):
        cfg = coarse_config(amplitude=0.01, t2=8)
        hist = mcf.evolve(cfg.initial_state(), t_end=8.0, controls=cfg.controls())
        with pytest.raises(InsufficientDataError):
            mcf.lojasiewicz_fit(hist, R=6.0, eps=1e-9)


class TestSplitSignedSeries:
    def test_reproduces_extremal_parts_exactly(self):
        pos_src = sq.extremal_sequence(1.0, 0.5, x1=0.5, n_steps=10)
        neg_src = sq.extremal_sequence(1.0, 0.5, x1=0.3, n_steps=8)
        series = np.concatenate([pos_src.values, -neg_src.values[::-1]])
        pos, neg = mcf.split_signed_series(series)
        assert np.array_equal(pos, pos_src.values)
        assert np.array_equal(neg, neg_src.values)
        # both parts certify against the drop law they were built to saturate
        for part in (pos, neg):
            rep = sq.check_hypothesis(sq.MonotoneSequence(part), C=1.0, tau=0.5)
            assert rep.ok

    def test_concatenated_diffs_reproduce_drops_except_crossing(self):
        pos_src = sq.extremal_sequence(1.0, 0.5, x1=0.5, n_steps=6)
        neg_src = sq.extremal_sequence(1.0, 0.5, x1=0.3, n_steps=5)
        series = np.concatenate([pos_src.values, -neg_src.values[::-1]])
        pos, neg = mcf.split_signed_series(series)
        part_diffs = np.concatenate([-np.diff(pos), -np.diff(neg)])
        all_drops = -np.diff(series)
        crossing = len(pos) - 1  # the one drop straddling the sign change
        kept = np.delete(all_drops, crossing)
        assert np.allclose(np.sort(part_diffs), np.sort(kept), rtol=0, atol=0)

    def test_rejects_increasing_series(self):
        with pytest.raises(InvalidInputError):
            mcf.split_signed_series(np.array([0.1, 0.5]))

    def test_all_positive_and_all_negative(self):
        pos, neg = mcf.split_signed_series(np.array([0.5, 0.4, 0.3]))
        assert neg.size == 0 and pos.size == 3
        pos, neg = mcf.split_signed_series(np.array([-0.1, -0.2]))
        assert pos.size == 0 and np.array_equal(neg, np.array([0.2, 0.1]))


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

    def test_measures_each_distance_once(self, monkeypatch):
        # hypothesis (1), the report's fit and a later fit on the same history
        # read one dist_R per stored profile between them
        cfg = coarse_config(amplitude=0.01, t2=9)
        hist = mcf.evolve(cfg.initial_state(), t_end=float(cfg.t2), controls=cfg.controls())
        calls = []
        real = mcf.dist_R
        monkeypatch.setattr(mcf, "dist_R", lambda g, R: calls.append(R) or real(g, R))
        rep = mcf.close_experiment(cfg, hist)
        fit = mcf.lojasiewicz_fit(hist, R=cfg.R1, eps=cfg.eps1, tau_grid=mcf.TAU_GRID)
        assert calls == [cfg.R1] * hist.n_marks
        assert harness.jsonable(rep.fit) == harness.jsonable(fit)
        with pytest.raises(ValueError):
            hist.dist(cfg.R1)[0] = 0.0  # read-only: no caller can alter the next one's view


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


@pytest.fixture(scope="module")
def blowup_run():
    """blowup.cfg to t2 = 9: max |u| passes 1 near t = 2.23 and the run stops."""
    cfg = dataclasses.replace(harness.load_bundled_config("blowup.cfg"), t2=9)
    return cfg, mcf.evolve(cfg.initial_state(), float(cfg.t2), cfg.controls())


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


class TestFlowControls:
    def test_dt_max_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(mcf.FlowControls)] == ["dt_max"]

    @pytest.mark.parametrize("key", ["cfl", "step_tol", "stop_max_abs_u"])
    def test_scheme_constants_are_not_keywords(self, key):
        with pytest.raises(TypeError):
            mcf.FlowControls(**{key: 1.0})

    def test_scheme_constants(self):
        controls = mcf.FlowControls()
        assert (controls.cfl, controls.step_tol, controls.stop_max_abs_u) == (0.8, 1e-8, 1.0)


class TestRunConfig:
    @pytest.mark.parametrize("h", [3.0, 2.9, 2.5, 1.7])
    @pytest.mark.parametrize("R", [0.5, 1.0, 1.6, 2.0])
    def test_window_without_grid_node_is_refused_as_dist_R_would(self, h, R):
        graph = CylinderGraph.zero(SPEC1, R_dom=20.0, h=h)
        try:
            dist_R(graph, R)
            empty = False
        except PreconditionError:
            empty = True
        for key in ("R1", "R2"):
            if empty:
                with pytest.raises(ConfigError, match=f"{key}: no grid point"):
                    coarse_config(h=h, **{key: R})
            else:
                coarse_config(h=h, **{key: R})

    def test_validation(self):
        with pytest.raises(ConfigError):
            coarse_config(profile_kind="wiggle")
        with pytest.raises(ConfigError):
            coarse_config(t1=5, t2=6)
        with pytest.raises(ConfigError):
            coarse_config(R1=19.99)
        with pytest.raises(ConfigError):
            mcf.RunConfig(t1=0.5, t2=8)  # type: ignore[arg-type]

    def test_profile_kinds_build(self):
        assert mcf.PROFILE_KINDS == ("zero", "gauss", "balanced_gauss", "random")
        z = np.linspace(-20.0, 20.0, 401)
        rng = np.random.default_rng(0)
        for kind in mcf.PROFILE_KINDS:
            u = mcf.initial_profile(kind, 0.01, z, rng)
            assert u.shape == z.shape
        with pytest.raises(InvalidInputError):
            mcf.initial_profile("nope", 0.01, z, rng)

    def test_balanced_profile_has_no_gaussian_mean(self):
        z = np.linspace(-20.0, 20.0, 4001)
        u = mcf.initial_profile("balanced_gauss", 1.0, z, None)
        weight = np.exp(-(z**2) / 4.0)
        mean = np.trapezoid(u * weight, z) / np.trapezoid(weight, z)
        assert abs(mean) < 1e-12
