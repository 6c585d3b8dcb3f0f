import dataclasses
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from flowcert import acceptance
from flowcert import gradientflow as gf
from flowcert import sequences as sq
from flowcert.errors import IntegrationError, InvalidInputError, NumericError, PreconditionError

QUARTIC = gf.problem_by_name("quartic1d")
SADDLE = gf.problem_by_name("saddle2d")
SPOT_CHECK_SLACK = 1e-12  # absolute slack of the sampled decay inequality

# Each bundled row written out: the terms of F, the gradient, tau and the
# ball radius.  The taus are the stated bits: sextic1d's 1 - 1/3 is one ulp
# above aniso2d's 2/3.
CLOSED_FORMS = {
    "quartic1d": (lambda x: [x**4], lambda x: [4 * x**3], 0.5, 2.0),
    "sextic1d": (lambda x: [x**6], lambda x: [6 * x**5], 1.0 - 1.0 / 3.0, 2.0),
    "quartic2d": (lambda x, y: [x**4, y**4], lambda x, y: [4 * x**3, 4 * y**3], 0.5, 2.0),
    "aniso2d": (lambda x, y: [x**4, y**6], lambda x, y: [4 * x**3, 6 * y**5], 2.0 / 3.0, 1.0),
    "saddle2d": (lambda x, y: [x**4, -y**4], lambda x, y: [4 * x**3, -4 * y**3], 0.5, 1.0),
}
ULPS = 4.0 * np.finfo(float).eps  # a few ulp, relative


def quartic_exact(x0, t):
    return x0 / np.sqrt(1.0 + 8.0 * x0**2 * np.asarray(t, dtype=float))


def saddle_crossing_time(x0, y0):
    return (x0**2 - y0**2) / (16.0 * x0**2 * y0**2)


def decay_inequality_spot_check(problem, rng, n_samples=10_000) -> bool:
    """Sample the ball and test |F - F0|^(1+tau) <= |grad F|^2 pointwise."""
    pts = rng.uniform(-1.0, 1.0, size=(n_samples, problem.dim))
    pts *= problem.ball_radius * rng.random(n_samples)[:, None] / np.maximum(
        np.linalg.norm(pts, axis=1)[:, None], 1e-300)
    lhs = np.abs(np.asarray(problem.F(pts), dtype=float) - problem.F0) ** (1.0 + problem.tau)
    rhs = np.sum(np.asarray(problem.grad(pts), dtype=float) ** 2, axis=-1)
    return bool(np.all(lhs <= rhs + SPOT_CHECK_SLACK))


def recorded_solves(monkeypatch) -> list:
    """Route gradientflow's solve_ivp through a recorder; returns its list of
    solutions."""
    sols = []

    def recording_solve_ivp(*args, **kwargs):
        sols.append(solve_ivp(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(gf, "solve_ivp", recording_solve_ivp)
    return sols


def stacked_interpolant(sol):
    """The RK45 interpolant of sol stacked by step: start times, widths,
    Q (n_steps, n, 4) and start states (n_steps, n)."""
    pieces = sol.sol.interpolants
    return (np.array([piece.t_old for piece in pieces]), np.array([piece.h for piece in pieces]),
            np.stack([piece.Q for piece in pieces]), np.stack([piece.y_old for piece in pieces]))


def einsum_reads(sol, rows, speed, t):
    """The reference read of one lane: per-read gathers of the stacked
    interpolant and one einsum over running-product powers, with each time's
    step clipped into range."""
    t_old, width, Q, y_old = stacked_interpolant(sol)
    Q, y_old = Q[:, rows], y_old[:, rows]
    s = np.asarray(t, dtype=float) / speed
    step = np.clip(np.searchsorted(sol.t, s, side="left") - 1, 0, width.size - 1)
    powers = np.empty((Q.shape[-1], *s.shape))
    powers[0] = (s - t_old[step]) / width[step]
    for k in range(1, len(powers)):
        np.multiply(powers[k - 1], powers[0], out=powers[k])
    return width[step] * np.einsum("tdk,kt->dt", Q[step], powers) + y_old[step].T


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def reference_run(problem, x0, t_end, tol):
    """The plain one-start solve_ivp run, written out as the oracle."""

    def rhs(t, x):
        return -np.asarray(problem.grad(x), dtype=float)

    def exit_ball(t, x):
        return float(np.dot(x, x) - problem.ball_radius**2)

    exit_ball.terminal = True
    exit_ball.direction = 1.0
    return solve_ivp(rhs, (0.0, float(t_end)), np.asarray(x0, dtype=float), method="RK45",
                     rtol=tol, atol=tol * 1e-3, dense_output=True, events=exit_ball)


class TestBuiltins:
    def test_catalog(self):
        names = {p.name for p in gf.builtin_problems()}
        assert {"quartic1d", "sextic1d", "quartic2d", "aniso2d"} <= names

    def test_exponents(self):
        taus = {p.name: p.tau for p in gf.builtin_problems()}
        assert taus["quartic1d"] == 0.5
        assert taus["sextic1d"] == pytest.approx(2.0 / 3.0)
        assert taus["aniso2d"] == pytest.approx(2.0 / 3.0)

    def test_decay_inequality_spot_check(self):
        rng = np.random.default_rng(5)
        for p in gf.builtin_problems():
            assert decay_inequality_spot_check(p, rng, n_samples=10_000)

    def test_critical_point(self):
        for p in gf.builtin_problems():
            assert p.F0 == 0.0
            assert np.max(np.abs(p.grad(np.zeros(p.dim)))) <= 1e-14

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            gf.problem_by_name("nope")

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_row_is_its_closed_form(self, name):
        terms, grad, tau, radius = CLOSED_FORMS[name]
        p = gf.problem_by_name(name)
        assert (p.tau, p.ball_radius) == (tau, radius)
        rng = np.random.default_rng(23)
        x = rng.uniform(-1.0, 1.0, size=(2000, p.dim)) * radius / np.sqrt(p.dim)
        F_terms = np.array(terms(*x.T))
        got_F, got_grad = p.F(x), p.grad(x)
        assert np.all(np.abs(got_F - F_terms.sum(axis=0)) <= ULPS * np.abs(F_terms).sum(axis=0))
        want_grad = np.array(grad(*x.T)).T
        assert np.all(np.abs(got_grad - want_grad) <= ULPS * np.abs(want_grad))
        assert np.array_equal(got_F, [p.F(row) for row in x])
        assert np.array_equal(got_grad, [p.grad(row) for row in x])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for p in gf.builtin_problems():
            for _ in range(200):
                d = rng.normal(size=p.dim)
                d /= np.linalg.norm(d)
                x = rng.uniform(0.1, 0.9) * p.ball_radius * d
                h = 3e-6 * max(0.05, float(np.max(np.abs(x))))
                fd = np.array([
                    (float(p.F(x + h * e)) - float(p.F(x - h * e))) / (2 * h)
                    for e in np.eye(p.dim)
                ])
                g = np.asarray(p.grad(x), dtype=float)
                assert np.linalg.norm(fd - g) <= 1e-6 * max(np.linalg.norm(g), 1e-12)


class TestIntegrate:
    def test_tracks_closed_form(self):
        traj = gf.integrate(QUARTIC, [0.2], t_end=100.0, tol=1e-9)
        ts = np.linspace(0.0, 100.0, 801)
        assert np.max(np.abs(traj.at(ts)[:, 0] - quartic_exact(0.2, ts))) < 1e-6

    def test_trajectory_needs_its_interpolant(self):
        # Trajectory.at reads only `dense`; there is no polyline fallback
        traj = gf.integrate(QUARTIC, [0.2], t_end=1.0)
        with pytest.raises(TypeError):
            gf.Trajectory(times=traj.times, points=traj.points, F_values=traj.F_values,
                          step_lengths=traj.step_lengths, problem=QUARTIC)

    def test_critical_start_is_constant(self):
        traj = gf.integrate(QUARTIC, [0.0], t_end=10.0)
        assert traj.length == 0.0
        assert np.max(np.abs(traj.points)) == 0.0

    def test_total_length_oracle(self):
        # monotone 1-d descent to the origin travels exactly |x0|
        traj = gf.integrate(QUARTIC, [0.2], t_end=2e12, tol=1e-10)
        assert abs(traj.length - 0.2) <= 1e-6

    def test_F_monotone_along_path(self):
        traj = gf.integrate(gf.problem_by_name("quartic2d"), [0.1, 0.15], t_end=50.0)
        assert np.max(np.diff(traj.F_values)) <= 1e-8

    def test_ball_exit_flag(self):
        traj = gf.integrate(SADDLE, [0.0, 0.3], t_end=50.0, tol=1e-9)
        assert traj.exited_ball
        assert np.linalg.norm(traj.points[-1]) == pytest.approx(SADDLE.ball_radius, abs=1e-6)

    def test_precondition_and_params(self):
        with pytest.raises(PreconditionError):
            gf.integrate(QUARTIC, [5.0], t_end=1.0)
        with pytest.raises(InvalidInputError):
            gf.integrate(QUARTIC, [0.1], t_end=-1.0)
        with pytest.raises(InvalidInputError):
            gf.integrate(QUARTIC, [0.1], t_end=np.nan)
        with pytest.raises(InvalidInputError):
            gf.integrate(QUARTIC, [0.1, 0.2], t_end=1.0)
        with pytest.raises(InvalidInputError):
            gf.integrate(QUARTIC, [np.nan], t_end=1.0)

    def test_horizon_and_tolerance_caps(self):
        # a horizon or tolerance past its cap is refused before integrating;
        # saddle2d starts near its unstable axis run clean at either cap
        with pytest.raises(InvalidInputError, match="need 0 < t_end <= 1e"):
            gf.integrate(QUARTIC, [0.1], t_end=10.0 * gf.MAX_T_END)
        with pytest.raises(InvalidInputError, match="need 0 < t_end <= 1e"):
            gf.integrate(QUARTIC, [0.1], t_end=1.0, tol=10.0 * gf.MAX_TOL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = gf.integrate(SADDLE, [1e-12, 1e-12], t_end=gf.MAX_T_END, tol=1e-10)
            assert traj.t_end == gf.MAX_T_END and not traj.exited_ball
            assert gf.integrate(SADDLE, [0.0, 1e-6], t_end=2e12, tol=gf.MAX_TOL).exited_ball

    def test_saddle_starts_near_both_caps_never_overflow(self):
        # t_end 1e16 and tol 1e-5: on the unstable axis and the diagonals,
        # starts at radius 10^-8.5 to 10^-6.5 blow up before t_end, at 1/(8 y0^2),
        # and an RK45 step can overshoot the exit event; every start of the
        # 10-per-decade scan that overflowed lies in this band.  Stage
        # coordinates are clamped to twice the radius, so none overflows;
        # a run ends inside the ball, at the exit, or stalled where the time
        # grid cannot resolve the exit
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for direction in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]):
                for radius in 10.0 ** (np.arange(-85, -64) / 10.0):
                    x0 = radius * np.array(direction) / np.linalg.norm(direction)
                    try:
                        traj = gf.integrate(SADDLE, x0, t_end=1e16, tol=1e-5)
                        outcomes.add("exit" if traj.exited_ball else "end")
                    except IntegrationError:
                        outcomes.add("stalled")
        assert outcomes == {"end", "exit", "stalled"}

    def test_tolerance_below_the_rk45_floor_is_refused(self):
        # solve_ivp would warn and run at rtol = 100 eps while the descent
        # check used 10 tol; a batch divides tol by sqrt(lanes) first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tol in (1e-300, 2.2e-14):
                with pytest.raises(InvalidInputError, match="below RK45's floor"):
                    gf.integrate(QUARTIC, [0.1], t_end=1.0, tol=tol)
            assert gf.integrate(QUARTIC, [0.1], t_end=1.0, tol=2.3e-14).t_end == 1.0
            with pytest.raises(InvalidInputError, match="for 100 lane"):
                gf.integrate(QUARTIC, np.full((100, 1), 0.1), t_end=1.0, tol=1e-13)

    def test_far_start_is_refused_without_overflow(self):
        # squaring 1e300 would overflow inside the norm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x0 in ([1e300], [-1e300], [np.finfo(float).max]):
                with pytest.raises(PreconditionError, match="outside the validity ball"):
                    gf.integrate(QUARTIC, x0, t_end=1.0)
            with pytest.raises(PreconditionError, match="outside the validity ball"):
                gf.integrate(SADDLE, [[0.1, 0.1], [1e300, 0.0]], t_end=1.0)


class TestBatchedIntegrate:
    def test_one_lane_is_the_plain_solve_ivp_run(self):
        # above, crossing and ball-exit runs, each bit for bit
        t_cross = saddle_crossing_time(0.15, 1e-3)
        for prob, x0, t_end in ((QUARTIC, [0.2], 100.0), (SADDLE, [0.15, 1e-3], 1.3 * t_cross),
                                (SADDLE, [0.0, 0.3], 50.0)):
            sol = reference_run(prob, x0, t_end, 1e-9)
            traj = gf.integrate(prob, x0, t_end, tol=1e-9)
            assert np.array_equal(traj.times, sol.t)
            assert np.array_equal(traj.points, sol.y.T)
            assert traj.exited_ball == (sol.status == 1)
            (lane,) = gf.integrate(prob, np.array([x0]), t_end, tol=1e-9)
            assert np.array_equal(lane.times, traj.times)
            assert np.array_equal(lane.points, traj.points)
        assert traj.exited_ball

    def test_batched_lanes_match_solo_runs(self):
        rng = np.random.default_rng(41)
        for prob in gf.builtin_problems():
            starts, horizons = zip(*(acceptance._classifier_sample(prob, rng, i) for i in range(10)))
            runs = gf.integrate(prob, np.array(starts), np.array(horizons), tol=1e-9)
            assert len(runs) == 10
            for run, x0, t_end in zip(runs, starts, horizons):
                solo = gf.integrate(prob, x0, t_end, tol=1e-9)
                assert run.t_start == 0.0 and run.t_end == t_end
                assert not run.exited_ball
                assert np.max(np.abs(run.points[-1] - solo.points[-1])) <= 1e-9
                batched_rep = gf.effective_bound(prob, run, epsilon=0.5)
                solo_rep = gf.effective_bound(prob, solo, epsilon=0.5)
                assert batched_rep.case_tag == solo_rep.case_tag
                assert batched_rep.sqrt_sum == pytest.approx(solo_rep.sqrt_sum, rel=1e-8)

    def test_mixed_quartic_lanes_track_closed_form(self):
        # at tol 3e-6 a solo run stays within 1e-6 of the closed form; 100
        # lanes sharing one error norm do so only with tol / sqrt(100)
        rng = np.random.default_rng(3)
        radii = rng.uniform(0.05, 0.24, 100) * rng.choice([-1.0, 1.0], 100)
        horizons = rng.uniform(20.0, 200.0, 100)
        runs = gf.integrate(QUARTIC, radii[:, None], horizons, tol=3e-6)
        for run, x0, t_end in zip(runs, radii, horizons):
            assert run.t_end == t_end  # also where (t_end / max) * max rounds off it
            ts = np.linspace(0.0, t_end, 801)
            assert np.max(np.abs(run.at(ts)[:, 0] - quartic_exact(x0, ts))) < 1e-6

    def test_exiting_lane_is_settled_alone(self):
        t_cross = saddle_crossing_time(0.15, 1e-3)
        starts = np.array([[0.15, 1e-3], [0.0, 0.3], [0.0, 0.01]])
        horizons = np.array([1.3 * t_cross, 50.0, 60.0])
        runs = gf.integrate(SADDLE, starts, horizons, tol=1e-9)
        assert [run.exited_ball for run in runs] == [False, True, False]
        assert np.linalg.norm(runs[1].points[-1]) == pytest.approx(SADDLE.ball_radius, abs=1e-6)
        assert runs[1].t_end < 50.0
        for run, x0, t_end in zip(runs, starts, horizons):
            solo = gf.integrate(SADDLE, x0, t_end, tol=1e-9)
            assert np.array_equal(run.times, solo.times)
            assert np.array_equal(run.points, solo.points)

    def test_lane_view_matches_stacked_interpolant(self, monkeypatch):
        sols = []

        def recording_solve_ivp(*args, **kwargs):
            sols.append(solve_ivp(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(gf, "solve_ivp", recording_solve_ivp)
        starts = np.array([[0.1, 0.15], [-0.2, 0.05], [0.02, -0.1]])
        horizons = np.array([50.0, 20.0, 5.0])
        runs = gf.integrate(gf.problem_by_name("quartic2d"), starts, horizons, tol=1e-9)
        (sol,) = sols
        rng = np.random.default_rng(8)
        s = np.concatenate([sol.t, rng.uniform(0.0, sol.t[-1], 500)])  # step ends included
        for i, run in enumerate(runs):
            speed = horizons[i] / horizons.max()
            t = speed * s
            want = sol.sol(t / speed)[2 * i:2 * i + 2]
            got = run.dense(t)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)))
            np.testing.assert_allclose(run.at(run.times), run.points, rtol=1e-13, atol=1e-16)

    def test_step_powers_are_the_cumprod_running_products(self, monkeypatch):
        # the reads equal, bit for bit, the step polynomial summed in k order
        # over np.cumprod's running-product powers of the step fraction
        sols = recorded_solves(monkeypatch)
        run = gf.integrate(gf.problem_by_name("quartic2d"), [0.1, 0.15], t_end=50.0, tol=1e-9)
        t_old, width, Q, y_old = stacked_interpolant(sols[0])
        t = np.random.default_rng(3).uniform(0.0, 50.0, 2000)
        step = np.clip(np.searchsorted(sols[0].t, t) - 1, 0, width.size - 1)
        powers = np.cumprod(np.tile((t - t_old[step]) / width[step], (4, 1)), axis=0)
        coef = Q[step]
        poly = coef[..., 0] * powers[0][:, None]
        for k in range(1, 4):
            poly = poly + coef[..., k] * powers[k][:, None]
        want = width[step][:, None] * poly + y_old[step]
        assert same_bits(run.dense(t).T, want)

    def test_lane_reads_match_the_einsum_formula(self, monkeypatch):
        # criterion 4's saddle lanes at seed 1234: unit marks from both ends,
        # the stored times, every step boundary, random times, and times
        # before the first and after the last step
        sols = recorded_solves(monkeypatch)
        runs = criterion_4_saddle_runs(1234)
        (sol,) = sols
        dim, m = SADDLE.dim, len(runs)
        t_old, width, Q, y_old = gf._interpolant_arrays(sol, m)
        rng = np.random.default_rng(5)
        for i, run in enumerate(runs):
            rows = slice(i * dim, (i + 1) * dim)
            assert Q[i].flags.c_contiguous and y_old[i].flags.c_contiguous
            speed = run.t_end / max(r.t_end for r in runs)
            n = min(int(run.t_end), gf.MAX_MARKS - 1)
            t = np.concatenate([
                np.arange(n + 1, dtype=float), run.t_end - np.arange(n + 1, dtype=float),
                run.times, speed * sol.t, rng.uniform(0.0, run.t_end, 200),
                [-1.0, -1e-300, -0.0, 1.5 * run.t_end, np.nextafter(run.t_end, np.inf)]])
            assert same_bits(run.dense(t), einsum_reads(sol, rows, speed, t))

    def test_one_at_a_time_reads_equal_batched_reads(self):
        run = gf.integrate(gf.problem_by_name("aniso2d"), [0.2, -0.3], t_end=40.0, tol=1e-9)
        t = np.concatenate([run.times, np.random.default_rng(9).uniform(-1.0, 41.0, 300)])
        batched = run.dense(t)
        single = np.column_stack([run.dense(np.array([ti])) for ti in t])
        assert same_bits(batched, single)
        assert same_bits(run.dense(t[::-1]), batched[:, ::-1])

    def test_batch_argument_validation(self):
        starts = np.array([[0.1], [0.2]])
        with pytest.raises(InvalidInputError):
            gf.integrate(QUARTIC, starts, t_end=[1.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError):
            gf.integrate(QUARTIC, starts, t_end=[1.0, 0.0])
        with pytest.raises(PreconditionError):
            gf.integrate(QUARTIC, np.array([[0.1], [5.0]]), t_end=1.0)
        with pytest.raises(InvalidInputError):
            gf.integrate(QUARTIC, np.zeros((2, 2)), t_end=1.0)
        with pytest.raises(InvalidInputError):
            gf.integrate(QUARTIC, np.zeros((0, 1)), t_end=1.0)


class TestSqrtSegmentSum:
    def test_constant_trajectory_is_zero(self):
        traj = gf.integrate(QUARTIC, [0.0], t_end=5.0)
        assert gf.sqrt_segment_sum(traj) == 0.0

    def test_short_trajectory_warns(self):
        traj = gf.integrate(QUARTIC, [0.1], t_end=0.5)
        with pytest.warns(UserWarning):
            assert gf.sqrt_segment_sum(traj) == 0.0

    def test_chord_bound_enforced_on_quartic(self):
        # passing without NumericError certifies chord <= sqrt(F-drop) per segment
        traj = gf.integrate(QUARTIC, [0.2], t_end=200.0, tol=1e-10)
        assert gf.sqrt_segment_sum(traj) > 0.0

    def test_partial_sums_monotone_in_mark_count(self, monkeypatch):
        traj = gf.integrate(QUARTIC, [0.2], t_end=64.0, tol=1e-10)
        sums = []
        for m in (4, 8, 16, 32, 64):
            monkeypatch.setattr(gf, "MAX_MARKS", m)
            sums.append(gf.sqrt_segment_sum(traj))
        assert all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))


class TestDecayEnvelope:
    def test_quartic_closed_form_comparison(self):
        # x0^4 (1 + 8 x0^2 t)^-2 <= x0^4 (1 + x0^2 t / 2)^-2 for all t >= 0
        x0 = 0.2
        t = np.linspace(0.0, 500.0, 2001)
        f = quartic_exact(x0, t) ** 4
        envelope = (x0 ** -2 + 0.5 * t) ** -2.0
        assert np.all(f <= envelope + 1e-15)
        assert f[0] == pytest.approx(envelope[0], rel=1e-12)  # equality at t = 0

    def test_along_integrated_path(self):
        traj = gf.integrate(QUARTIC, [0.2], t_end=300.0, tol=1e-10)
        assert gf.decay_envelope_check(traj)

    def test_random_quadratic_plus_quartic_problems(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            lam = rng.uniform(0.5, 2.0, size=2)
            beta = rng.uniform(0.5, 2.0, size=2)

            def F(x, lam=lam, beta=beta):
                x = np.asarray(x, dtype=float)
                return np.sum(lam * x**2 + beta * x**4, axis=-1)

            def grad(x, lam=lam, beta=beta):
                x = np.asarray(x, dtype=float)
                return 2.0 * lam * x + 4.0 * beta * x**3

            prob = gf.GradientProblem(name=f"qq{trial}", dim=2, F=F, grad=grad,
                                      tau=0.5, ball_radius=0.125)
            assert decay_inequality_spot_check(prob, rng, n_samples=2000)
            x0 = rng.uniform(-0.05, 0.05, size=2)
            traj = gf.integrate(prob, x0, t_end=30.0, tol=1e-10)
            assert gf.decay_envelope_check(traj)

    def test_not_applicable_below_critical_level(self):
        traj = gf.integrate(SADDLE, [0.0, 0.01], t_end=10.0)
        with pytest.raises(PreconditionError):
            gf.decay_envelope_check(traj)

    def test_holds_on_every_positive_builtin(self):
        # problems whose F stays above the critical value along any flow line
        rng = np.random.default_rng(31)
        for p in gf.builtin_problems():
            if p.name == "saddle2d":
                continue
            for _ in range(5):
                d = rng.normal(size=p.dim)
                d /= np.linalg.norm(d)
                traj = gf.integrate(p, rng.uniform(0.05, 0.3) * d, t_end=100.0, tol=1e-10)
                assert gf.decay_envelope_check(traj)


def scalar_bisection(traj, F0, t_lo, t_hi):
    """Reference crossing time: one F_at call per halving of the stored-sample
    bracket (or of [t_lo, t_hi] if the dense output does not confirm it)."""
    first_below = int(np.argmax(traj.F_values <= F0))
    brackets = [(t_lo, t_hi)]
    if first_below > 0:
        brackets.insert(0, (float(traj.times[first_below - 1]), float(traj.times[first_below])))
    for t_a, t_b in brackets:
        if float(traj.F_at(t_a)) >= F0 >= float(traj.F_at(t_b)):
            t_lo, t_hi = t_a, t_b
            break
    while t_hi - t_lo > gf.CROSSING_TOL:
        mid = 0.5 * (t_lo + t_hi)
        if mid <= t_lo or mid >= t_hi:
            break
        if float(traj.F_at(mid)) - F0 > 0.0:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def criterion_4_saddle_runs(seed):
    """Criterion 4's saddle lanes at a seed, integrated as it integrates them."""
    rng = np.random.default_rng(seed + 2)
    for problem in gf.builtin_problems():  # earlier problems draw from the same stream
        samples = [acceptance._classifier_sample(problem, rng, i) for i in range(100)]
    starts, horizons = zip(*samples)
    return gf.integrate(SADDLE, np.array(starts), t_end=np.array(horizons), tol=1e-9)


def saddle_crossing_lanes(seed):
    lanes = [run for run in criterion_4_saddle_runs(seed)
             if run.F_values[0] > SADDLE.F0 > run.F_values[-1]]
    assert len(lanes) == 50
    return lanes


@pytest.mark.parametrize("seed", [1234, 7])
def test_crossing_search_matches_scalar_bisection(monkeypatch, seed):
    """On criterion 4's 50 crossing lanes at a seed, effective_bound's crossing
    time lands within brentq's tolerance, CROSSING_TOL + 4 eps t, of the
    scalar bisection, with at most 15 F_at calls per lane."""
    calls = []
    real_F_at = gf.Trajectory.F_at

    def counting(self, t):
        calls.append(t)
        return real_F_at(self, t)

    monkeypatch.setattr(gf.Trajectory, "F_at", counting)
    for run in saddle_crossing_lanes(seed):
        want = scalar_bisection(run, SADDLE.F0, run.t_start, run.t_end)
        before = len(calls)
        got = gf.effective_bound(SADDLE, run, epsilon=0.5).crossing_time
        assert abs(got - want) <= gf.CROSSING_TOL + 4.0 * np.finfo(float).eps * want
        assert len(calls) - before <= 15


def test_crossing_search_refuses_a_dense_output_that_does_not_straddle():
    """Stored samples that cross F0 under a dense output that stays at the
    start point leave no sign change on [t1, t2]: NumericError."""
    run = gf.integrate(SADDLE, [0.15, 1e-3], t_end=1.3 * saddle_crossing_time(0.15, 1e-3))
    start = run.points[:1].T
    stuck = dataclasses.replace(run, dense=lambda t: np.repeat(start, np.size(t), axis=1))
    with pytest.raises(NumericError, match="crossing search"):
        gf.effective_bound(SADDLE, stuck, epsilon=0.5)


class TestEffectiveBound:
    def test_case_above_with_margin(self):
        traj = gf.integrate(QUARTIC, [0.2], t_end=100.0, tol=1e-9)
        rep = gf.effective_bound(QUARTIC, traj, epsilon=0.5)
        assert rep.case_tag == "above"
        assert rep.holds
        assert rep.length <= rep.sqrt_sum + 1e-9  # per-segment chord bound aggregates
        assert rep.bound_value > rep.sqrt_sum

    def test_zero_length_at_critical_point(self):
        traj = gf.integrate(QUARTIC, [0.0], t_end=10.0)
        rep = gf.effective_bound(QUARTIC, traj, epsilon=0.5)
        assert rep.length == 0.0
        assert rep.bound_value == 0.0
        assert rep.holds

    def test_case_below_on_unstable_axis(self):
        traj = gf.integrate(SADDLE, [0.0, 0.01], t_end=60.0, tol=1e-10)
        rep = gf.effective_bound(SADDLE, traj, epsilon=0.5)
        assert rep.case_tag == "below"
        assert rep.holds

    def test_case_crossing_on_saddle(self):
        x0, y0 = 0.15, 1e-3
        t_cross = (x0**2 - y0**2) / (16.0 * x0**2 * y0**2)
        traj = gf.integrate(SADDLE, [x0, y0], t_end=1.3 * t_cross, tol=1e-9)
        rep = gf.effective_bound(SADDLE, traj, epsilon=0.5)
        assert rep.case_tag == "crossing"
        assert rep.holds
        assert rep.crossing_time == pytest.approx(t_cross, rel=1e-3)

    def test_time_reversed_below_becomes_above_same_length(self):
        # reversing a below-the-level segment turns it into an above-the-level
        # segment for the negated field, with the same polyline length
        traj = gf.integrate(SADDLE, [0.0, 0.01], t_end=60.0, tol=1e-10)

        neg = gf.GradientProblem(
            name="saddle2d_neg", dim=2,
            F=lambda x: -SADDLE.F(x),
            grad=lambda x: -np.asarray(SADDLE.grad(x), dtype=float),
            tau=SADDLE.tau, ball_radius=SADDLE.ball_radius)
        t0 = traj.times[0]
        rev = gf.Trajectory(
            times=t0 + (traj.times[-1] - traj.times[::-1]),
            points=traj.points[::-1].copy(),
            F_values=-traj.F_values[::-1],
            step_lengths=traj.step_lengths[::-1].copy(),
            problem=neg,
            dense=lambda t: traj.dense(t0 + traj.times[-1] - np.asarray(t)))
        fwd_rep = gf.effective_bound(SADDLE, traj, epsilon=0.5)
        rev_rep = gf.effective_bound(neg, rev, epsilon=0.5)
        assert fwd_rep.case_tag == "below"
        assert rev_rep.case_tag == "above"
        assert rev.length == pytest.approx(traj.length, abs=0)
        assert rev_rep.holds

    def test_strict_small_epsilon_regime(self):
        # epsilon small enough that the certified bound itself is below 1/2
        consts = sq.constructive_bound(1.0, 0.5)
        eps = 1e-26
        assert 2.0 * consts.cap(eps) < 0.5
        traj = gf.integrate(QUARTIC, [1e-7], t_end=1e4, tol=1e-12)
        rep = gf.effective_bound(QUARTIC, traj, epsilon=eps)
        assert rep.holds
        assert rep.bound_value < 0.5

    def test_endpoint_preconditions(self):
        traj = gf.integrate(QUARTIC, [0.2], t_end=100.0)
        with pytest.raises(InvalidInputError):
            gf.effective_bound(QUARTIC, traj, epsilon=1.5)
        big = gf.integrate(QUARTIC, [0.5], t_end=3.0)
        with pytest.raises(PreconditionError):
            gf.effective_bound(QUARTIC, big, epsilon=0.9)


def test_trajectory_csv_columns_match_dimension():
    traj = gf.integrate(gf.problem_by_name("quartic2d"), [0.1, 0.1], t_end=5.0)
    assert traj.points.shape[1] == 2
    assert traj.F_values.shape == traj.times.shape
