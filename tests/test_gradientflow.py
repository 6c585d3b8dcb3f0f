import numpy as np
import pytest

from flowcert import gradientflow as gf
from flowcert import sequences as sq
from flowcert.errors import (
    EnvelopeNotApplicableError,
    InvalidInputError,
    ParameterError,
    PreconditionError,
)

QUARTIC = gf.problem_by_name("quartic1d")
SADDLE = gf.problem_by_name("saddle2d")


def quartic_exact(x0, t):
    return x0 / np.sqrt(1.0 + 8.0 * x0**2 * np.asarray(t, dtype=float))


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
            assert p.decay_inequality_spot_check(rng, n_samples=10_000)

    def test_critical_point(self):
        for p in gf.builtin_problems():
            assert p.F0 == 0.0
            assert np.max(np.abs(p.grad(np.zeros(p.dim)))) <= 1e-14

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            gf.problem_by_name("nope")

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
        with pytest.raises(ParameterError):
            gf.integrate(QUARTIC, [0.1], t_end=-1.0)
        with pytest.raises(ParameterError):
            gf.integrate(QUARTIC, [0.1], t_end=np.nan)
        with pytest.raises(InvalidInputError):
            gf.integrate(QUARTIC, [0.1, 0.2], t_end=1.0)
        with pytest.raises(InvalidInputError):
            gf.integrate(QUARTIC, [np.nan], t_end=1.0)


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

    def test_partial_sums_monotone_in_mark_count(self):
        traj = gf.integrate(QUARTIC, [0.2], t_end=64.0, tol=1e-10)
        sums = [gf.sqrt_segment_sum(traj, max_marks=m) for m in (4, 8, 16, 32, 64)]
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
            assert prob.decay_inequality_spot_check(rng, n_samples=2000)
            x0 = rng.uniform(-0.05, 0.05, size=2)
            traj = gf.integrate(prob, x0, t_end=30.0, tol=1e-10)
            assert gf.decay_envelope_check(traj)

    def test_not_applicable_below_critical_level(self):
        traj = gf.integrate(SADDLE, [0.0, 0.01], t_end=10.0)
        with pytest.raises(EnvelopeNotApplicableError):
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
            problem=neg)
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
        with pytest.raises(ParameterError):
            gf.effective_bound(QUARTIC, traj, epsilon=1.5)
        big = gf.integrate(QUARTIC, [0.5], t_end=3.0)
        with pytest.raises(PreconditionError):
            gf.effective_bound(QUARTIC, big, epsilon=0.9)


def test_trajectory_csv_columns_match_dimension():
    traj = gf.integrate(gf.problem_by_name("quartic2d"), [0.1, 0.1], t_end=5.0)
    assert traj.points.shape[1] == 2
    assert traj.F_values.shape == traj.times.shape
