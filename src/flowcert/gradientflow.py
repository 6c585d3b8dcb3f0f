"""Finite-dimensional gradient flows with a power-type gradient inequality.

Each problem bundles a scalar field F on R^n, its analytic gradient, the
critical value F(0), and a decay exponent tau in (1/3, 1) such that

    |F(x) - F(0)|^(1+tau) <= |grad F(x)|^2

holds on a stated ball around the origin.  Flow lines of x' = -grad F(x) then
lose F-value at a controlled rate, and a segment whose endpoints are close to
the critical level has total length bounded by an explicit function of the
endpoint level gaps alone.  The three-way classification (F stays above the
critical value, stays below, or crosses it once) follows the structure of that
length bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from . import sequences
from .errors import IntegrationError, InvalidInputError, NumericError, PreconditionError

SMALL_BALL = 0.25  # endpoint ball for the effective length bound
MAX_MARKS = 20_000  # unit marks one read takes: per side in effective_bound, in sqrt_segment_sum
CHORD_TOL = 1e-8  # slack of the unit-segment chord and descent checks
ENVELOPE_TOL = 1e-10  # absolute slack of the pointwise decay envelope
CROSSING_TOL = 1e-12  # absolute time tolerance of the crossing search
# Largest horizon and tolerance integrate accepts: the largest decades at
# which every bundled problem ran without an overflow warning from 1,127
# starts (the other value at the grad-flow default, tol 1e-10 or t_end 2e12)
# while stages outside the validity ball still evaluated the gradient there
MAX_T_END = 1e23
MAX_TOL = 1e-5
RK45_MIN_RTOL = 100.0 * np.finfo(float).eps  # smallest rtol solve_ivp honours
OVERSHOOT = 2.0  # stage coordinates are clamped to this multiple of the ball radius


@dataclass(frozen=True, eq=False)
class GradientProblem:
    """Scalar field with analytic gradient and a stated decay exponent.

    F and grad accept a point of shape (dim,) or a batch of shape (m, dim);
    batching follows from writing both to broadcast over the last axis.
    """

    name: str
    dim: int
    F: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    tau: float
    ball_radius: float

    def __post_init__(self):
        if not (1.0 / 3.0 < self.tau <= 1.0):
            raise InvalidInputError(f"need tau in (1/3, 1], got {self.tau}")
        if self.ball_radius <= 0:
            raise InvalidInputError("ball_radius must be positive")
        g0 = np.asarray(self.grad(np.zeros(self.dim)), dtype=float)
        if np.max(np.abs(g0)) > 1e-14:
            raise InvalidInputError(f"{self.name}: gradient at the origin is not zero")

    @property
    def F0(self) -> float:
        return float(self.F(np.zeros(self.dim)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped polyline of a flow line with F-values and chordal increments.

    `dense` evaluates the underlying interpolant at arbitrary times: given
    times of shape (m,), it returns points of shape (dim, m).
    """

    times: np.ndarray
    points: np.ndarray  # shape (len(times), dim)
    F_values: np.ndarray
    step_lengths: np.ndarray
    problem: GradientProblem
    dense: Callable
    exited_ball: bool = False

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.atleast_2d(np.asarray(self.points, dtype=float))
        if p.shape[0] != t.size or np.asarray(self.F_values).size != t.size:
            raise InvalidInputError("times, points and F_values must align")
        if np.any(np.diff(t) <= 0) and t.size > 1:
            raise InvalidInputError("times must be strictly increasing")

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def length(self) -> float:
        return float(np.sum(self.step_lengths))

    def at(self, t) -> np.ndarray:
        """Point(s) on the trajectory at time(s) t, shape (dim,) or (m, dim)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.asarray(self.dense(t_arr), dtype=float).T
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out

    def F_at(self, t) -> np.ndarray:
        return np.asarray(self.problem.F(self.at(t)), dtype=float)


def _interpolant_arrays(sol, m: int) -> tuple[np.ndarray, ...]:
    """The RK45 dense output of `sol`, a run of m stacked lanes, as arrays:
    step start times and widths, one row per solver step, and per lane its
    coefficients Q, (m, 4, dim, n_steps), and start states, (m, dim, n_steps),
    laid out once so that each is a contiguous (dim, n_steps) row per lane and
    coefficient.  The one place that reads scipy's interpolant internals."""
    pieces = sol.sol.interpolants
    t_old = np.array([piece.t_old for piece in pieces])
    width = np.array([piece.h for piece in pieces])
    Q = np.stack([piece.Q for piece in pieces]).reshape(width.size, m, -1, 4)
    y_old = np.stack([piece.y_old for piece in pieces]).reshape(width.size, m, -1)
    return (t_old, width, np.ascontiguousarray(Q.transpose(1, 3, 2, 0)),
            np.ascontiguousarray(y_old.transpose(1, 2, 0)))


def _lane_dense(bounds: np.ndarray, t_old: np.ndarray, width: np.ndarray,
                Q: np.ndarray, y_old: np.ndarray, speed: float) -> Callable:
    """Dense output of one lane at flow times t (solver times t / speed),
    shape (dim, len(t)) like `OdeSolution`; Q and y_old are the lane's own
    (4, dim, n_steps) and (dim, n_steps) blocks.

    Each time picks its step as `OdeSolution` does (at a step boundary, the
    step that ends there): one searchsorted over the interior boundaries
    `bounds` = step_t[1:-1], so a time before the first step reads the first
    and one after the last step reads the last.  The step polynomial
    y_old + h (Q_1 x + Q_2 x^2 + Q_3 x^3 + Q_4 x^4), x the fraction of the
    step, is summed in k order over the running-product powers x^k = x^(k-1) x
    (as np.cumprod forms them), each row gathered by `take` along its steps.
    """

    def dense(t):
        s = np.asarray(t, dtype=float) / speed
        step = np.searchsorted(bounds, s)
        h = width.take(step)
        power = x = (s - t_old.take(step)) / h
        out = Q[0].take(step, axis=1) * power
        for k in range(1, Q.shape[0]):
            power = power * x
            out += Q[k].take(step, axis=1) * power
        out *= h
        out += y_old.take(step, axis=1)
        return out

    return dense


def integrate(problem: GradientProblem, x0, t_end,
              tol: float = 1e-9) -> Trajectory | list[Trajectory]:
    """Integrate x' = -grad F(x) from x0 with adaptive error control.

    x0 is one start point of shape (dim,), which returns a Trajectory, or a
    batch of m lanes of shape (m, dim) with t_end a scalar or of shape (m,),
    which returns a list of m Trajectories.  A single start is the batch of
    one.  All lanes share one RK45 run of the stacked system

        y_i' = -k_i grad F(y_i),   k_i = t_end_i / max_j t_end_j,

    on s in [0, max t_end]: lane i at solver time s is the flow at its own
    time t = k_i s, so it ends exactly at its own horizon and never beyond.
    For one lane k = 1 and the run is the plain flow.

    Local error per step is held at tol (relative, and 1e-3 tol absolute) in
    every lane.  The solver accepts a step when the RMS of error/scale over
    all m*dim components is at most 1, and both tolerances are divided by
    sqrt(m), which divides every scale by sqrt(m).  With scales at the
    undivided tol the accepted step then has sum of (error/scale)^2 over all
    components at most dim, so each lane's own sum is at most dim: its own
    RMS is at most 1, as in a run of that lane alone.  Lane i's error over a
    solver step is the plain flow's error over a step k_i times as long.
    A tol with tol/sqrt(m) below RK45's rtol floor of 100 eps is refused, as
    the solver would run at the floor while the descent check used tol.

    The run stops early, with a flag, if the flow exits the problem's
    validity ball: the event is the largest |y_i|^2 - r^2.  A step that
    overshoots the exit may place stages far outside the ball, where F and
    its gradient can overflow (saddle2d's flow blows up 1/8 of a time unit
    after it leaves the unit ball).  Every stage coordinate is therefore
    clamped to [-OVERSHOOT r, OVERSHOOT r] before the gradient is taken: the
    right-hand side is bounded and continuous, and the flow's own inside that
    box, which holds the ball and so wherever the recorded flow runs.  A
    batch whose run ends at an exit or a stall is integrated again one lane
    at a time, so each lane stops at its own exit or raises its own
    IntegrationError.  The recorded F-values of every lane are checked to be
    non-increasing up to 10*tol.  The shared interpolant is laid out once
    per batch, lane by lane and coefficient-major, and each Trajectory's
    `dense` reads only its own lane's rows.
    """
    x0 = np.asarray(x0, dtype=float)
    lanes = np.atleast_2d(x0)
    if (x0.ndim > 2 or lanes.shape[1] != problem.dim or lanes.shape[0] == 0
            or not np.all(np.isfinite(lanes))):
        raise InvalidInputError(f"x0 must be finite of dimension {problem.dim}, got {x0}")
    # a coordinate beyond the radius is refused before its square can overflow
    if (np.any(np.abs(lanes) > problem.ball_radius)
            or np.any(np.linalg.norm(lanes, axis=1) > problem.ball_radius)):
        raise PreconditionError("x0 lies outside the validity ball")
    m, dim = lanes.shape
    try:
        horizons = np.broadcast_to(np.asarray(t_end, dtype=float), (m,))
    except ValueError:
        raise InvalidInputError(f"t_end must be a scalar or hold one horizon per lane ({m})") from None
    if not (0 < tol <= MAX_TOL and np.all((0 < horizons) & (horizons <= MAX_T_END))):
        raise InvalidInputError(f"need 0 < t_end <= {MAX_T_END:g} and 0 < tol <= {MAX_TOL:g}")
    root_m = math.sqrt(m)
    if tol / root_m < RK45_MIN_RTOL:
        raise InvalidInputError(f"tol {tol:g} is below RK45's floor {RK45_MIN_RTOL * root_m:.3g} "
                                f"for {m} lane(s)")
    s_end = float(np.max(horizons))
    speed = horizons / s_end
    neg_speed = -speed[:, None]
    reach = OVERSHOOT * problem.ball_radius

    def rhs(s, y):
        y = np.minimum(np.maximum(y.reshape(m, dim), -reach), reach)
        return (neg_speed * np.asarray(problem.grad(y), dtype=float)).ravel()

    def exit_ball(s, y):
        y = y.reshape(m, dim)
        return float(np.max(np.einsum("ij,ij->i", y, y)) - problem.ball_radius**2)

    exit_ball.terminal = True
    exit_ball.direction = 1.0

    sol = solve_ivp(rhs, (0.0, s_end), lanes.ravel(), method="RK45", rtol=tol / root_m,
                    atol=tol * 1e-3 / root_m, dense_output=True, events=exit_ball)
    if sol.status != 0 and m > 1:
        return [integrate(problem, lane, horizon, tol) for lane, horizon in zip(lanes, horizons)]
    if sol.status == -1:
        raise IntegrationError(f"integration stalled at t={sol.t[-1]}: {sol.message}",
                               last_state=(float(sol.t[-1]), sol.y[:, -1].copy()))
    t_old, width, Q, y_old = _interpolant_arrays(sol, m)
    bounds = sol.t[1:-1]
    runs = []
    for i in range(m):
        rows = slice(i * dim, (i + 1) * dim)
        times = speed[i] * sol.t
        if sol.status == 0:
            times[-1] = horizons[i]
        pts = sol.y[rows].T.copy()
        F_vals = np.asarray(problem.F(pts), dtype=float)
        if np.max(np.diff(F_vals), initial=-np.inf) > 10.0 * tol:
            raise NumericError("F increased beyond tolerance along the flow; tighten tol")
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1) if len(pts) > 1 else np.zeros(0)
        runs.append(Trajectory(
            times=times,
            points=pts,
            F_values=F_vals,
            step_lengths=steps,
            problem=problem,
            exited_ball=sol.status == 1,
            dense=_lane_dense(bounds, t_old, width, Q[i], y_old[i], speed[i]),
        ))
    return runs[0] if x0.ndim < 2 else runs


def sqrt_segment_sum(traj: Trajectory) -> float:
    """Sum of sqrt(F-drop) over unit-time segments starting at the trajectory head.

    Also verifies the per-segment chord bound: the straight-line distance
    covered in one unit of time is at most sqrt of the F-drop over it (up to
    CHORD_TOL).  Trajectories shorter than one time unit yield 0 with a warning.
    The number of marks is capped at MAX_MARKS; the sum is then a partial one
    (every term is nonnegative, so it is still a lower bound and is
    non-decreasing in the number of marks).
    """
    span = traj.t_end - traj.t_start
    if span < 1.0:
        warnings.warn("trajectory spans less than one time unit; empty sum", stacklevel=2)
        return 0.0
    pts, F_vals, _ = _mark_values(traj, traj.t_start, traj.t_end, "start")
    drops = F_vals[:-1] - F_vals[1:]
    if np.min(drops, initial=0.0) < -10.0 * CHORD_TOL:
        raise NumericError("F increased across a unit mark; data is not a descent flow")
    drops = np.maximum(drops, 0.0)
    chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    slack = chords - np.sqrt(drops)
    if np.max(slack, initial=0.0) > CHORD_TOL:
        raise NumericError(
            f"unit-segment chord exceeds sqrt(F-drop) by {np.max(slack):.3e}; "
            "integration tolerance too loose for this check")
    return float(np.sum(np.sqrt(drops)))


def decay_envelope_check(traj: Trajectory) -> bool:
    """Check f(t) <= (f(t0)^(-tau) + tau (t - t0))^(-1/tau) + ENVELOPE_TOL at every
    stored sample, where f = F - F0 must be strictly positive along the
    trajectory and tau is the problem's exponent."""
    tau = traj.problem.tau
    f = np.asarray(traj.F_values, dtype=float) - traj.problem.F0
    if np.any(f <= 0.0):
        raise PreconditionError("F - F0 is not strictly positive along the trajectory")
    t_rel = traj.times - traj.t_start
    envelope = (f[0] ** (-tau) + tau * t_rel) ** (-1.0 / tau)
    return bool(np.all(f <= envelope + ENVELOPE_TOL))


@dataclass(frozen=True)
class EffectiveBoundReport:
    """Outcome of the endpoint-controlled length bound along one flow segment."""

    case_tag: str  # above | below | crossing
    length: float
    sqrt_sum: float
    bound_value: float
    holds: bool
    c: float
    alpha: float
    delta_F1: float
    delta_F2: float
    crossing_time: float | None = None
    n_marks: int = 0
    marks_truncated: bool = False


def _mark_values(traj: Trajectory, t_from: float, t_to: float,
                 anchor: str) -> tuple[np.ndarray, np.ndarray, bool]:
    """Points and F-values at unit marks in [t_from, t_to], anchored at one end.

    anchor='start': marks t_from, t_from+1, ...; anchor='end': marks ...,
    t_to-1, t_to.  Returned in increasing time order, at most MAX_MARKS of
    them; the flag says whether the cap cut marks off.
    """
    span = t_to - t_from
    n = min(int(math.floor(span)), MAX_MARKS - 1)
    truncated = n < int(math.floor(span))
    if anchor == "start":
        marks = t_from + np.arange(n + 1, dtype=float)
    else:
        marks = t_to - np.arange(n, -1, -1, dtype=float)
    pts = traj.at(marks)
    return pts, np.asarray(traj.problem.F(pts), dtype=float), truncated


def effective_bound(problem: GradientProblem, traj: Trajectory,
                    epsilon: float) -> EffectiveBoundReport:
    """Endpoint-controlled bound for the length of a flow segment.

    Both endpoints must lie in the ball of radius 1/4 with |F - F0| < epsilon.
    The segment is classified by where F sits relative to the critical value
    F0: `above` (never below at the far end), `below` (already at or below at
    the start), or `crossing` (splits where F meets F0, found by Brent's
    method on [t1, t2] to CROSSING_TOL).  The unit-mark F-sequences of each
    piece feed the discrete summability certificate with C = 1 and the
    problem's tau, and the report states whether

        length <= c |F(t1) - F0|^alpha + c |F0 - F(t2)|^alpha

    and the same for the sqrt-drop sum, with (c, alpha) the certificate pair.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError(f"need epsilon in (0, 1), got {epsilon}")
    if not 1.0 / 3.0 < problem.tau < 1.0:
        raise InvalidInputError("certificate needs tau in (1/3, 1)")
    F0 = problem.F0
    p1, p2 = traj.points[0], traj.points[-1]
    if np.linalg.norm(p1) > SMALL_BALL or np.linalg.norm(p2) > SMALL_BALL:
        raise PreconditionError("segment endpoints must lie in the ball of radius 1/4")
    dF1 = float(traj.F_values[0]) - F0
    dF2 = float(traj.F_values[-1]) - F0
    if abs(dF1) >= epsilon or abs(dF2) >= epsilon:
        raise PreconditionError("endpoint |F - F0| must be below epsilon")

    consts = sequences._constructive_bound_cached(1.0, float(problem.tau))  # (1, tau) checked above
    bound_value = consts.cap(abs(dF1)) + consts.cap(abs(dF2))

    # The part above F0 is read at marks anchored at t1 up to t_split, the part
    # below at marks anchored at t2 back to t_split.  The leftover sub-unit
    # segments next to t_split still obey the per-segment chord bound, so
    # their sqrt-drops down to (or up from) `level`, the F-value at t_split,
    # join the reported sum.
    t1, t2 = traj.t_start, traj.t_end
    crossing_time = None
    if dF2 >= 0.0:
        case_tag, t_split, level = "above", t2, float(traj.F_values[-1])
    elif dF1 <= 0.0:
        case_tag, t_split, level = "below", t1, float(traj.F_values[0])
    else:
        try:
            crossing_time = brentq(lambda t: float(traj.F_at(t)) - F0, t1, t2, xtol=CROSSING_TOL)
        except (ValueError, RuntimeError) as exc:  # no sign change, or no convergence
            raise NumericError(f"crossing search on [{t1}, {t2}] failed: {exc}") from None
        case_tag, t_split, level = "crossing", crossing_time, F0
    sides = []  # (gap series to certify, leftover F-drop at t_split, marks, truncated)
    if case_tag != "below":
        _, vals, cut = _mark_values(traj, t1, t_split, "start")
        sides.append((vals - F0, float(vals[-1]) - level, vals.size, cut))
    if case_tag != "above":
        _, vals, cut = _mark_values(traj, t_split, t2, "end")
        sides.append(((F0 - vals)[::-1], level - float(vals[0]), vals.size, cut))
    gaps, leftovers, sizes, cuts = zip(*sides)
    parts = [sequences.certify_part(g, consts) for g in gaps]
    sqrt_sum = sum(p.sqrt_diff_sum for p in parts) + sum(math.sqrt(max(d, 0.0)) for d in leftovers)
    hypothesis_ok = all(p.hypothesis_ok for p in parts)
    length = traj.length
    holds = (hypothesis_ok and length <= bound_value + sequences.CAP_SLACK
             and sqrt_sum <= bound_value + sequences.CAP_SLACK)
    return EffectiveBoundReport(
        case_tag=case_tag,
        length=length,
        sqrt_sum=sqrt_sum,
        bound_value=bound_value,
        holds=holds,
        c=consts.c,
        alpha=consts.alpha,
        delta_F1=dF1,
        delta_F2=dF2,
        crossing_time=crossing_time,
        n_marks=sum(sizes),
        marks_truncated=any(cuts),
    )


def _monomial_sum(name: str, coef, power, tau: float, ball_radius: float) -> GradientProblem:
    """F(x) = sum_i coef_i x_i^power_i, whose gradient has entries
    coef_i power_i x_i^(power_i - 1), both read from the same (coef, power).

    With |coef_i| = 1, even powers of at least 4 and dim <= 2, the stated
    tau = 1 - 2/max power makes the decay inequality hold on the unit ball:
    |F|^(1+tau) is at most dim^tau <= 2 times the sum of the terms'
    |x_i|^(power_i (1 + tau)), each of which is at most |x_i|^(2 power_i - 2),
    while |grad F|^2 is at least 16 times that sum.  When all powers are equal
    each term's step is an equality at every x, so the inequality holds on
    any ball.
    """
    coef = np.asarray(coef, dtype=float)
    power = np.asarray(power, dtype=float)
    slope = coef * power
    lowered = power - 1.0

    def F(x):
        return np.asarray(x, dtype=float) ** power @ coef

    def grad(x):
        return slope * np.asarray(x, dtype=float) ** lowered

    return GradientProblem(name=name, dim=coef.size, F=F, grad=grad, tau=tau,
                           ball_radius=ball_radius)


def builtin_problems() -> list[GradientProblem]:
    """The bundled test problems, each with a verified decay exponent.

    saddle2d, x^4 - y^4, dips below the critical value along generic flow
    lines, which exercises the below and crossing branches of the classifier.
    """
    rows = [  # name, coefficients, powers, tau, ball radius
        ("quartic1d", [1.0], [4], 0.5, 2.0),
        ("sextic1d", [1.0], [6], 1.0 - 1.0 / 3.0, 2.0),
        ("quartic2d", [1.0, 1.0], [4, 4], 0.5, 2.0),
        ("aniso2d", [1.0, 1.0], [4, 6], 2.0 / 3.0, 1.0),
        ("saddle2d", [1.0, -1.0], [4, 4], 0.5, 1.0),
    ]
    return [_monomial_sum(*row) for row in rows]


def problem_by_name(name: str) -> GradientProblem:
    for prob in builtin_problems():
        if prob.name == name:
            return prob
    known = ", ".join(p.name for p in builtin_problems())
    raise InvalidInputError(f"unknown problem '{name}' (known: {known})")
