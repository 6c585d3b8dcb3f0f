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

    F and grad accept a point of shape (dim,) or points of shape (..., dim);
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


class _Interpolant:
    """The RK45 dense output of `sol`, a run of m stacked lanes, laid out once:
    interior step boundaries `bounds` = step_t[1:-1], step start times and
    widths, and per lane coefficients Q, (m, dim, 4, n_steps), and start
    states, (m, dim, n_steps), each a contiguous n_steps row per lane,
    coordinate and coefficient, stacked in place.  The one place that reads
    scipy's interpolant internals."""

    def __init__(self, sol, m: int):
        pieces = sol.sol.interpolants
        self.bounds = sol.t[1:-1]
        self.t_old = np.array([piece.t_old for piece in pieces])
        self.width = np.array([piece.h for piece in pieces])
        self.Q = np.stack([piece.Q for piece in pieces], axis=-1).reshape(m, -1, 4, len(pieces))
        self.y_old = np.stack([piece.y_old for piece in pieces], axis=-1).reshape(m, -1, len(pieces))

    def sorted_steps(self, s: np.ndarray) -> np.ndarray:
        """searchsorted(bounds, s) for non-decreasing s, by one search of bounds into s."""
        ends = np.searchsorted(s, self.bounds, side="right")
        return np.repeat(np.arange(ends.size + 1), np.diff(ends, prepend=0, append=s.size))

    def read(self, lanes, s: np.ndarray, step: np.ndarray) -> np.ndarray:
        """Points of `lanes` (a slice; an index list copies its rows) at solver
        times s in steps `step`, (lanes, dim, len(s)): y_old + h (Q_1 x + ... +
        Q_4 x^4), x the step fraction, summed in k order over the running
        products x^k = x^(k-1) x (as np.cumprod forms them), rows by `take`."""
        Q = self.Q[lanes]
        h = self.width.take(step)
        power = x = (s - self.t_old.take(step)) / h
        out = Q[:, :, 0].take(step, axis=-1) * power
        for k in range(1, Q.shape[2]):
            power = power * x
            out += Q[:, :, k].take(step, axis=-1) * power
        out *= h
        out += self.y_old[lanes].take(step, axis=-1)
        return out


@dataclass(frozen=True, eq=False)
class _LaneDense:
    """Dense output of one lane at flow times t (solver times t / speed),
    (dim, len(t)), each time in the step `OdeSolution` picks for it."""

    interp: _Interpolant
    lane: int
    speed: float

    def __call__(self, t) -> np.ndarray:
        s = np.asarray(t, dtype=float) / self.speed
        return self.interp.read(slice(self.lane, self.lane + 1), s,
                                np.searchsorted(self.interp.bounds, s))[0]


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
    validity ball: the event is the largest |y_i|^2 - r^2.  A single lane
    carries the event on solve_ivp, which stops at the exit.  A batch of
    several lanes runs without it and reads the event off its stored step
    ends by solve_ivp's rule, g <= 0 <= g_new (solve_ivp tests events at step
    ends only, so these are the same steps), which spares the per-step event
    call on batches that stay inside.  A batch that shows an exit, or stalls,
    is integrated again one lane at a time, so each lane stops at its own
    exit or raises its own IntegrationError; such a batch has then run to
    its horizon instead of to the first exit before the reruns.
    A step that overshoots the exit may place stages far outside the ball,
    where F and its gradient can overflow (saddle2d's flow blows up 1/8 of a
    time unit after it leaves the unit ball).  Every stage coordinate is
    therefore clamped to [-OVERSHOOT r, OVERSHOOT r] before the gradient is
    taken: the right-hand side is bounded and continuous, and the flow's own
    inside that box, which holds the ball and so wherever the recorded flow
    runs.  Times, points, F-values and step lengths are whole-batch arrays,
    the F-values checked to be non-increasing up to 10*tol, and the shared
    interpolant is laid out once per batch; each Trajectory holds its rows.
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

    def ball_gap(y):  # y of shape (m, dim), or (m, steps, dim) for every stored step
        return np.max(np.einsum("...j,...j->...", y, y), axis=0) - problem.ball_radius**2

    def exit_ball(s, y):
        return float(ball_gap(y.reshape(m, dim)))

    exit_ball.terminal = True
    exit_ball.direction = 1.0

    sol = solve_ivp(rhs, (0.0, s_end), lanes.ravel(), method="RK45", rtol=tol / root_m,
                    atol=tol * 1e-3 / root_m, dense_output=True,
                    events=exit_ball if m == 1 else None)
    points = np.ascontiguousarray(sol.y.reshape(m, dim, -1).transpose(0, 2, 1))
    if m > 1:
        gap = ball_gap(points)
        if np.any((gap[:-1] <= 0.0) & (gap[1:] >= 0.0)) or sol.status == -1:
            return [integrate(problem, lane, horizon, tol) for lane, horizon in zip(lanes, horizons)]
    if sol.status == -1:
        raise IntegrationError(f"integration stalled at t={sol.t[-1]}: {sol.message}",
                               last_state=(float(sol.t[-1]), sol.y[:, -1].copy()))
    interp = _Interpolant(sol, m)
    times = speed[:, None] * sol.t
    if sol.status == 0:
        times[:, -1] = horizons
    F_vals = np.asarray(problem.F(points), dtype=float)
    if np.max(np.diff(F_vals, axis=1), initial=-np.inf) > 10.0 * tol:
        raise NumericError("F increased beyond tolerance along the flow; tighten tol")
    steps = np.linalg.norm(np.diff(points, axis=1), axis=2)
    runs = [Trajectory(times=times[i], points=points[i], F_values=F_vals[i],
                       step_lengths=steps[i], problem=problem, exited_ball=sol.status == 1,
                       dense=_LaneDense(interp, i, speed[i])) for i in range(m)]
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
    (pts,), (F_vals,) = _mark_values([traj], _unit_marks(traj.t_start, traj.t_end, "start")[0])
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


def _unit_marks(t_from: float, t_to: float, anchor: str) -> tuple[np.ndarray, bool]:
    """Unit marks in [t_from, t_to], increasing, at most MAX_MARKS of them, and
    whether that cap cut marks off.  anchor='start': marks t_from, t_from+1,
    ...; anchor='end': marks ..., t_to-1, t_to."""
    span = int(math.floor(t_to - t_from))
    n = min(span, MAX_MARKS - 1)
    if anchor == "start":
        return t_from + np.arange(n + 1, dtype=float), n < span
    return t_to - np.arange(n, -1, -1, dtype=float), n < span


def _mark_values(lanes: list[Trajectory], marks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points, (lanes, marks, dim), and F-values, (lanes, marks), at increasing
    times `marks` on lanes of one interpolant and speed (or one other
    Trajectory): one step lookup, one dense read and one F call, each value
    the bits of Trajectory.at and Trajectory.F_at.  Lanes at evenly spaced
    rows are read through a slice, so no lane's coefficients are copied."""
    dense = lanes[0].dense
    if isinstance(dense, _LaneDense):
        rows = [lane.dense.lane for lane in lanes]
        stride = rows[-1] - rows[-2] if len(rows) > 1 else 1
        if stride > 0 and rows == list(range(rows[0], rows[-1] + 1, stride)):
            rows = slice(rows[0], rows[-1] + 1, stride)
        s = marks / dense.speed
        pts = dense.interp.read(rows, s, dense.interp.sorted_steps(s))
    else:
        pts = np.asarray(dense(marks), dtype=float)[None]
    pts = pts.transpose(0, 2, 1)
    return pts, np.asarray(lanes[0].problem.F(pts), dtype=float)


def effective_bound(problem: GradientProblem, runs: Trajectory | list[Trajectory],
                    epsilon: float) -> EffectiveBoundReport | list[EffectiveBoundReport]:
    """Endpoint-controlled bound for the length of each flow segment of a batch.

    runs is one Trajectory, which returns a report, or a list of them (such
    as a batch from integrate), which returns a list; one Trajectory is the
    batch of one.  Both endpoints of each segment must lie in the ball of
    radius 1/4 with |F - F0| < epsilon.  A segment is classified by where F
    sits relative to the critical value F0: `above` (never below at the far
    end), `below` (already at or below at the start), or `crossing` (splits
    where F meets F0, found by Brent's method on [t1, t2] to CROSSING_TOL,
    one search per segment).  The unit-mark F-sequences of each piece feed
    the discrete summability certificate with C = 1 and the problem's tau,
    one sequences.certify_part call per piece, and each report states whether

        length <= c |F(t1) - F0|^alpha + c |F0 - F(t2)|^alpha

    and the same for the sqrt-drop sum, with (c, alpha) the certificate pair.
    Pieces of lanes that share a batch interpolant, a speed and the same unit
    marks are read as one block.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError(f"need epsilon in (0, 1), got {epsilon}")
    consts = sequences.constructive_bound(1.0, problem.tau)
    batch = [runs] if isinstance(runs, Trajectory) else list(runs)
    F0 = problem.F0

    # The part above F0 is read at marks anchored at t1 up to t_split, the part
    # below at marks anchored at t2 back to t_split.  The leftover sub-unit
    # segments next to t_split still obey the per-segment chord bound, so
    # their sqrt-drops down to (or up from) `level`, the F-value at t_split,
    # join the reported sum.
    cases, blocks = [], {}
    for lane, traj in enumerate(batch):
        p1, p2 = traj.points[0], traj.points[-1]
        if np.linalg.norm(p1) > SMALL_BALL or np.linalg.norm(p2) > SMALL_BALL:
            raise PreconditionError("segment endpoints must lie in the ball of radius 1/4")
        dF1 = float(traj.F_values[0]) - F0
        dF2 = float(traj.F_values[-1]) - F0
        if abs(dF1) >= epsilon or abs(dF2) >= epsilon:
            raise PreconditionError("endpoint |F - F0| must be below epsilon")
        t1, t2 = traj.t_start, traj.t_end
        crossing_time = None
        if dF2 >= 0.0:
            case_tag, t_split, level = "above", t2, float(traj.F_values[-1])
        elif dF1 <= 0.0:
            case_tag, t_split, level = "below", t1, float(traj.F_values[0])
        else:
            try:
                crossing_time = brentq(lambda t: float(traj.F_at(t)) - F0, t1, t2,
                                       xtol=CROSSING_TOL)
            except (ValueError, RuntimeError) as exc:  # no sign change, or no convergence
                raise NumericError(f"crossing search on [{t1}, {t2}] failed: {exc}") from None
            case_tag, t_split, level = "crossing", crossing_time, F0
        cases.append((case_tag, level, crossing_time, dF1, dF2))
        for anchor, t_from, t_to in (("start", t1, t_split), ("end", t_split, t2)):
            if case_tag != {"start": "below", "end": "above"}[anchor]:
                dense = traj.dense
                reader = (dense.interp, dense.speed) if isinstance(dense, _LaneDense) else traj
                blocks.setdefault((reader, t_from, t_to, anchor), []).append(lane)

    pieces = [{} for _ in batch]  # anchor -> (certificate, leftover F-drop at t_split, marks, truncated)
    for (_, t_from, t_to, anchor), members in blocks.items():
        marks, cut = _unit_marks(t_from, t_to, anchor)
        _, F_vals = _mark_values([batch[lane] for lane in members], marks)
        for lane, vals in zip(members, F_vals):
            level = cases[lane][1]
            gaps, leftover = ((vals - F0, float(vals[-1]) - level) if anchor == "start"
                              else ((F0 - vals)[::-1], level - float(vals[0])))
            pieces[lane][anchor] = (sequences.certify_part(gaps, consts), leftover, marks.size, cut)

    reports = []
    for traj, (case_tag, _, crossing_time, dF1, dF2), sides in zip(batch, cases, pieces):
        parts, leftovers, sizes, cuts = zip(*(sides[a] for a in ("start", "end") if a in sides))
        sqrt_sum = (sum(p.sqrt_diff_sum for p in parts)
                    + sum(math.sqrt(max(d, 0.0)) for d in leftovers))
        bound_value = consts.endpoint_bound(dF1, dF2)
        length = traj.length
        holds = (all(p.hypothesis_ok for p in parts)
                 and length <= bound_value + sequences.CAP_SLACK
                 and sqrt_sum <= bound_value + sequences.CAP_SLACK)
        reports.append(EffectiveBoundReport(
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
        ))
    return reports[0] if isinstance(runs, Trajectory) else reports


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
