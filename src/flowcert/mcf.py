"""Rescaled curvature flow for axisymmetric graphs over the shrinking cylinder.

The flow moves the profile by the normal speed <x, nu>/2 - H.  For a
rotational graph r(z, t) = sqrt(2k) + u(z, t) this reduces to the quasilinear
parabolic equation

    r_t = r_zz / (1 + r_z^2) - k / r + (r - z r_z) / 2,

derived by writing the mean curvature and position term of the surface of
revolution in graph coordinates.  The radial reaction -k/r + r/2 is evaluated
in the algebraically equivalent form u (2s + u) / (2 (s + u)) with s = sqrt(2k),
which vanishes identically at u = 0, so the round cylinder is a fixed point of
the discrete scheme to the last bit.

Discretization is method-of-lines: second-order central differences in z on a
uniform grid with the profile pinned to the cylinder at both ends, and damped
second-order Runge-Kutta-Chebyshev (RKC2) steps in time, each with the fewest
stages whose stability interval covers it, at a step cap shortened to the
stage count with the fewest right-hand sides per unit time (see evolve).
Every stage is u plus a combination of earlier increments and dt times
right-hand sides, so with frhs(0) == 0 the zero profile stays zero.

Gaussian area is sampled at unit time marks; those marks feed the empirical
decay-exponent fit and, at every second mark, the discrete summability
certificate used by the closeness experiment.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from . import sequences
from .cylinder import (CylinderGraph, CylinderSpec, dist_R, graph_distance, graph_F,
                       uniform_grid, window, write_csv)
from .errors import (
    BlowupError,
    ConfigError,
    GeometryError,
    InsufficientDataError,
    InvalidInputError,
    PreconditionError,
)

PROFILE_KINDS = ("zero", "gauss", "balanced_gauss", "random")


def initial_profile(kind: str, amplitude: float, z: np.ndarray,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Initial offsets u(z) for the bundled profile families.

    balanced_gauss subtracts the Gaussian-weighted mean component
    (coefficient sqrt(3/5)), which removes the constant-mode overlap that
    otherwise dominates the early drift away from the cylinder.
    """
    z = np.asarray(z, dtype=float)
    if kind == "zero":
        return np.zeros_like(z)
    if kind == "gauss":
        return amplitude * np.exp(-(z**2))
    if kind == "balanced_gauss":
        return amplitude * (np.exp(-(z**2)) - math.sqrt(3.0 / 5.0) * np.exp(-(z**2) / 2.0))
    if kind == "random":
        if rng is None:
            raise InvalidInputError("random profile needs an rng")
        u = np.zeros_like(z)
        for _ in range(4):
            a = amplitude * rng.uniform(-1.0, 1.0)
            c = rng.uniform(-3.0, 3.0)
            w = rng.uniform(0.8, 2.5)
            u += a * np.exp(-((z - c) ** 2) / w**2)
        return u
    raise InvalidInputError(f"unknown profile kind '{kind}' (known: {', '.join(PROFILE_KINDS)})")


@dataclass(frozen=True, eq=False)
class FlowState:
    graph: CylinderGraph
    t: float


def _kernel(z: np.ndarray, h: float, s: float):
    """In-place right-hand side on one grid.

    Returns frhs(w, out), which writes the time derivative of w into out[1:-1]
    and returns out; out must not be w.  The end rows of out are never
    written, so a zeroed buffer keeps them at zero.  Grid constants and scratch
    arrays are set up once per _kernel call, and every ufunc keeps the operand
    grouping of

        ((a - 2c) + b)/h^2 / (1 + w_z^2) + c (2s + c) / (2 (s + c)) - (z/2) w_z,

    so the bits match evaluating it out of place.  The denominator 2 (s + c)
    is formed as 2c + 2s from the buffer that already holds 2c; that is
    exact, because doubling commutes with rounding.  The radial term is
    u (2s + u) / (2 (s + u)), so frhs(0) == 0 exactly.  No geometry check
    happens here: callers validate accepted profiles, and mid-stage blowups
    surface as non-finite values.

    The loop pays numpy's per-call dispatch, not arithmetic, so each of the
    16 ufuncs takes its output positionally and its scalar operands
    (1/(2h), 1/h^2, 2s, 2 and 1) as float64 0-d arrays built here, which
    dispatch faster than the out= keyword and Python floats and round alike.
    """
    zhalf = 0.5 * z[1:-1]
    inv2h, invh2, two_s, two, one = (np.array(v) for v in (1.0 / (2.0 * h), 1.0 / (h * h),
                                                           2.0 * s, 2.0, 1.0))
    w_z, num, den = (np.empty(z.size - 2) for _ in range(3))
    add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide

    def frhs(w: np.ndarray, out: np.ndarray) -> np.ndarray:
        a, b, c = w[2:], w[:-2], w[1:-1]
        o = out[1:-1]
        sub(a, b, w_z)
        mul(w_z, inv2h, w_z)
        mul(c, two, o)
        add(o, two_s, den)  # 2 (s + c)
        add(c, two_s, num)
        mul(c, num, num)
        div(num, den, num)  # radial term
        sub(a, o, o)
        add(o, b, o)
        mul(o, invh2, o)  # w_zz
        mul(w_z, w_z, den)
        add(den, one, den)
        div(o, den, o)  # diffusion term
        add(o, num, o)
        mul(zhalf, w_z, num)
        sub(o, num, o)
        return out

    return frhs


RKC_DAMPING = 2.0 / 13.0  # epsilon in w0 = 1 + epsilon/s^2
MAX_STAGES = 50  # a step whose stability needs more stages is shortened instead


def _rkc2_coefficients(s: int) -> tuple[float, float, tuple[tuple[float, float, float, float], ...]]:
    """Damped RKC2 with s >= 2 stages: (beta, mu~_1, ((mu_j, nu_j, mu~_j, gamma~_j), j = 2..s)).

    With w0 = 1 + epsilon/s^2, w1 = T_s'(w0)/T_s''(w0) and
    b_j = T_j''(w0)/T_j'(w0)^2 (b_0 = b_1 = b_2), the step from u is

        d_0 = 0,  d_1 = mu~_1 dt F(u),
        d_j = mu_j d_{j-1} + nu_j d_{j-2} + mu~_j dt F(u + d_{j-1}) + gamma~_j dt F(u),

    u_new = u + d_s, with mu~_1 = b_1 w1, mu_j = 2 b_j w0 / b_{j-1},
    nu_j = -b_j / b_{j-2}, mu~_j = 2 b_j w1 / b_{j-1} and
    gamma~_j = -(1 - b_{j-1} T_{j-1}(w0)) mu~_j: the stages Y_j = u + d_j of
    Sommeijer, Shampine & Verwer (1998) written as increments, so the pinned
    end rows, where F is zero, keep their bits.  Its stability polynomial is
    1 - b_s T_s(w0) + b_s T_s(w0 + w1 z), bounded by 1 on
    [-beta, 0] with beta = (1 + w0)/w1.  T_j and its derivatives at w0 come
    from the Chebyshev three-term recurrence.
    """
    w0 = 1.0 + RKC_DAMPING / (s * s)
    T, dT, ddT = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
        ddT.append(4.0 * dT[j - 1] + 2.0 * w0 * ddT[j - 1] - ddT[j - 2])
    w1 = dT[s] / ddT[s]
    b = [ddT[j] / (dT[j] * dT[j]) for j in range(2, s + 1)]
    b = [b[0], b[0], *b]
    stages = []
    for j in range(2, s + 1):
        mu_t = 2.0 * b[j] * w1 / b[j - 1]
        stages.append((2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2], mu_t,
                       -(1.0 - b[j - 1] * T[j - 1]) * mu_t))
    return (1.0 + w0) / w1, b[1] * w1, tuple(stages)


# coefficients of every stage count evolve may take, indexed by s
_RKC2 = {s: _rkc2_coefficients(s) for s in range(2, MAX_STAGES + 1)}


@dataclass
class FlowControls:
    """The step cap of evolve, its one setting, and the constants of its scheme.

    cfl scales the advective cap cfl*2h/R_dom alone; the stage count covers
    the diffusive stability limit (see evolve).
    """

    dt_max: float = 1e-3
    cfl: ClassVar[float] = 0.8
    step_tol: ClassVar[float] = 1e-8
    stop_max_abs_u: ClassVar[float] = 1.0  # the run stops once max |u| exceeds this


@dataclass(eq=False)
class FlowHistory:
    """Unit-mark record of one run plus per-step diagnostics.

    Profiles, the Gaussian area F and max |u| are stored at every integer
    time: mark_times are the consecutive integers from the run's start, so the
    mark at time t is entry t - mark_times[0] of every mark array.  dist(R)
    measures the distance to the cylinder of each stored profile, at whatever
    radius the caller asks, once per radius.  Diagnostics at every accepted
    step, float64 arrays but for the int64 stage count s: the time after it,
    dt, the local error estimate, max |u|, the stability usage
    4 dt / (h^2 beta(s)) (at most 1, and 1 up to rounding on a step of the
    cap when beta(s) h^2/4 sets it) and s.
    n_rhs counts right-hand-side evaluations and n_rejected the steps the error
    control refused; every attempted step of s stages costs s evaluations, and
    the run one more for its first stage, so n_rhs = 1 + the stage counts of
    the accepted and the rejected steps.
    """

    spec: CylinderSpec
    z: np.ndarray
    mark_times: np.ndarray
    mark_F: np.ndarray
    mark_max_u: np.ndarray
    profiles: list[np.ndarray]
    diag_t: np.ndarray
    diag_dt: np.ndarray
    diag_err: np.ndarray
    diag_max_u: np.ndarray
    diag_cfl: np.ndarray
    diag_stages: np.ndarray
    stop_reason: str
    t_final: float
    n_rhs: int
    n_rejected: int
    _dists: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_marks(self) -> int:
        return int(self.mark_times.size)

    def dist(self, R: float) -> np.ndarray:
        """dist_R of each stored profile, in mark order, as a read-only array
        that later calls with the same R return without measuring again."""
        if R not in self._dists:
            d = np.array([dist_R(CylinderGraph(self.spec, self.z, u), R).dist for u in self.profiles])
            d.flags.writeable = False
            self._dists[R] = d
        return self._dists[R]

    def to_csv(self, path, R1: float, R2: float) -> None:
        write_csv(path, ["t", "F", "dist_R1", "dist_R2", "max_abs_u"],
                  [self.mark_times, self.mark_F, self.dist(R1), self.dist(R2), self.mark_max_u])


MARK_TOL = 1e-9  # a time this close below an integer counts as reaching it
MAX_STEPS = 10_000_000  # most steps a run may take
STEP_BUDGET = 100  # attempted steps allowed per step of the largest allowed size
MONOTONE_TOL = 1e-8  # largest unit-mark area increase an area-monotone run may show
STATIONARY_TOL = 1e-8  # largest sup|u| and |F - F_cyl| a run from the cylinder may show


def evolve(state: FlowState, t_end: float, controls: FlowControls) -> FlowHistory:
    """Advance the flow to t_end (or a stop condition) with adaptive stepping.

    The time step is the smallest of: the error controller's suggestion, the
    cap dt_cap, and the distance to the next integer mark, so every integer
    time is hit exactly.  dt_cap starts as the smallest of the stability cap
    of MAX_STAGES stages beta(MAX_STAGES)*h^2/4, the advective cap
    cfl*2h/R_dom and controls.dt_max.  It then becomes min(dt_cap,
    beta(s*)*h^2/4) for the s* in 2..MAX_STAGES that minimises
    s / min(dt_cap, beta(s)*h^2/4), the right-hand sides per unit time at the
    cap (ties go to the longer step), rounded down ulp by ulp until
    4 dt_cap/h^2 <= beta(s*) as the loop computes it.  Starting time must be
    an integer, and a run that would need more than MAX_STEPS steps of the
    largest allowed size is refused up front.  So is a start whose max |u|
    already exceeds controls.stop_max_abs_u, with PreconditionError: the run
    would stop after its first step, and the slopes and area of such a
    profile may overflow.  A run that attempts more than STEP_BUDGET times as
    many steps as it needs at the largest allowed size (and at most
    MAX_STEPS) raises BlowupError: a step size collapsed far below the cap
    means the scheme, not the flow, is in trouble.

    Each step is one damped RKC2 step (see _rkc2_coefficients) with the
    fewest stages s >= 2 for which beta(s) >= 4 dt/h^2: s* on a step of
    dt_cap, and possibly fewer on a step shortened by a unit mark or by the
    error controller.  The damping keeps |R_s| < 1 on all of [-beta(s), 0),
    so the step needs no further safety factor on the stability interval.
    Its error estimate is Verwer's

        (12 (u_n - u_{n+1}) + 6 dt (F(u_n) + F(u_{n+1}))) / 15,

    evaluated as 0.8 (dt/2 (F(u_n) + F(u_{n+1})) - d_s) with d_s = u_{n+1} - u_n
    the step's increment; the controller scales dt by
    0.9 (step_tol/err)^(1/3), clipped to [0.3, 2].  F(u_{n+1}) is the next
    step's first stage, so a step costs s right-hand-side evaluations.  All
    stages are written into buffers allocated once per call, and an accepted
    step swaps the profile and first-stage buffers with the new ones.

    As in _kernel, every ufunc takes its output positionally and its scalars
    as float64 0-d arrays: mu~_1 dt, dt/2 and each stage's (mu_j, nu_j,
    mu~_j dt, gamma~_j dt) are built only when dt changes.  The j = 2 stage
    leaves out nu_2 d_0: with d_0 = 0 and nu_2 < 0 it is -0.0, and
    x + (-0.0) == x bit for bit.  max|u| is max(max u, -min u), reusing the
    minimum of the geometry check.
    """
    if abs(state.t - round(state.t)) > MARK_TOL:
        raise InvalidInputError("evolve expects an integer starting time")
    if t_end <= state.t:
        raise InvalidInputError("t_end must exceed the starting time")
    spec = state.graph.spec
    z = state.graph.z
    u = state.graph.u.copy()
    h = state.graph.h
    s = spec.radius
    R_dom = state.graph.R_dom
    betas = [_RKC2[n][0] for n in range(2, MAX_STAGES + 1)]  # beta(s)
    dt_stab = min(0.25 * betas[-1] * h * h, controls.cfl * 2.0 * h / max(R_dom, 1e-300))
    dt_cap = min(dt_stab, controls.dt_max)
    if not dt_cap > 0.0:
        raise InvalidInputError(f"time-step cap {dt_cap} is not positive; the run cannot advance")
    # most time per stage, i.e. fewest RHS per unit time; rounded down so the
    # loop's fewest-stages rule takes exactly n_cap stages on a step of dt_cap
    reach = {n: min(dt_cap, 0.25 * b * h * h) for n, b in enumerate(betas, 2)}
    n_cap = max(reach, key=lambda n: (reach[n] / n, reach[n]))
    dt_cap = reach[n_cap]
    while 4.0 * dt_cap / (h * h) > betas[n_cap - 2]:
        dt_cap = float(np.nextafter(dt_cap, 0.0))
    if (t_end - state.t) / dt_cap > MAX_STEPS:
        raise InvalidInputError(f"reaching t={t_end} takes more than MAX_STEPS={MAX_STEPS} "
                                f"steps of at most {dt_cap:.3e}")
    budget = min(MAX_STEPS, STEP_BUDGET * math.ceil((t_end - state.t) / dt_cap))
    start_max_u = float(np.max(np.abs(u)))
    if start_max_u > controls.stop_max_abs_u:
        raise PreconditionError(f"initial max|u| {start_max_u:.3e} exceeds the stop condition "
                                f"max|u| > {controls.stop_max_abs_u}")

    frhs = _kernel(z, h, s)
    add, sub, mul = np.add, np.subtract, np.multiply
    n_rhs = 1  # the first stage of the first step; each attempted step adds its stages
    n_rejected = 0

    # f0 = F(u), f1 = F(u_new) and k keep the zero end rows frhs never writes;
    # d0, d1, d2 hold the stage increments d_j, d_{j-1}, d_{j-2} in rotation
    f0, f1, k = (np.zeros_like(u) for _ in range(3))
    y, d0, d1, d2, scratch = (np.empty_like(u) for _ in range(5))

    mark_times, mark_F, mark_mu, profiles = [], [], [], []
    # per-step diagnostics as float64 / int64 buffers, 8 bytes an entry
    diag_t, diag_dt, diag_err, diag_mu, diag_cfl = (array("d") for _ in range(5))
    diag_stages = array("q")

    def record_mark(t: float, u_now: np.ndarray) -> None:
        graph = CylinderGraph(spec, z, u_now)
        mark_times.append(float(round(t)))
        mark_F.append(graph_F(graph).value)
        mark_mu.append(float(np.max(np.abs(u_now))))
        profiles.append(u_now.copy())

    def last_state() -> FlowState:
        return FlowState(CylinderGraph(spec, z, u), t)  # copies u

    t = float(round(state.t))
    record_mark(t, u)
    frhs(u, f0)
    dt_next = dt_cap
    dt_staged = math.nan  # the dt the coefficients below were built for
    stop_reason = "completed"
    while t < t_end - 1e-12 and stop_reason == "completed":
        if len(diag_t) + n_rejected >= budget:
            raise BlowupError(f"gave up at t={t} after {budget} attempted steps "
                              f"(last dt {dt_next:.3e}, cap {dt_cap:.3e})", last_state=last_state())
        next_mark = math.floor(t + MARK_TOL) + 1.0
        dt = min(dt_next, dt_cap, t_end - t)
        hit_mark = False
        if t + dt >= next_mark - MARK_TOL:
            dt = next_mark - t
            hit_mark = True
        if dt != dt_staged:
            dt_staged = dt
            need = 4.0 * dt / (h * h)
            n_stages = next((n for n, b in enumerate(betas, 2) if b >= need), MAX_STAGES)
            beta, mu1_t, stages = _RKC2[n_stages]
            mu1_dt, half_dt = np.array(mu1_t * dt), np.array(0.5 * dt)
            # (mu_j, nu_j, mu~_j dt, gamma~_j dt); nu_2 is None: nu_2 d_0 is -0.0
            coefs = [(np.array(mu), None if j == 2 else np.array(nu), np.array(mu_t * dt),
                      np.array(gamma_t * dt))
                     for j, (mu, nu, mu_t, gamma_t) in enumerate(stages, 2)]
        n_rhs += n_stages
        mul(f0, mu1_dt, d1)
        for mu, nu, mu_dt, gamma_dt in coefs:
            frhs(add(u, d1, y), k)
            mul(d1, mu, d0)
            if nu is not None:
                add(d0, mul(d2, nu, scratch), d0)
            add(d0, mul(k, mu_dt, scratch), d0)
            add(d0, mul(f0, gamma_dt, scratch), d0)
            d0, d1, d2 = d2, d0, d1
        frhs(add(u, d1, y), f1)
        mul(add(f0, f1, scratch), half_dt, scratch)
        sub(scratch, d1, scratch)
        err = 0.8 * float(np.abs(scratch, scratch).max())
        if not math.isfinite(err):
            raise BlowupError(f"non-finite profile at t={t}", last_state=last_state())
        # step-size factor; below 0.9 whenever the step is rejected (err > step_tol)
        scale = 2.0 if err == 0.0 else min(2.0, max(0.3, 0.9 * (controls.step_tol / err) ** (1.0 / 3.0)))
        if err > controls.step_tol:
            if dt <= 1e-14:
                raise BlowupError(f"step size underflow at t={t} (err={err:.3e})",
                                  last_state=last_state())
            n_rejected += 1
            dt_next = dt * scale
            continue
        y_min = float(y.min())
        if y_min <= -s:
            raise GeometryError(f"flow left the graph regime at t={t}: r <= 0")
        u, y = y, u
        f0, f1 = f1, f0
        t = next_mark if hit_mark else t + dt
        dt_next = min(dt_cap, dt * scale)
        # max|u| from the minimum just taken; abs() only turns a -0.0 into +0.0
        max_u = abs(max(float(u.max()), -y_min))
        diag_t.append(t)
        diag_dt.append(dt)
        diag_err.append(err)
        diag_mu.append(max_u)
        diag_cfl.append(need / beta)
        diag_stages.append(n_stages)
        if max_u > controls.stop_max_abs_u:
            stop_reason = "max_abs_u"
        if hit_mark:
            record_mark(t, u)
    return FlowHistory(
        spec=spec,
        z=z,
        mark_times=np.asarray(mark_times),
        mark_F=np.asarray(mark_F),
        mark_max_u=np.asarray(mark_mu),
        profiles=profiles,
        diag_t=np.frombuffer(diag_t, dtype=np.float64),
        diag_dt=np.frombuffer(diag_dt, dtype=np.float64),
        diag_err=np.frombuffer(diag_err, dtype=np.float64),
        diag_max_u=np.frombuffer(diag_mu, dtype=np.float64),
        diag_cfl=np.frombuffer(diag_cfl, dtype=np.float64),
        diag_stages=np.frombuffer(diag_stages, dtype=np.int64),
        stop_reason=stop_reason,
        t_final=float(t),
        n_rhs=n_rhs,
        n_rejected=n_rejected,
    )


@dataclass(frozen=True, eq=False)
class LojasiewiczFit:
    """Empirical decay-exponent fit over admissible unit-mark windows.

    At each admissible mark t, the window inequality

        |F(t) - F_cyl|^(1+tau) <= C * (F(t-1) - F(t+1))

    must hold with nonnegative slack; tau_fit is the smallest grid value whose
    minimal C stays at or below max_C (falling back to the argmin-C tau when
    the cap is unreachable), and C_fit is that minimal C floored at 1 so the
    pair stays admissible for the discrete certificate.
    """

    C_fit: float
    tau_fit: float
    residuals: np.ndarray
    window_times: np.ndarray
    n_windows: int
    max_C: float
    cap_reached: bool

    @property
    def tau_in_range(self) -> bool:
        return 1.0 / 3.0 < self.tau_fit < 1.0

    @property
    def min_residual(self) -> float | None:
        return float(np.min(self.residuals)) if self.residuals.size else None


ZERO_TOL = 1e-13  # absolute threshold below which F-gaps count as zero
MIN_WINDOWS = 5  # admissible unit-mark windows a fit needs
MAX_C = 100.0  # the default cap on the fitted C


def lojasiewicz_fit(hist: FlowHistory, R: float, eps: float,
                    tau_grid: np.ndarray | None = None, max_C: float = MAX_C) -> LojasiewiczFit:
    """Fit (C, tau) certifying the window inequality on one run.

    A mark t is admissible when the marks t-1, t, t+1 all exist and the
    distance to the cylinder at radius R stays below eps at all three (the
    desk-scale proxy for closeness throughout the window).
    """
    if tau_grid is None:
        tau_grid = np.round(np.arange(0.05, 1.0, 0.01), 10)
    ok = hist.dist(R) < eps
    F_cyl = hist.spec.F_value
    idx = [i for i in range(1, hist.n_marks - 1) if ok[i - 1] and ok[i] and ok[i + 1]]
    if len(idx) < MIN_WINDOWS:
        raise InsufficientDataError(
            f"only {len(idx)} admissible unit-mark windows; need >= {MIN_WINDOWS}")
    idx = np.asarray(idx)
    lhs = np.abs(hist.mark_F[idx] - F_cyl)
    drop = np.maximum(hist.mark_F[idx - 1] - hist.mark_F[idx + 1], 0.0)

    def needed_C(tau: float) -> float:
        vals = np.zeros_like(lhs)
        live = lhs > ZERO_TOL
        with np.errstate(divide="ignore"):
            vals[live] = lhs[live] ** (1.0 + tau) / np.where(drop[live] > 0, drop[live], np.nan)
        vals = np.where(np.isnan(vals), np.inf, vals)
        return float(np.max(vals, initial=0.0))

    needs = np.array([needed_C(tau) for tau in tau_grid])
    feasible = np.flatnonzero(needs <= max_C)
    if feasible.size:
        pick = int(feasible[0])
        cap_reached = True
    else:
        pick = int(np.argmin(needs))
        cap_reached = False
    tau_fit = float(tau_grid[pick])
    C_fit = max(float(needs[pick]), 1.0)
    residuals = C_fit * drop - lhs ** (1.0 + tau_fit)
    return LojasiewiczFit(
        C_fit=C_fit,
        tau_fit=tau_fit,
        residuals=residuals,
        window_times=hist.mark_times[idx],
        n_windows=int(idx.size),
        max_C=max_C,
        cap_reached=cap_reached,
    )


def split_signed_series(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a non-increasing signed series into certifiable monotone parts.

    Returns (positive prefix, negative suffix reindexed backwards with its
    sign flipped); both results are positive and non-increasing.  Entries with
    magnitude at or below ZERO_TOL are dropped.  The sign-crossing difference
    is the only one not reproduced inside a part.
    """
    v = np.asarray(series, dtype=float)
    if np.any(np.diff(v) > 1e-9 * max(1.0, float(np.max(np.abs(v), initial=0.0)))):
        raise InvalidInputError("series must be non-increasing")
    pos = v[v > ZERO_TOL]
    neg = v[v < -ZERO_TOL]
    return np.minimum.accumulate(pos) if pos.size else pos, \
        np.minimum.accumulate(-neg[::-1]) if neg.size else -neg[::-1]


MAX_INTERVALS = 100_000  # grid cap, far above the finest bundled grid (2,000)
MAX_K = 200  # the closed-form cylinder area overflows a float near k = 300


@dataclass
class RunConfig:
    """Parameters of one flow run (and of the closeness experiment on it)."""

    k: int = 1
    R_dom: float = 20.0
    h: float = 0.05
    dt_max: float = 1e-3
    amplitude: float = 5e-4
    profile_kind: str = "balanced_gauss"
    t1: int = 0
    t2: int = 8
    eps1: float = 0.3
    eps2: float = 0.1
    R1: float = 6.0
    R2: float = 5.0
    seed: int = 1234

    def __post_init__(self):
        if self.profile_kind not in PROFILE_KINDS:
            raise ConfigError(f"unknown profile_kind '{self.profile_kind}'")
        for name in ("h", "R_dom", "dt_max", "eps1", "eps2", "R1", "R2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ConfigError(f"amplitude must be finite and non-negative, got {self.amplitude}")
        if not (1 <= self.k <= MAX_K and self.seed >= 0):
            raise ConfigError(f"need 1 <= k <= {MAX_K} and seed >= 0, got k={self.k}, seed={self.seed}")
        if 2.0 * self.R_dom / self.h > MAX_INTERVALS:
            raise ConfigError(f"grid 2*R_dom/h exceeds {MAX_INTERVALS} intervals")
        if not (isinstance(self.t1, int) and isinstance(self.t2, int)):
            raise ConfigError("t1 and t2 must be integers (unit-mark bookkeeping)")
        if self.t2 > sys.float_info.max:  # the run's horizon is float(t2)
            raise ConfigError(f"t2 must be at most {sys.float_info.max:g}, the largest float")
        if not 0 <= self.t1 <= self.t2 - 2:
            raise ConfigError("need 0 <= t1 <= t2 - 2")
        if self.R2 > self.R_dom - 2 * self.h or self.R1 > self.R_dom - 2 * self.h:
            raise ConfigError("measurement radii must fit inside the grid")
        z = uniform_grid(self.R_dom, self.h)
        for name in ("R1", "R2"):
            R = getattr(self, name)
            if not window(z, R).any():
                raise ConfigError(f"{name}: no grid point within |z| <= {R} (spacing h={self.h})")

    def controls(self) -> FlowControls:
        return FlowControls(dt_max=self.dt_max)

    def initial_state(self) -> FlowState:
        spec = CylinderSpec(self.k)
        rng = np.random.default_rng(self.seed)
        graph = CylinderGraph.from_profile(
            spec, self.R_dom, self.h,
            lambda z: initial_profile(self.profile_kind, self.amplitude, z, rng))
        return FlowState(graph=graph, t=0.0)


@dataclass(eq=False)
class CloseReport:
    """Everything the closeness experiment measured and certified on one run."""

    config: dict
    hypotheses_ok: bool
    initial_dist_ok: bool
    endpoint_F_ok: bool
    completed: bool
    stop_reason: str
    failure_reason: str | None
    t1: int
    t2_requested: int
    t2_actual: float
    F_cyl: float
    delta_F1: float
    delta_F2: float
    case_tag: str
    fit: LojasiewiczFit | None
    parts: list[dict]
    c: float | None
    alpha: float | None
    promotion_constant: float
    bound_value: float
    max_dist_to_ref: float
    bound_holds: bool
    certified: bool
    dist_times: np.ndarray
    dist_values: np.ndarray


TAU_GRID = np.round(np.arange(0.35, 0.96, 0.01), 10)  # the closeness experiment's tau grid


def close_experiment(cfg: RunConfig, hist: FlowHistory) -> CloseReport:
    """Certify the endpoint-controlled closeness bound on the run hist of cfg.

    Checks the two hypotheses (initial closeness over [t1, t1+2]; endpoint
    F-gaps below eps2), extracts the F-series at the marks t1 + 2j - 1, splits
    it at the sign change into monotone parts, feeds each part to the discrete
    summability certificate with the fitted (C, tau), and compares the measured
    distances dist_{R2}(state_t, state_{t1+1}) for t in [t1+1, t2] against

        Ctilde * ( c |F(t1) - F_cyl|^alpha + c |F(t2) - F_cyl|^alpha ),

    where Ctilde is the promotion constant fitted on this run as the largest
    ratio of measured distance to the running certificate partial sum.

    The fit is lojasiewicz_fit at (R1, eps1) over TAU_GRID, which reads the
    R1 distances hypothesis (1) measured.  A hypothesis violation is
    reported, not raised; a history that starts after t1 is refused.
    """
    spec = CylinderSpec(cfg.k)
    F_cyl = spec.F_value
    k = cfg.t1 - int(hist.mark_times[0])  # the mark at t1 + j is entry k + j
    if k < 0:
        raise InvalidInputError(f"history starts at t={hist.mark_times[0]}, after t1={cfg.t1}")
    completed = hist.t_final >= cfg.t2 - 1e-9
    t2_actual = float(hist.mark_times[-1])
    failure = None

    # hypothesis (1): closeness to the cylinder at the marks of [t1, t1+2]
    dist1 = hist.dist(cfg.R1)
    near = dist1[k:k + 3]
    initial_dist_ok = near.size == 3 and not np.any(near >= cfg.eps1)

    # hypothesis (2): endpoint F-gaps (requires the run to reach t2 at all).
    # Gaps below the quadrature resolution are snapped to zero so that a flat
    # run yields an exactly-zero bound instead of noise raised to a small power.
    dF1 = float(hist.mark_F[k] - F_cyl) if k < hist.n_marks else math.nan
    dF2 = float(hist.mark_F[-1] - F_cyl)
    if abs(dF1) <= ZERO_TOL:
        dF1 = 0.0
    if abs(dF2) <= ZERO_TOL:
        dF2 = 0.0
    endpoint_F_ok = completed and abs(dF1) < cfg.eps2 and abs(dF2) < cfg.eps2
    hypotheses_ok = initial_dist_ok and endpoint_F_ok
    if not completed:
        failure = f"flow stopped early at t={hist.t_final} ({hist.stop_reason})"

    fit = None
    try:
        fit = lojasiewicz_fit(hist, cfg.R1, cfg.eps1, TAU_GRID)
    except InsufficientDataError as exc:
        failure = failure or f"decay fit unavailable: {exc}"

    # F-series at the odd marks t1 + 2j - 1
    series = hist.mark_F[k + 1::2] - F_cyl
    pos, neg = split_signed_series(series)
    if pos.size and neg.size:
        case_tag = "crossing"
    elif neg.size:
        case_tag = "below"
    else:
        case_tag = "above"

    parts: list[dict] = []
    consts = None
    if fit is not None:
        consts = sequences.constructive_bound(fit.C_fit, fit.tau_fit)
        parts = [{"name": name, **asdict(sequences.certify_part(part, consts))}
                 for name, part in (("positive", pos), ("negative", neg))]
    certified = fit is not None and all(p["hypothesis_ok"] and p["cap_ok"] for p in parts)

    # measured distances to the reference state at t1 + 1; a run that stopped
    # before it has no distances and already carries its early-stop failure
    dist_times = hist.mark_times[k + 1:]
    graphs = [CylinderGraph(hist.spec, hist.z, u) for u in hist.profiles[k + 1:]]
    dist_vals = np.array([graph_distance(g, graphs[0], cfg.R2).dist for g in graphs])
    if not graphs:
        certified = False
    max_dist = float(np.max(dist_vals, initial=0.0))

    # promotion constant: largest measured distance per unit of certificate sum
    sqrt_drops = np.sqrt(np.abs(np.diff(series)))
    partial = np.concatenate([[0.0], np.cumsum(sqrt_drops)])
    ctilde = 1.0
    for j, d in enumerate(dist_vals):
        # the drops with both marks at or before t1 + 1 + j
        S = partial[min(j // 2, partial.size - 1)]
        if S > 1e-300:
            ctilde = max(ctilde, d / S)

    if consts is not None and not math.isnan(dF1):
        bound_value = ctilde * (consts.cap(abs(dF1)) + consts.cap(abs(dF2)))
    else:
        bound_value = math.nan
    bound_holds = bool(np.all(dist_vals <= bound_value + 1e-12)) if not math.isnan(bound_value) else False

    return CloseReport(
        config=asdict(cfg),
        hypotheses_ok=hypotheses_ok,
        initial_dist_ok=initial_dist_ok,
        endpoint_F_ok=endpoint_F_ok,
        completed=completed,
        stop_reason=hist.stop_reason,
        failure_reason=failure,
        t1=cfg.t1,
        t2_requested=cfg.t2,
        t2_actual=t2_actual,
        F_cyl=F_cyl,
        delta_F1=dF1,
        delta_F2=dF2,
        case_tag=case_tag,
        fit=fit,
        parts=parts,
        c=None if consts is None else consts.c,
        alpha=None if consts is None else consts.alpha,
        promotion_constant=ctilde,
        bound_value=bound_value,
        max_dist_to_ref=max_dist,
        bound_holds=bound_holds,
        certified=certified,
        dist_times=dist_times,
        dist_values=dist_vals,
    )
