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
uniform grid with the profile pinned to the cylinder at both ends, an explicit
midpoint (RK2) step in time with step-doubling error control, and the time
step capped by a parabolic stability bound proportional to h^2.

Gaussian area is sampled at unit time marks; those marks feed the empirical
decay-exponent fit and, at every second mark, the discrete summability
certificate used by the closeness experiment.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import sequences
from .cylinder import CylinderGraph, CylinderSpec, dist_R, graph_distance, graph_F, write_csv
from .errors import (
    BlowupError,
    ConfigError,
    GeometryError,
    InsufficientDataError,
    InvalidInputError,
)

PROFILE_KINDS = ("zero", "gauss", "balanced_gauss", "neck", "random")


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
    if kind == "neck":
        return -amplitude * np.exp(-(z**2))
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
    """Fused right-hand side and explicit midpoint step on one grid.

    Returns (frhs, frk2) with the grid constants 0.5*z, 1/(2h) and 1/h^2
    hoisted out of the calls.  The radial term is u (2s + u) / (2 (s + u)), so
    frhs(0) == 0 exactly.  No geometry check happens here: callers validate
    accepted profiles, and mid-stage blowups surface as non-finite values.
    """
    zhalf = 0.5 * z[1:-1]
    inv2h = 1.0 / (2.0 * h)
    invh2 = 1.0 / (h * h)

    def frhs(w: np.ndarray) -> np.ndarray:
        a, b, c = w[2:], w[:-2], w[1:-1]
        w_z = (a - b) * inv2h
        w_zz = (a - 2.0 * c + b) * invh2
        out = np.zeros_like(w)
        out[1:-1] = w_zz / (1.0 + w_z * w_z) + c * (2.0 * s + c) / (2.0 * (s + c)) - zhalf * w_z
        return out

    def frk2(w: np.ndarray, dt: float) -> np.ndarray:
        return w + dt * frhs(w + (0.5 * dt) * frhs(w))

    return frhs, frk2


def rhs(g: CylinderGraph) -> np.ndarray:
    """Time derivative of the profile under the rescaled flow (zero at the ends)."""
    frhs, _ = _kernel(g.z, g.h, g.spec.radius)
    return frhs(g.u)


def step(state: FlowState, dt: float) -> FlowState:
    """One explicit midpoint step; boundary values stay pinned at zero."""
    if dt <= 0.0:
        raise InvalidInputError(f"need dt > 0, got {dt}")
    g = state.graph
    _, frk2 = _kernel(g.z, g.h, g.spec.radius)
    u_new = frk2(g.u, dt)
    if not np.all(np.isfinite(u_new)):
        raise BlowupError(f"non-finite profile after step at t={state.t}", last_state=state)
    return FlowState(graph=g.with_profile(u_new), t=state.t + dt)


@dataclass
class FlowControls:
    """Time-stepping and monitoring knobs for evolve."""

    dt_max: float = 1e-3
    cfl: float = 0.8
    step_tol: float = 1e-8
    R1: float = 6.0
    R2: float = 5.0
    stop_max_abs_u: float | None = 1.0
    stop_dist: float | None = None  # threshold on dist at radius R1, checked at unit marks
    max_steps: int = 10_000_000


@dataclass(eq=False)
class FlowHistory:
    """Unit-mark record of one run plus per-step diagnostics.

    Profiles are stored at every integer time; diagnostics (accepted dt, local
    error estimate, max |u|, parabolic CFL number) at every accepted step.
    """

    spec: CylinderSpec
    z: np.ndarray
    controls: FlowControls
    mark_times: np.ndarray
    mark_F: np.ndarray
    mark_dist_R1: np.ndarray
    mark_dist_R2: np.ndarray
    mark_max_u: np.ndarray
    profiles: list[np.ndarray]
    diag_t: np.ndarray
    diag_dt: np.ndarray
    diag_err: np.ndarray
    diag_max_u: np.ndarray
    diag_cfl: np.ndarray
    stop_reason: str
    t_final: float

    @property
    def n_marks(self) -> int:
        return int(self.mark_times.size)

    def mark_index(self, t: float) -> int:
        hits = np.flatnonzero(np.isclose(self.mark_times, t))
        if hits.size == 0:
            raise InvalidInputError(f"no stored mark at t={t}")
        return int(hits[0])

    def graph_at_mark(self, t: float) -> CylinderGraph:
        return CylinderGraph(self.spec, self.z, self.profiles[self.mark_index(t)])

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "F", "dist_R1", "dist_R2", "max_abs_u"],
                  [self.mark_times, self.mark_F, self.mark_dist_R1, self.mark_dist_R2,
                   self.mark_max_u])


MARK_TOL = 1e-9  # a time this close below an integer counts as reaching it


def evolve(state: FlowState, t_end: float, controls: FlowControls) -> FlowHistory:
    """Advance the flow to t_end (or a stop condition) with adaptive stepping.

    The time step is the smallest of: the step-doubling suggestion, the
    parabolic stability cap cfl*h^2/2, the advective cap cfl*2h/R_dom,
    controls.dt_max, and the distance to the next integer mark, so every
    integer time is hit exactly.  Starting time must be an integer.
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
    dt_stab = controls.cfl * min(0.5 * h * h, 2.0 * h / max(R_dom, 1e-300))
    dt_cap = min(dt_stab, controls.dt_max)
    if not dt_cap > 0.0:
        raise InvalidInputError(f"time-step cap {dt_cap} is not positive; the run cannot advance")

    _, frk2 = _kernel(z, h, s)

    mark_times, mark_F, mark_d1, mark_d2, mark_mu, profiles = [], [], [], [], [], []
    diag_t, diag_dt, diag_err, diag_mu, diag_cfl = [], [], [], [], []
    recent_max_u: list[float] = []

    def record_mark(t: float, u_now: np.ndarray) -> None:
        graph = CylinderGraph(spec, z, u_now)
        mark_times.append(float(round(t)))
        mark_F.append(graph_F(graph).value)
        mark_d1.append(dist_R(graph, controls.R1).dist)
        mark_d2.append(dist_R(graph, controls.R2).dist)
        mark_mu.append(float(np.max(np.abs(u_now))))
        profiles.append(u_now.copy())

    t = float(round(state.t))
    record_mark(t, u)
    dt_next = dt_cap
    n_steps = 0
    stopped = False
    stop_reason = "completed"
    while t < t_end - 1e-12 and not stopped:
        if n_steps >= controls.max_steps:
            raise BlowupError(f"exceeded max_steps={controls.max_steps}",
                              last_state=FlowState(CylinderGraph(spec, z, u), t))
        next_mark = math.floor(t + MARK_TOL) + 1.0
        dt = min(dt_next, dt_cap, t_end - t)
        hit_mark = False
        if t + dt >= next_mark - MARK_TOL:
            dt = next_mark - t
            hit_mark = True
        big = frk2(u, dt)
        fine = frk2(frk2(u, 0.5 * dt), 0.5 * dt)
        err = float(np.max(np.abs(big - fine))) / 3.0
        if not math.isfinite(err):
            raise BlowupError(f"non-finite profile at t={t}",
                              last_state=FlowState(CylinderGraph(spec, z, u), t))
        if err > controls.step_tol:
            if dt <= 1e-14:
                raise BlowupError(f"step size underflow at t={t} (err={err:.3e})",
                                  last_state=FlowState(CylinderGraph(spec, z, u), t))
            dt_next = dt * max(0.3, 0.9 * (controls.step_tol / err) ** (1.0 / 3.0))
            continue
        if np.min(fine) <= -s:
            raise GeometryError(f"flow left the graph regime at t={t}: r <= 0")
        u = fine
        t = next_mark if hit_mark else t + dt
        n_steps += 1
        grow = 2.0 if err == 0.0 else min(2.0, max(0.3, 0.9 * (controls.step_tol / err) ** (1.0 / 3.0)))
        dt_next = min(dt_cap, dt * grow)
        max_u = float(np.max(np.abs(u)))
        diag_t.append(t)
        diag_dt.append(dt)
        diag_err.append(err)
        diag_mu.append(max_u)
        diag_cfl.append(2.0 * dt / (h * h))
        recent_max_u.append(max_u)
        if len(recent_max_u) > 10:
            old = recent_max_u.pop(0)
            if max_u > 1e-8 and old > 0.0 and max_u > 2.0 * old:
                raise BlowupError(
                    f"max |u| doubled within 10 steps at t={t}; scheme unstable",
                    last_state=FlowState(CylinderGraph(spec, z, u), t))
        if controls.stop_max_abs_u is not None and max_u > controls.stop_max_abs_u:
            stop_reason = "max_abs_u"
            stopped = True
        if hit_mark:
            record_mark(t, u)
            if controls.stop_dist is not None and mark_d1[-1] > controls.stop_dist:
                stop_reason = "dist"
                stopped = True
    return FlowHistory(
        spec=spec,
        z=z,
        controls=controls,
        mark_times=np.asarray(mark_times),
        mark_F=np.asarray(mark_F),
        mark_dist_R1=np.asarray(mark_d1),
        mark_dist_R2=np.asarray(mark_d2),
        mark_max_u=np.asarray(mark_mu),
        profiles=profiles,
        diag_t=np.asarray(diag_t),
        diag_dt=np.asarray(diag_dt),
        diag_err=np.asarray(diag_err),
        diag_max_u=np.asarray(diag_mu),
        diag_cfl=np.asarray(diag_cfl),
        stop_reason=stop_reason,
        t_final=float(t),
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


def lojasiewicz_fit(hist: FlowHistory, R: float, eps: float,
                    tau_grid: np.ndarray | None = None, max_C: float = 100.0) -> LojasiewiczFit:
    """Fit (C, tau) certifying the window inequality on one run.

    A mark t is admissible when the marks t-1, t, t+1 all exist and the
    distance to the cylinder at radius R stays below eps at all three (the
    desk-scale proxy for closeness throughout the window).
    """
    if tau_grid is None:
        tau_grid = np.round(np.arange(0.05, 1.0, 0.01), 10)
    F_cyl = hist.spec.F_value
    dist_vals = np.array([dist_R(CylinderGraph(hist.spec, hist.z, u), R).dist
                          for u in hist.profiles])
    ok = dist_vals < eps
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


def split_signed_series(series: np.ndarray, zero_tol: float = ZERO_TOL
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Split a non-increasing signed series into certifiable monotone parts.

    Returns (positive prefix, negative suffix reindexed backwards with its
    sign flipped); both results are positive and non-increasing.  Entries with
    magnitude at or below zero_tol are dropped.  The sign-crossing difference
    is the only one not reproduced inside a part.
    """
    v = np.asarray(series, dtype=float)
    if np.any(np.diff(v) > 1e-9 * max(1.0, float(np.max(np.abs(v), initial=0.0)))):
        raise InvalidInputError("series must be non-increasing")
    pos = v[v > zero_tol]
    neg = v[v < -zero_tol]
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
    cfl: float = 0.8
    step_tol: float = 1e-8
    stop_max_abs_u: float = 1.0
    max_C: float = 100.0
    tau_grid_lo: float = 0.35
    tau_grid_hi: float = 0.96

    def __post_init__(self):
        if self.profile_kind not in PROFILE_KINDS:
            raise ConfigError(f"unknown profile_kind '{self.profile_kind}'")
        for name in ("h", "R_dom", "dt_max", "cfl", "step_tol", "eps1", "eps2", "R1", "R2",
                     "stop_max_abs_u", "max_C"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ConfigError(f"amplitude must be finite and non-negative, got {self.amplitude}")
        if not (1 <= self.k <= MAX_K and self.seed >= 0):
            raise ConfigError(f"need 1 <= k <= {MAX_K} and seed >= 0, got k={self.k}, seed={self.seed}")
        if not 0 < self.tau_grid_lo < self.tau_grid_hi <= 1:
            raise ConfigError("need 0 < tau_grid_lo < tau_grid_hi <= 1")
        if 2.0 * self.R_dom / self.h > MAX_INTERVALS:
            raise ConfigError(f"grid 2*R_dom/h exceeds {MAX_INTERVALS} intervals")
        if not (isinstance(self.t1, int) and isinstance(self.t2, int)):
            raise ConfigError("t1 and t2 must be integers (unit-mark bookkeeping)")
        if not 0 <= self.t1 <= self.t2 - 2:
            raise ConfigError("need 0 <= t1 <= t2 - 2")
        if self.R2 > self.R_dom - 2 * self.h or self.R1 > self.R_dom - 2 * self.h:
            raise ConfigError("measurement radii must fit inside the grid")

    def controls(self) -> FlowControls:
        return FlowControls(dt_max=self.dt_max, cfl=self.cfl, step_tol=self.step_tol,
                            R1=self.R1, R2=self.R2, stop_max_abs_u=self.stop_max_abs_u)

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
    dist_times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dist_values: np.ndarray = field(default_factory=lambda: np.zeros(0))


def close_experiment(cfg: RunConfig, hist: FlowHistory | None = None) -> CloseReport:
    """Run the flow and certify the endpoint-controlled closeness bound.

    Checks the two hypotheses (initial closeness over [t1, t1+2]; endpoint
    F-gaps below eps2), extracts the F-series at the marks t1 + 2j - 1, splits
    it at the sign change into monotone parts, feeds each part to the discrete
    summability certificate with the fitted (C, tau), and compares the measured
    distances dist_{R2}(state_t, state_{t1+1}) for t in [t1+1, t2] against

        Ctilde * ( c |F(t1) - F_cyl|^alpha + c |F(t2) - F_cyl|^alpha ),

    where Ctilde is the promotion constant fitted on this run as the largest
    ratio of measured distance to the running certificate partial sum.

    A hypothesis violation is reported, not raised.  Pass a precomputed
    history to skip re-running the flow (it must match cfg).
    """
    if hist is None:
        hist = evolve(cfg.initial_state(), t_end=float(cfg.t2), controls=cfg.controls())
    spec = CylinderSpec(cfg.k)
    F_cyl = spec.F_value
    completed = hist.t_final >= cfg.t2 - 1e-9
    t2_actual = float(hist.mark_times[-1])
    failure = None

    # hypothesis (1): closeness to the cylinder at the marks of [t1, t1+2]
    initial_dist_ok = True
    for t in (cfg.t1, cfg.t1 + 1, cfg.t1 + 2):
        try:
            i = hist.mark_index(float(t))
        except InvalidInputError:
            initial_dist_ok = False
            break
        if hist.mark_dist_R1[i] >= cfg.eps1:
            initial_dist_ok = False
            break

    # hypothesis (2): endpoint F-gaps (requires the run to reach t2 at all).
    # Gaps below the quadrature resolution are snapped to zero so that a flat
    # run yields an exactly-zero bound instead of noise raised to a small power.
    try:
        dF1 = float(hist.mark_F[hist.mark_index(float(cfg.t1))] - F_cyl)
    except InvalidInputError:
        dF1 = math.nan
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
        tau_grid = np.round(np.arange(cfg.tau_grid_lo, cfg.tau_grid_hi, 0.01), 10)
        fit = lojasiewicz_fit(hist, R=cfg.R1, eps=cfg.eps1, tau_grid=tau_grid, max_C=cfg.max_C)
    except InsufficientDataError as exc:
        failure = failure or f"decay fit unavailable: {exc}"

    # F-series at the odd marks t1 + 2j - 1
    odd_times = np.arange(cfg.t1 + 1, t2_actual + 1e-9, 2.0)
    odd_idx = [hist.mark_index(t) for t in odd_times]
    series = hist.mark_F[odd_idx] - F_cyl
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

    # measured distances to the reference state at t1 + 1 (absent if the run
    # stopped before reaching it)
    dist_times, dist_vals = [], []
    if t2_actual >= cfg.t1 + 1:
        ref = hist.graph_at_mark(float(cfg.t1 + 1))
        for t in np.arange(cfg.t1 + 1, t2_actual + 1e-9, 1.0):
            gt = hist.graph_at_mark(float(t))
            d = graph_distance(gt, ref, cfg.R2).dist
            dist_times.append(float(t))
            dist_vals.append(float(d))
    else:
        failure = failure or "flow stopped before the reference mark t1 + 1"
        certified = False
    dist_times = np.asarray(dist_times)
    dist_vals = np.asarray(dist_vals)
    max_dist = float(np.max(dist_vals, initial=0.0))

    # promotion constant: largest measured distance per unit of certificate sum
    sqrt_drops = np.sqrt(np.abs(np.diff(series)))
    partial = np.concatenate([[0.0], np.cumsum(sqrt_drops)])
    ctilde = 1.0
    for t, d in zip(dist_times, dist_vals):
        covered = int(np.floor((t - (cfg.t1 + 1)) / 2.0))  # drops with both marks <= t
        S = partial[min(covered, partial.size - 1)]
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
