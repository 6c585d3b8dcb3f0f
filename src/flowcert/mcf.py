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
uniform grid with the profile pinned to the cylinder at both ends, stepped in
time by scipy's BDF with an analytic tridiagonal Jacobian (see evolve).  dt_max
is not a step cap but sets the solver's relative tolerance, as the local error
of a second-order step of dt_max scales.  With frhs(0) == 0 every Newton iterate
from the zero profile is zero, so the zero profile stays zero.

Gaussian area is sampled at unit time marks; those marks feed the empirical
decay-exponent fit and, at every second mark, the discrete summability
certificate used by the closeness experiment.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np
from scipy import linalg, sparse
from scipy.integrate import BDF

from . import sequences
from .cylinder import (CylinderGraph, CylinderSpec, dist_R, graph_distance, graph_F,
                       uniform_grid, window)
from .errors import IntegrationError, InsufficientDataError, InvalidInputError, PreconditionError

# initial offsets u = PROFILES[kind](amplitude, z) of the bundled profile
# families.  balanced_gauss subtracts the Gaussian-weighted mean component
# (coefficient sqrt(3/5)), which removes the constant-mode overlap that
# otherwise dominates the early drift away from the cylinder.
PROFILES = {
    "zero": lambda amplitude, z: np.zeros_like(z),
    "gauss": lambda amplitude, z: amplitude * np.exp(-(z**2)),
    "balanced_gauss": lambda amplitude, z: amplitude * (
        np.exp(-(z**2)) - math.sqrt(3.0 / 5.0) * np.exp(-(z**2) / 2.0)),
}


@dataclass(frozen=True, eq=False)
class FlowState:
    graph: CylinderGraph
    t: float


def _kernel(z: np.ndarray, h: float, s: float):
    """Right-hand side on one grid: frhs(w) is the time derivative of w, zero
    on the two pinned end rows.  The radial term is u (2s + u) / (2 (s + u)),
    so frhs(0) == 0 exactly.  No geometry check happens here: evolve
    validates accepted profiles, and blowups surface as non-finite values.
    frhs runs the expression's 17 operations in order, one ufunc each, into
    three scratch rows allocated here once, so its bits are the out-of-place
    expression's; it returns a fresh row per call, as scipy's BDF keeps f(t0)
    while it calls frhs again and callers add into the row they get back."""
    zhalf = 0.5 * z[1:-1]
    inv2h = 1.0 / (2.0 * h)
    invh2 = 1.0 / (h * h)
    w_z, w_zz, term = np.empty((3, z.size - 2))

    def frhs(w: np.ndarray) -> np.ndarray:
        # w_zz / (1 + w_z*w_z) + c*(2s + c) / (2(s + c)) - zhalf*w_z, left to right
        a, b, c = w[2:], w[:-2], w[1:-1]
        out = np.zeros_like(w)
        inner = out[1:-1]
        np.multiply(np.subtract(a, b, out=w_z), inv2h, out=w_z)
        np.multiply(c, 2.0, out=w_zz)
        np.multiply(np.add(np.subtract(a, w_zz, out=w_zz), b, out=w_zz), invh2, out=w_zz)
        np.divide(w_zz, np.add(np.multiply(w_z, w_z, out=term), 1.0, out=term), out=w_zz)
        np.multiply(c, np.add(c, 2.0 * s, out=term), out=term)
        np.divide(term, np.multiply(np.add(c, s, out=inner), 2.0, out=inner), out=term)
        np.subtract(np.add(w_zz, term, out=w_zz), np.multiply(zhalf, w_z, out=w_z), out=inner)
        return out

    return frhs


def _jacobian(z: np.ndarray, h: float, s: float):
    """d frhs/dw for _kernel's frhs: fjac(w) is a (3, N) array of its sub, main and super
    diagonals, each entry in the column of the w it differentiates by; pinned rows are 0."""
    drift = z[1:-1] / (4.0 * h)  # the advection term's weight on each neighbour
    inv2h, invh2 = 1.0 / (2.0 * h), 1.0 / (h * h)

    def fjac(w: np.ndarray) -> np.ndarray:
        a, b, c = w[2:], w[:-2], w[1:-1]
        w_z = (a - b) * inv2h
        q = 1.0 / (1.0 + w_z * w_z)
        slope = 2.0 * w_z * (a - 2.0 * c + b) * invh2 * q * q * inv2h  # w_zz times -dq/da
        J = np.zeros((3, w.size))
        J[0, :-2] = invh2 * q + slope + drift
        J[1, 1:-1] = -2.0 * invh2 * q + 0.5 + 0.5 * s * s / ((s + c) * (s + c))
        J[2, 2:] = invh2 * q - slope - drift
        return J

    return fjac


def _tridiagonal_lu(A, last_state) -> list:
    """gttrf's LU of the tridiagonal A, given as (3, N) diagonals laid out as
    _jacobian's; a zero pivot raises IntegrationError carrying last_state()."""
    *factors, info = linalg.lapack.dgttrf(A[0, :-1], A[1], A[2, 1:])
    if info > 0:
        raise IntegrationError(f"singular Newton matrix (zero pivot in row {info}) after "
                               f"t={(state := last_state()).t}", last_state=state)
    return factors


@dataclass
class FlowControls:
    """evolve's one setting, dt_max, and the constants of its scheme.

    dt_max is not a step cap: it sets the solver's relative tolerance
    rtol_per_dt2 * dt_max^2, which scales as the local error of a
    second-order step of dt_max does, so a run at dt_max / 2 is a real time
    refinement of one at dt_max.
    """

    dt_max: float = 1e-3
    rtol_per_dt2: ClassVar[float] = 1e-2
    atol: ClassVar[float] = 1e-12
    stop_max_abs_u: ClassVar[float] = 1.0  # the run stops once max |u| exceeds this
    # unused by evolve; perfbench's tracer still reads it, and FlowHistory.diag_err,
    # until ROADMAP item 8 rewrites the benchmark and removes both
    cfl: ClassVar[float] = 0.8

    def tolerances(self) -> tuple[float, float]:
        """(rtol, atol) of the solver: 1e-8 and 1e-12 at the bundled dt_max = 1e-3."""
        return self.rtol_per_dt2 * self.dt_max**2, self.atol


@dataclass(eq=False)
class FlowHistory:
    """Unit-mark record of one run plus per-step diagnostics.

    The profiles (one row per mark, both ends pinned to 0), the Gaussian area
    F and max |u| are stored at every integer time: mark_times are the
    consecutive integers from the run's start, so the mark at time t is entry
    t - mark_times[0] of every mark array.  dist(R) measures the distance to
    the cylinder of every stored profile in one pass, at whatever radius the
    caller asks.  Diagnostics at every accepted step, float64 arrays: the
    time after it, dt and max |u| after it; diag_err stays empty (see
    FlowControls.cfl).  n_rhs, njev and nlu are the solver's nfev, njev and
    nlu: every kernel call of the run, analytic Jacobians (which call no
    kernel) and LAPACK tridiagonal factorisations of the Newton matrix.
    """

    spec: CylinderSpec
    z: np.ndarray
    mark_times: np.ndarray
    mark_F: np.ndarray
    mark_max_u: np.ndarray
    profiles: np.ndarray
    diag_t: np.ndarray
    diag_dt: np.ndarray
    diag_max_u: np.ndarray
    stop_reason: str
    t_final: float
    n_rhs: int
    njev: int
    nlu: int
    diag_err: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n_marks(self) -> int:
        return int(self.mark_times.size)

    @property
    def gaps(self) -> np.ndarray:
        """The F-gap F(t) - F_cyl of every mark, as every reader of a run's gaps takes it."""
        return self.mark_F - self.spec.F_value

    @property
    def max_rise(self) -> float:
        """The largest area increase from one mark to the next, -inf with fewer
        than two marks: what the area-monotone check of `flowcert mcf` and
        criterion 8 read."""
        return float(np.max(np.diff(self.mark_F), initial=-np.inf))

    def dist(self, R: float) -> np.ndarray:
        """dist_R of each stored profile, in mark order."""
        return dist_R(self.z, self.profiles, R)


MARK_TOL = 1e-9  # a starting time this close to an integer counts as one
MAX_STEPS = 10_000_000  # most steps of dt_max a run may span
STARTUP_STEPS = 1_000  # steps a run may take beyond one per dt_max of flow time
MIN_STEP_ULPS = 10  # an accepted step shorter than this many ulp of max(1, t) has collapsed
RTOL_MIN = 100 * np.finfo(float).eps  # the least rtol scipy's BDF accepts without raising it
MONOTONE_TOL = 1e-8  # largest unit-mark area increase an area-monotone run may show
STATIONARY_TOL = 1e-8  # largest sup|u| and |F - F_cyl| a run from the cylinder may show


def evolve(state: FlowState, t_end: float, controls: FlowControls) -> FlowHistory:
    """Advance the flow to t_end (or a stop condition) with scipy's BDF.

    The method of lines is stiff (its fastest mode decays at about 4/h^2), so
    each step is one step of the variable-order BDF of Shampine & Reichelt
    (1997), scipy.integrate.BDF, with the analytic Jacobian of _jacobian, so
    its Newton matrix I - cJ is three diagonals, which LAPACK factors
    (_tridiagonal_lu).  controls.dt_max is not a step cap: the solver sets
    every step to meet controls.tolerances(), whose rtol scales with dt_max^2
    as a second-order step's local error does.  The profile at each integer
    time a step crosses comes from that step's interpolant (the step's own
    end when it lands on the integer, as the last step does on t_end).

    Starting time must be an integer.  A start whose max |u| already exceeds
    controls.stop_max_abs_u is refused with PreconditionError: the run would
    stop after its first step, and the slopes and area of such a profile may
    overflow.  After each accepted step the run raises PreconditionError if
    r <= 0 anywhere, and stops after the first step with max |u| above
    stop_max_abs_u.  A failed step, a non-finite right-hand side or a singular
    Newton matrix raises IntegrationError carrying the last accepted state, and
    so does a run that takes more than STARTUP_STEPS steps plus one per dt_max
    of flow time: a tolerance of a second-order step of dt_max needs far fewer,
    so steps that short mean the solver, not the flow, is in trouble.  So does
    an accepted step shorter than MIN_STEP_ULPS ulp of max(1, t), other than
    the last one, which scipy clips onto t_end: scipy's own floor (10 ulp of t)
    does not bind near t = 0, where a collapsing run would otherwise spend its
    whole budget.  A dt_max whose rtol is below RTOL_MIN or overflows, and a
    run that spans more than MAX_STEPS steps of dt_max, are refused up front
    with InvalidInputError.
    """
    if abs(state.t - round(state.t)) > MARK_TOL:
        raise InvalidInputError("evolve expects an integer starting time")
    if t_end <= state.t:
        raise InvalidInputError("t_end must exceed the starting time")
    try:
        rtol, atol = controls.tolerances()
    except OverflowError:  # dt_max^2 beyond the float range
        raise InvalidInputError(f"dt_max {controls.dt_max:g} sets an rtol beyond the "
                                "float range") from None
    if not (controls.dt_max > 0.0 and rtol >= RTOL_MIN):
        raise InvalidInputError(f"dt_max {controls.dt_max:g} sets rtol {rtol:.2e}; dt_max must be "
                                f"positive and rtol at least {RTOL_MIN:.2e}, the solver's floor")
    spec = state.graph.spec
    z = state.graph.z
    u = state.graph.u.copy()
    s = spec.radius
    t = float(round(state.t))
    if (t_end - t) / controls.dt_max > MAX_STEPS:
        raise InvalidInputError(f"reaching t={t_end} spans more than MAX_STEPS={MAX_STEPS} "
                                f"steps of dt_max {controls.dt_max:g}")
    budget = STARTUP_STEPS + math.ceil((t_end - t) / controls.dt_max)
    start_max_u = float(np.max(np.abs(u)))
    if start_max_u > controls.stop_max_abs_u:
        raise PreconditionError(f"initial max|u| {start_max_u:.3e} exceeds the stop condition "
                                f"max|u| > {controls.stop_max_abs_u}")

    mark_times, profiles = [t], [u]
    diag_t, diag_mu = [], []

    def last_state() -> FlowState:
        return FlowState(CylinderGraph(spec, z, u), t)  # copies u

    frhs, fjac = _kernel(z, state.graph.h, s), _jacobian(z, state.graph.h, s)

    def rhs(_, w: np.ndarray) -> np.ndarray:
        out = frhs(w)
        if not np.isfinite(out).all():  # scipy would take it for a Newton failure
            raise IntegrationError(f"non-finite right-hand side after t={t}", last_state=last_state())
        return out

    # a constant jac keeps scipy's setup from estimating one; I and J become diagonals
    solver = BDF(rhs, t, u, t_end, rtol=rtol, atol=atol, jac=sparse.csc_array((u.size, u.size)))

    def jac(_, w):  # counts njev as scipy's own jac does
        solver.njev += 1
        return fjac(w)

    def lu(A):  # counts nlu as scipy's own lu does
        solver.nlu += 1
        return _tridiagonal_lu(A, last_state)
    solver.jac, solver.lu = jac, lu
    solver.J, solver.I = jac(t, u), np.outer([0.0, 1.0, 0.0], np.ones(u.size))
    solver.solve_lu = lambda factors, b: linalg.lapack.dgttrs(*factors, b, overwrite_b=True)[0]
    stop_reason = "completed"
    while solver.status == "running" and stop_reason == "completed":
        if len(diag_t) >= budget:
            raise IntegrationError(f"gave up at t={t} after {budget} steps "
                                   f"(last dt {t - t_old:.3e}, dt_max {controls.dt_max:g})",
                                   last_state=last_state())
        message = solver.step()
        y_min, y_max = float(solver.y.min()), float(solver.y.max())  # a NaN reaches both
        if solver.status == "failed" or not (math.isfinite(y_min) and math.isfinite(y_max)):
            raise IntegrationError(f"step failed after t={t}: {message or 'non-finite profile'}",
                                   last_state=last_state())
        if y_min <= -s:
            raise PreconditionError(f"flow left the graph regime at t={solver.t}: r <= 0")
        t_old, t, u = t, solver.t, solver.y
        if t - t_old < MIN_STEP_ULPS * math.ulp(max(1.0, t)) and t < t_end:
            raise IntegrationError(f"step collapsed to {t - t_old:.3e} at t={t:.3e} "
                                   f"(dt_max {controls.dt_max:g})", last_state=last_state())
        max_u = abs(max(y_max, -y_min))  # abs() turns a -0.0 into +0.0
        diag_t.append(t)
        diag_mu.append(max_u)
        if max_u > controls.stop_max_abs_u:
            stop_reason = "max_abs_u"
        next_mark = mark_times[-1] + 1.0
        if next_mark <= t:
            interpolant = solver.dense_output()
            while next_mark <= t:
                mark_times.append(next_mark)
                profiles.append(u if next_mark == t else interpolant(next_mark))
                next_mark += 1.0
    profiles = np.array(profiles)
    profiles[:, [0, -1]] = 0.0  # pinned, as the solver leaves rounding at the ends
    return FlowHistory(
        spec=spec,
        z=z,
        mark_times=np.asarray(mark_times),
        mark_F=graph_F(spec, z, profiles),
        mark_max_u=np.max(np.abs(profiles), axis=1),
        profiles=profiles,
        diag_t=np.asarray(diag_t, dtype=np.float64),
        diag_dt=np.diff(diag_t, prepend=mark_times[0]),
        diag_max_u=np.asarray(diag_mu, dtype=np.float64),
        stop_reason=stop_reason,
        t_final=float(t),
        n_rhs=solver.nfev,
        njev=solver.njev,
        nlu=solver.nlu,
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
    desk-scale proxy for closeness throughout the window).  Fewer than
    MIN_WINDOWS admissible windows, or one whose F-gap exceeds ZERO_TOL while
    F does not drop across it, raise InsufficientDataError.
    """
    if tau_grid is None:
        tau_grid = np.round(np.arange(0.05, 1.0, 0.01), 10)
    ok = hist.dist(R) < eps
    idx = 1 + np.flatnonzero(ok[:-2] & ok[1:-1] & ok[2:])
    if idx.size < MIN_WINDOWS:
        raise InsufficientDataError(
            f"only {idx.size} admissible unit-mark windows; need >= {MIN_WINDOWS}")
    lhs = np.abs(hist.gaps[idx])
    drop = np.maximum(hist.mark_F[idx - 1] - hist.mark_F[idx + 1], 0.0)
    live = lhs > ZERO_TOL
    stalled = np.flatnonzero(live & (drop == 0.0))
    if stalled.size:
        raise InsufficientDataError(f"the window at t={hist.mark_times[idx[stalled[0]]]:g} has "
                                    "a gap but no area drop, so no finite C certifies it")
    # needed C per tau (rows) and live window (columns); a tau's C is its row's max
    needs = np.max(lhs[live] ** (1.0 + tau_grid[:, None]) / drop[live], axis=1, initial=0.0)
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
        if self.profile_kind not in PROFILES:
            raise InvalidInputError(f"unknown profile_kind '{self.profile_kind}' "
                                    f"(known: {', '.join(PROFILES)})")
        for name in ("h", "R_dom", "dt_max", "eps1", "eps2", "R1", "R2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidInputError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise InvalidInputError(f"amplitude must be finite and non-negative, got {self.amplitude}")
        if not (1 <= self.k <= MAX_K and self.seed >= 0):
            raise InvalidInputError(
                f"need 1 <= k <= {MAX_K} and seed >= 0, got k={self.k}, seed={self.seed}")
        if 2.0 * self.R_dom / self.h > MAX_INTERVALS:
            raise InvalidInputError(f"grid 2*R_dom/h exceeds {MAX_INTERVALS} intervals")
        if not (isinstance(self.t1, int) and isinstance(self.t2, int)):
            raise InvalidInputError("t1 and t2 must be integers (unit-mark bookkeeping)")
        if self.t2 > sys.float_info.max:  # the run's horizon is float(t2)
            raise InvalidInputError(f"t2 must be at most {sys.float_info.max:g}, the largest float")
        if not 0 <= self.t1 <= self.t2 - 2:
            raise InvalidInputError("need 0 <= t1 <= t2 - 2")
        if self.R2 > self.R_dom - 2 * self.h or self.R1 > self.R_dom - 2 * self.h:
            raise InvalidInputError("measurement radii must fit inside the grid")
        z = uniform_grid(self.R_dom, self.h)
        for name in ("R1", "R2"):
            R = getattr(self, name)
            if not window(z, R).any():
                raise InvalidInputError(f"{name}: no grid point within |z| <= {R} (spacing h={self.h})")

    def controls(self) -> FlowControls:
        return FlowControls(dt_max=self.dt_max)

    def initial_state(self) -> FlowState:
        graph = CylinderGraph.from_profile(
            CylinderSpec(self.k), self.R_dom, self.h,
            lambda z: PROFILES[self.profile_kind](self.amplitude, z))
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

    def verdict(self) -> bool:
        """Closeness verdict: hypotheses hold, certificate passes, bound holds."""
        return self.hypotheses_ok and self.certified and self.bound_holds


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

    The fit is lojasiewicz_fit at (R1, eps1) over TAU_GRID, which measures
    the R1 distances of every mark again (one more hist.dist(R1) pass, the
    same bits hypothesis (1) reads).  A hypothesis violation is
    reported, not raised; a history that starts after t1 is refused.
    """
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
    dF1 = float(hist.gaps[k]) if k < hist.n_marks else math.nan
    dF2 = float(hist.gaps[-1])
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

    # F-series at the odd marks t1 + 2j - 1, split at the sign change into the
    # positive prefix and the negative suffix reindexed backwards with its sign
    # flipped; entries at or below ZERO_TOL drop out, and certify_part's running
    # minimum irons out the rounding-level rises the guard lets through
    series = hist.gaps[k + 1::2]
    if np.any(np.diff(series) > 1e-9 * max(1.0, float(np.max(np.abs(series), initial=0.0)))):
        raise InvalidInputError("series must be non-increasing")
    pos = series[series > ZERO_TOL]
    neg = -series[series < -ZERO_TOL][::-1]
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
    after = hist.profiles[k + 1:]
    dist_vals = graph_distance(hist.z, after, after[:1], cfg.R2)
    certified = certified and dist_vals.size > 0
    max_dist = float(np.max(dist_vals, initial=0.0))

    # promotion constant: largest measured distance per unit of certificate
    # sum, at t1 + 1 + j the sum over the drops with both marks at or before it
    sqrt_drops = np.sqrt(np.abs(np.diff(series)))
    partial = np.concatenate([[0.0], np.cumsum(sqrt_drops)])
    S = partial[np.minimum(np.arange(dist_vals.size) // 2, partial.size - 1)]
    live = S > 1e-300
    ctilde = float(np.max(dist_vals[live] / S[live], initial=1.0))

    if consts is not None and not math.isnan(dF1):
        bound_value = ctilde * consts.endpoint_bound(dF1, dF2)
    else:
        bound_value = math.nan
    bound_holds = (not math.isnan(bound_value)
                   and bool(np.all(dist_vals <= bound_value + sequences.CAP_SLACK)))

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
        F_cyl=hist.spec.F_value,
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
