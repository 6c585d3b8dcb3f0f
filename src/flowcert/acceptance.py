"""The acceptance suite: every release criterion as a callable check.

Each criterion returns a CheckResult with a pass flag and a deterministic
measured string; `run_all` executes the whole list against the bundled
configurations.  Criteria 7-10 read their MCF runs from one BundledRuns
table, which evolves each run once.  Timing is reported separately and never
enters the manifest, so manifests are byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import gradientflow as gf
from . import harness, mcf, sequences
from .cylinder import CylinderGraph, CylinderSpec, graph_F
from .errors import FlowcertError, InvalidInputError

CELLS = [(1.0, 0.4), (1.0, 0.5), (1.0, 0.9), (10.0, 0.4), (10.0, 0.5), (10.0, 0.9)]
GEOMETRIC_SUM = 1.70711  # closed form 0.5 (1 - 2^(-39/2)) / (1 - 2^(-1/2)), 5 decimals
SWEEP_AMPLITUDES = (0.02, 0.01, 0.005)
REFINEMENT_TOL = 0.05  # largest relative change of C_fit under h/2 or dt/2

# bundled MCF run name -> (bundled config file, the change made to it)
RUNS = {
    "zero": ("zero.cfg", lambda cfg: cfg),
    "fit": ("fit.cfg", lambda cfg: cfg),
    "fit_h_refined": ("fit.cfg", lambda cfg: replace(cfg, h=cfg.h / 2.0)),
    "fit_dt_refined": ("fit.cfg", lambda cfg: replace(cfg, dt_max=cfg.dt_max / 2.0)),
    **{f"sweep_{amp}": ("sweep.cfg", lambda cfg, amp=amp: replace(cfg, amplitude=amp))
       for amp in SWEEP_AMPLITUDES},
}

# criterion number -> the name its CheckResult carries
NAMES = {
    1: "power-gap-implication",
    2: "iterated-gap-extremal",
    3: "summability-bound",
    4: "model-flow",
    5: "gradient-consistency",
    6: "cylinder-area-closed-form",
    7: "cylinder-stationarity",
    8: "flow-area-monotonicity",
    9: "decay-fit-feasibility",
    10: "effective-closeness-trend",
    11: "report-determinism",
}


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    measured: str
    seconds: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.criterion:2d} {self.name}: {self.measured}"

    def manifest_entry(self) -> dict:
        return {
            "criterion": self.criterion,
            "name": self.name,
            "passed": bool(self.passed),
            "measured": self.measured,
        }


class BundledRuns(dict):
    """Run name -> (config, history) for RUNS.  Each run is loaded and evolved on first
    read, so its evolve time and any error it raises stay with the criterion reading it."""

    def __missing__(self, name: str) -> tuple[mcf.RunConfig, mcf.FlowHistory]:
        file, change = RUNS[name]
        cfg = change(harness.load_bundled_config(file))
        self[name] = cfg, mcf.evolve(cfg.initial_state(), t_end=float(cfg.t2), controls=cfg.controls())
        return self[name]


def crit_power_gap(seed: int) -> CheckResult:
    """10^5 random tuples: drop law at one step forces the inverse-power gap."""
    rng = np.random.default_rng(seed)
    n = 100_000
    a = 1.0 - rng.random(n)
    b = a * rng.uniform(0.0, 1.0, n)
    C = rng.uniform(1.0, 100.0, n)
    tau = 1.0 / 3.0 + (2.0 / 3.0) * (1.0 - rng.random(n))
    valid = (b > 0.0) & (b < a)
    hyp, gap = sequences.check_power_gap(a[valid], b[valid], C[valid], tau[valid])
    violations = int(np.sum(hyp & ~gap))
    checked = int(np.sum(hyp))
    return CheckResult(1, NAMES[1], violations == 0,
                       f"{checked} hypothesis-true tuples of {n}, {violations} violations")


def crit_iterated_gap() -> CheckResult:
    """Iterated gap bound, exact on equality-saturating sequences of length 10^4."""
    worst_margin = math.inf
    for C, tau in CELLS:
        seq = sequences.extremal_chain(C, tau, n_steps=10_000)
        worst_margin = min(worst_margin, sequences.iterated_gap_margin(seq, C, tau))
    return CheckResult(2, NAMES[2], worst_margin > 0.0,
                       f"min margin {worst_margin:.6e} over {len(CELLS)} cells, N=10^4")


def crit_summability_bound(seed: int) -> CheckResult:
    """Certified cap dominates the sqrt-increment sum on random and extremal data,
    and the geometric reference sum is reproduced."""
    rng = np.random.default_rng(seed + 1)
    ok = True
    notes = []
    worst_ratio = 0.0
    for C, tau in CELLS:
        consts = sequences.constructive_bound(C, tau)
        vals = sequences.random_admissible_batch(C, tau, rng, n_seq=1000, n_steps=40)
        sums = np.sum(np.sqrt(vals[:, :-1] - vals[:, 1:]), axis=1)
        caps = consts.cap(vals[:, 0])
        worst_ratio = max(worst_ratio, float(np.max(sums / caps)))
        ok = ok and bool(np.all(sums <= caps + sequences.CAP_SLACK))
        worst = sequences.certify_part(sequences.extremal_chain(C, tau, n_steps=10_000).values, consts)
        ok = ok and worst.hypothesis_ok and worst.cap_ok
    geo = sequences.MonotoneSequence(2.0 ** -np.arange(1, 41, dtype=float))
    geo_rep = sequences.check_hypothesis(geo, C=1.0, tau=0.5)
    geo_ok = geo_rep.ok and abs(geo_rep.sqrt_diff_sum - GEOMETRIC_SUM) <= 1e-5
    ok = ok and geo_ok
    notes.append(f"worst sum/cap ratio {worst_ratio:.4f}")
    notes.append(f"geometric sum {geo_rep.sqrt_diff_sum:.6f} (ref {GEOMETRIC_SUM})")
    return CheckResult(3, NAMES[3], ok, "; ".join(notes))


def _classifier_sample(problem: gf.GradientProblem, rng: np.random.Generator, index: int):
    """Starting point and horizon for one certifying run.

    Saddle starts alternate between a crossing-forcing configuration (the
    level-set crossing happens well before the unstable coordinate leaves the
    small ball) and a start on the unstable axis, which keeps the whole
    segment below the critical level.
    """
    if problem.name == "saddle2d":
        if index % 2 == 0:
            x0 = rng.uniform(0.1, 0.2)
            y0 = rng.uniform(5e-4, 2e-3)
            t_cross = (x0**2 - y0**2) / (16.0 * x0**2 * y0**2)
            return np.array([x0, y0]), 1.3 * t_cross
        y0 = rng.uniform(5e-3, 1e-2)
        return np.array([0.0, y0]), 50.0
    radius = rng.uniform(0.05, 0.24)
    direction = rng.normal(size=problem.dim)
    direction /= np.linalg.norm(direction)
    return radius * direction, 50.0


def crit_model_flow(seed: int) -> CheckResult:
    """Length oracle, pointwise decay envelope, and the three-way classifier
    on 100 starts per problem, integrated and certified as one batch per problem."""
    quartic = gf.problem_by_name("quartic1d")
    traj = gf.integrate(quartic, [0.2], t_end=2e12, tol=1e-10)
    len_err = abs(traj.length - 0.2)
    envelope_ok = gf.decay_envelope_check(traj)

    rng = np.random.default_rng(seed + 2)
    certified = 0
    total = 0
    cases = {"above": 0, "below": 0, "crossing": 0}
    for problem in gf.builtin_problems():
        starts, horizons = zip(*(_classifier_sample(problem, rng, i) for i in range(100)))
        runs = gf.integrate(problem, np.array(starts), t_end=np.array(horizons), tol=1e-9)
        for report in gf.effective_bound(problem, runs, epsilon=0.5):
            total += 1
            certified += int(report.holds)
            cases[report.case_tag] += 1
    ok = len_err <= 1e-6 and envelope_ok and certified == total
    measured = (f"length err {len_err:.2e} (tol 1e-6); envelope {envelope_ok}; "
                f"certified {certified}/{total} (cases {cases['above']}/{cases['below']}/"
                f"{cases['crossing']} above/below/crossing)")
    return CheckResult(4, NAMES[4], ok, measured)


def crit_gradient_consistency(seed: int) -> CheckResult:
    """Analytic gradients against central differences, relative 1e-6; each
    problem's 1000 points are drawn one by one and checked as one batch."""
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for problem in gf.builtin_problems():
        x = np.empty((1000, problem.dim))
        for row in x:
            direction = rng.normal(size=problem.dim)
            direction /= np.linalg.norm(direction)
            row[:] = rng.uniform(0.1, 0.9) * problem.ball_radius * direction
        g = np.asarray(problem.grad(x), dtype=float)
        fd = np.empty_like(g)
        hstep = 3e-6 * np.maximum(0.05, np.max(np.abs(x), axis=1))
        for i in range(problem.dim):
            e = np.zeros_like(x)
            e[:, i] = hstep
            fd[:, i] = (problem.F(x + e) - problem.F(x - e)) / (2.0 * hstep)
        rel = np.linalg.norm(fd - g, axis=1) / np.maximum(np.linalg.norm(g, axis=1), 1e-12)
        worst = max(worst, float(np.max(rel)))
    return CheckResult(5, NAMES[5], worst <= 1e-6,
                       f"max relative deviation {worst:.3e} over 10^3 points x "
                       f"{len(gf.builtin_problems())} problems")


def crit_cylinder_area() -> CheckResult:
    """Quadrature of the flat profile against the closed forms for k = 1, 2."""
    refs = {1: math.sqrt(2.0 * math.pi) * math.exp(-0.5), 2: 4.0 / math.e}
    errs = {}
    for k, ref in refs.items():
        g = CylinderGraph.zero(CylinderSpec(k), R_dom=20.0, h=0.01)
        errs[k] = abs(graph_F(g.spec, g.z, g.u) - ref)
    ok = all(e <= 1e-6 for e in errs.values())
    return CheckResult(6, NAMES[6], ok,
                       f"k=1 err {errs[1]:.2e}, k=2 err {errs[2]:.2e} (tol 1e-6)")


def crit_stationarity(runs: BundledRuns) -> CheckResult:
    """Zero profile stays at the cylinder over t in [0, 10] at h = 0.02."""
    cfg, hist = runs["zero"]
    sup_u = float(np.max(hist.diag_max_u, initial=0.0))
    sup_u = max(sup_u, float(np.max(hist.mark_max_u)))
    F_dev = float(np.max(np.abs(hist.gaps)))
    ok = (sup_u < mcf.STATIONARY_TOL and F_dev <= mcf.STATIONARY_TOL
          and hist.reached(cfg.t2))
    return CheckResult(7, NAMES[7], ok,
                       f"sup|u| {sup_u:.2e}, max|F - F_cyl| {F_dev:.2e} over t in [0, {cfg.t2}]")


def crit_monotone_F(runs: BundledRuns) -> CheckResult:
    """No unit-mark area increase above mcf.MONOTONE_TOL on any bundled run."""
    worst = -math.inf
    n_runs = 0
    for name in RUNS:
        _, hist = runs[name]
        if hist.n_marks >= 2:
            worst = max(worst, hist.max_rise)
            n_runs += 1
    ok = n_runs > 0 and worst <= mcf.MONOTONE_TOL
    return CheckResult(8, NAMES[8], ok,
                       f"max unit-mark increase {worst:.2e} across {n_runs} runs")


def crit_fit_feasibility(runs: BundledRuns) -> CheckResult:
    """Window-inequality fit: nonnegative slack, stable under dt and h refinement."""
    cfg, hist = runs["fit"]
    fit = mcf.lojasiewicz_fit(hist, R=cfg.R1, eps=cfg.eps1)
    # C at tau_fit on the refined runs, which change only h or dt_max and so share the window
    C_h, C_dt = (mcf.lojasiewicz_fit(runs[name][1], R=cfg.R1, eps=cfg.eps1,
                                     tau_grid=np.array([fit.tau_fit]), max_C=math.inf).C_fit
                 for name in ("fit_h_refined", "fit_dt_refined"))
    rel_h = abs(C_h - fit.C_fit) / fit.C_fit
    rel_dt = abs(C_dt - fit.C_fit) / fit.C_fit
    ok = fit.min_residual >= 0.0 and rel_h < REFINEMENT_TOL and rel_dt < REFINEMENT_TOL
    measured = (f"tau_fit {fit.tau_fit:.2f} (in (1/3,1): {fit.tau_in_range}), "
                f"C_fit {fit.C_fit:.4f}, min slack {fit.min_residual:.2e}, "
                f"windows {fit.n_windows}, dC(h/2) {100 * rel_h:.2f}%, "
                f"dC(dt/2) {100 * rel_dt:.2f}%")
    return CheckResult(9, NAMES[9], ok, measured)


def crit_close_trend(runs: BundledRuns) -> CheckResult:
    """Closeness experiment over the amplitude sweep: certified bound holds on
    each run and the peak drift shrinks with the initial area gap."""
    gaps, peaks, details = [], [], []
    all_ok = True
    for amp in SWEEP_AMPLITUDES:
        report = mcf.close_experiment(*runs[f"sweep_{amp}"])
        run_ok = report.verdict()
        all_ok = all_ok and run_ok
        gaps.append(abs(report.delta_F1))
        peaks.append(report.max_dist_to_ref)
        details.append(f"a={amp}: |dF1|={abs(report.delta_F1):.3e} "
                       f"peak={report.max_dist_to_ref:.3e} ok={run_ok}")
    order = np.argsort(gaps)[::-1]  # decreasing area gap
    trend_ok = bool(np.all(np.diff(np.asarray(peaks)[order]) <= 1e-12))
    amp_matches_gap = bool(np.all(np.diff(gaps) <= 0.0))  # amplitudes are given decreasing
    ok = all_ok and trend_ok and amp_matches_gap
    return CheckResult(10, NAMES[10], ok, "; ".join(details) +
                       f"; peak non-increasing with gap: {trend_ok}")


def crit_determinism(seed: int) -> CheckResult:
    """Identical seed reproduces the report text harness.write_json writes (in-process
    check; the CLI-level double run is exercised by the test suite)."""

    def build() -> str:
        rng = np.random.default_rng(seed + 4)
        seq = sequences.random_admissible_sequence(1.0, 0.5, rng, n_steps=30)
        return harness.json_text(sequences.check_hypothesis(seq, 1.0, 0.5))

    same = build() == build()
    return CheckResult(11, NAMES[11], same,
                       "same-seed report bytes identical" if same else "byte mismatch")


def run_all(seed: int = 1234, log: harness.RunLog | None = None) -> tuple[list[CheckResult], dict]:
    """Execute every criterion; returns results and the deterministic manifest.

    A criterion that raises a FlowcertError fails with the exception as its
    measured string, and the rest still run.  A negative seed, which numpy's
    generators refuse, is refused before any criterion runs.
    """
    if seed < 0:
        raise InvalidInputError(f"need seed >= 0, got {seed}")
    runs = BundledRuns()
    plan = [
        (1, lambda: crit_power_gap(seed)),
        (2, crit_iterated_gap),
        (3, lambda: crit_summability_bound(seed)),
        (4, lambda: crit_model_flow(seed)),
        (5, lambda: crit_gradient_consistency(seed)),
        (6, crit_cylinder_area),
        (7, lambda: crit_stationarity(runs)),
        (9, lambda: crit_fit_feasibility(runs)),
        (10, lambda: crit_close_trend(runs)),
        (8, lambda: crit_monotone_F(runs)),
        (11, lambda: crit_determinism(seed)),
    ]
    results: list[CheckResult] = []
    for criterion, fn in plan:
        start = time.perf_counter()
        try:
            res = fn()
        except FlowcertError as exc:  # one failing criterion must not stop the suite
            res = CheckResult(criterion, NAMES[criterion], False,
                              f"raised {type(exc).__name__}: {exc}")
        res.seconds = time.perf_counter() - start
        results.append(res)
        if log is not None:
            log.say(res.line() + f"  ({res.seconds:.1f}s)")
    results.sort(key=lambda r: r.criterion)
    manifest = harness.manifest_dict(
        command="verify-all",
        seed=seed,
        config={"bundled_configs": list(dict.fromkeys(file for file, _ in RUNS.values())),
                "sweep_amplitudes": list(SWEEP_AMPLITUDES)},
        checks=[r.manifest_entry() for r in results],
    )
    return results, manifest
