"""The benchmark's workloads: seeded inputs, the calls into flowcert, the gate.

Each workload class does its set-up in the constructor (bundled config load,
seed-drawn amplitudes, initial states), makes every timed call into the
program in `run`, and applies the pass conditions of the acceptance criteria
it covers in `check`.  `check` also returns the certified and reported numbers
as ungated outputs, so a later change that moves one of them shows which and
by how much.

- mcf-stiff: `evolve` where the parabolic cap cfl*h^2/2 sets dt (h <= 0.025):
  zero.cfg at h = 0.02 and fit.cfg at h/2.  Step count and per-step cost rule.
- mcf-certify: `evolve` where dt_max sets dt (h = 0.05), with the fit and the
  closeness experiment on top: fit.cfg, fit.cfg at dt_max/2, sweep.cfg at the
  three sweep amplitudes.  A larger stable step buys nothing here.
- certs: acceptance criteria 1-6 and 11 (root solves, solve_ivp, quadrature);
  mcf does no work here.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import replace

import numpy as np

from flowcert import acceptance, harness, mcf

AMPLITUDE_SPREAD = 0.1  # seed-drawn amplitudes lie within +-10% of the bundled ones
MONOTONE_TOL = 1e-8  # criterion 8: largest allowed unit-mark area increase
STATIONARY_TOL = 1e-8  # criterion 7: sup|u| and |F - F_cyl| on zero.cfg
REFINE_TOL = 0.05  # criterion 9: relative change of C under dt refinement


class Checks:
    """Correctness checks of one pass; every check counts, pass or fail."""

    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append({"name": name, "passed": bool(passed), "detail": detail})


def draw_amplitudes(seed: int) -> dict:
    """Fit and sweep amplitudes, each within +-10% of its bundled value."""
    rng = np.random.default_rng(seed)
    fit = harness.load_bundled_config("fit.cfg").amplitude
    lo, hi = 1.0 - AMPLITUDE_SPREAD, 1.0 + AMPLITUDE_SPREAD
    return {
        "fit": float(fit * rng.uniform(lo, hi)),
        "sweep": [float(a * rng.uniform(lo, hi)) for a in acceptance.SWEEP_AMPLITUDES],
    }


def max_area_increase(hist: mcf.FlowHistory) -> float:
    return float(np.max(np.diff(hist.mark_F))) if hist.mark_F.size >= 2 else -math.inf


class McfWorkload:
    """Shared plumbing: timed `evolve` per named run, completion and monotonicity gates."""

    def __init__(self, seed: int):
        self.seed = seed
        self.amplitudes = draw_amplitudes(seed)
        self.runs: dict[str, tuple[mcf.RunConfig, mcf.FlowState]] = {}
        self.hists: dict[str, mcf.FlowHistory] = {}
        self.seconds: dict[str, float] = {}

    def add_run(self, label: str, cfg: mcf.RunConfig) -> None:
        cfg = replace(cfg, seed=self.seed)
        self.runs[label] = (cfg, cfg.initial_state())

    def evolve(self, label: str) -> mcf.FlowHistory:
        cfg, state = self.runs[label]
        start = time.perf_counter()
        hist = mcf.evolve(state, t_end=float(cfg.t2), controls=cfg.controls())
        self.seconds[label] = time.perf_counter() - start
        self.hists[label] = hist
        return hist

    def check_runs(self, checks: Checks) -> dict:
        per_run = {}
        for label, hist in self.hists.items():
            cfg = self.runs[label][0]
            steps = int(hist.diag_t.size)
            rise = max_area_increase(hist)
            checks.add(f"{label}: completed", hist.stop_reason == "completed"
                       and hist.t_final >= cfg.t2 - 1e-9, hist.stop_reason)
            checks.add(f"{label}: area monotone", rise <= MONOTONE_TOL,
                       f"max unit-mark increase {rise:.3e}")
            per_run[label] = {
                "h": cfg.h, "dt_max": cfg.dt_max, "amplitude": cfg.amplitude,
                "steps": steps, "marks": hist.mark_times.tolist(),
                "evolve_s": self.seconds[label],
                "us_per_step": 1e6 * self.seconds[label] / steps if steps else 0.0,
                "max_area_increase": rise,
            }
        return per_run


class McfStiff(McfWorkload):
    def __init__(self, seed: int):
        super().__init__(seed)
        fit = harness.load_bundled_config("fit.cfg")
        self.add_run("zero", harness.load_bundled_config("zero.cfg"))
        self.add_run("fit_h2", replace(fit, h=fit.h / 2.0, amplitude=self.amplitudes["fit"]))

    def run(self) -> None:
        self.evolve("zero")
        self.evolve("fit_h2")

    def check(self, checks: Checks) -> dict:
        per_run = self.check_runs(checks)
        zero = self.hists["zero"]
        sup_u = max(float(np.max(zero.diag_max_u, initial=0.0)), float(np.max(zero.mark_max_u)))
        F_dev = float(np.max(np.abs(zero.mark_F - zero.spec.F_value)))
        checks.add("zero: sup|u| (criterion 7)", sup_u < STATIONARY_TOL, f"{sup_u:.3e}")
        checks.add("zero: max|F - F_cyl| (criterion 7)", F_dev <= STATIONARY_TOL, f"{F_dev:.3e}")
        return {"zero_sup_abs_u": sup_u, "zero_max_F_dev": F_dev, "runs": per_run}


class McfCertify(McfWorkload):
    def __init__(self, seed: int):
        super().__init__(seed)
        fit = replace(harness.load_bundled_config("fit.cfg"), amplitude=self.amplitudes["fit"])
        self.add_run("fit", fit)
        self.add_run("fit_dt2", replace(fit, dt_max=fit.dt_max / 2.0))
        sweep = harness.load_bundled_config("sweep.cfg")
        for i, amp in enumerate(self.amplitudes["sweep"]):
            self.add_run(f"sweep_{i}", replace(sweep, amplitude=amp))

    def run(self) -> None:
        cfg = self.runs["fit"][0]
        self.fit = mcf.lojasiewicz_fit(self.evolve("fit"), R=cfg.R1, eps=cfg.eps1)
        self.refit = mcf.lojasiewicz_fit(self.evolve("fit_dt2"), R=cfg.R1, eps=cfg.eps1,
                                         tau_grid=np.array([self.fit.tau_fit]), max_C=math.inf)
        self.reports = {}
        for label in [k for k in self.runs if k.startswith("sweep_")]:
            self.reports[label] = mcf.close_experiment(self.runs[label][0],
                                                       hist=self.evolve(label))

    def check(self, checks: Checks) -> dict:
        per_run = self.check_runs(checks)
        fit = self.fit
        min_slack = float(np.min(fit.residuals))
        rel_dt = abs(self.refit.C_fit - fit.C_fit) / fit.C_fit
        checks.add("fit: min slack >= 0 (criterion 9)", min_slack >= 0.0, f"{min_slack:.3e}")
        checks.add("fit: windows >= 5 (criterion 9)", fit.n_windows >= 5, str(fit.n_windows))
        checks.add("fit: dC(dt/2) < 5% (criterion 9)", rel_dt < REFINE_TOL, f"{100 * rel_dt:.3f}%")
        sweep = {}
        for label, rep in self.reports.items():
            for flag in ("hypotheses_ok", "certified", "bound_holds"):
                checks.add(f"{label}: {flag} (criterion 10)", getattr(rep, flag),
                           rep.failure_reason or "")
            sweep[label] = {
                "amplitude": self.runs[label][0].amplitude,
                "delta_F1": rep.delta_F1, "c": rep.c, "alpha": rep.alpha,
                "promotion_constant": rep.promotion_constant,
                "bound_value": rep.bound_value, "max_dist_to_ref": rep.max_dist_to_ref,
            }
        # criterion 10's trend: amplitudes are drawn in decreasing order, so the
        # initial area gaps must decrease and the peak drift must not grow
        gaps = [abs(s["delta_F1"]) for s in sweep.values()]
        peaks = [s["max_dist_to_ref"] for s in sweep.values()]
        checks.add("sweep: gap decreases with amplitude (criterion 10)",
                   bool(np.all(np.diff(gaps) <= 0.0)), str(gaps))
        checks.add("sweep: peak drift non-increasing with gap (criterion 10)",
                   bool(np.all(np.diff(peaks) <= 1e-12)), str(peaks))
        return {
            "tau_fit": fit.tau_fit, "C_fit": fit.C_fit, "tau_in_range": fit.tau_in_range,
            "min_slack": min_slack, "n_windows": fit.n_windows,
            "C_fit_dt2": self.refit.C_fit, "dC_dt2_pct": 100 * rel_dt,
            "sweep": sweep, "runs": per_run,
        }


class Certs:
    """Acceptance criteria 1-6 and 11 with the benchmark seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.amplitudes = {}
        # (label, criterion function, arguments); looked up at call time, so a
        # traced pass goes through the wrappers
        self.plan = [
            ("crit_1", "crit_power_gap", (seed,)),
            ("crit_2", "crit_iterated_gap", ()),
            ("crit_3", "crit_summability_bound", (seed,)),
            ("crit_4", "crit_model_flow", (seed,)),
            ("crit_5", "crit_gradient_consistency", (seed,)),
            ("crit_6", "crit_cylinder_area", ()),
            ("crit_11", "crit_determinism", (seed,)),
        ]

    def run(self) -> None:
        self.results = {}
        self.seconds = {}
        for label, name, args in self.plan:
            start = time.perf_counter()
            self.results[label] = getattr(acceptance, name)(*args)
            self.seconds[label] = time.perf_counter() - start

    def check(self, checks: Checks) -> dict:
        for label, res in self.results.items():
            checks.add(f"{label} {res.name}", res.passed, res.measured)
        return {
            "worst_sum_cap_ratio": _number_after("worst sum/cap ratio", self.results["crit_3"]),
            "length_err": _number_after("length err", self.results["crit_4"]),
            "measured": {label: res.measured for label, res in self.results.items()},
            "criterion_s": self.seconds,
        }


def _number_after(label: str, res: acceptance.CheckResult) -> float | None:
    """Read a number off a criterion's measured text (None if absent)."""
    match = re.search(re.escape(label) + r" ([-+0-9.eE]+)", res.measured)
    return float(match.group(1)) if match else None


WORKLOADS = {"mcf-stiff": McfStiff, "mcf-certify": McfCertify, "certs": Certs}
