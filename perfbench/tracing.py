"""Per-layer tracing from outside the program.

The traced pass replaces selected public functions of flowcert's modules with
timing wrappers, in every flowcert module that holds a reference to them, so
calls between modules (``mcf.evolve`` calling ``graph_F``, ``extremal_sequence``
calling ``extremal_step``) pass through the wrappers too.  Nothing under
``src/`` is edited.

Spans are aggregated in memory as they close: per layer the call count, the
inclusive time and the time covered by wrapped child spans, plus the
(parent, child) call counts of the span tree.  A layer's self time is its
inclusive time minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (layer name, module, function); the layer name is the metric prefix.
LAYERS = [
    ("mcf.evolve", "flowcert.mcf", "evolve"),
    ("mcf.lojasiewicz_fit", "flowcert.mcf", "lojasiewicz_fit"),
    ("mcf.close_experiment", "flowcert.mcf", "close_experiment"),
    ("cylinder.graph_F", "flowcert.cylinder", "graph_F"),
    ("cylinder.dist_R", "flowcert.cylinder", "dist_R"),
    ("sequences.extremal_step", "flowcert.sequences", "extremal_step"),
    ("sequences.random_admissible_sequence", "flowcert.sequences", "random_admissible_sequence"),
    ("sequences.extremal_sequence", "flowcert.sequences", "extremal_sequence"),
    ("sequences.constructive_bound", "flowcert.sequences", "constructive_bound"),
    ("sequences.check_hypothesis", "flowcert.sequences", "check_hypothesis"),
    ("gradientflow.integrate", "flowcert.gradientflow", "integrate"),
    ("gradientflow.effective_bound", "flowcert.gradientflow", "effective_bound"),
    ("acceptance.crit_1", "flowcert.acceptance", "crit_power_gap"),
    ("acceptance.crit_2", "flowcert.acceptance", "crit_iterated_gap"),
    ("acceptance.crit_3", "flowcert.acceptance", "crit_summability_bound"),
    ("acceptance.crit_4", "flowcert.acceptance", "crit_model_flow"),
    ("acceptance.crit_5", "flowcert.acceptance", "crit_gradient_consistency"),
    ("acceptance.crit_6", "flowcert.acceptance", "crit_cylinder_area"),
    ("acceptance.crit_11", "flowcert.acceptance", "crit_determinism"),
]

# Metric name -> unit.  `.s` is self time, except for the acceptance criteria,
# which sit at the top of the span tree and report inclusive time (the wall
# time of the criterion).  `trace.overhead_s` is filled in by run.py.
PER_LAYER_UNITS = {
    "mcf.evolve.s": "s",
    "mcf.evolve.calls": "count",
    "mcf.evolve.steps": "count",
    "mcf.evolve.us_per_step": "us",
    "mcf.evolve.flow_t_per_s": "1/s",
    "mcf.evolve.cap_share": "ratio",
    "mcf.evolve.max_err_over_tol": "ratio",
    "mcf.lojasiewicz_fit.s": "s",
    "mcf.lojasiewicz_fit.calls": "count",
    "mcf.close_experiment.s": "s",
    "mcf.close_experiment.calls": "count",
    "cylinder.graph_F.calls": "count",
    "cylinder.graph_F.us_per_call": "us",
    "cylinder.dist_R.calls": "count",
    "cylinder.dist_R.us_per_call": "us",
    "sequences.extremal_step.calls": "count",
    "sequences.extremal_step.us_per_call": "us",
    "sequences.random_admissible_sequence.s": "s",
    "sequences.random_admissible_sequence.calls": "count",
    "sequences.extremal_sequence.s": "s",
    "sequences.extremal_sequence.calls": "count",
    "sequences.constructive_bound.s": "s",
    "sequences.constructive_bound.calls": "count",
    "sequences.check_hypothesis.s": "s",
    "sequences.check_hypothesis.calls": "count",
    "gradientflow.integrate.s": "s",
    "gradientflow.integrate.calls": "count",
    "gradientflow.integrate.us_per_call": "us",
    "gradientflow.effective_bound.s": "s",
    "gradientflow.effective_bound.calls": "count",
    **{f"acceptance.crit_{n}.s": "s" for n in (1, 2, 3, 4, 5, 6, 11)},
    "trace.overhead_s": "s",
}


class EvolveStats:
    """Step statistics read off each FlowHistory that `evolve` returns."""

    def __init__(self):
        self.steps = 0
        self.capped = 0
        self.flow_time = 0.0
        self.max_err_over_tol = 0.0

    def observe(self, hist, args, kwargs) -> None:
        state = args[0] if args else kwargs["state"]
        controls = args[2] if len(args) > 2 else kwargs["controls"]
        g = state.graph
        dt_stab = controls.cfl * min(0.5 * g.h * g.h, 2.0 * g.h / max(g.R_dom, 1e-300))
        dt_cap = min(dt_stab, controls.dt_max)
        t_after = hist.diag_t
        dt = hist.diag_dt
        t_before = t_after - dt
        # the largest step the caps allow: dt_cap, clipped at the next unit mark
        # and at the end of the run
        to_mark = np.floor(t_before + 1e-9) + 1.0 - t_before
        limit = np.minimum(np.minimum(dt_cap, to_mark), hist.t_final - t_before)
        self.steps += int(dt.size)
        self.capped += int(np.count_nonzero(dt >= limit * (1.0 - 1e-9)))
        self.flow_time += float(hist.t_final - state.t)
        if hist.diag_err.size:
            self.max_err_over_tol = max(self.max_err_over_tol,
                                        float(np.max(hist.diag_err)) / controls.step_tol)


class Tracer:
    """Wraps the LAYERS functions; `install` patches, `uninstall` restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = {name: 0 for name, _, _ in LAYERS}
        self.total = {name: 0.0 for name, _, _ in LAYERS}
        self.child = {name: 0.0 for name, _, _ in LAYERS}
        self.edges: dict[tuple[str, str], int] = {}
        self.evolve = EvolveStats()
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, observe=None):
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else "root"
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.child[name] += frame[1]
                self.edges[(parent, name)] = self.edges.get((parent, name), 0) + 1
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        for _, module_name, _ in LAYERS:
            importlib.import_module(module_name)
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "flowcert" or key.startswith("flowcert."))]
        for name, module_name, attr in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            observe = self.evolve.observe if name == "mcf.evolve" else None
            wrapper = self._wrap(name, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def metrics(self) -> dict:
        """Per-layer values keyed like PER_LAYER_UNITS (without trace.overhead_s)."""

        def per_call_us(name):
            n = self.calls[name]
            return 1e6 * self.total[name] / n if n else 0.0

        ev = self.evolve
        evolve_incl = self.total["mcf.evolve"]
        out = {
            "mcf.evolve.steps": ev.steps,
            "mcf.evolve.us_per_step": 1e6 * evolve_incl / ev.steps if ev.steps else 0.0,
            "mcf.evolve.flow_t_per_s": ev.flow_time / evolve_incl if evolve_incl else 0.0,
            "mcf.evolve.cap_share": ev.capped / ev.steps if ev.steps else 0.0,
            "mcf.evolve.max_err_over_tol": ev.max_err_over_tol,
        }
        for name, _, _ in LAYERS:
            if name.startswith("acceptance."):
                out[f"{name}.s"] = self.total[name]
                continue
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total[name] - self.child[name]
            out[f"{name}.us_per_call"] = per_call_us(name)
        return {key: out[key] for key in PER_LAYER_UNITS if key in out}

    def span_tree(self) -> list[dict]:
        return [{"parent": p, "span": c, "calls": n}
                for (p, c), n in sorted(self.edges.items())]
