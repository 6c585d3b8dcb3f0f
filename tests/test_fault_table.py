"""The fault table, printed in README.md: each row patches the library as
(module or class, attribute, wrap), the attribute becoming wrap(the real
one), and pins the criteria of `acceptance.run_all` that go red on coarse
copies of the bundled configs, and those that go red by raising.  A blind
spot (no criterion red, or one red by a rounding-level margin) says why,
naming the ROADMAP item that would close it."""

import collections
import dataclasses
import functools
import inspect
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from flowcert import acceptance, cylinder, gradientflow, harness, mcf, sequences
from flowcert.errors import FlowcertError

# the criteria that call nothing in mcf or cylinder, by the function that checks each
FINITE_DIM = {1: "crit_power_gap", 2: "crit_iterated_gap", 3: "crit_summability_bound",
              4: "crit_model_flow", 5: "crit_gradient_consistency", 11: "crit_determinism"}
Fault = collections.namedtuple("Fault", "name patches red raised why", defaults=(frozenset(), ""))


def coarse_bundled_configs(mp):
    """Serve every bundled config at h = 0.1 and 8 dt_max, where all 11 criteria pass."""
    real = harness.load_bundled_config
    mp.setattr(harness, "load_bundled_config", lambda name: dataclasses.replace(
        cfg := real(name), h=0.1, dt_max=8.0 * cfg.dt_max))


def kernel_plus(term, factor=1.0):
    """A wrap of mcf._kernel adding factor * term(w, z, h, s) to the interior rows."""
    def wrap(real):
        def kernel(z, h, s):
            frhs = real(z, h, s)

            def perturbed(w):
                out = frhs(w)
                out[1:-1] += factor * term(w, z, h, s)
                return out
            return perturbed
        return kernel
    return wrap


def reaction(w, z, h, s):
    return w[1:-1] * (2.0 * s + w[1:-1]) / (2.0 * (s + w[1:-1]))


def diffusion(w, z, h, s):
    return (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h) / (1.0 + ((w[2:] - w[:-2]) / (2.0 * h)) ** 2)


def advection(w, z, h, s):
    return -0.5 * z[1:-1] * (w[2:] - w[:-2]) / (2.0 * h)


def result_with(**change):
    """A wrap under which each named field of the function's result becomes f(its value)."""
    def wrap(real):
        def fn(*args, **kwargs):
            out = real(*args, **kwargs)
            return dataclasses.replace(out, **{k: f(getattr(out, k)) for k, f in change.items()})
        return fn
    return wrap


def times(factor):
    """A wrap multiplying the function's float result by factor."""
    return lambda real: lambda *args, **kwargs: factor * real(*args, **kwargs)


def one_newton_step_short(real):
    """extremal_step returning, per entry, the Newton iterate before the last
    one that moved: one step short of the root, and above it."""
    def step(x, C, tau):
        prev = t = x = np.asarray(x, dtype=float)
        while True:
            nxt = t - (t * t**tau + C * (t - x)) / ((1.0 + tau) * t**tau + C)
            moved = nxt < t
            if not moved.any():
                return prev
            prev, t = np.where(moved, t, prev), np.where(moved, nxt, t)
    return step


def successors_one_newton_step_short(real):
    """_successors yielding, root after root, one_newton_step_short's root of
    the entry before: the extremal chains built on the short step."""
    def successors(x, C, tau):
        step = one_newton_step_short(real)
        while True:
            x = step(x, C, tau)
            yield x
    return successors


FAULTS = [
    Fault("no fault", [], set()),
    Fault("sphere_area x (1 + 1e-4)",
          [(cylinder, "sphere_area", times(1.0 + 1e-4))], {6}),
    Fault("forged power gap", [(sequences, "check_power_gap", lambda real: lambda a, b, C, tau: (
        np.ones_like(a, dtype=bool), np.zeros_like(a, dtype=bool)))], {1}),
    Fault("iterated-gap margin -1",
          [(sequences, "iterated_gap_margin", lambda real: lambda seq, C, tau: -1.0)], {2}),
    Fault("certificate c / 20",
          [(sequences, "_constructive_bound_cached", result_with(c=lambda c: c / 20.0))], {3}),
    Fault("certify_part reports a violation",
          [(sequences, "certify_part", result_with(hypothesis_ok=lambda ok: False))], {3, 4, 10}),
    Fault("gradient x (1 + 1e-5)", [(gradientflow, "builtin_problems", lambda real: lambda: [
        dataclasses.replace(p, grad=lambda x, g=p.grad: g(x) * (1.0 + 1e-5)) for p in real()])], {5}),
    Fault("call counter in check_hypothesis", [(sequences, "check_hypothesis", result_with(
        sqrt_diff_sum=lambda v, calls=itertools.count(): v + next(calls)))], {3, 11}),
    Fault("call counter in harness.json_text", [(harness, "json_text", lambda real: (
        lambda obj, calls=itertools.count(): real(obj) + str(next(calls))))], {11}),
    Fault("FlowHistory.gaps + 1e-6", [(mcf.FlowHistory, "gaps", lambda real: property(
        lambda self: real.fget(self) + 1e-6))], {7, 9}),
    Fault("RHS + 1e-6", [(mcf, "_kernel", kernel_plus(lambda *args: 1e-6))], {7, 10}),
    Fault("reaction x 3", [(mcf, "_kernel", kernel_plus(reaction, 2.0))], {8, 9, 10}, {9}),
    Fault("reaction sign-flipped", [(mcf, "_kernel", kernel_plus(reaction, -2.0))], {9},
          why="rounding-level: criterion 9's min slack -4.5e-15; item 13's linearisation gate"),
    Fault("diffusion x 1.01", [(mcf, "_kernel", kernel_plus(diffusion, 0.01))], set(),
          why="the linearisation keeps its eigenvalues; item 13's energy identity"),
    Fault("diffusion sign-flipped", [(mcf, "_kernel", kernel_plus(diffusion, -2.0))], {9, 10}, {9}),
    Fault("advection x 1.01", [(mcf, "_kernel", kernel_plus(advection, 0.01))], set(),
          why="criteria 7-10 compare each run only with itself; item 13's linearisation gate"),
    Fault("advection sign-flipped", [(mcf, "_kernel", kernel_plus(advection, -2.0))], set(),
          why="criteria 7-10 compare each run only with itself; item 13's linearisation gate"),
    Fault("BDF tolerance x 1e4", [(mcf.FlowControls, "tolerances", lambda real: lambda self: tuple(
          1e4 * tol for tol in real(self)))], set(),
          why="each run is compared only with itself or with one at the same loosened tolerance; "
              "item 7's refinement"),
    Fault("graph_F weight x 1.05", [(module, "graph_F", times(1.05))
                                     for module in (cylinder, mcf, acceptance)], {6, 7, 9}),
    Fault("graph_distance x 100", [(mcf, "graph_distance", times(100.0))], set(),
          why="Ctilde is fitted on the distances it then bounds; item 1's fixed-constant gate"),
    Fault("extremal_step one Newton step short",
          [(sequences, "extremal_step", one_newton_step_short),
           (sequences, "_successors", successors_one_newton_step_short)], {3, 4, 10}, {3, 4, 10}),
    Fault("certificate alpha + 0.05",
          [(sequences, "_constructive_bound_cached", result_with(alpha=lambda a: a + 0.05))], set(),
          why="the paper's cap keeps 10x of slack on criterion 3's data; item 3's sharp cap"),
]


def out_of_reach(mp, *modules):
    """Make every function the modules define raise."""
    def unreachable(*args, **kwargs):
        raise FlowcertError("a shortcut of the fault table no longer holds")
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                mp.setattr(module, name, unreachable)


@pytest.fixture(scope="module")
def fault_free():
    """Two shortcuts, checked on the code as it stands: runs evolved with
    sequences and gradientflow out of reach serve rows patching only those, and
    FINITE_DIM's results with mcf and cylinder out of reach, rows patching only these."""
    with pytest.MonkeyPatch.context() as mp:
        coarse_bundled_configs(mp)
        out_of_reach(mp, sequences, gradientflow)
        runs = acceptance.BundledRuns()
        for name in acceptance.RUNS:
            runs[name]
    with pytest.MonkeyPatch.context() as mp:
        out_of_reach(mp, mcf, cylinder)
        results = {r.criterion: r for r in acceptance.run_all(seed=1234)[0]
                   if r.criterion in FINITE_DIM}
    assert all(r.passed for r in results.values()), [r.line() for r in results.values()]
    return runs, results


@pytest.mark.parametrize("row", FAULTS, ids=lambda row: row.name)
def test_fault_turns_exactly_its_criteria_red(row, monkeypatch, fault_free):
    runs, verdicts = fault_free
    coarse_bundled_configs(monkeypatch)
    modules = {inspect.getmodule(target) for target, _, _ in row.patches}
    if modules <= {sequences, gradientflow}:
        monkeypatch.setattr(acceptance, "BundledRuns", lambda: runs)
    if modules <= {mcf, cylinder}:
        for criterion, name in FINITE_DIM.items():
            monkeypatch.setattr(acceptance, name, lambda *args, res=verdicts[criterion]: res)
    for name in ("_constructive_bound_cached", "_chain_store"):  # no cached chain hides the fault
        monkeypatch.setattr(sequences, name, functools.lru_cache(getattr(sequences, name).__wrapped__))
    for module, name, wrap in row.patches:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    results, _ = acceptance.run_all(seed=1234)
    red = {r.criterion for r in results if not r.passed}
    raised = {r.criterion for r in results if r.measured.startswith("raised")}
    assert (red, raised) == (row.red, row.raised), "\n".join(r.line() for r in results)


def test_every_criterion_catches_some_fault_and_every_blind_spot_says_why():
    assert set().union(*(row.red for row in FAULTS)) == set(range(1, 12))
    assert all(row.why for row in FAULTS[1:] if not row.red)


def test_readme_prints_the_table():
    """README's "fault -> criteria that catch it" table lists every row with
    its red set, and each blind spot there names the item that would close it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.split("| Fault | Criteria it turns red | Note |\n|---|---|---|\n")[1].splitlines()
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines):
        name, red, note = (cell.strip() for cell in line.strip("|").split("|"))
        table[name] = (set() if red == "none" else {int(c) for c in red.split(",")}, note)
    assert {name: red for name, (red, _) in table.items()} == {row.name: row.red for row in FAULTS}
    assert all(re.search(r"item \d+", table[row.name][1]) for row in FAULTS if row.why)
