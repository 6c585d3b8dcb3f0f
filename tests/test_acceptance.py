"""Release gate: every acceptance criterion must pass at its stated tolerance.

The suite runs once per session through `acceptance.run_all` (the same code
path the `verify-all` subcommand uses) and each criterion gets its own test
that prints the one-line pass/fail verdict.  The determinism criterion is
additionally exercised end to end: two fresh CLI invocations with the same
seed must produce byte-identical manifests.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowcert import acceptance, cli, gradientflow, harness, sequences
from flowcert.errors import InvalidInputError, NumericError

SEED = 1234
GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_all_seed1234.json"
GOLDEN_SEED7 = GOLDEN.with_name("verify_all_seed7.json")
CRITERIA = {1: "crit_power_gap", 2: "crit_iterated_gap", 3: "crit_summability_bound",
            4: "crit_model_flow", 5: "crit_gradient_consistency", 6: "crit_cylinder_area",
            7: "crit_stationarity", 8: "crit_monotone_F", 9: "crit_fit_feasibility",
            10: "crit_close_trend", 11: "crit_determinism"}


@pytest.fixture(scope="session")
def suite():
    results, manifest = acceptance.run_all(seed=SEED)
    return {r.criterion: r for r in results}, manifest


@pytest.mark.parametrize("criterion", range(1, 12))
def test_criterion(suite, criterion):
    results, _ = suite
    res = results[criterion]
    print(res.line())
    assert res.passed, res.line()


def test_manifest_reports_every_criterion(suite):
    _, manifest = suite
    listed = {c["criterion"] for c in manifest["checks"]}
    assert listed == set(range(1, 12))
    assert manifest["all_passed"]
    for check in manifest["checks"]:
        assert set(check) == {"criterion", "name", "passed", "measured"}


def test_manifest_matches_golden(suite, tmp_path):
    """A pure refactor leaves the seed-1234 manifest byte-identical.  A change
    that moves a measured string regenerates the golden file with
    `flowcert --out DIR verify-all --seed 1234` and lists the moved strings."""
    _, manifest = suite
    harness.write_json(tmp_path / "manifest.json", manifest)
    assert (tmp_path / "manifest.json").read_bytes() == GOLDEN.read_bytes()


def test_bundled_runs_work():
    # (steps, n_rhs, njev, nlu) of each bundled run at full resolution; the
    # n_rhs add up to README's 3,913 right-hand sides
    runs, counts = acceptance.BundledRuns(), {}
    for name in acceptance.RUNS:
        _, hist = runs[name]
        counts[name] = (hist.diag_t.size, hist.n_rhs, hist.njev, hist.nlu)
    assert counts == {"zero": (15, 17, 1, 8), "fit": (272, 546, 1, 50),
                      "fit_h_refined": (271, 544, 1, 50), "fit_dt_refined": (292, 586, 1, 54),
                      "sweep_0.02": (385, 782, 3, 71), "sweep_0.01": (366, 742, 1, 66),
                      "sweep_0.005": (347, 696, 1, 63)}
    assert sum(n_rhs for _, n_rhs, _, _ in counts.values()) == 3913


def test_verify_all_cli_is_byte_deterministic(tmp_path):
    """Criterion 11, end to end: same seed, two concurrent processes, identical
    manifests, both equal to the seed-7 golden file (regenerated as the
    seed-1234 one is)."""
    subs = ("a", "b")
    procs = [subprocess.Popen(
        [sys.executable, "-m", "flowcert", "--quiet", "--out", str(tmp_path / sub),
         "verify-all", "--seed", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for sub in subs]
    try:
        logs = [proc.communicate(timeout=1200) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()  # no-op for a process that has already exited
    for proc, (stdout, stderr) in zip(procs, logs):
        assert proc.returncode == 0, stdout + stderr
    outs = [(tmp_path / sub / "manifest.json").read_bytes() for sub in subs]
    assert outs[0] == outs[1]
    assert outs[0] == GOLDEN_SEED7.read_bytes()
    manifest = json.loads(outs[0])
    assert manifest["all_passed"]
    assert manifest["seed"] == 7


def test_raising_criterion_fails_and_the_rest_still_run(monkeypatch, tmp_path):
    """A criterion that raises becomes one FAIL entry; verify-all still writes
    the whole manifest and exits 1."""
    assert {name for name in dir(acceptance) if name.startswith("crit_")} == set(CRITERIA.values())
    for criterion, name in CRITERIA.items():
        monkeypatch.setattr(acceptance, name, lambda *args, n=criterion: acceptance.CheckResult(
            n, acceptance.NAMES[n], True, "stub"))

    def raising(seed):
        raise NumericError("root solve did not settle")

    monkeypatch.setattr(acceptance, "crit_summability_bound", raising)
    results, manifest = acceptance.run_all(seed=SEED)
    assert len(manifest["checks"]) == 11
    assert [c for c in manifest["checks"] if not c["passed"]] == [
        {"criterion": 3, "name": "summability-bound", "passed": False,
         "measured": "raised NumericError: root solve did not settle"}]
    assert not manifest["all_passed"]
    assert cli.main(["--quiet", "--out", str(tmp_path), "verify-all"]) == 1
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert len(on_disk["checks"]) == 11 and not on_disk["all_passed"]


def test_negative_seed_is_refused_before_any_criterion_runs(monkeypatch, tmp_path, capsys):
    """numpy's generators refuse a negative seed; run_all refuses it first,
    with exit 64 and one line, instead of a traceback from inside a criterion."""
    ran = []
    for criterion, name in CRITERIA.items():
        monkeypatch.setattr(acceptance, name, lambda *args, n=criterion: ran.append(n))
    with pytest.raises(InvalidInputError, match=r"^need seed >= 0, got -1$"):
        acceptance.run_all(seed=-1)
    assert cli.main(["--out", str(tmp_path), "verify-all", "--seed", "-1"]) == 64
    printed = capsys.readouterr()
    assert printed.out == "error: need seed >= 0, got -1\n" and printed.err == ""
    assert ran == [] and not (tmp_path / "manifest.json").exists()


def test_a_row_within_cap_slack_above_its_cap_passes_criterion_3(monkeypatch):
    """Criterion 3's random half judges a row as certify_part judges a part:
    a sum up to sequences.CAP_SLACK above its cap holds."""
    def one_row_just_above_the_cap(C, tau, rng, n_seq, n_steps):
        x0 = 0.5
        cap = sequences.constructive_bound(C, tau).cap(x0)
        row = np.array([[x0, x0 - (cap + 0.5 * sequences.CAP_SLACK) ** 2]])
        assert cap < math.sqrt(row[0, 0] - row[0, 1]) <= cap + sequences.CAP_SLACK
        return row

    monkeypatch.setattr(sequences, "random_admissible_batch", one_row_just_above_the_cap)
    assert acceptance.crit_summability_bound(SEED).passed


def test_extremal_chains_are_built_once_and_read_only(monkeypatch):
    """Criteria 2 and 3 and the release gates of constructive_bound share one
    chain per cell: 10^4 root solves per cell in all, and no caller can
    change a chain.  Every chain root is one yielded by the scalar Newton
    generator; the random batches solve whole columns by the array path."""
    real = sequences._successors
    scalar_solves = []

    def counting(x, C, tau):
        for root in real(x, C, tau):
            scalar_solves.append((C, tau))
            yield root

    monkeypatch.setattr(sequences, "_successors", counting)
    sequences._chain_store.cache_clear()
    sequences._constructive_bound_cached.cache_clear()
    assert acceptance.crit_iterated_gap().passed
    assert acceptance.crit_summability_bound(SEED).passed
    assert sorted(set(scalar_solves)) == sorted(acceptance.CELLS)
    assert len(scalar_solves) == 10_000 * len(acceptance.CELLS)
    chain = sequences.extremal_chain(*acceptance.CELLS[0], n_steps=10_000)
    assert len(chain) == 10_001
    with pytest.raises(ValueError):
        chain.values[1] = 0.5


def reference_gradient_deviation(seed: int) -> float:
    """Criterion 5's worst relative deviation, one point at a time."""
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for problem in gradientflow.builtin_problems():
        for _ in range(1000):
            direction = rng.normal(size=problem.dim)
            direction /= np.linalg.norm(direction)
            x = rng.uniform(0.1, 0.9) * problem.ball_radius * direction
            g = np.asarray(problem.grad(x), dtype=float)
            fd = np.empty_like(g)
            hstep = 3e-6 * max(0.05, float(np.max(np.abs(x))))
            for i in range(problem.dim):
                e = np.zeros(problem.dim)
                e[i] = hstep
                fd[i] = (float(problem.F(x + e)) - float(problem.F(x - e))) / (2.0 * hstep)
            worst = max(worst, float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12)))
    return worst


@pytest.mark.parametrize("seed", [SEED, 7])
def test_batched_gradient_check_matches_point_by_point(seed):
    res = acceptance.crit_gradient_consistency(seed)
    worst = reference_gradient_deviation(seed)
    assert res.passed
    assert res.measured.startswith(f"max relative deviation {worst:.3e} ")
