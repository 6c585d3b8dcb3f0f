"""Release gate: every acceptance criterion must pass at its stated tolerance.

The suite runs once per session through `acceptance.run_all` (the same code
path the `verify-all` subcommand uses) and each criterion gets its own test
that prints the one-line pass/fail verdict.  The determinism criterion is
additionally exercised end to end: two fresh CLI invocations with the same
seed must produce byte-identical manifests.
"""

import json
import subprocess
import sys

import pytest

from flowcert import acceptance, cli, sequences
from flowcert.errors import NumericError

SEED = 1234
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


def test_verify_all_cli_is_byte_deterministic(tmp_path):
    """Criterion 11, end to end: same seed, two concurrent processes, identical manifests."""
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


def test_extremal_chains_are_built_once_and_read_only(monkeypatch):
    """Criteria 2 and 3 share one 10^4-step chain per cell, which no caller can change."""
    real = sequences.extremal_sequence
    built = []

    def counting(C, tau, x1, n_steps):
        built.append((C, tau, n_steps))
        return real(C, tau, x1=x1, n_steps=n_steps)

    monkeypatch.setattr(sequences, "extremal_sequence", counting)
    acceptance._extremal_chain.cache_clear()
    assert acceptance.crit_iterated_gap().passed
    assert acceptance.crit_summability_bound(SEED).passed
    long_chains = [(C, tau) for C, tau, n_steps in built if n_steps == 10_000]
    assert long_chains == acceptance.CELLS
    chain = acceptance._extremal_chain(*acceptance.CELLS[0])
    assert chain is acceptance._extremal_chain(*acceptance.CELLS[0])
    with pytest.raises(ValueError):
        chain.values[1] = 0.5
