"""tools/benchpairs.py: its alternation, its comparison, its claim rule and the
record its main writes, with the exports, perfbench runs, in-process passes
and git lookups faked."""

import importlib.util
import json
import os
import statistics
import types
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
_spec = importlib.util.spec_from_file_location("benchpairs", PATH)
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)

BASE = 15000
RUN_LABELS = ("mcf-stiff/zero", "mcf-certify/fit")


def test_alternate_runs_the_first_root_first_on_even_rounds():
    calls = []
    runs, first = bp.alternate({"a": "root_a", "b": "root_b"}, [10, 11, 12, 13],
                               lambda root, seed: calls.append((root, seed)) or (root, seed))
    assert calls == [("root_a", 10), ("root_b", 10), ("root_b", 11), ("root_a", 11),
                     ("root_a", 12), ("root_b", 12), ("root_b", 13), ("root_a", 13)]
    assert first == ["a", "b", "a", "b"]
    assert runs == {"a": [("root_a", s) for s in (10, 11, 12, 13)],
                    "b": [("root_b", s) for s in (10, 11, 12, 13)]}


def _run(wall_s, failed=0, attempted=10):
    return {"metrics": {"wall_s": wall_s, "setup_s": 0.7, "peak_rss_mb": 83.0},
            "failed": failed, "attempted": attempted}


def test_compare_counts_wins_iqr_and_failures():
    parent = [_run(x, failed=f) for x, f in zip([1.0, 2.0, 3.0, 4.0, 5.0], [0, 1, 0, 0, 0])]
    change = [_run(x) for x in [0.5, 2.0, 3.5, 3.0, 5.0]]
    out = bp.compare(parent, change, [1, 2, 3, 4, 5], ["parent", "change"] * 2 + ["parent"])
    wall = out["wall_s"]
    assert wall["change_wins"] == 2  # the two ties count for neither side
    assert (wall["parent_median"], wall["change_median"]) == (3.0, 3.0)
    assert wall["parent_q1_q3"] == (2.0, 4.0) and wall["parent_iqr"] == 2.0
    assert wall["pairs"] == 5 and wall["seeds"] == [1, 2, 3, 4, 5]
    assert out["setup_s"]["change_wins"] == 0  # all ties
    assert out["parent_failed"] == {"failed": 1, "attempted": 50, "ratio": 0.02}
    assert out["change_failed"] == {"failed": 0, "attempted": 50, "ratio": 0.0}
    assert out["first_in_pair"] == ["parent", "change", "parent", "change", "parent"]


def _record(tmp_path, monkeypatch, change_losses=(), reports_differ=False):
    """main's record with every process faked; the change wins every claimed
    pair but those in change_losses, and with reports_differ its first pass
    hashes other reports than the parent's.  Also returns the calls the fakes
    saw."""
    calls = {"perfbench": [], "in_process": []}

    def export(rev, dest):
        os.makedirs(dest)
        Path(dest, "BENCHMARK.json").write_text(json.dumps({"run_seconds": 36}))
        return dest

    def perfbench(root, workload, seed, seconds, trace):
        side = os.path.basename(root)
        calls["perfbench"].append((side, workload, seed, trace))
        if trace:
            return {"metrics": {"mcf.evolve.steps": 288, "sequences.extremal_step.calls": 300,
                                "trace.overhead_s": 0.01}, "failed": 0, "attempted": 4}
        i = seed - BASE - 200  # the pair's index on the claimed workload, mcf-certify
        if side != "change" or workload != "mcf-certify":
            return _run(1.0 + 0.001 * i)
        return _run(2.0 if i in change_losses else 0.5)

    def in_process(root, mcf_seed, certs_seed):
        calls["in_process"].append((os.path.basename(root), mcf_seed, certs_seed))
        n = len(calls["in_process"])
        return {"runs": {label: {"steps": 15, "n_rhs": 17, "njev": 1, "nlu": 8,
                                 "history_sha256": "ab", "evolve_s": 0.001 * n,
                                 "profiles": [[0.0, 0.0]], "mark_F": [1.5]}
                         for label in RUN_LABELS},
                "certs": {"crit_1": f"seed {certs_seed}"},
                "certs_seconds": {"crit_1": 0.01 * n, "crit_4": 0.2 + 0.01 * n},
                "reports_sha256": f"{certs_seed}-{'cd' if reports_differ and n == 2 else 'ab'}",
                "kernel_us": {"801": 15.0 + n, "2001": 22.0 + n}}

    monkeypatch.setattr(bp, "export", export)
    monkeypatch.setattr(bp, "perfbench", perfbench)
    monkeypatch.setattr(bp, "in_process", in_process)
    monkeypatch.setattr(bp.subprocess, "run",
                        lambda cmd, **kwargs: types.SimpleNamespace(stdout=f"{cmd[-1]}-tree\n"))
    out = tmp_path / "BENCH.json"
    assert bp.main(["--parent", "p0", "--change", "c1", "--workdir", str(tmp_path / "work"),
                    "--out", str(out), "--claim", "mcf-certify",
                    "--seed-base", str(BASE)]) == 0
    return json.loads(out.read_text()), calls


@pytest.mark.parametrize("losses, met", [((3,), True), ((3, 7), False)])
def test_claim_needs_nine_of_ten_wins(tmp_path, monkeypatch, losses, met):
    claim = _record(tmp_path, monkeypatch, losses)[0]["claim"]
    assert claim["pairs"] == 10 and claim["change_wins"] == 10 - len(losses)
    assert claim["median_gap"] > claim["parent_iqr"]
    assert claim["met"] is met


def test_main_writes_the_record(tmp_path, monkeypatch):
    record, calls = _record(tmp_path, monkeypatch)
    assert list(record) == ["what", "claim", "summary", "traced", "runs", "certs_measured",
                            "certs_reports_sha256", "certs_criterion_s", "kernel_us_per_call",
                            "src_tree"]
    assert list(record["summary"]) == ["aa_mcf-certify", *bp.WORKLOADS]
    assert record["src_tree"] == {"parent": "p0:src-tree", "change": "c1:src-tree"}

    # every part draws its seeds from its own block of 100
    parts = {}
    for side, workload, seed, trace in calls["perfbench"]:
        part = "aa" if side == "parent_copy" or (trace == 0 and seed < BASE + 100) \
            else (workload, trace)
        parts.setdefault(part, set()).add(seed)
    parts["mcf"] = {s for _, s, _ in calls["in_process"]}
    parts["certs_measured"] = {s for _, _, s in calls["in_process"]}
    blocks = {part: {(s - BASE) // 100 for s in seeds} for part, seeds in parts.items()}
    assert all(len(b) == 1 for b in blocks.values())
    assert sorted(b.pop() for b in blocks.values()) == list(range(9))
    assert record["runs"]["seed"] == BASE + 700
    assert record["certs_measured"]["seeds"] == [BASE + 800 + i for i in range(bp.TRACED_RUNS)]

    # the in-process passes: one per side and round, alternating
    sides = [side for side, _, _ in calls["in_process"]]
    assert len(sides) == 2 * bp.TRACED_RUNS
    assert sides[:4] == ["parent", "change", "change", "parent"]
    counts = record["runs"]["counts"]["parent"]["mcf-stiff/zero"]
    assert set(counts) == {"steps", "n_rhs", "njev", "nlu", "history_sha256", "evolve_s",
                           "evolve_s_runs"}
    times = [0.001 * (n + 1) for n, (side, _, _) in enumerate(calls["in_process"])
             if side == "parent"]
    assert counts["evolve_s_runs"] == times and counts["evolve_s"] == statistics.median(times)
    assert record["runs"]["history_identical"] == dict.fromkeys(RUN_LABELS, True)
    assert record["runs"]["max_abs_delta"] == dict.fromkeys(
        RUN_LABELS, {"profiles": 0.0, "mark_F": 0.0})
    kernel = record["kernel_us_per_call"]
    assert set(kernel) == {"parent", "change"} and set(kernel["parent"]) == {"801", "2001"}
    assert set(kernel["parent"]["801"]) == {"median", "runs"}
    assert len(kernel["change"]["2001"]["runs"]) == bp.TRACED_RUNS
    assert record["certs_measured"]["identical"] is True
    seeds = record["certs_measured"]["seeds"]
    assert record["certs_reports_sha256"] == {
        "seeds": seeds, "parent": [f"{s}-ab" for s in seeds],
        "change": [f"{s}-ab" for s in seeds], "identical": True}

    # each criterion's in-process seconds, per side: the median over its passes
    criterion_s = record["certs_criterion_s"]
    assert list(criterion_s) == ["seeds", "parent", "change"] and criterion_s["seeds"] == seeds
    for side in ("parent", "change"):
        passes = [n + 1 for n, (name, _, _) in enumerate(calls["in_process"]) if name == side]
        assert list(criterion_s[side]) == ["crit_1", "crit_4"]
        crit_4 = [0.2 + 0.01 * n for n in passes]
        assert criterion_s[side]["crit_4"] == {"median": statistics.median(crit_4), "runs": crit_4}

    # the traced pass keeps every metric perfbench emits, per side
    traced = record["traced"]["certs"]
    assert list(traced) == ["seeds", "mcf.evolve.steps", "sequences.extremal_step.calls",
                            "trace.overhead_s"]
    assert traced["mcf.evolve.steps"]["change"] == {"median": 288,
                                                   "runs": [288] * bp.TRACED_RUNS}


def test_reports_that_differ_are_not_identical(tmp_path, monkeypatch):
    record = _record(tmp_path, monkeypatch, reports_differ=True)[0]["certs_reports_sha256"]
    assert record["identical"] is False
    assert record["change"][0].endswith("-cd") and record["parent"][0].endswith("-ab")
