"""Parent-against-change comparison with perfbench, written to one BENCH_*.json.

    python3 tools/benchpairs.py --parent REV [--change REV] --workdir DIR --out FILE \
        --claim WORKLOAD --seed-base N

Run it from the root of a git checkout.  Each side is exported with
`git archive` into its own directory under DIR (the parent twice, for the
A/A control).  Every per-side loop goes through `alternate`, one process at
a time: round i runs the parent first when i is even, the change when odd.

- `perfbench/run.py` from the root of each export, for the `run_seconds`
  of the parent's BENCHMARK.json:
  - A/A control: the parent against its byte-identical copy on the claimed
    workload, AA_PAIRS pairs;
  - the claimed workload, CLAIM_PAIRS pairs, and every other workload
    OTHER_PAIRS pairs (`--trace 0`), compared end to end;
  - TRACED_RUNS `--trace 1` runs per side and workload, of which every
    per-layer metric and the tracer's overhead are kept.
- TRACED_RUNS in-process passes per side, each a fresh interpreter on that
  side's src and perfbench running PASS:
  - mcf-stiff and mcf-certify at one fixed seed.  Per MCF run the record
    keeps the first pass's steps, right-hand-side calls (FlowHistory.n_rhs),
    Jacobian and LU counts (njev, nlu) and SHA-256 of the mark and per-step
    arrays, evolve's seconds over all passes, and the largest |difference|
    between the sides' mark profiles and mark areas, so a change that moves
    bits by rounding shows by how much;
  - certs at the round's own seed: each criterion's measured string, and
    the SHA-256 of the repr of every report gradientflow.effective_bound
    returns (one report per call, or a list of them per batch call), and
    whether the two sides read the same; and each criterion's seconds
    (`workloads.Certs.seconds`), of which the record keeps the median over
    the passes per criterion and side, so a criterion's layer has a time
    from fresh interpreters and not only from the traced perfbench runs;
  - after the workloads, the right-hand-side kernel's µs per call,
    `mcf._kernel(z, h, s)(u)` on fit.cfg's start at N = 801 and N = 2001
    (the timeit minimum).

Seeds count up from --seed-base, one block of 100 per part (900 seeds in
all), so no two parts share a seed; a new comparison names a block no
earlier record used.  The claim is met when the change wins at least 9 of 10
pairs (in that proportion), the gap between the medians exceeds the parent's
interquartile range, and the change fails no larger share of operations than
the parent.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import numpy as np

WORKLOADS = ("mcf-stiff", "mcf-certify", "certs")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
AA_PAIRS = 5
CLAIM_PAIRS = 10
OTHER_PAIRS = 5
TRACED_RUNS = 3
MARK_ARRAYS = ("profiles", "mark_F")  # the arrays whose largest difference is recorded

# one in-process pass (argv: the MCF seed, the certs seed), as the docstring
# lists it; h is set to give the kernel N grid points
PASS = r"""
import dataclasses, hashlib, json, sys, timeit
import numpy as np
import workloads
from flowcert import gradientflow, harness, mcf
mcf_seed, certs_seed = map(int, sys.argv[1:])
out = {"runs": {}, "kernel_us": {}}
for name in ("mcf-stiff", "mcf-certify"):
    w = workloads.WORKLOADS[name](mcf_seed)
    w.run()
    for label, hist in w.hists.items():
        digest = hashlib.sha256()
        for arr in [hist.mark_times, hist.mark_F, hist.mark_max_u, *hist.profiles,
                    hist.diag_t, hist.diag_dt, hist.diag_max_u]:
            digest.update(np.ascontiguousarray(arr).tobytes())
        out["runs"][f"{name}/{label}"] = {
            "steps": int(hist.diag_t.size), "n_rhs": hist.n_rhs, "njev": hist.njev, "nlu": hist.nlu,
            "history_sha256": digest.hexdigest(), "evolve_s": w.seconds[label],
            "profiles": hist.profiles.tolist(), "mark_F": hist.mark_F.tolist()}
reports, bound = hashlib.sha256(), gradientflow.effective_bound
def hashed_bound(*args, **kwargs):
    got = bound(*args, **kwargs)
    for report in got if isinstance(got, list) else [got]:
        reports.update(repr(report).encode())
    return got
gradientflow.effective_bound = hashed_bound
w = workloads.Certs(certs_seed)
w.run()
gradientflow.effective_bound = bound
out["certs"] = {label: res.measured for label, res in w.results.items()}
out["certs_seconds"] = w.seconds
out["reports_sha256"] = reports.hexdigest()
cfg = harness.load_bundled_config("fit.cfg")
for n in (801, 2001):
    g = dataclasses.replace(cfg, h=2.0 * cfg.R_dom / (n - 1)).initial_state().graph
    assert g.z.size == n
    frhs = mcf._kernel(g.z, g.h, g.spec.radius)
    out["kernel_us"][str(n)] = min(timeit.repeat(lambda: frhs(g.u), number=1000, repeat=7)) * 1e3
print(json.dumps(out))
"""


def in_process(root: str, *seeds: int) -> dict:
    """Run PASS in a fresh interpreter on root's src and perfbench; its JSON output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", PASS, *map(str, seeds)], cwd=root, env=env,
                          check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout)


def export(rev: str, dest: str) -> str:
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.run(["git", "archive", rev], check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def perfbench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.PIPE, text=True)
    print(proc.stdout.splitlines()[0], flush=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"]}


def alternate(roots: dict, seeds: list, run) -> tuple:
    """run(root, seed) for every root once per seed, the roots in their order
    for even rounds and reversed for odd ones; the results per root's name,
    and the name that went first in each round."""
    names = list(roots)
    runs = {name: [] for name in names}
    first = []
    for i, seed in enumerate(seeds):
        order = names if i % 2 == 0 else names[::-1]
        first.append(order[0])
        for name in order:
            runs[name].append(run(roots[name], seed))
    return runs, first


def medians(xs: list) -> dict:
    return {"median": statistics.median(xs), "runs": xs}


def max_abs_delta(a: list, b: list):
    """Largest |a - b| over two runs' mark arrays; None when their shapes differ."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b), initial=0.0)) if a.shape == b.shape else None


def quartiles(xs: list) -> tuple:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def compare(a: list, b: list, seeds: list, first: list, names=("parent", "change")) -> dict:
    """End-to-end comparison of the runs of side a and side b, pair by pair."""
    out = {}
    for metric in END_TO_END:
        xa = [r["metrics"][metric] for r in a]
        xb = [r["metrics"][metric] for r in b]
        qa, qb = quartiles(xa), quartiles(xb)
        med_a, med_b = statistics.median(xa), statistics.median(xb)
        out[metric] = {
            f"{names[0]}_median": med_a, f"{names[1]}_median": med_b,
            "rel_change": med_b / med_a - 1.0,
            f"{names[0]}_q1_q3": qa, f"{names[1]}_q1_q3": qb,
            f"{names[0]}_iqr": qa[1] - qa[0], "pairs": len(xa),
            f"{names[1]}_wins": sum(y < x for x, y in zip(xa, xb)),
            f"{names[0]}_runs": xa, f"{names[1]}_runs": xb, "seeds": seeds}
    for name, runs in zip(names, (a, b)):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        out[f"{name}_failed"] = {"failed": failed, "attempted": attempted,
                                 "ratio": failed / attempted}
    out["first_in_pair"] = first
    return out


def pairs(roots: dict, workload: str, seeds: list, seconds: float) -> dict:
    """Alternating pairs of the two roots on one workload, compared."""
    runs, first = alternate(roots, seeds,
                            lambda root, seed: perfbench(root, workload, seed, seconds, 0))
    return compare(*runs.values(), seeds, first, list(roots))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--claim", choices=WORKLOADS, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)

    roots = {"parent": export(args.parent, os.path.join(args.workdir, "parent")),
             "change": export(args.change, os.path.join(args.workdir, "change"))}
    copy = export(args.parent, os.path.join(args.workdir, "parent_copy"))
    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as fh:
        seconds = float(json.load(fh)["run_seconds"])
    base = args.seed_base
    summary = {f"aa_{args.claim}": pairs({"parent": roots["parent"], "parent_copy": copy},
                                         args.claim, list(range(base, base + AA_PAIRS)),
                                         seconds)}
    for k, workload in enumerate(WORKLOADS, 1):
        n = CLAIM_PAIRS if workload == args.claim else OTHER_PAIRS
        summary[workload] = pairs(roots, workload,
                                  list(range(base + 100 * k, base + 100 * k + n)), seconds)

    traced = {}
    for k, workload in enumerate(WORKLOADS, 4):
        seeds = list(range(base + 100 * k, base + 100 * k + TRACED_RUNS))
        runs, _ = alternate(roots, seeds,
                            lambda root, seed: perfbench(root, workload, seed, seconds, 1))
        traced[workload] = {"seeds": seeds, **{
            key: {name: medians([r["metrics"][key] for r in rs]) for name, rs in runs.items()}
            for key in runs["parent"][0]["metrics"]}}

    seed = base + 700
    measured_seeds = list(range(base + 800, base + 800 + TRACED_RUNS))
    passes, _ = alternate(roots, measured_seeds, lambda root, s: in_process(root, seed, s))
    counts, marks = {}, {}
    for name, runs in passes.items():
        counts[name] = runs[0]["runs"]
        marks[name] = {label: {key: run.pop(key) for key in MARK_ARRAYS}
                       for label, run in counts[name].items()}
        for label, run in counts[name].items():
            times = medians([r["runs"][label]["evolve_s"] for r in runs])
            run.update(evolve_s=times["median"], evolve_s_runs=times["runs"])
    same = {label: counts["parent"][label]["history_sha256"]
            == counts["change"][label]["history_sha256"] for label in counts["parent"]}
    delta = {label: {key: max_abs_delta(marks["parent"][label][key], marks["change"][label][key])
                     for key in MARK_ARRAYS} for label in counts["parent"]}
    kernel_us = {name: {n: medians([r["kernel_us"][n] for r in runs])
                        for n in runs[0]["kernel_us"]} for name, runs in passes.items()}
    measured = {name: [r["certs"] for r in runs] for name, runs in passes.items()}
    measured["identical"] = measured["parent"] == measured["change"]
    reports = {name: [r["reports_sha256"] for r in runs] for name, runs in passes.items()}
    criterion_s = {name: {label: medians([r["certs_seconds"][label] for r in runs])
                          for label in runs[0]["certs_seconds"]} for name, runs in passes.items()}
    reports["identical"] = reports["parent"] == reports["change"]

    claim = summary[args.claim]["wall_s"]
    gap = claim["parent_median"] - claim["change_median"]
    failed = {name: summary[args.claim][f"{name}_failed"] for name in roots}
    tree = {name: subprocess.run(["git", "rev-parse", f"{rev}:src"], check=True, text=True,
                                 stdout=subprocess.PIPE).stdout.strip()
            for name, rev in (("parent", args.parent), ("change", args.change))}
    record = {
        "what": (f"tools/benchpairs.py: perfbench/run.py --seconds {seconds:g} (the parent's "
                 f"BENCHMARK.json run_seconds) from the root "
                 f"of a git archive of each side, one run at a time; parent {args.parent} and "
                 f"change {args.change} (src trees {tree['parent'][:12]} / "
                 f"{tree['change'][:12]}); seeds from {base}"),
        "claim": {"metric": f"{args.claim} wall_s", "pairs": claim["pairs"],
                  "change_wins": claim["change_wins"], "parent_median": claim["parent_median"],
                  "change_median": claim["change_median"], "rel_change": claim["rel_change"],
                  "median_gap": gap, "parent_iqr": claim["parent_iqr"],
                  "parent_failed": failed["parent"], "change_failed": failed["change"],
                  "met": claim["change_wins"] >= 0.9 * claim["pairs"]
                  and gap > claim["parent_iqr"]
                  and failed["change"]["ratio"] <= failed["parent"]["ratio"]},
        "summary": summary,
        "traced": traced,
        "runs": {"seed": seed, "counts": counts, "history_identical": same,
                 "max_abs_delta": delta},
        "certs_measured": {"seeds": measured_seeds, **measured},
        "certs_reports_sha256": {"seeds": measured_seeds, **reports},
        "certs_criterion_s": {"seeds": measured_seeds, **criterion_s},
        "kernel_us_per_call": kernel_us,
        "src_tree": tree,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
