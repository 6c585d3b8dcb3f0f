"""Parent-against-change comparison with perfbench, written to one BENCH_*.json.

    python3 tools/benchpairs.py --parent REV [--change REV] --workdir DIR --out FILE \
        --claim WORKLOAD --seed-base N

Run it from the root of a git checkout.  Each side is exported with
`git archive` into its own directory under DIR (the parent twice, for the
A/A control), and every measurement is `perfbench/run.py` run from the root
of that export, one run at a time, for the `run_seconds` that the parent's
BENCHMARK.json sets:

- A/A control: the parent against its byte-identical copy on the claimed
  workload, AA_PAIRS pairs;
- the claimed workload, CLAIM_PAIRS alternating pairs, and every other
  workload OTHER_PAIRS pairs (`--trace 0`; pair i runs the parent first when
  i is even);
- TRACED_RUNS alternating `--trace 1` runs per side and workload;
- per MCF run of each MCF workload, the steps, right-hand-side calls
  (FlowHistory.n_rhs), whichever of the solver counters n_rejected, njev
  and nlu the side's FlowHistory has, and a SHA-256 of the run's mark and
  per-step arrays, from in-process passes, TRACED_RUNS alternating per side,
  with the median of the run's evolve seconds over those passes.

Seeds count up from --seed-base, one block of 100 per part (800 seeds in
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

WORKLOADS = ("mcf-stiff", "mcf-certify", "certs")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
AA_PAIRS = 5
CLAIM_PAIRS = 10
OTHER_PAIRS = 5
TRACED_RUNS = 3
TRACED_KEYS = ("mcf.evolve.steps", "mcf.evolve.us_per_step", "mcf.evolve.s",
               "cylinder.dist_R.calls", "mcf.lojasiewicz_fit.calls", "trace.overhead_s")

# one in-process pass of each MCF workload: per run, the counters, a digest
# of every FlowHistory array and the seconds evolve took
RUN_COUNTS = r"""
import hashlib, json, sys
import numpy as np
import workloads
out = {}
for name in ("mcf-stiff", "mcf-certify"):
    w = workloads.WORKLOADS[name](int(sys.argv[1]))
    w.run()
    for label, hist in w.hists.items():
        digest = hashlib.sha256()
        for arr in [hist.mark_times, hist.mark_F, hist.mark_max_u, *hist.profiles,
                    hist.diag_t, hist.diag_dt, hist.diag_max_u]:
            digest.update(np.ascontiguousarray(arr).tobytes())
        out[f"{name}/{label}"] = {
            "steps": int(hist.diag_t.size), "n_rhs": hist.n_rhs,
            **{k: getattr(hist, k) for k in ("n_rejected", "njev", "nlu") if hasattr(hist, k)},
            "history_sha256": digest.hexdigest(), "evolve_s": w.seconds[label]}
print(json.dumps(out))
"""


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
    names = list(roots)
    runs = {name: [] for name in names}
    first = []
    for i, seed in enumerate(seeds):
        order = names if i % 2 == 0 else names[::-1]
        first.append(order[0])
        for name in order:
            runs[name].append(perfbench(roots[name], workload, seed, seconds, 0))
    return compare(runs[names[0]], runs[names[1]], seeds, first, names)


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
    summary = {}
    summary[f"aa_{args.claim}"] = pairs({"parent": roots["parent"], "parent_copy": copy},
                                        args.claim, list(range(base, base + AA_PAIRS)),
                                        seconds)
    for k, workload in enumerate(WORKLOADS, 1):
        n = CLAIM_PAIRS if workload == args.claim else OTHER_PAIRS
        summary[workload] = pairs(roots, workload,
                                  list(range(base + 100 * k, base + 100 * k + n)), seconds)

    traced = {}
    for k, workload in enumerate(WORKLOADS, 4):
        seeds = list(range(base + 100 * k, base + 100 * k + TRACED_RUNS))
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[name].append(perfbench(roots[name], workload, seed, seconds, 1))
        traced[workload] = {"seeds": seeds, **{
            key: {name: {"median": statistics.median(r["metrics"][key] for r in rs),
                         "runs": [r["metrics"][key] for r in rs]}
                  for name, rs in runs.items()}
            for key in TRACED_KEYS if key in runs["parent"][0]["metrics"]}}

    seed = base + 700
    passes = {name: [] for name in roots}
    for i in range(TRACED_RUNS):
        for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            root = roots[name]
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
            proc = subprocess.run([sys.executable, "-c", RUN_COUNTS, str(seed)], cwd=root,
                                  env=env, check=True, stdout=subprocess.PIPE, text=True)
            passes[name].append(json.loads(proc.stdout))
    counts = {}
    for name, runs in passes.items():
        counts[name] = runs[0]
        for label, run in counts[name].items():
            times = [r[label]["evolve_s"] for r in runs]
            run.update(evolve_s=statistics.median(times), evolve_s_runs=times)
    same = {label: counts["parent"][label]["history_sha256"]
            == counts["change"][label]["history_sha256"] for label in counts["parent"]}

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
        "runs": {"seed": seed, "counts": counts, "history_identical": same},
        "src_tree": tree,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
