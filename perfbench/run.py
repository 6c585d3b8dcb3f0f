"""flowcert's benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mcf-stiff|mcf-certify|certs \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from `src/`
there and nowhere else; without it the command exits 2 and prints no result.

Load model: a closed loop with one client.  Each pass of the workload is one
request, served by a fresh `worker.py` process (so every pass pays the cold
costs a `verify-all` user pays: imports, scipy set-up, the empty
`constructive_bound` cache), and the next pass starts only after the previous
one has ended.  One process runs at a time, on one Python thread, with the
BLAS/OpenMP pools pinned to one thread.  This process imports only the
standard library, so a worker's peak RSS is its own.

Times are normalised to one machine speed.  The host is shared and the same
work can take twice as long from one minute to the next, so while a pass runs
the worker samples a fixed reference load that does not touch flowcert
(probe.py) twice a second, and leaves the sampling time out of its times.  A
pass's times are multiplied by PROBE_REF_S / (mean probe time during that
pass): seconds at the speed where the probe takes PROBE_REF_S.  Set-up times
are scaled the same way by the probes taken right after each set-up.  Raw
times and probe times are printed and kept in the record.

--trace 0: a few set-up-only workers, then whole passes for as long as the
next one is expected to end within --seconds (at least one).  It reports
  wall_s       median over passes of the time from the first to the last call
               into the program;
  setup_s      median over all workers of import + config load + initial states;
  peak_rss_mb  median over passes of the worker's ru_maxrss.
--trace 1: one untraced pass, then one pass with the per-layer wrappers of
tracing.py installed; it reports the per-layer metrics and
trace.overhead_s = traced wall_s - untraced wall_s.

Every pass applies the correctness gate of workloads.py; the last stdout line
counts its checks as `attempted` and `failed` (fail_ratio is their ratio).
The full record of the run (environment, seed, amplitudes, every check,
certified and reported numbers, per-run step counts, span tree) goes to
`.perfbench-results/<workload>-seed<N>-trace<T>.json`.

The benchmark's self-test is `python3 perfbench/selftest.py`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mcf-stiff", "mcf-certify", "certs")
SETUP_ONLY_WORKERS = 4  # extra set-up samples on top of one per pass
RUN_DEADLINE_S = 170  # every worker of a run must have ended by then
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PROBE_REF_S = 0.017  # about the mean probe time on the 2-vCPU host the benchmark was defined on
RESULTS_DIR = ".perfbench-results"


class WorkerError(RuntimeError):
    pass


def worker_env(root: str) -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn(root: str, workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker to completion (killed at `deadline`, a perf_counter
    time) and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker still running {RUN_DEADLINE_S} s into the run") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def speed(samples: list) -> float:
    """Factor that takes times measured alongside these probe samples to the
    reference speed."""
    return PROBE_REF_S / statistics.mean(samples)


def pass_speed(worker: dict) -> float:
    # a pass shorter than the sampling interval falls back on the set-up probes
    return speed(worker["pass_probe_s"] or worker["probe_s"])


def at_reference_speed(value: float, unit: str, factor: float) -> float:
    if unit in ("s", "us"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def gate(passes: list) -> dict:
    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c["passed"]]
    return {"attempted": len(checks), "failed": len(failed),
            "fail_ratio": len(failed) / len(checks), "failed_checks": failed}


def measure(root: str, workload: str, seed: int, seconds: float) -> tuple:
    began = time.perf_counter()
    deadline = began + RUN_DEADLINE_S
    setups = [spawn(root, workload, seed, "setup", deadline) for _ in range(SETUP_ONLY_WORKERS)]
    setup_elapsed = time.perf_counter() - began
    passes = []
    while True:
        passes.append(spawn(root, workload, seed, "run", deadline))
        elapsed = time.perf_counter() - began
        per_pass = (elapsed - setup_elapsed) / len(passes)
        if elapsed + per_pass > seconds:
            break
    metrics = {
        "wall_s": statistics.median(w["wall_s"] * pass_speed(w) for w in passes),
        "setup_s": statistics.median(w["setup_s"] * speed(w["probe_s"])
                                     for w in setups + passes),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in passes),
    }
    record = {"passes": passes, "setup_only": setups}
    return metrics, END_TO_END_UNITS, passes, record


def measure_traced(root: str, workload: str, seed: int) -> tuple:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    plain = spawn(root, workload, seed, "run", deadline)
    traced = spawn(root, workload, seed, "trace", deadline)
    units = traced["layer_units"]
    factor = pass_speed(traced)
    metrics = {name: at_reference_speed(value, units[name], factor)
               for name, value in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] * factor
                                   - plain["wall_s"] * pass_speed(plain))
    record = {"passes": [plain, traced]}
    return metrics, units, [plain, traced], record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flowcert", "__init__.py")):
        print(f"no flowcert source tree under {root}/src; run from a checkout's root",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, units, passes, record = measure_traced(root, args.workload, args.seed)
        else:
            metrics, units, passes, record = measure(root, args.workload, args.seed,
                                                     args.seconds)
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    verdict = gate(passes)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "units": units, "gate": verdict,
        "env": dict(passes[0]["env"], cpu_count=os.cpu_count(),
                    cpu_affinity=sorted(os.sched_getaffinity(0)), thread_pins=THREAD_PINS),
        "amplitudes": passes[0]["amplitudes"],
    })
    os.makedirs(os.path.join(root, RESULTS_DIR), exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(os.path.join(root, path), "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(passes)} pass(es); "
          f"python {record['env']['python']}, numpy {record['env']['numpy']}, "
          f"scipy {record['env']['scipy']}, cpus {record['env']['cpu_affinity']}, "
          f"amplitudes {record['amplitudes']}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    raw = [round(p["wall_s"], 3) for p in passes]
    probes = [round(1e3 * PROBE_REF_S / pass_speed(p), 2) for p in passes]
    print(f"  {'raw wall_s per pass':44s} {raw} s; mean probe {probes} ms "
          f"(reference {1e3 * PROBE_REF_S} ms)")
    print(f"  {'fail_ratio':44s} {verdict['fail_ratio']:14.6g} ratio "
          f"({verdict['failed']}/{verdict['attempted']} checks failed)")
    for check in verdict["failed_checks"]:
        print(f"  FAILED {check['name']}: {check['detail']}")
    print(f"  outputs: {json.dumps(passes[0]['outputs'], default=float)}")
    print(f"  record: {path}")
    print(json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
