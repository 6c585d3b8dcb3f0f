"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
- the metric names and units the benchmark emits are the ones BENCHMARK.json
  declares, and its workloads are the ones BENCHMARK.json lists;
- exact counts repeat: `mcf.evolve.steps` is 94,501 on mcf-stiff and 51,000
  on mcf-certify whatever the seed, and `sequences.extremal_step.calls` is
  the same in two traced passes of certs with one seed;
- a deliberately failed check (the sphere measure perturbed by 1e-4, which
  breaks criterion 6) raises fail_ratio above 0.

Takes about two minutes.  Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

STEPS = {"mcf-stiff": 94_501, "mcf-certify": 51_000}


def check_declared_names(failures: list) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    emitted = {
        "workloads": list(run.WORKLOADS),
        "end_to_end": run.END_TO_END_UNITS,
        "per_layer": tracing.PER_LAYER_UNITS,
    }
    for key, names in declared.items():
        if names != emitted[key]:
            failures.append(f"BENCHMARK.json {key} {names} != emitted {emitted[key]}")
    if list(workloads.WORKLOADS) != list(run.WORKLOADS):
        failures.append("workloads.WORKLOADS and run.WORKLOADS differ")


def traced(workload: str, seed: int) -> dict:
    result = run.spawn(ROOT, workload, seed, "trace", time.perf_counter() + run.RUN_DEADLINE_S)
    if set(result["layers"]) | {"trace.overhead_s"} != set(tracing.PER_LAYER_UNITS):
        raise AssertionError(f"{workload}: traced pass emitted {sorted(result['layers'])}")
    return result["layers"]


def check_counts(failures: list) -> None:
    for workload, seeds in (("mcf-certify", (1, 2)), ("mcf-stiff", (1,))):
        for seed in seeds:
            steps = traced(workload, seed)["mcf.evolve.steps"]
            if steps != STEPS[workload]:
                failures.append(f"{workload} seed {seed}: mcf.evolve.steps {steps}, "
                                f"expected {STEPS[workload]}")
    calls = [traced("certs", 3)["sequences.extremal_step.calls"] for _ in range(2)]
    if calls[0] != calls[1] or calls[0] == 0:
        failures.append(f"certs seed 3: sequences.extremal_step.calls {calls} do not repeat")


def check_failure_counts(failures: list) -> None:
    import flowcert.cylinder as cyl

    real = cyl.sphere_area
    cyl.sphere_area = lambda k: real(k) * (1.0 + 1e-4)
    try:
        workload = workloads.Certs(seed=5)
        workload.run()
        checks = workloads.Checks()
        workload.check(checks)
    finally:
        cyl.sphere_area = real
    verdict = run.gate([{"checks": checks.results}])
    failed = [c["name"] for c in verdict["failed_checks"]]
    if not (verdict["fail_ratio"] > 0 and any(n.startswith("crit_6 ") for n in failed)):
        failures.append(f"perturbed sphere measure: fail_ratio {verdict['fail_ratio']}, "
                        f"failed checks {failed}")


def main() -> int:
    failures: list = []
    for check in (check_declared_names, check_counts, check_failure_counts):
        before = len(failures)
        check(failures)
        print(f"[{'PASS' if len(failures) == before else 'FAIL'}] {check.__name__}")
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
