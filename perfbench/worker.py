"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace

run.py starts it with PYTHONPATH set to the checkout's `src/`.  Set-up time
runs from the top of this file, before numpy, scipy and flowcert are imported,
to the end of the workload's set-up; the reference probe (probe.py) is sampled
right after it.  `setup` mode stops there; `run` mode times one pass of the
workload while the probe samples the machine's speed; `trace` mode does the
same with the per-layer wrappers installed.  Times of the pass leave out the
sampling.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402  (imported after START so their cost is counted)
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

SETUP_PROBES = 20  # probe samples right after the set-up


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    # the program under test must be the checkout's own source tree
    flowcert = importlib.import_module("flowcert")
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(flowcert.__file__).startswith(src + os.sep):
        print(f"flowcert imported from {flowcert.__file__}, not from {src}", file=sys.stderr)
        return 2
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    out = {"setup_s": time.perf_counter() - START}
    probe = importlib.import_module("probe")
    out["probe_s"] = [probe.probe() for _ in range(SETUP_PROBES)]
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    import numpy
    import scipy

    sampler = probe.Sampler()
    tracer = None
    if args.mode == "trace":
        tracing = importlib.import_module("tracing")
        tracer = tracing.Tracer(clock=sampler.clock)
        tracer.install()
    checks = workloads.Checks()
    with sampler:
        start = sampler.clock()
        try:
            workload.run()
            ran = True
        except Exception:  # a crash of the program is a failed check, not a benchmark error
            traceback.print_exc()
            ran = False
        out["wall_s"] = sampler.clock() - start
    out["pass_probe_s"] = sampler.samples
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["layer_units"] = tracing.PER_LAYER_UNITS
        out["span_tree"] = tracer.span_tree()
    checks.add("workload ran without raising", ran)
    out["outputs"] = workload.check(checks) if ran else {}
    out["checks"] = checks.results
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["amplitudes"] = workload.amplitudes
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(out, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
