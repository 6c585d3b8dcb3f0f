"""Command-line front end.

Subcommands: seq-check, grad-flow, mcf, verify-all.
Exit codes: 0 pass, 1 suite failure, 2 certificate violation,
3 hypothesis failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, acceptance, harness
from . import gradientflow as gf
from . import mcf, sequences
from .cylinder import profile_to_csv, write_csv
from .errors import FlowcertError, InsufficientDataError, InvalidInputError

EXIT_OK = 0
EXIT_SUITE = 1
EXIT_CERT = 2
EXIT_HYP = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="flowcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"flowcert {__version__}")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    # the same globals are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(required=True, parser_class=_Parser)

    p_seq = sub.add_parser("seq-check", parents=[common],
                           help="check the drop law on a sequence and certify the bound")
    p_seq.set_defaults(run=_cmd_seq_check)
    src = p_seq.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="sequence file (newline decimals or JSON array)")
    src.add_argument("--geometric", action="store_true", help="use the sequence 2^-j")
    src.add_argument("--extremal", action="store_true",
                     help="generate the equality-saturating sequence")
    p_seq.add_argument("--C", type=float, default=1.0)
    p_seq.add_argument("--tau", type=float, default=0.5)
    p_seq.add_argument("--n", type=int, default=40, help="geometric length or extremal steps, <= 10^6")
    p_seq.add_argument("--x1", type=float, default=1.0, help="extremal start value")

    p_flow = sub.add_parser("grad-flow", parents=[common],
                            help="integrate a bundled gradient problem and certify the bound")
    p_flow.set_defaults(run=_cmd_grad_flow)
    p_flow.add_argument("--problem", required=True,
                        help="one of: " + ", ".join(p.name for p in gf.builtin_problems()))
    p_flow.add_argument("--x0", required=True, help="start point, comma separated")
    p_flow.add_argument("--t-end", type=float, default=2e12,
                        help="integration horizon (default runs essentially to convergence)")
    p_flow.add_argument("--tol", type=float, default=1e-10)
    p_flow.add_argument("--epsilon", type=float, default=0.5)
    p_flow.add_argument("--check-envelope", action="store_true",
                        help="also require the pointwise decay envelope")

    p_mcf = sub.add_parser("mcf", parents=[common],
                           help="evolve a profile (optionally fit and certify)")
    p_mcf.set_defaults(run=_cmd_mcf)
    p_mcf.add_argument("--config", required=True, help="run config file (key = value lines)")
    p_mcf.add_argument("--fit", action="store_true", help="also fit the window inequality")
    p_mcf.add_argument("--close", action="store_true", help="also run the closeness experiment")

    p_all = sub.add_parser("verify-all", parents=[common],
                           help="run the full acceptance suite against the bundled configs")
    p_all.set_defaults(run=_cmd_verify_all)
    p_all.add_argument("--seed", type=int, default=1234, help="seed for the randomized criteria")
    return parser


def _cmd_seq_check(args, out: Path, log: harness.RunLog) -> int:
    if args.geometric:
        if args.n > sequences.MAX_SEQUENCE_STEPS:
            raise InvalidInputError(f"need --n <= {sequences.MAX_SEQUENCE_STEPS}, got {args.n}")
        seq = sequences.MonotoneSequence(2.0 ** -np.arange(1, args.n + 1, dtype=float))
    elif args.extremal:
        seq = sequences.extremal_sequence(args.C, args.tau, x1=args.x1, n_steps=args.n)
    else:
        try:
            text = Path(args.file).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"cannot read {args.file}: {exc}") from None
        seq = sequences.parse_sequence_text(text)
    report = sequences.check_hypothesis(seq, args.C, args.tau)
    harness.write_json(out / "report.json", report)
    code = EXIT_OK
    if report.ok:
        consts = sequences.constructive_bound(args.C, args.tau)
        part = sequences.certify_part(seq.values, consts)
        payload = harness.jsonable(consts)
        payload.update({"x1": part.x1, "cap": part.cap,
                        "sqrt_diff_sum": part.sqrt_diff_sum, "bound_ok": part.cap_ok})
        harness.write_json(out / "bound.json", payload)
        log.say(f"hypothesis: pass; sqrt_diff_sum={part.sqrt_diff_sum:.6f} "
                f"<= cap={part.cap:.6f}: {part.cap_ok}")
        if not part.cap_ok:
            code = EXIT_CERT
    else:
        log.say(f"hypothesis: violation at step {report.first_violation} "
                f"(sqrt_diff_sum={report.sqrt_diff_sum:.6f})")
        code = EXIT_CERT
    log.say(f"report written to {out / 'report.json'}")
    return code


def _cmd_grad_flow(args, out: Path, log: harness.RunLog) -> int:
    problem = gf.problem_by_name(args.problem)
    try:
        x0 = [float(v) for v in args.x0.split(",")]
    except ValueError:
        raise InvalidInputError(f"cannot parse --x0 {args.x0!r}") from None
    traj = gf.integrate(problem, x0, t_end=args.t_end, tol=args.tol)
    write_csv(out / "trajectory.csv", ["t", *(f"x_{i + 1}" for i in range(problem.dim)), "F"],
              [traj.times, *traj.points.T, traj.F_values])
    report = gf.effective_bound(problem, traj, epsilon=args.epsilon)
    payload = harness.jsonable(report)
    payload["problem"] = problem.name
    payload["exited_ball"] = bool(traj.exited_ball)
    if args.check_envelope:
        payload["envelope_ok"] = gf.decay_envelope_check(traj)
    harness.write_json(out / "report.json", payload)
    log.say(f"case {report.case_tag}: length {report.length:.6g} "
            f"<= bound {report.bound_value:.6g}: {report.holds}")
    if args.check_envelope:
        log.say(f"envelope: {payload['envelope_ok']}")
    code = EXIT_OK if report.holds and payload.get("envelope_ok", True) else EXIT_CERT
    log.say(f"outputs written to {out}")
    return code


def _write_history(hist: mcf.FlowHistory, cfg: mcf.RunConfig, out: Path) -> None:
    write_csv(out / "history.csv", ["t", "F", "dist_R1", "dist_R2", "max_abs_u"],
              [hist.mark_times, hist.mark_F, hist.dist(cfg.R1), hist.dist(cfg.R2), hist.mark_max_u])
    write_csv(out / "diagnostics.csv", ["t", "dt", "max_abs_u"],
              [hist.diag_t, hist.diag_dt, hist.diag_max_u])
    profdir = out / "profiles"
    profdir.mkdir(parents=True, exist_ok=True)
    for t, u in zip(hist.mark_times, hist.profiles):
        profile_to_csv(hist.z, u, profdir / f"profile_t{int(t):04d}.csv")


def _cmd_mcf(args, out: Path, log: harness.RunLog) -> int:
    cfg = harness.load_run_config(args.config)
    start = time.perf_counter()
    hist = mcf.evolve(cfg.initial_state(), t_end=float(cfg.t2), controls=cfg.controls())
    timings = {"evolve_s": time.perf_counter() - start}
    timings["evolve_us_per_step"] = 1e6 * timings["evolve_s"] / hist.diag_t.size
    _write_history(hist, cfg, out)
    log.say(f"evolve: {hist.diag_t.size} steps, nfev {hist.n_rhs}, njev {hist.njev}, "
            f"nlu {hist.nlu}, dt min/median/max {hist.diag_dt.min():.3g}/"
            f"{np.median(hist.diag_dt):.3g}/{hist.diag_dt.max():.3g} (dt_max {cfg.dt_max:g})")
    checks = [{"name": "run-completed", "passed": hist.stop_reason == "completed",
               "measured": f"stop_reason={hist.stop_reason}, t_final={hist.t_final}"}]
    max_rise = hist.max_rise if hist.n_marks >= 2 else 0.0
    checks.append({"name": "area-monotone", "passed": max_rise <= mcf.MONOTONE_TOL,
                   "measured": f"max unit-mark increase {max_rise:.3e}"})
    code = EXIT_OK
    if hist.stop_reason != "completed":
        code = EXIT_HYP
    if args.fit and code == EXIT_OK:
        start = time.perf_counter()
        try:
            fit = mcf.lojasiewicz_fit(hist, R=cfg.R1, eps=cfg.eps1)
            harness.write_json(out / "fit.json", fit)
            slack_ok = fit.min_residual >= 0.0
            checks.append({"name": "fit-slack", "passed": slack_ok,
                           "measured": f"tau_fit={fit.tau_fit}, C_fit={fit.C_fit:.6g}"})
            log.say(f"fit: tau={fit.tau_fit} (in range: {fit.tau_in_range}), C={fit.C_fit:.6g}")
        except InsufficientDataError as exc:
            checks.append({"name": "fit-slack", "passed": False, "measured": str(exc)})
            log.say(f"fit unavailable: {exc}")
            code = exc.exit_code
        timings["fit_s"] = time.perf_counter() - start
    if args.close:
        start = time.perf_counter()
        report = mcf.close_experiment(cfg, hist=hist)
        timings["close_s"] = time.perf_counter() - start
        harness.write_json(out / "close.json", report)
        ok = report.verdict()
        checks.append({"name": "close-certified", "passed": bool(ok),
                       "measured": f"case={report.case_tag}, "
                                   f"max_dist={report.max_dist_to_ref:.6g}, "
                                   f"bound={report.bound_value:.6g}"})
        log.say(f"close: hypotheses_ok={report.hypotheses_ok} certified={report.certified} "
                f"bound_holds={report.bound_holds}")
        if not ok:
            code = EXIT_HYP
    manifest = harness.manifest_dict(command="mcf", seed=cfg.seed,
                                     config=dataclasses.asdict(cfg), checks=checks)
    harness.write_json(out / "manifest.json", manifest)
    harness.write_json(out / "timings.json", timings)
    log.say(f"outputs written to {out}")
    return code


def _cmd_verify_all(args, out: Path, log: harness.RunLog) -> int:
    results, manifest = acceptance.run_all(seed=args.seed, log=log)
    harness.write_json(out / "manifest.json", manifest)
    harness.write_json(out / "timings.json", {"criteria": [
        {"criterion": r.criterion, "name": r.name, "seconds": r.seconds} for r in results]})
    n_pass = sum(r.passed for r in results)
    log.say(f"{n_pass}/{len(results)} criteria passed; manifest at {out / 'manifest.json'}")
    return EXIT_OK if manifest["all_passed"] else EXIT_SUITE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        log = harness.RunLog(out / "run.log", quiet=args.quiet)
        try:
            return args.run(args, out, log)
        except FlowcertError as exc:  # each error class carries its exit code
            prefix = "run aborted" if exc.exit_code == EXIT_HYP else "error"
            log.say(f"{prefix}: {exc}")
            return exc.exit_code
    except OSError as exc:  # on stderr, since the log may be what failed
        print(f"flowcert: error: cannot use --out {out}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
