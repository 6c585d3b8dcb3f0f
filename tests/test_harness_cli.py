import contextlib
import dataclasses
import inspect
import io
import itertools
import json
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcert import acceptance, cli, errors, gradientflow, harness, mcf, sequences
from flowcert.errors import FlowcertError, IntegrationError, InvalidInputError

COARSE_CFG = """\
# coarse run for fast tests
k = 1
R_dom = 20
h = 0.1
dt_max = 0.002
amplitude = 0.01
profile_kind = balanced_gauss
t1 = 0
t2 = 8
eps1 = 0.5
eps2 = 0.2
R1 = 6
R2 = 5
seed = 42
"""

# every name that seq-check and mcf --fit --close write under --out
OUT_NAMES = ("run.log", "report.json", "bound.json", "history.csv", "diagnostics.csv",
             "profiles", "fit.json", "close.json", "manifest.json", "timings.json")
OUT_WRITES = {"seq-check": {"run.log", "report.json", "bound.json"},
              "mcf": set(OUT_NAMES) - {"report.json", "bound.json"}}


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(COARSE_CFG)
        cfg = harness.load_run_config(path)
        assert cfg.k == 1 and cfg.t2 == 8 and cfg.profile_kind == "balanced_gauss"
        assert cfg.h == 0.1 and cfg.seed == 42
        cfg2 = harness.load_run_config(path)  # original file unchanged
        assert dataclasses.asdict(cfg2) == dataclasses.asdict(cfg)

    def test_comments_and_blank_lines(self):
        data = harness.parse_config_text("# full line comment\n\nk = 2  # trailing\n")
        assert data == {"k": 2}

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInputError):
            harness.parse_config_text("wibble = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(InvalidInputError):
            harness.parse_config_text("k = two\n")
        with pytest.raises(InvalidInputError):
            harness.parse_config_text("h == 0.1\n")
        with pytest.raises(InvalidInputError):
            harness.parse_config_text("just words\n")

    def test_missing_file(self):
        with pytest.raises(InvalidInputError):
            harness.load_run_config("/nonexistent/run.cfg")

    def test_bundled_configs_load(self):
        for name in ("zero.cfg", "fit.cfg", "sweep.cfg", "blowup.cfg"):
            cfg = harness.load_bundled_config(name)
            assert cfg.k == 1
        with pytest.raises(InvalidInputError):
            harness.load_bundled_config("missing.cfg")


_CONFIG_KEYS = [f.name for f in dataclasses.fields(mcf.RunConfig)] + ["wibble"]
_CONFIG_VALUES = st.one_of(
    st.floats().map(repr), st.floats(1e-3, 20.0).map(repr), st.integers().map(str),
    st.integers(0, 12).map(str), st.sampled_from(mcf.PROFILE_KINDS), st.text())


class TestConfigProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES), max_size=4))
    def test_any_override_builds_or_maps_to_exit_3_or_64(self, overrides):
        # overrides of a valid config reach initial_state often; whatever the
        # text, the outcome is a state or a package error with a documented exit
        text = COARSE_CFG + "".join(f"{key} = {value}\n" for key, value in overrides)
        try:
            harness._config_from_text(text, "<property>").initial_state()
        except FlowcertError as exc:
            assert exc.exit_code in (3, 64), repr(exc)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES), max_size=4))
    def test_any_override_evolves_or_maps_to_exit_3_or_64(self, overrides):
        # the same overrides, then a short evolve: t_end is dt_max, at most
        # one time unit
        text = COARSE_CFG + "".join(f"{key} = {value}\n" for key, value in overrides)
        try:
            cfg = harness._config_from_text(text, "<property>")
            hist = mcf.evolve(cfg.initial_state(), min(cfg.dt_max, 1.0), cfg.controls())
            assert isinstance(hist, mcf.FlowHistory)
        except FlowcertError as exc:
            assert exc.exit_code in (3, 64), repr(exc)

    def test_run_beyond_max_steps_ends_at_once_with_exit_64(self, tmp_path, capsys):
        # t2 = 10^9 spans 5 x 10^11 steps of dt_max = 2e-3, beyond MAX_STEPS:
        # the run is refused before the solver starts
        cfgfile = tmp_path / "long.cfg"
        cfgfile.write_text(COARSE_CFG + "t2 = 1000000000\n")
        start = time.perf_counter()
        code = cli.main(["--out", str(tmp_path / "o"), "mcf", "--config", str(cfgfile)])
        assert code == 64
        assert time.perf_counter() - start < 10.0
        printed = capsys.readouterr()
        assert "error: reaching t=1000000000.0 spans more than MAX_STEPS" in printed.out
        assert "Traceback" not in printed.out + printed.err


class TestJsonable:
    def test_numpy_and_nan_handling(self):
        data = {"a": np.float64(1.5), "b": np.int32(2), "c": np.array([1.0, 2.0]),
                "d": float("nan"), "e": np.bool_(True), "f": [np.float64(0.25)]}
        out = harness.jsonable(data)
        assert out == {"a": 1.5, "b": 2, "c": [1.0, 2.0], "d": None, "e": True, "f": [0.25]}
        json.dumps(out)  # round-trips through the standard encoder

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "deep" / "report.json"
        harness.write_json(target, {"x": 1})
        assert json.loads(target.read_text()) == {"x": 1}
        leftovers = [p for p in target.parent.iterdir() if p.name != "report.json"]
        assert leftovers == []


class TestCliExitCodes:
    def test_usage_error_is_64(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 64

    # `mcf --fit` and `mcf --close` are the one way to fit and to close, and
    # verify-all is the one command that reads a seed
    @pytest.mark.parametrize("argv", [
        ["fit", "--config", "run.cfg"], ["close", "--config", "run.cfg"],
        ["--seed", "7", "verify-all"], ["mcf", "--seed", "7", "--config", "run.cfg"]])
    def test_removed_command_or_misplaced_seed_is_64(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--out", str(tmp_path / "o"), *argv])
        assert exc.value.code == 64
        printed = capsys.readouterr()
        assert "flowcert: error:" in printed.err and "Traceback" not in printed.err

    def test_unknown_problem_is_64(self, tmp_path):
        code = cli.main(["--out", str(tmp_path), "--quiet",
                         "grad-flow", "--problem", "nope", "--x0", "0.1"])
        assert code == 64

    def test_bad_config_is_64(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("wibble = 3\n")
        code = cli.main(["--out", str(tmp_path / "o"), "--quiet",
                         "mcf", "--config", str(bad)])
        assert code == 64

    # cfl, step_tol, stop_max_abs_u, max_C, tau_grid_lo and tau_grid_hi were
    # config keys once; a config that still sets one is refused as naming an
    # unknown key rather than run with the setting silently dropped
    @pytest.mark.parametrize("key, value", [
        ("h", "nan"), ("h", "0"), ("R_dom", "1e9"), ("dt_max", "0"), ("cfl", "0"),
        ("step_tol", "-1e-8"), ("eps1", "inf"), ("eps2", "0"), ("R1", "-6"), ("R2", "nan"),
        ("stop_max_abs_u", "0"), ("max_C", "inf"), ("amplitude", "-0.01"), ("amplitude", "nan"),
        ("k", "0"), ("k", "201"), ("seed", "-1"), ("tau_grid_lo", "0.96"),
        ("tau_grid_hi", "1.5"), ("h", "1e-4"), ("profile_kind", "neck"),
        pytest.param("t2", "1" + "0" * 400, id="t2-int-beyond-float"),
    ])
    def test_bad_config_value_is_64(self, tmp_path, capsys, key, value):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(COARSE_CFG + f"{key} = {value}\n")  # the later line wins
        start = time.perf_counter()
        code = cli.main(["--out", str(tmp_path / "o"), "mcf", "--config", str(cfgfile)])
        assert code == 64
        assert time.perf_counter() - start < 10.0
        printed = capsys.readouterr()
        assert "error:" in printed.out and "Traceback" not in printed.out + printed.err
        known = {f.name for f in dataclasses.fields(mcf.RunConfig)}
        assert (f"unknown key '{key}'" in printed.out) == (key not in known)

    def test_collapsing_step_size_is_3(self, tmp_path, capsys, monkeypatch):
        # a right-hand side whose sign flips from call to call has no flow to
        # follow: the solver's steps collapse toward t = 0, where scipy's
        # floor of 10 ulp of t does not stop them, and the run stops at its
        # first step shorter than 10 ulp of 1
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(COARSE_CFG + "t2 = 2\namplitude = 0.05\ndt_max = 0.02\n")
        assert cli.main(["--out", str(tmp_path / "ok"), "--quiet", "mcf",
                         "--config", str(cfgfile)]) == 0
        real = mcf._kernel
        calls = itertools.count()

        def chattering(z, h, s):
            frhs = real(z, h, s)

            def flipped(w):
                out = frhs(w)
                out[1:-1] += 1e-6 if next(calls) % 2 else -1e-6
                return out
            return flipped

        monkeypatch.setattr(mcf, "_kernel", chattering)
        start = time.perf_counter()
        code = cli.main(["--out", str(tmp_path / "o"), "mcf", "--config", str(cfgfile)])
        assert code == 3
        assert time.perf_counter() - start < 10.0
        printed = capsys.readouterr()
        assert "run aborted: step collapsed to " in printed.out
        assert "Traceback" not in printed.out + printed.err

    def test_overflowing_amplitude_is_3_without_a_warning(self, tmp_path):
        # the slopes of a gauss bump of height 1e200 overflow when squared;
        # evolve refuses a start beyond its stop condition max|u| > 1 before
        # it evaluates anything of the profile, so numpy never warns
        cfgfile = tmp_path / "huge.cfg"
        cfgfile.write_text(COARSE_CFG + "amplitude = 1e200\nprofile_kind = gauss\nt2 = 2\n")
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "flowcert", "--out",
                               str(tmp_path / "o"), "mcf", "--config", str(cfgfile)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert proc.stdout == ("run aborted: initial max|u| 1.000e+200 exceeds the stop "
                               "condition max|u| > 1.0\n")
        assert proc.stderr == ""

    def test_geometry_error_is_3(self, tmp_path):
        # balanced_gauss dips to -3a/20 = -1.5 < -sqrt(2) at a = 10: r <= 0
        cfgfile = tmp_path / "dip.cfg"
        cfgfile.write_text(COARSE_CFG + "amplitude = 10.0\n")
        code = cli.main(["--out", str(tmp_path / "o"), "--quiet", "mcf", "--config", str(cfgfile)])
        assert code == 3
        assert "r <= 0" in (tmp_path / "o" / "run.log").read_text()

    def test_window_without_grid_point_is_64(self, tmp_path, capsys, monkeypatch):
        # with h = 3 no grid node lies in |z| <= R2 = 1: the config is refused
        # before the run starts
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve ran on a config with an empty window")

        monkeypatch.setattr(mcf, "evolve", no_evolve)
        cfgfile = tmp_path / "wide.cfg"
        cfgfile.write_text(COARSE_CFG + "h = 3.0\ndt_max = 1.0\nR2 = 1.0\n")
        code = cli.main(["--out", str(tmp_path / "o"), "mcf", "--config", str(cfgfile)])
        assert code == 64
        printed = capsys.readouterr()
        assert "error: R2: no grid point within |z| <= 1.0 (spacing h=3.0)" in printed.out
        assert "Traceback" not in printed.out + printed.err

    def test_precondition_error_is_3(self, tmp_path, capsys):
        # x0 = 0.3 starts the segment outside the ball of radius 1/4, a
        # hypothesis of the length bound
        code = cli.main(["--out", str(tmp_path / "o"), "grad-flow", "--problem", "quartic1d",
                         "--x0", "0.3", "--t-end", "1"])
        assert code == 3
        printed = capsys.readouterr()
        assert "run aborted: segment endpoints must lie in the ball" in printed.out
        assert "Traceback" not in printed.out + printed.err

    def test_unparsable_start_is_64(self, tmp_path, capsys):
        code = cli.main(["--out", str(tmp_path / "o"), "grad-flow", "--problem", "quartic1d",
                         "--x0", "abc"])
        assert code == 64
        printed = capsys.readouterr()
        assert "error: cannot parse --x0 'abc'" in printed.out
        assert "Traceback" not in printed.out + printed.err

    def test_non_finite_profile_is_3(self, tmp_path, capsys, monkeypatch):
        # a right-hand side that is NaN everywhere stops the run at its start
        def nan_kernel(z, h, s):
            return lambda w: np.full_like(w, np.nan)

        monkeypatch.setattr(mcf, "_kernel", nan_kernel)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(COARSE_CFG)
        code = cli.main(["--out", str(tmp_path / "o"), "mcf", "--config", str(cfgfile)])
        assert code == 3
        printed = capsys.readouterr()
        assert "run aborted: non-finite right-hand side after t=0.0" in printed.out
        assert "Traceback" not in printed.out + printed.err

    def test_inapplicable_envelope_is_3(self, tmp_path, capsys):
        # from x0 = 0 the flow rests at the critical point: F - F0 is 0, so
        # the decay envelope is undefined
        code = cli.main(["--out", str(tmp_path / "o"), "grad-flow", "--problem", "quartic1d",
                         "--x0", "0", "--check-envelope"])
        assert code == 3
        printed = capsys.readouterr()
        assert "run aborted: F - F0 is not strictly positive" in printed.out
        assert "Traceback" not in printed.out + printed.err

    def test_stalled_integration_is_3(self, tmp_path, capsys, monkeypatch):
        def stalled(*args, **kwargs):
            raise IntegrationError("integration stalled at t=1.0: step size too small")

        monkeypatch.setattr(gradientflow, "integrate", stalled)
        code = cli.main(["--out", str(tmp_path / "o"), "grad-flow", "--problem", "quartic1d",
                         "--x0", "0.1"])
        assert code == 3
        printed = capsys.readouterr()
        assert "run aborted: integration stalled" in printed.out
        assert "Traceback" not in printed.out + printed.err

    def test_fit_with_too_few_windows_is_3(self, tmp_path, capsys):
        # t2 = 3 leaves two unit-mark windows, fewer than the fit needs: the
        # run completes, the fit is unavailable and its check fails
        cfgfile = tmp_path / "short.cfg"
        cfgfile.write_text(COARSE_CFG + "t2 = 3\n")
        out = tmp_path / "o"
        code = cli.main(["--out", str(out), "mcf", "--fit", "--config", str(cfgfile)])
        assert code == 3
        printed = capsys.readouterr()
        assert "fit unavailable: only 2 admissible unit-mark windows" in printed.out
        assert "Traceback" not in printed.out + printed.err
        checks = json.loads((out / "manifest.json").read_text())["checks"]
        assert [c["passed"] for c in checks if c["name"] == "fit-slack"] == [False]
        assert not (out / "fit.json").exists()

    @pytest.mark.parametrize("argv", [["--geometric", "--C", "1e300", "--tau", "0.9"],
                                      ["--extremal", "--C", "1e300", "--tau", "0.5"]])
    def test_overflowing_certificate_constant_is_64(self, tmp_path, capsys, argv):
        code = cli.main(["--out", str(tmp_path / "o"), "seq-check", *argv])
        assert code == 64
        printed = capsys.readouterr()
        assert "error: C=1e+300 is too large: the constant c overflows" in printed.out
        assert "Traceback" not in printed.out + printed.err

    # every numeric flag of seq-check and grad-flow, one at a time, at the
    # edges of the float range; the values refused up front (the certificate
    # constant's C, grad-flow's horizon and tolerance caps, RK45's tolerance
    # floor and a start outside the validity ball) must also warn nothing
    @pytest.mark.parametrize("value", ["0", "-1", "1e-300", "1e300", "inf", "nan"])
    @pytest.mark.parametrize("command, flag", [
        *(("seq-check", flag) for flag in ("--C", "--tau", "--x1", "--n")),
        *(("grad-flow", flag) for flag in ("--t-end", "--tol", "--epsilon", "--x0"))])
    def test_extreme_numeric_flag_ends_with_a_documented_code(self, tmp_path, capsys,
                                                              command, flag, value):
        if command == "seq-check":
            base = ["seq-check", "--extremal"]
        else:
            start = [] if flag == "--x0" else ["--x0", "0.1"]
            base = ["grad-flow", "--problem", "quartic1d", *start]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(["--out", str(tmp_path / "o"), *base, f"{flag}={value}"])
            except SystemExit as exc:  # argparse refuses a value of the wrong type
                code = exc.code
        assert code in (0, 2, 3, 64)
        printed = capsys.readouterr()
        assert "Traceback" not in printed.out + printed.err
        refused = {("--C", "1e300"): 64, ("--t-end", "1e300"): 64, ("--tol", "1e300"): 64,
                   ("--tol", "1e-300"): 64, ("--x0", "1e300"): 3}
        if (flag, value) in refused:
            assert code == refused[flag, value]
            assert not caught, [str(w.message) for w in caught]

    def test_violation_is_2(self, tmp_path):
        seq = tmp_path / "constant.txt"
        seq.write_text("0.5\n0.5\n0.5\n0.5\n0.5\n")
        code = cli.main(["--out", str(tmp_path / "o"), "--quiet",
                         "seq-check", "--file", str(seq)])
        assert code == 2
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["first_violation"] == 1 and report["ok"] is False

    def test_sum_above_the_cap_is_2(self, tmp_path, monkeypatch):
        # the constant c/20 of the criterion-3 mutation puts the geometric
        # sequence's sqrt-increment sum above its certified cap
        real = sequences.constructive_bound

        def shrunk(C, tau):
            consts = real(C, tau)
            return dataclasses.replace(consts, c=consts.c / 20.0)

        monkeypatch.setattr(sequences, "constructive_bound", shrunk)
        code = cli.main(["--out", str(tmp_path), "--quiet", "seq-check",
                         "--geometric", "--C", "1", "--tau", "0.5", "--n", "40"])
        assert code == 2
        bound = json.loads((tmp_path / "bound.json").read_text())
        assert bound["bound_ok"] is False
        assert bound["sqrt_diff_sum"] > bound["cap"]

    def test_geometric_passes_with_reference_sum(self, tmp_path):
        code = cli.main(["--out", str(tmp_path), "--quiet", "seq-check",
                         "--geometric", "--C", "1", "--tau", "0.5", "--n", "40"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {"C", "tau", "ok", "first_violation", "sqrt_diff_sum"}
        assert abs(report["sqrt_diff_sum"] - 1.70711) <= 1e-5

    def test_extremal_certifies(self, tmp_path):
        code = cli.main(["--out", str(tmp_path), "--quiet", "seq-check",
                         "--extremal", "--x1", "1", "--n", "200"])
        assert code == 0
        bound = json.loads((tmp_path / "bound.json").read_text())
        assert bound["bound_ok"] is True

    def test_json_array_input(self, tmp_path):
        seq = tmp_path / "seq.json"
        seq.write_text("[1.0, 0.25, 0.0625]")
        code = cli.main(["--out", str(tmp_path / "o"), "--quiet",
                         "seq-check", "--file", str(seq), "--tau", "0.5"])
        assert code in (0, 2)  # parses; exit depends on the checked inequality

    @pytest.mark.parametrize("payload", ['["a", 0.5]', '[[1, 0.5], [0.2]]',
                                         pytest.param("[1" + "0" * 400 + ", 0.5]",
                                                      id="int-beyond-float")])
    def test_bad_json_array_is_64(self, tmp_path, capsys, payload):
        seq = tmp_path / "seq.json"
        seq.write_text(payload)
        code = cli.main(["--out", str(tmp_path / "o"), "seq-check", "--file", str(seq)])
        assert code == 64
        printed = capsys.readouterr()
        assert "error:" in printed.out and "Traceback" not in printed.out + printed.err

    def test_empty_file_name_is_64(self, tmp_path, capsys):
        # an empty --file is a path that cannot be read, not a request for
        # another sequence
        code = cli.main(["--out", str(tmp_path / "o"), "seq-check", "--file", ""])
        assert code == 64
        printed = capsys.readouterr()
        assert "error: cannot read" in printed.out and "Traceback" not in printed.err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("command, flag", [("seq-check", "--file"), ("mcf", "--config")])
    def test_file_that_is_not_utf8_is_64(self, tmp_path, capsys, command, flag):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\xfe")
        code = cli.main(["--out", str(tmp_path / "o"), command, flag, str(path)])
        assert code == 64
        printed = capsys.readouterr()
        assert re.fullmatch(r"error: cannot read .*can't decode byte 0xff.*\n", printed.out)
        assert printed.err == ""

    def test_out_naming_an_existing_file_is_64(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        code = cli.main(["--out", str(taken), "seq-check", "--geometric"])
        assert code == 64
        printed = capsys.readouterr()
        assert printed.out == ""
        assert re.fullmatch(r"flowcert: error: cannot use --out .*taken: .*File exists.*\n",
                            printed.err)
        assert taken.read_text() == "keep me\n"

    @example(command="mcf", tree={"run.log": "dir"})
    @example(command="seq-check", tree={"report.json": "dir"})
    @example(command="mcf", tree={"profiles": "file"})
    @settings(max_examples=50, deadline=None)
    @given(command=st.sampled_from(["seq-check", "mcf"]),
           tree=st.dictionaries(st.sampled_from(OUT_NAMES), st.sampled_from(["file", "dir"])))
    def test_taken_out_name_is_64_with_one_line(self, command, tree):
        # a name the command writes that holds a directory (or, for profiles,
        # a file) ends the run with one stderr line and no temp file left
        with tempfile.TemporaryDirectory() as root:
            out = Path(root) / "o"
            out.mkdir()
            for name, kind in tree.items():
                (out / name).mkdir() if kind == "dir" else (out / name).write_text("taken\n")
            cfgfile = Path(root) / "run.cfg"
            cfgfile.write_text(COARSE_CFG)
            argv = {"seq-check": ["seq-check", "--geometric"],
                    "mcf": ["mcf", "--config", str(cfgfile), "--fit", "--close"]}[command]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(["--out", str(out), "--quiet", *argv])
            leftovers = [path.name for path in out.rglob("*.tmp*")]
        taken = any(name in OUT_WRITES[command] and (kind == "file") == (name == "profiles")
                    for name, kind in tree.items())
        assert code == (64 if taken else 0)
        assert stdout.getvalue() == "" and leftovers == []
        if taken:
            assert re.fullmatch(r"flowcert: error: cannot use --out [^\n]*\n", stderr.getvalue())
        else:
            assert stderr.getvalue() == ""

    @pytest.mark.parametrize("n", [sequences.MAX_SEQUENCE_STEPS + 1, 10**11])
    @pytest.mark.parametrize("kind", ["--geometric", "--extremal"])
    def test_sequence_length_cap_is_64(self, tmp_path, capsys, kind, n):
        start = time.perf_counter()
        code = cli.main(["--out", str(tmp_path / "o"), "seq-check", kind, "--n", str(n)])
        assert code == 64
        assert time.perf_counter() - start < 5.0
        printed = capsys.readouterr()
        assert "error: need" in printed.out and f"<= 1000000, got {n}" in printed.out
        assert "Traceback" not in printed.out + printed.err

    def test_grad_flow_outputs(self, tmp_path):
        code = cli.main(["--out", str(tmp_path), "--quiet", "grad-flow",
                         "--problem", "quartic1d", "--x0", "0.2",
                         "--t-end", "2e12", "--tol", "1e-10", "--check-envelope"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["length"] - 0.2) <= 1e-6
        assert report["holds"] and report["envelope_ok"]
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x_1,F"

    def test_quartic2d_envelope_via_cli(self, tmp_path):
        code = cli.main(["--out", str(tmp_path), "--quiet", "grad-flow",
                         "--problem", "quartic2d", "--x0", "0.1,0.1",
                         "--check-envelope"])
        assert code == 0

    def test_mcf_run_and_close(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(COARSE_CFG)
        out = tmp_path / "o"
        code = cli.main(["--out", str(out), "--quiet", "mcf", "--close",
                         "--config", str(cfgfile)])
        assert code == 0
        assert (out / "history.csv").exists()
        assert (out / "close.json").exists()
        assert (out / "manifest.json").exists()
        header = (out / "history.csv").read_text().splitlines()[0]
        assert header == "t,F,dist_R1,dist_R2,max_abs_u"
        close = json.loads((out / "close.json").read_text())
        assert close["hypotheses_ok"] and close["bound_holds"]
        profiles = sorted((out / "profiles").glob("profile_t*.csv"))
        assert len(profiles) == 9  # marks 0..8

    def test_mcf_writes_one_diagnostics_row_per_step(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(COARSE_CFG)
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "--quiet", "mcf", "--config", str(cfgfile)]) == 0
        cfg = harness.load_run_config(cfgfile)
        hist = mcf.evolve(cfg.initial_state(), float(cfg.t2), cfg.controls())
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "t,dt,max_abs_u"
        assert len(lines) - 1 == hist.diag_t.size == 309
        assert lines[-1].split(",")[0] == repr(float(cfg.t2))
        assert [float(line.split(",")[1]) for line in lines[1:]] == hist.diag_dt.tolist()
        log = (out / "run.log").read_text()
        assert "evolve: 309 steps, nfev 620, njev 1, nlu 56, dt min/median/max " in log
        assert "(dt_max 0.002)" in log

    def test_each_distance_read_measures_every_mark_at_once(self, tmp_path, monkeypatch):
        # history.csv reads R1 and R2, the fit R1, and the closeness experiment
        # R1 for hypothesis (1) and for its fit: one pass over all 9 marks each
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(COARSE_CFG)
        calls = []
        real = mcf.profile_dist
        monkeypatch.setattr(mcf, "profile_dist",
                            lambda z, du, h, R: calls.append((R, du.shape)) or real(z, du, h, R))
        code = cli.main(["--out", str(tmp_path / "o"), "--quiet", "mcf", "--config", str(cfgfile),
                         "--fit", "--close"])
        assert code == 0
        assert sorted(calls) == [(5.0, (9, 401))] + [(6.0, (9, 401))] * 4

    def test_history_csv_holds_the_mark_arrays(self, tmp_path):
        # on the bundled sweep.cfg, every column bit for bit
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "--quiet", "mcf", "--config",
                         str(Path(mcf.__file__).parent / "configs" / "sweep.cfg")]) == 0
        cfg = harness.load_bundled_config("sweep.cfg")
        hist = mcf.evolve(cfg.initial_state(), float(cfg.t2), cfg.controls())
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "t,F,dist_R1,dist_R2,max_abs_u"
        columns = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
        expected = [hist.mark_times, hist.mark_F, hist.dist(cfg.R1), hist.dist(cfg.R2),
                    hist.mark_max_u]
        assert [col.tobytes() for col in columns] == [arr.tobytes() for arr in expected]

    def test_blowup_returns_3(self, tmp_path):
        cfgfile = tmp_path / "blow.cfg"
        cfgfile.write_text(COARSE_CFG.replace("amplitude = 0.01", "amplitude = 0.3")
                           .replace("profile_kind = balanced_gauss", "profile_kind = gauss"))
        code = cli.main(["--out", str(tmp_path / "o"), "--quiet", "mcf", "--close",
                         "--config", str(cfgfile)])
        assert code == 3
        close = json.loads((tmp_path / "o" / "close.json").read_text())
        assert close["hypotheses_ok"] is False

    def test_fit_subcommand(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(COARSE_CFG)
        out = tmp_path / "o"
        code = cli.main(["--out", str(out), "--quiet", "mcf", "--fit", "--config", str(cfgfile)])
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["n_windows"] >= 5
        assert min(fit["residuals"]) >= 0.0

    def test_globals_accepted_after_subcommand(self, tmp_path):
        code = cli.main(["seq-check", "--geometric", "--out", str(tmp_path), "--quiet"])
        assert code == 0


def test_criterion_8_alone_reads_every_bundled_run(monkeypatch):
    # criterion 8 evolves what it reads, so its verdict does not depend on
    # the criteria that ran before it
    real_load = harness.load_bundled_config
    monkeypatch.setattr(harness, "load_bundled_config",
                        lambda name: dataclasses.replace(real_load(name), h=0.1, t2=4))
    runs = acceptance.BundledRuns()
    res = acceptance.crit_monotone_F(runs)
    assert res.passed, res.line()
    assert res.measured.endswith("across 7 runs")
    assert sorted(runs) == sorted(acceptance.RUNS)


def test_exit_codes_match_the_readme_table():
    """Every package error class carries the exit code the README's table gives it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (\d+) \|$", readme, re.M)
    table = {name: int(code) for name, code in rows}
    carried = {name: cls.exit_code for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.FlowcertError)}
    assert carried == table
    assert set(table.values()) == {1, 3, 64}


def test_run_log_quiet(tmp_path, capsys):
    log = harness.RunLog(tmp_path / "run.log", quiet=True)
    log.say("hello")
    assert capsys.readouterr().out == ""
    assert "hello" in (tmp_path / "run.log").read_text()


def _keys(obj, floats_only=False) -> set:
    """Keys at any depth of parsed JSON; with floats_only, those of float leaves."""
    if isinstance(obj, list):
        return set().union(*(_keys(v, floats_only) for v in obj))
    if not isinstance(obj, dict):
        return set()
    own = {k for k, v in obj.items() if isinstance(v, float) or not floats_only}
    return own.union(*(_keys(v, floats_only) for v in obj.values()))


@pytest.mark.parametrize("command", [["mcf", "--fit", "--close"], ["verify-all"]])
def test_timings_stay_out_of_the_manifest(tmp_path, monkeypatch, command):
    """A skewed clock changes timings.json and leaves manifest.json byte-identical."""
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(COARSE_CFG)
    if command[0] == "mcf":
        command = [*command, "--config", str(cfgfile)]
    else:  # stub criteria, so the two runs stay cheap
        names = sorted(name for name in dir(acceptance) if name.startswith("crit_"))
        for n, name in enumerate(names, 1):
            monkeypatch.setattr(acceptance, name, lambda *args, n=n: acceptance.CheckResult(
                n, acceptance.NAMES[n], True, "stub"))
    real = time.perf_counter
    outs = []
    for skew in (1.0, 1000.0):
        monkeypatch.setattr(time, "perf_counter", lambda skew=skew: skew * real())
        out = tmp_path / f"skew{skew:g}"
        assert cli.main(["--out", str(out), "--quiet", *command]) == 0
        outs.append(((out / "manifest.json").read_bytes(),
                     json.loads((out / "timings.json").read_text())))
    (manifest, timings), (skewed_manifest, skewed_timings) = outs
    assert skewed_manifest == manifest
    assert skewed_timings != timings
    timing_keys = _keys(timings, floats_only=True)
    assert timing_keys and not timing_keys & _keys(json.loads(manifest))
