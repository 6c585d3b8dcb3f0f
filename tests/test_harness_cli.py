import dataclasses
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcert import acceptance, cli, harness, mcf, sequences
from flowcert.errors import ConfigError, FlowcertError

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


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(COARSE_CFG)
        cfg = harness.load_run_config(path)
        assert cfg.k == 1 and cfg.t2 == 8 and cfg.profile_kind == "balanced_gauss"
        assert cfg.h == 0.1 and cfg.seed == 42
        text = harness.config_to_text(cfg)
        cfg2 = harness.load_run_config(path)  # original file unchanged
        assert "profile_kind = balanced_gauss" in text
        assert dataclasses.asdict(cfg2) == dataclasses.asdict(cfg)

    def test_comments_and_blank_lines(self):
        data = harness.parse_config_text("# full line comment\n\nk = 2  # trailing\n")
        assert data == {"k": 2}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            harness.parse_config_text("wibble = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            harness.parse_config_text("k = two\n")
        with pytest.raises(ConfigError):
            harness.parse_config_text("h == 0.1\n")
        with pytest.raises(ConfigError):
            harness.parse_config_text("just words\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            harness.load_run_config("/nonexistent/run.cfg")

    def test_bundled_configs_load(self):
        for name in ("zero.cfg", "fit.cfg", "sweep.cfg", "blowup.cfg"):
            cfg = harness.load_bundled_config(name)
            assert cfg.k == 1
        with pytest.raises(ConfigError):
            harness.load_bundled_config("missing.cfg")

    def test_bad_override_of_bundled_config(self):
        with pytest.raises(ConfigError):
            harness.load_bundled_config("fit.cfg", overrides={"wibble": 3})


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
            harness._config_from_text(text, "<property>", None).initial_state()
        except FlowcertError as exc:
            assert isinstance(exc, cli.USAGE_ERRORS + cli.HYPOTHESIS_ERRORS), repr(exc)


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

    @pytest.mark.parametrize("key, value", [
        ("h", "nan"), ("h", "0"), ("R_dom", "1e9"), ("dt_max", "0"), ("cfl", "0"),
        ("step_tol", "-1e-8"), ("eps1", "inf"), ("eps2", "0"), ("R1", "-6"), ("R2", "nan"),
        ("stop_max_abs_u", "0"), ("max_C", "inf"), ("amplitude", "-0.01"), ("amplitude", "nan"),
        ("k", "0"), ("k", "201"), ("seed", "-1"), ("tau_grid_lo", "0.96"),
        ("tau_grid_hi", "1.5"), ("h", "1e-4"),
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

    def test_geometry_error_is_3(self, tmp_path):
        cfgfile = tmp_path / "neck.cfg"
        cfgfile.write_text(COARSE_CFG + "profile_kind = neck\namplitude = 2.0\n")
        code = cli.main(["--out", str(tmp_path / "o"), "--quiet", "mcf", "--config", str(cfgfile)])
        assert code == 3
        assert "r <= 0" in (tmp_path / "o" / "run.log").read_text()

    def test_violation_is_2(self, tmp_path):
        seq = tmp_path / "constant.txt"
        seq.write_text("0.5\n0.5\n0.5\n0.5\n0.5\n")
        code = cli.main(["--out", str(tmp_path / "o"), "--quiet",
                         "seq-check", "--file", str(seq)])
        assert code == 2
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["first_violation"] == 1 and report["ok"] is False

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
        code = cli.main(["--out", str(out), "--quiet", "close",
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

    def test_blowup_returns_3(self, tmp_path):
        cfgfile = tmp_path / "blow.cfg"
        cfgfile.write_text(COARSE_CFG.replace("amplitude = 0.01", "amplitude = 0.3")
                           .replace("profile_kind = balanced_gauss", "profile_kind = gauss"))
        code = cli.main(["--out", str(tmp_path / "o"), "--quiet", "close",
                         "--config", str(cfgfile)])
        assert code == 3
        close = json.loads((tmp_path / "o" / "close.json").read_text())
        assert close["hypotheses_ok"] is False

    def test_fit_subcommand(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(COARSE_CFG)
        out = tmp_path / "o"
        code = cli.main(["--out", str(out), "--quiet", "fit", "--config", str(cfgfile)])
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["n_windows"] >= 5
        assert min(fit["residuals"]) >= 0.0

    def test_globals_accepted_after_subcommand(self, tmp_path):
        code = cli.main(["seq-check", "--geometric", "--out", str(tmp_path), "--quiet"])
        assert code == 0


class TestMutationSensitivity:
    def test_corrupted_area_constant_fails_suite(self, monkeypatch):
        # the documented failure path: perturb the sphere measure and the
        # closed-form criterion must go red
        import flowcert.cylinder as cyl

        real = cyl.sphere_area
        monkeypatch.setattr(cyl, "sphere_area", lambda k: real(k) * (1.0 + 1e-4))
        res = acceptance.crit_cylinder_area()
        assert not res.passed

    def test_power_gap_violation_fails_criterion_1(self, monkeypatch):
        # every tuple reported as satisfying the hypothesis without the gap
        def broken(a, b, C, tau):
            return np.ones_like(a, dtype=bool), np.zeros_like(a, dtype=bool)

        monkeypatch.setattr(sequences, "check_power_gap", broken)
        assert not acceptance.crit_power_gap(1234).passed

    def test_iterated_gap_violation_fails_criterion_2(self, monkeypatch):
        monkeypatch.setattr(sequences, "iterated_gap_margin", lambda seq, C, tau: -1.0)
        assert not acceptance.crit_iterated_gap().passed

    def test_shrunken_constant_fails_criterion_3(self, monkeypatch):
        # c/20 puts the worst sum/cap ratio (about 0.097) well above 1
        real = sequences.constructive_bound

        def shrunk(C, tau):
            consts = real(C, tau)
            return dataclasses.replace(consts, c=consts.c / 20.0)

        monkeypatch.setattr(sequences, "constructive_bound", shrunk)
        assert not acceptance.crit_summability_bound(1234).passed

    def test_certifier_violation_fails_criterion_4(self, monkeypatch):
        real = sequences.certify_part
        monkeypatch.setattr(sequences, "certify_part", lambda values, consts: dataclasses.replace(
            real(values, consts), hypothesis_ok=False))
        assert not acceptance.crit_model_flow(1234).passed


def test_run_log_quiet(tmp_path, capsys):
    log = harness.RunLog(tmp_path / "run.log", quiet=True)
    log.say("hello")
    assert capsys.readouterr().out == ""
    assert "hello" in (tmp_path / "run.log").read_text()
