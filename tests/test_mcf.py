import dataclasses
import math

import numpy as np
import pytest

from flowcert import harness, mcf
from flowcert import sequences as sq
from flowcert.cylinder import CylinderGraph, CylinderSpec, cylinder_F, graph_F
from flowcert.errors import ConfigError, InsufficientDataError, InvalidInputError

SPEC1 = CylinderSpec(1)


def coarse_config(**overrides):
    base = dict(k=1, R_dom=20.0, h=0.1, dt_max=2e-3, amplitude=0.01,
                profile_kind="balanced_gauss", t1=0, t2=8, eps1=0.5, eps2=0.2,
                R1=6.0, R2=5.0, seed=42)
    base.update(overrides)
    return mcf.RunConfig(**base)


def smooth_graph(amplitude=0.05, h=0.1):
    return CylinderGraph.from_profile(
        SPEC1, 20.0, h, lambda z: amplitude * np.exp(-(z**2) / 2.0))


class TestRhs:
    def test_cylinder_is_exact_fixed_point(self):
        g = CylinderGraph.zero(SPEC1, 20.0, 0.05)
        assert np.max(np.abs(mcf.rhs(g))) == 0.0

    def test_cylinder_fixed_point_all_k(self):
        for k in (1, 2, 3):
            g = CylinderGraph.zero(CylinderSpec(k), 20.0, 0.1)
            assert np.max(np.abs(mcf.rhs(g))) == 0.0

    def test_tilt_mode_vanishes_at_center(self):
        # linear profile: second difference and the radial term vanish at z = 0,
        # and the drift term carries a factor z (the grid node sits at z = 0 up
        # to linspace rounding, so the residual is at roundoff scale)
        a = 0.05
        g = CylinderGraph.from_profile(SPEC1, 20.0, 0.1, lambda z: a * z)
        center = int(np.argmin(np.abs(g.z)))
        assert abs(g.z[center]) < 1e-13
        # grid nodes are not exact negatives of each other, and the second
        # difference amplifies that roundoff by 1/h^2
        assert abs(mcf.rhs(g)[center]) < 1e-12

    def test_matches_one_step_difference_quotient(self):
        g = smooth_graph()
        r = mcf.rhs(g)
        errs = []
        for dt in (1e-4, 5e-5):
            nxt = mcf.step(mcf.FlowState(g, 0.0), dt)
            quotient = (nxt.graph.u - g.u) / dt
            errs.append(np.max(np.abs(quotient - r)))
        assert errs[0] < 1e-3
        assert errs[1] < 0.75 * errs[0]  # first-order in dt

    def test_boundary_rows_are_zero(self):
        r = mcf.rhs(smooth_graph())
        assert r[0] == 0.0 and r[-1] == 0.0


class TestStep:
    def test_zero_profile_stays_zero(self):
        state = mcf.FlowState(CylinderGraph.zero(SPEC1, 20.0, 0.1), 0.0)
        for _ in range(100):
            state = mcf.step(state, 1e-3)
        assert np.max(np.abs(state.graph.u)) < 1e-12

    def test_step_doubling_order(self):
        g = smooth_graph()
        state = mcf.FlowState(g, 0.0)
        diffs = []
        for dt in (2e-3, 1e-3):
            one = mcf.step(state, dt).graph.u
            two = mcf.step(mcf.step(state, dt / 2.0), dt / 2.0).graph.u
            diffs.append(np.max(np.abs(one - two)))
        ratio = diffs[0] / diffs[1]
        assert ratio > 4.0  # second-order scheme: halving dt shrinks the gap >= 4x

    def test_area_does_not_increase(self):
        g = smooth_graph(0.02)
        before = graph_F(g).value
        after = graph_F(mcf.step(mcf.FlowState(g, 0.0), 1e-3).graph).value
        assert after <= before + 1e-8

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(InvalidInputError):
            mcf.step(mcf.FlowState(smooth_graph(), 0.0), 0.0)

    def test_replays_evolve_bit_for_bit(self):
        # evolve accepts the two half steps of its step-doubling pair, so
        # replaying them through the public step must give the same bits
        cfg = coarse_config()
        state = cfg.initial_state()
        hist = mcf.evolve(state, t_end=1.0, controls=cfg.controls())
        for dt in hist.diag_dt:
            state = mcf.step(mcf.step(state, dt / 2.0), dt / 2.0)
        assert np.array_equal(state.graph.u, hist.profiles[-1])


class TestEvolve:
    def test_zero_data_constant_area(self):
        cfg = coarse_config(amplitude=0.0, profile_kind="zero", t2=10)
        hist = mcf.evolve(cfg.initial_state(), t_end=10.0, controls=cfg.controls())
        F_cyl = cylinder_F(SPEC1)
        assert np.max(np.abs(hist.mark_F - F_cyl)) <= 1e-8
        assert np.max(hist.mark_max_u) == 0.0
        assert hist.stop_reason == "completed"

    def test_unit_marks_are_consecutive_integers(self):
        cfg = coarse_config(t2=5)
        hist = mcf.evolve(cfg.initial_state(), t_end=5.0, controls=cfg.controls())
        assert np.array_equal(hist.mark_times, np.arange(6.0))

    def test_marks_survive_time_drift(self):
        # 1.6e-4 steps accumulate rounding in t, which ends a few 1e-12 short
        # of t = 9; that step must still land on the mark
        state = mcf.FlowState(CylinderGraph.zero(SPEC1, R_dom=2.0, h=0.05), 8.0)
        hist = mcf.evolve(state, t_end=10.0,
                          controls=mcf.FlowControls(dt_max=1.6e-4, R1=1.5, R2=1.0))
        assert np.array_equal(hist.mark_times, [8.0, 9.0, 10.0])
        assert hist.t_final == 10.0

    def test_small_bump_area_decreases_toward_limit(self):
        cfg = coarse_config(amplitude=0.01, t2=6)
        hist = mcf.evolve(cfg.initial_state(), t_end=6.0, controls=cfg.controls())
        F_cyl = cylinder_F(SPEC1)
        assert np.all(np.diff(hist.mark_F) < 0.0)  # strictly decreasing
        gaps = np.abs(hist.mark_F - F_cyl)
        positive = hist.mark_F - F_cyl > 0
        # while above the cylinder value, the gap itself shrinks
        assert np.all(np.diff(gaps[positive]) < 0.0)

    def test_large_amplitude_trips_stop_condition(self):
        cfg = coarse_config(amplitude=0.3, profile_kind="gauss", t2=8,
                            stop_max_abs_u=0.5)
        hist = mcf.evolve(cfg.initial_state(), t_end=8.0, controls=cfg.controls())
        assert hist.stop_reason == "max_abs_u"
        assert hist.t_final < 8.0

    def test_dist_stop_condition(self):
        cfg = coarse_config(amplitude=0.3, profile_kind="gauss", t2=8)
        controls = cfg.controls()
        controls.stop_max_abs_u = None
        controls.stop_dist = 0.4
        hist = mcf.evolve(cfg.initial_state(), t_end=8.0, controls=controls)
        assert hist.stop_reason == "dist"

    def test_spatial_convergence_order(self):
        vals = {}
        for h in (0.4, 0.2, 0.1):
            cfg = coarse_config(h=h, amplitude=0.05, t2=2, dt_max=5e-4)
            hist = mcf.evolve(cfg.initial_state(), t_end=2.0, controls=cfg.controls())
            vals[h] = hist.mark_F[-1]
        order = math.log2(abs((vals[0.4] - vals[0.1]) / (vals[0.2] - vals[0.1])) - 1.0)
        assert order >= 1.8

    @pytest.mark.parametrize("controls", [mcf.FlowControls(dt_max=0.0), mcf.FlowControls(cfl=0.0)])
    def test_zero_step_cap_rejected(self, controls):
        with pytest.raises(InvalidInputError):
            mcf.evolve(mcf.FlowState(smooth_graph(), 0.0), 2.0, controls)

    def test_non_integer_start_rejected(self):
        with pytest.raises(InvalidInputError):
            mcf.evolve(mcf.FlowState(smooth_graph(), 0.5), 2.0, mcf.FlowControls())

    def test_history_csv(self, tmp_path):
        cfg = coarse_config(t2=3)
        hist = mcf.evolve(cfg.initial_state(), t_end=3.0, controls=cfg.controls())
        path = tmp_path / "history.csv"
        hist.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,F,dist_R1,dist_R2,max_abs_u"


class TestLojasiewiczFit:
    def test_flat_flow_returns_grid_minimum(self):
        cfg = coarse_config(amplitude=0.0, profile_kind="zero", t2=8)
        hist = mcf.evolve(cfg.initial_state(), t_end=8.0, controls=cfg.controls())
        fit = mcf.lojasiewicz_fit(hist, R=6.0, eps=0.5)
        assert fit.tau_fit == 0.05
        assert fit.C_fit == 1.0
        assert np.allclose(fit.residuals, 0.0)

    def test_decaying_run_feasible(self):
        cfg = coarse_config(amplitude=0.005, t2=8)
        hist = mcf.evolve(cfg.initial_state(), t_end=8.0, controls=cfg.controls())
        fit = mcf.lojasiewicz_fit(hist, R=6.0, eps=0.5)
        assert fit.n_windows >= 5
        assert np.min(fit.residuals) >= 0.0

    def test_insufficient_windows(self):
        cfg = coarse_config(t2=3)
        hist = mcf.evolve(cfg.initial_state(), t_end=3.0, controls=cfg.controls())
        with pytest.raises(InsufficientDataError):
            mcf.lojasiewicz_fit(hist, R=6.0, eps=0.5)

    def test_window_admissibility_respects_eps(self):
        cfg = coarse_config(amplitude=0.01, t2=8)
        hist = mcf.evolve(cfg.initial_state(), t_end=8.0, controls=cfg.controls())
        with pytest.raises(InsufficientDataError):
            mcf.lojasiewicz_fit(hist, R=6.0, eps=1e-9)


class TestSplitSignedSeries:
    def test_reproduces_extremal_parts_exactly(self):
        pos_src = sq.extremal_sequence(1.0, 0.5, x1=0.5, n_steps=10)
        neg_src = sq.extremal_sequence(1.0, 0.5, x1=0.3, n_steps=8)
        series = np.concatenate([pos_src.values, -neg_src.values[::-1]])
        pos, neg = mcf.split_signed_series(series)
        assert np.array_equal(pos, pos_src.values)
        assert np.array_equal(neg, neg_src.values)
        # both parts certify against the drop law they were built to saturate
        for part in (pos, neg):
            rep = sq.check_hypothesis(sq.MonotoneSequence(part), C=1.0, tau=0.5)
            assert rep.ok

    def test_concatenated_diffs_reproduce_drops_except_crossing(self):
        pos_src = sq.extremal_sequence(1.0, 0.5, x1=0.5, n_steps=6)
        neg_src = sq.extremal_sequence(1.0, 0.5, x1=0.3, n_steps=5)
        series = np.concatenate([pos_src.values, -neg_src.values[::-1]])
        pos, neg = mcf.split_signed_series(series)
        part_diffs = np.concatenate([-np.diff(pos), -np.diff(neg)])
        all_drops = -np.diff(series)
        crossing = len(pos) - 1  # the one drop straddling the sign change
        kept = np.delete(all_drops, crossing)
        assert np.allclose(np.sort(part_diffs), np.sort(kept), rtol=0, atol=0)

    def test_rejects_increasing_series(self):
        with pytest.raises(InvalidInputError):
            mcf.split_signed_series(np.array([0.1, 0.5]))

    def test_all_positive_and_all_negative(self):
        pos, neg = mcf.split_signed_series(np.array([0.5, 0.4, 0.3]))
        assert neg.size == 0 and pos.size == 3
        pos, neg = mcf.split_signed_series(np.array([-0.1, -0.2]))
        assert pos.size == 0 and np.array_equal(neg, np.array([0.2, 0.1]))


class TestCloseExperiment:
    def test_zero_data_trivial_bound(self):
        cfg = coarse_config(amplitude=0.0, profile_kind="zero", t2=8)
        rep = mcf.close_experiment(cfg)
        assert rep.hypotheses_ok
        assert rep.delta_F1 == pytest.approx(0.0, abs=1e-12)
        assert rep.max_dist_to_ref == 0.0
        assert rep.bound_holds
        assert rep.bound_value == pytest.approx(0.0, abs=1e-9)

    def test_small_bump_certifies(self):
        cfg = coarse_config(amplitude=0.01, t2=9)
        rep = mcf.close_experiment(cfg)
        assert rep.hypotheses_ok
        assert rep.certified
        assert rep.bound_holds
        assert rep.fit is not None and rep.fit.tau_in_range
        assert rep.c is not None and rep.alpha is not None

    def test_amplitude_sweep_trend(self):
        peaks, gaps = [], []
        for amp in (0.02, 0.01, 0.005):
            rep = mcf.close_experiment(coarse_config(amplitude=amp, t2=9))
            assert rep.bound_holds and rep.certified
            peaks.append(rep.max_dist_to_ref)
            gaps.append(abs(rep.delta_F1))
        assert gaps[0] > gaps[1] > gaps[2]
        assert peaks[0] >= peaks[1] >= peaks[2]

    def test_large_amplitude_reports_hypothesis_failure(self):
        cfg = coarse_config(amplitude=0.3, profile_kind="gauss", t2=8,
                            stop_max_abs_u=0.5)
        rep = mcf.close_experiment(cfg)
        assert not rep.hypotheses_ok
        assert not rep.completed
        assert rep.failure_reason is not None
        assert rep.stop_reason == "max_abs_u"

    def test_certifier_violation_uncertifies(self, monkeypatch):
        real = sq.certify_part
        monkeypatch.setattr(sq, "certify_part", lambda values, consts: dataclasses.replace(
            real(values, consts), hypothesis_ok=False))
        rep = mcf.close_experiment(coarse_config(amplitude=0.01, t2=9))
        assert rep.hypotheses_ok and rep.fit is not None
        assert not rep.certified
        assert [p["hypothesis_ok"] for p in rep.parts] == [False, False]

    def test_reuses_precomputed_history(self):
        cfg = coarse_config(amplitude=0.005, t2=9)
        hist = mcf.evolve(cfg.initial_state(), t_end=float(cfg.t2), controls=cfg.controls())
        rep1 = mcf.close_experiment(cfg, hist=hist)
        rep2 = mcf.close_experiment(cfg)
        assert harness.jsonable(rep1) == harness.jsonable(rep2)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            coarse_config(profile_kind="wiggle")
        with pytest.raises(ConfigError):
            coarse_config(t1=5, t2=6)
        with pytest.raises(ConfigError):
            coarse_config(R1=19.99)
        with pytest.raises(ConfigError):
            mcf.RunConfig(t1=0.5, t2=8)  # type: ignore[arg-type]

    def test_profile_kinds_build(self):
        z = np.linspace(-20.0, 20.0, 401)
        rng = np.random.default_rng(0)
        for kind in mcf.PROFILE_KINDS:
            u = mcf.initial_profile(kind, 0.01, z, rng)
            assert u.shape == z.shape
        with pytest.raises(InvalidInputError):
            mcf.initial_profile("nope", 0.01, z, rng)

    def test_balanced_profile_has_no_gaussian_mean(self):
        z = np.linspace(-20.0, 20.0, 4001)
        u = mcf.initial_profile("balanced_gauss", 1.0, z, None)
        weight = np.exp(-(z**2) / 4.0)
        mean = np.trapezoid(u * weight, z) / np.trapezoid(weight, z)
        assert abs(mean) < 1e-12
