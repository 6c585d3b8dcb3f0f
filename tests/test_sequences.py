import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcert import harness
from flowcert import sequences as sq
from flowcert.errors import InvalidInputError, ParameterError


def geometric(n=40):
    return sq.MonotoneSequence(2.0 ** -np.arange(1, n + 1, dtype=float))


class TestMonotoneSequence:
    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            sq.MonotoneSequence(np.array([1.0, 0.0]))
        with pytest.raises(InvalidInputError):
            sq.MonotoneSequence(np.array([0.5, -0.1]))

    def test_rejects_increasing(self):
        with pytest.raises(InvalidInputError):
            sq.MonotoneSequence(np.array([0.5, 0.6]))

    def test_ties_allowed(self):
        s = sq.MonotoneSequence(np.array([0.5, 0.5, 0.4]))
        assert len(s) == 3

    def test_truncated_prefix(self):
        s = geometric(10)
        t = s.truncated(4)
        assert np.array_equal(t.values, s.values[:4])


class TestCheckHypothesis:
    def test_constant_sequence_violates_everywhere(self):
        # zero differences, positive left side
        s = sq.MonotoneSequence(np.full(5, 0.5))
        rep = sq.check_hypothesis(s, C=1.0, tau=0.5)
        assert not rep.ok
        assert rep.first_violation == 1
        assert not rep.per_index_ok.any()
        assert rep.sqrt_diff_sum == 0.0

    def test_geometric_all_pass_and_sum(self):
        rep = sq.check_hypothesis(geometric(40), C=1.0, tau=0.5)
        assert rep.ok
        # closed form: sum_{j=1}^{39} 2^(-(j+1)/2) for the halving sequence
        oracle = 0.5 * (1.0 - 2.0 ** (-39 / 2)) / (1.0 - 2.0 ** -0.5)
        assert rep.sqrt_diff_sum == pytest.approx(oracle, abs=1e-12)
        assert rep.sqrt_diff_sum == pytest.approx(1.70711, abs=1e-5)

    def test_two_point_violation(self):
        s = sq.MonotoneSequence(np.array([1.0, 0.9]))
        rep = sq.check_hypothesis(s, C=1.0, tau=0.5)
        assert rep.first_violation == 1
        assert 0.9**1.5 == pytest.approx(0.85381, abs=1e-5)  # exceeds the drop 0.1

    def test_parameter_validation(self):
        s = geometric(5)
        with pytest.raises(ParameterError):
            sq.check_hypothesis(s, C=0.5, tau=0.5)
        with pytest.raises(ParameterError):
            sq.check_hypothesis(s, C=1.0, tau=0.2)
        with pytest.raises(ParameterError):
            sq.check_hypothesis(s, C=1.0, tau=1.0)

    def test_x1_above_one_rejected(self):
        s = sq.MonotoneSequence(np.array([2.0, 1.0]))
        with pytest.raises(InvalidInputError):
            sq.check_hypothesis(s, C=1.0, tau=0.5)

    def test_json_schema(self):
        rep = sq.check_hypothesis(geometric(5), C=1.0, tau=0.5)
        assert set(harness.jsonable(rep)) == {"C", "tau", "ok", "first_violation",
                                              "sqrt_diff_sum"}


class TestTailSum:
    @pytest.mark.parametrize("C,delta", [(1.0, 1 / 3), (10.0, 0.5), (1.0, 0.02),
                                         (100.0, 2 / 3), (2.0, 0.6)])
    def test_against_hurwitz_zeta(self, C, delta):
        # The Hurwitz zeta value must lie in a rigorous bracket built without
        # zeta: for the decreasing f(x) = (1 + x/a)^(-s), a partial sum of J
        # terms plus integral_{J+1}^inf f <= sum_{j>=1} f(j) <= the same plus
        # integral_J^inf f, where integral_x^inf f = (a/delta) (1 + x/a)^(-delta).
        a, s, J = 12.0 * C, 1.0 + delta, 2**20
        partial = float(np.sum((1.0 + np.arange(1, J + 1, dtype=float) / a) ** (-s)))

        def tail_integral(x):
            return (a / delta) * (1.0 + x / a) ** (-delta)

        value = sq.tail_series_sum(C, delta)
        assert partial + tail_integral(J + 1) <= value <= partial + tail_integral(J)


class TestConstructiveBound:
    def test_delta_exact(self):
        assert sq.constructive_bound(1.0, 0.5).delta == 1.0 / 3.0
        assert sq.constructive_bound(10.0, 0.4).delta == 0.5

    def test_alpha_is_half_tau_delta(self):
        cb = sq.constructive_bound(1.0, 0.5)
        assert cb.alpha == pytest.approx(0.5 * cb.delta * 0.5, abs=0)

    def test_cap_covers_geometric(self):
        cb = sq.constructive_bound(1.0, 0.5)
        rep = sq.check_hypothesis(geometric(40), C=1.0, tau=0.5)
        assert cb.cap(0.5) >= rep.sqrt_diff_sum
        assert cb.cap(0.5) >= 1.70711

    def test_cap_covers_random_admissible(self):
        cb = sq.constructive_bound(10.0, 0.4)
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = sq.random_admissible_sequence(10.0, 0.4, rng, n_steps=50)
            assert s.sqrt_diff_sum() <= cb.cap(float(s.values[0]))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            sq.constructive_bound(0.9, 0.5)
        with pytest.raises(ParameterError):
            sq.constructive_bound(1.0, 1.0)  # delta would be zero


class TestCertifyPart:
    CONSTS = sq.constructive_bound(1.0, 0.5)

    def test_matches_check_hypothesis_and_cap(self):
        seq = geometric()
        rep = sq.check_hypothesis(seq, 1.0, 0.5)
        part = sq.certify_part(seq.values, self.CONSTS)
        assert part == sq.PartCertificate(n=40, x1=0.5, hypothesis_ok=True, first_violation=None,
                                          sqrt_diff_sum=rep.sqrt_diff_sum,
                                          cap=self.CONSTS.cap(0.5), cap_ok=True)

    def test_drops_non_positive_entries_and_irons_noise(self):
        part = sq.certify_part(np.array([0.5, 0.25, 0.2500001, 1e-301, 0.0, -0.3]), self.CONSTS)
        assert part.n == 3 and part.x1 == 0.5
        ironed = sq.check_hypothesis(sq.MonotoneSequence(np.array([0.5, 0.25, 0.25])), 1.0, 0.5)
        assert part.sqrt_diff_sum == ironed.sqrt_diff_sum
        assert part.first_violation == ironed.first_violation == 2

    @pytest.mark.parametrize("values", [[], [0.0, -1.0], [3.0]])
    def test_short_parts_certify_trivially(self, values):
        part = sq.certify_part(np.array(values), self.CONSTS)
        assert part.hypothesis_ok and part.cap_ok and part.sqrt_diff_sum == 0.0
        assert part.n == len([v for v in values if v > 0.0])

    def test_x1_above_one_fails_outside_domain(self):
        part = sq.certify_part(np.array([2.0, 1.0, 0.5]), self.CONSTS)
        assert (part.hypothesis_ok, part.cap, part.cap_ok, part.x1) == (False, 0.0, False, 2.0)


class TestExtremalSequence:
    def test_quadratic_root(self):
        # tau = 1: x2 solves x^2 + x - 1 = 0
        s = sq.extremal_sequence(1.0, 1.0, x1=1.0, n_steps=1)
        assert s.values[1] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)

    @pytest.mark.parametrize("C,tau", [(1.0, 0.5), (3.0, 0.4), (10.0, 0.9)])
    def test_zero_slack_everywhere(self, C, tau):
        s = sq.extremal_sequence(C, tau, x1=1.0, n_steps=200)
        rep = sq.check_hypothesis(s, C, tau)
        assert rep.ok
        lhs = s.values[1:] ** (1.0 + tau)
        rhs = C * s.diffs()
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-10

    def test_iterated_gap_on_generated_data(self):
        # x_j^(-tau) >= x_1^(-tau) + (j - 1)/(12 C) at every 1-based index
        s = sq.extremal_sequence(1.0, 0.5, x1=1.0, n_steps=200)
        x = s.values
        j = np.arange(1, x.size + 1, dtype=float)
        assert np.all(x ** -0.5 >= x[0] ** -0.5 + (j - 1.0) / 12.0)
        assert sq.iterated_gap_margin(s, 1.0, 0.5) > 0.0

    def test_strictly_decreasing(self):
        s = sq.extremal_sequence(2.0, 0.6, x1=0.7, n_steps=50)
        assert np.all(np.diff(s.values) < 0.0)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            sq.extremal_sequence(1.0, 0.5, x1=1.5, n_steps=3)
        with pytest.raises(InvalidInputError):
            sq.extremal_sequence(1.0, 0.5, x1=0.5, n_steps=0)


class TestPowerGap:
    def test_examples(self):
        hyp, gap = sq.check_power_gap(1.0, 0.5, C=1.0, tau=0.5)
        assert (hyp, gap) == (True, True)
        assert 0.5**1.5 == pytest.approx(0.35355, abs=1e-5)
        assert 0.5**-0.5 - 1.0 == pytest.approx(0.41421, abs=1e-5)

        hyp, gap = sq.check_power_gap(1.0, 0.4, C=1.0, tau=0.5)
        assert gap
        assert 0.4**-0.5 - 1.0 == pytest.approx(0.58114, abs=1e-5)

        hyp, _ = sq.check_power_gap(1.0, 0.99, C=1.0, tau=0.5)
        assert not hyp  # 0.99^1.5 ~ 0.98504 > 0.01

    def test_ordering_validation(self):
        for a, b in [(0.5, 0.5), (0.4, 0.5), (1.2, 0.5), (1.0, 0.0)]:
            with pytest.raises(InvalidInputError):
                sq.check_power_gap(a, b, C=1.0, tau=0.5)

    def test_implication_sampled(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(20_000):
            a = 1.0 - rng.random()
            b = a * rng.uniform(0.0, 1.0)
            if not 0.0 < b < a:
                continue
            C = rng.uniform(1.0, 100.0)
            tau = 1.0 / 3.0 + (2.0 / 3.0) * (1.0 - rng.random())
            hyp, gap = sq.check_power_gap(a, b, C, tau)
            if hyp:
                checked += 1
                assert gap
        assert checked > 1000  # the sampler must actually hit the hypothesis


class TestRandomAdmissible:
    def test_passes_hypothesis(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = sq.random_admissible_sequence(1.0, 0.5, rng, n_steps=30)
            assert sq.check_hypothesis(s, 1.0, 0.5).ok

    def test_iterated_gap_on_random_data(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            s = sq.random_admissible_sequence(3.0, 0.7, rng, n_steps=30)
            assert sq.iterated_gap_margin(s, 3.0, 0.7) > 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(2, 40), keep=st.integers(2, 40))
def test_truncation_keeps_admissibility_and_sum_monotone(seed, n_steps, keep):
    rng = np.random.default_rng(seed)
    s = sq.random_admissible_sequence(1.0, 0.5, rng, n_steps=n_steps)
    keep = min(keep, len(s))
    t = s.truncated(keep)
    assert sq.check_hypothesis(t, 1.0, 0.5).ok
    assert t.sqrt_diff_sum() <= s.sqrt_diff_sum() + 1e-15


def test_parse_sequence_text_formats():
    s1 = sq.parse_sequence_text("1.0\n0.5\n0.25\n")
    s2 = sq.parse_sequence_text("[1.0, 0.5, 0.25]")
    assert np.array_equal(s1.values, s2.values)
    with pytest.raises(InvalidInputError):
        sq.parse_sequence_text("")
    with pytest.raises(InvalidInputError):
        sq.parse_sequence_text("[1.0, oops]")
    with pytest.raises(InvalidInputError):
        sq.parse_sequence_text("not a number\n")
