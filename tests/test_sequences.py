import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from flowcert import acceptance, harness
from flowcert import sequences as sq
from flowcert.errors import InvalidInputError, NumericError

EPS = np.finfo(float).eps


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


class TestCheckHypothesis:
    def test_constant_sequence_violates_everywhere(self):
        # zero differences, positive left side
        s = sq.MonotoneSequence(np.full(5, 0.5))
        rep = sq.check_hypothesis(s, C=1.0, tau=0.5)
        assert not rep.ok
        assert rep.first_violation == 1
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
        with pytest.raises(InvalidInputError):
            sq.check_hypothesis(s, C=0.5, tau=0.5)
        with pytest.raises(InvalidInputError):
            sq.check_hypothesis(s, C=1.0, tau=0.2)
        with pytest.raises(InvalidInputError):
            sq.check_hypothesis(s, C=1.0, tau=1.0)

    def test_x1_above_one_rejected(self):
        s = sq.MonotoneSequence(np.array([2.0, 1.0]))
        with pytest.raises(InvalidInputError):
            sq.check_hypothesis(s, C=1.0, tau=0.5)

    def test_long_extremal_chain_passes(self):
        # from step 21,528 on the rounding of the stored successor outgrows the
        # relative slack alone; the ulp slack keeps the saturating chain valid
        rep = sq.check_hypothesis(sq.extremal_sequence(1.0, 0.5, 1.0, 30_000), C=1.0, tau=0.5)
        assert rep.ok

    def test_late_drop_shrunk_by_1e9_still_fails(self):
        x = sq.extremal_sequence(1.0, 0.5, 1.0, 30_000).values.copy()
        j = 29_000  # 1-based step: x_j -> x_{j+1}
        x[j] = x[j - 1] - (x[j - 1] - x[j]) * (1.0 - 1e-9)
        rep = sq.check_hypothesis(sq.MonotoneSequence(x), C=1.0, tau=0.5)
        assert rep.first_violation == j

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
            assert sq.check_hypothesis(s, 10.0, 0.4).sqrt_diff_sum <= cb.cap(float(s.values[0]))

    @pytest.mark.parametrize("C,tau", [(1.0, 0.5), (10.0, 0.4)])
    def test_endpoint_bound_is_the_two_caps_bit_for_bit(self, C, tau):
        cb = sq.constructive_bound(C, tau)
        gaps = [(0.3, 1e-5), (-0.3, 1e-5), (0.3, -2e-3), (-1e-9, -0.7), (0.0, -0.25), (0.0, 0.0)]
        gaps += [tuple(pair) for pair in np.random.default_rng(5).uniform(-1.0, 1.0, (50, 2))]
        for dF1, dF2 in gaps:
            want = cb.cap(abs(dF1)) + cb.cap(abs(dF2))
            assert cb.endpoint_bound(dF1, dF2).hex() == want.hex()

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            sq.constructive_bound(0.9, 0.5)
        with pytest.raises(InvalidInputError):
            sq.constructive_bound(1.0, 1.0)  # delta would be zero

    @pytest.mark.parametrize("tau", [0.5, 0.9, 0.999])
    def test_overflowing_constant_is_refused(self, tau):
        # at C = 1e300 the tail sum overflows (tau 0.5, 0.9) or c does
        # (tau 0.999, where the tail is still finite); C = 1e150 stays finite
        with pytest.raises(InvalidInputError, match="the constant c overflows"):
            sq.constructive_bound(1e300, tau)
        consts = sq.constructive_bound(1e150, tau)
        assert math.isfinite(consts.c) and consts.c > 1e75


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

    def test_x1_within_rel_tol_above_one_is_in_domain(self):
        # the domain check_hypothesis allows: x1 up to 1 + REL_TOL
        values = np.array([1.0 + 0.5 * sq.REL_TOL, 0.5, 0.25])
        rep = sq.check_hypothesis(sq.MonotoneSequence(values), 1.0, 0.5)
        part = sq.certify_part(values, self.CONSTS)
        assert part == sq.PartCertificate(n=3, x1=values[0], hypothesis_ok=True,
                                          first_violation=None, sqrt_diff_sum=rep.sqrt_diff_sum,
                                          cap=self.CONSTS.cap(values[0]), cap_ok=True)
        assert not sq.certify_part(np.array([1.0 + 2.0 * sq.REL_TOL, 0.5]), self.CONSTS).cap_ok

    @staticmethod
    def validated_part(values, consts):
        """The per-part certificate through the validating public path:
        MonotoneSequence and check_hypothesis on the filtered, ironed part."""
        vals = np.asarray(values, dtype=float)
        vals = np.minimum.accumulate(vals[vals > sq.POSITIVE_FLOOR])
        n = int(vals.size)
        x1 = float(vals[0]) if n else 0.0
        if n < 2:
            return sq.PartCertificate(n, x1, True, None, 0.0, 0.0, True)
        if x1 > 1.0 + sq.REL_TOL:
            return sq.PartCertificate(n, x1, False, None, 0.0, 0.0, False)
        rep = sq.check_hypothesis(sq.MonotoneSequence(vals), consts.C, consts.tau)
        cap = consts.cap(x1)
        return sq.PartCertificate(n, x1, rep.ok, rep.first_violation, rep.sqrt_diff_sum,
                                  cap, rep.sqrt_diff_sum <= cap + 1e-12)

    @pytest.mark.parametrize("C,tau", [(1.0, 0.5), (3.0, 0.4), (10.0, 0.9)])
    def test_equals_the_validated_path(self, C, tau):
        consts = sq.constructive_bound(C, tau)
        rng = np.random.default_rng(17)
        parts = list(sq.random_admissible_batch(C, tau, rng, n_seq=40, n_steps=60))
        parts += [sq.extremal_chain(C, tau, n_steps=n).values for n in (1, 2, 50, 3000)]
        parts += [sq.extremal_sequence(C, tau, x1, 40).values for x1 in (1e-6, 0.3)]
        for _ in range(40):  # admissible steps mixed with violating and noisy ones
            x = sq.random_admissible_batch(C, tau, rng, n_seq=1, n_steps=30)[0]
            kind = rng.choice(3, size=x.size, p=[0.85, 0.1, 0.05])
            x = np.where(kind == 1, x * (1.0 + rng.uniform(-1e-9, 1e-9, x.size)), x)
            x = np.where(kind == 2, np.roll(x, 1) * 0.999, x)
            parts.append(x)
        nan, inf = float("nan"), float("inf")
        parts += [[0.5, nan, 0.25, 0.2], [nan, nan], [inf, 0.5, 0.2], [0.5, inf, 0.2],
                  [1.5, 0.5, 0.2], [1.0 + 1e-13, 0.5], [0.5, 0.5000001, 0.25, 0.2500002],
                  [], [0.4], [0.4, -inf], [1e-301, 1e-302], [1.0, 0.0, 0.5], 0.3,
                  [[0.5, 0.25], [0.2, 0.1]]]
        for values in parts:
            assert sq.certify_part(values, consts) == self.validated_part(values, consts), values

    @staticmethod
    def block_rows(C, tau, n, rng):
        """Rows of length n, one of each kind: admissible, equality-saturating,
        with an entry at or below POSITIVE_FLOOR, with a NaN, with
        sub-tolerance rises, with zero drops, and with x1 just inside and just
        outside 1 + REL_TOL and far outside it."""
        if n == 0:
            return [np.empty(0)] * 3
        clean = sq.random_admissible_batch(C, tau, rng, n_seq=3, n_steps=max(n - 1, 1))[:, :n]
        chain = sq.extremal_chain(C, tau, n_steps=max(n - 1, 1)).values[:n]
        rows = [*clean, chain]
        for fill in (1e-301, 0.0, -0.5, float("nan")):
            row = clean[0].copy()
            row[rng.integers(n)] = fill
            rows.append(row)
        rows.append(clean[1] * (1.0 + rng.uniform(-1e-9, 1e-9, n)))
        rows.append(np.repeat(clean[2][::2], 2)[:n])  # every other drop zero
        for x1 in (1.0 + 0.5 * sq.REL_TOL, 1.0 + 2.0 * sq.REL_TOL, 1.5, float("inf")):
            rows.append(np.concatenate(([x1], chain[1:])))
        return rows

    @pytest.mark.parametrize("C,tau", [(1.0, 0.5), (3.0, 0.4), (10.0, 0.9)])
    def test_a_block_certifies_each_row_as_its_part(self, C, tau):
        """certify_parts on a block equals validated_part on each row, field for
        field, with plain Python fields, whether the block is clean (no drop,
        no running minimum), has rises, has rows of every kind but the dropped
        entries, or has rows of every kind."""
        consts = sq.constructive_bound(C, tau)
        rng = np.random.default_rng(31)
        for n in (0, 1, 2, 3, 60, 3000):
            rows = self.block_rows(C, tau, n, rng)
            for block in (rows[:3], rows[:3] + rows[8:9], rows[:4] + rows[8:], rows):
                block = np.array(block)
                parts = sq.certify_parts(block, consts)
                assert parts == [self.validated_part(row, consts) for row in block], n
                for part in parts:
                    assert type(part.n) is int and type(part.x1) is float
                    assert type(part.hypothesis_ok) is bool and type(part.cap_ok) is bool
                    assert type(part.first_violation) in (int, type(None))
                    assert type(part.sqrt_diff_sum) is float and type(part.cap) is float

    @pytest.mark.parametrize("values", [[1.0, float("nan")], [0.5, 0.6], [0.5, -0.1], [2.0, 1.0]])
    def test_malformed_parts_report_instead_of_raising(self, values):
        part = sq.certify_part(np.array(values), self.CONSTS)
        assert part == self.validated_part(values, self.CONSTS)


BAD_PARAMS = [
    (0.5, 0.5, "need C >= 1, got C=0.5"),
    (float("nan"), 0.5, "need C >= 1, got C=nan"),
    (float("inf"), 0.5, "need C >= 1, got C=inf"),
    (-1, 0.5, "need C >= 1, got C=-1"),
    (np.float32(0.5), 0.5, "need C >= 1, got C=0.5"),
    (np.array([1.0, 0.5]), 0.5, "need C >= 1, got C=[1.  0.5]"),
    (1.0, 0.2, "need tau in (1/3, 1.0), got tau=0.2"),
    (1.0, 1.0 / 3.0, "need tau in (1/3, 1.0), got tau=0.3333333333333333"),
    (1.0, 1.0, "need tau in (1/3, 1.0), got tau=1.0"),
    (1.0, float("nan"), "need tau in (1/3, 1.0), got tau=nan"),
    (1.0, float("inf"), "need tau in (1/3, 1.0), got tau=inf"),
    (1.0, np.array(0.2), "need tau in (1/3, 1.0), got tau=0.2"),
    (1.0, np.array([0.5, 1.0]), "need tau in (1/3, 1.0), got tau=[0.5 1. ]"),
]


class TestParameterErrors:
    @pytest.mark.parametrize("C,tau,message", BAD_PARAMS)
    def test_same_error_and_message(self, C, tau, message):
        with pytest.raises(InvalidInputError) as exc:
            sq.check_hypothesis(geometric(5), C, tau)
        assert str(exc.value) == message
        with pytest.raises(InvalidInputError) as exc:
            sq.constructive_bound(C, tau)
        assert str(exc.value) == message

    @pytest.mark.parametrize("tau,message", [
        (0.2, "need tau in (1/3, 1.0], got tau=0.2"),
        (1.5, "need tau in (1/3, 1.0], got tau=1.5"),
        (float("nan"), "need tau in (1/3, 1.0], got tau=nan"),
    ])
    def test_inclusive_tau_message(self, tau, message):
        with pytest.raises(InvalidInputError) as exc:
            sq.extremal_sequence(1.0, tau, 1.0, 3)
        assert str(exc.value) == message
        sq.extremal_sequence(1.0, 1.0, 1.0, 3)  # tau = 1 is admissible here

    @pytest.mark.parametrize("value", [1.0, 0.99, 1e300, float("nan"), float("inf"),
                                       -float("inf"), 1, 0, True, 0.4, 1.0 / 3.0])
    def test_scalars_and_arrays_agree(self, value):
        def verdicts(C, tau):
            try:
                sq._require_params(C, tau)
                strict = True
            except InvalidInputError:
                strict = False
            try:
                sq._require_params(C, tau, inclusive=True)
                inclusive = True
            except InvalidInputError:
                inclusive = False
            return strict, inclusive

        assert verdicts(value, 0.5) == verdicts(np.array([value]), 0.5)
        assert verdicts(1.0, value) == verdicts(1.0, np.array([value]))

    @pytest.mark.parametrize("values,message", [
        ([2.0, 1.0], "certificate input needs x_1 <= 1, got x_1=2.0"),
        ([1.0, float("nan")], "sequence contains non-finite entries"),
        ([0.5, 0.6], "sequence must be non-increasing"),
        ([], "sequence must be a non-empty 1-d array"),
        ([0.5, 0.0], "sequence entries must be strictly positive"),
    ])
    def test_bad_sequences(self, values, message):
        with pytest.raises(InvalidInputError) as exc:
            sq.check_hypothesis(sq.MonotoneSequence(np.array(values)), 1.0, 0.5)
        assert str(exc.value) == message


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
        rhs = C * (s.values[:-1] - s.values[1:])
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

    def test_shared_chain_prefixes_keep_fresh_bits(self):
        C, tau = 3.0, 0.45
        sq._chain_store.cache_clear()
        short = sq.extremal_chain(C, tau, n_steps=50)
        long = sq.extremal_chain(C, tau, n_steps=300)  # extends the stored 50 steps
        again = sq.extremal_chain(C, tau, n_steps=120)
        fresh = sq.extremal_sequence(C, tau, x1=1.0, n_steps=300).values
        assert np.array_equal(short.values, fresh[:51])
        assert np.array_equal(long.values, fresh)
        assert np.array_equal(again.values, fresh[:121])
        for seq in (short, long, again):
            with pytest.raises(ValueError):
                seq.values[0] = 0.5
        with pytest.raises(InvalidInputError):
            sq.extremal_chain(C, tau, n_steps=0)


def brentq_root(x, C, tau):
    """Oracle: the zero-slack root by bracketing on [0, x]."""
    return brentq(lambda t: t ** (1.0 + tau) + C * t - C * x, 0.0, x,
                  xtol=1e-300, rtol=4 * EPS, maxiter=200)


class TestExtremalStep:
    XS = (1e-300, 1e-12, 1e-3, 0.5, 1.0)

    @pytest.mark.parametrize("C", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("tau", [0.34, 0.5, 0.9, 1.0])
    def test_newton_matches_brentq_oracle(self, C, tau):
        for x in self.XS:
            t = sq.extremal_step(x, C, tau)
            oracle = brentq_root(x, C, tau)
            assert abs(t - oracle) <= 8 * EPS * oracle, x
            residual = abs(math.fsum([t ** (1.0 + tau), C * t, -C * x]))
            assert residual <= 8 * EPS * C * x, x

    @pytest.mark.parametrize("C", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("tau", [0.34, 0.5, 0.9, 1.0])
    def test_array_path_matches_float_path(self, C, tau):
        # a batch against one call per entry: SIMD pow may differ by an ulp
        roots = sq.extremal_step(np.array(self.XS), C, tau)
        np.testing.assert_array_max_ulp(
            roots, np.array([sq.extremal_step(x, C, tau) for x in self.XS]), maxulp=2)

    @pytest.mark.parametrize("x", [0.0, -0.5, math.nan, np.array([0.5, 0.0]),
                                   np.array([-1e-3, 0.2])])
    def test_nonpositive_x_rejected(self, x):
        with pytest.raises(InvalidInputError):
            sq.extremal_step(x, 1.0, 0.5)

    @pytest.mark.parametrize("C, tau", [*acceptance.CELLS, (1.0, 2.0 / 3.0)])
    def test_sequence_is_iterated_scalar_steps(self, C, tau):
        # chains iterate in Python floats, the root solve in numpy: same bits
        steps = [1.0]
        for _ in range(2000):
            steps.append(sq.extremal_step(steps[-1], C, tau))
        chain = sq.extremal_sequence(C, tau, 1.0, 2000).values
        assert np.array_equal(chain.view(np.uint64), np.array(steps).view(np.uint64))

    def test_nan_never_settles(self):
        # no NaN iterate stops Newton: the step cap turns it into NumericError
        with pytest.raises(NumericError):
            next(sq._successors(math.nan, 1.0, 0.5))
        with pytest.raises(NumericError):
            sq.extremal_step(0.5, math.nan, 0.5)
        with pytest.raises(NumericError):
            sq.extremal_step(np.array([0.5]), math.nan, 0.5)

    def test_unsettled_iteration_raises(self):
        # far outside the certificate's x <= 1, Newton from t = x shrinks t by
        # about a third per step, so it exhausts its step cap
        with pytest.raises(NumericError):
            sq.extremal_step(1e100, 1.0, 0.5)
        with pytest.raises(NumericError):
            sq.extremal_step(np.array([0.5, 1e100]), 1.0, 0.5)


def reference_sequence(C, tau, rng, n_steps):
    """The per-sequence generator loop the batch replaced: a brentq root, then a
    uniform draw on (0, root], stopping at an underflow."""
    vals = [1.0 - rng.random()]
    for _ in range(n_steps):
        nxt = (1.0 - rng.random()) * brentq_root(vals[-1], C, tau)
        if nxt <= 0.0:
            break
        vals.append(nxt)
    return np.array(vals)


class TestRandomAdmissibleBatch:
    @pytest.mark.parametrize("seed", [3, 29])
    @pytest.mark.parametrize("C, tau", [(1.0, 0.5), (10.0, 0.9)])
    def test_matches_per_sequence_loop(self, seed, C, tau):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = sq.random_admissible_batch(C, tau, rng, n_seq=50, n_steps=40)
        ref = np.array([reference_sequence(C, tau, ref_rng, 40) for _ in range(50)])
        assert batch.shape == (50, 41)
        np.testing.assert_allclose(batch, ref, rtol=1e-13, atol=0.0)
        assert rng.random() == ref_rng.random()  # the stream stays in sync
        for row in batch:
            assert sq.check_hypothesis(sq.MonotoneSequence(row), C, tau).ok

    def test_underflow_ends_the_row(self):
        class SmallestDraws:  # every uniform draw on (0, 1] at its minimum 2^-53
            def random(self, shape):
                return np.full(shape, 1.0 - 2.0**-53)

        batch = sq.random_admissible_batch(1.0, 0.5, SmallestDraws(), n_seq=2, n_steps=30)
        live = np.count_nonzero(batch[0])
        assert 1 < live < 31
        assert np.all(batch[:, :live] > 0.0) and np.all(batch[:, live:] == 0.0)
        seq = sq.random_admissible_sequence(1.0, 0.5, SmallestDraws(), n_steps=30)
        assert np.array_equal(seq.values, batch[0, :live])
        assert sq.check_hypothesis(seq, 1.0, 0.5).ok

    def test_argument_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            sq.random_admissible_batch(1.0, 0.5, rng, n_seq=0, n_steps=5)
        with pytest.raises(InvalidInputError):
            sq.random_admissible_batch(1.0, 0.5, rng, n_seq=3, n_steps=0)
        with pytest.raises(InvalidInputError):
            sq.random_admissible_batch(0.5, 0.5, rng, n_seq=3, n_steps=5)


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
    t = sq.MonotoneSequence(s.values[:keep])
    rep = sq.check_hypothesis(t, 1.0, 0.5)
    assert rep.ok
    assert rep.sqrt_diff_sum <= sq.check_hypothesis(s, 1.0, 0.5).sqrt_diff_sum + 1e-15


def test_parse_sequence_text_formats():
    s1 = sq.parse_sequence_text("1.0\n0.5\n0.25\n")
    s2 = sq.parse_sequence_text("[1.0, 0.5, 0.25]")
    assert np.array_equal(s1.values, s2.values)
    with pytest.raises(InvalidInputError):
        sq.parse_sequence_text("")
    with pytest.raises(InvalidInputError):
        sq.parse_sequence_text("[1.0, oops]")
    assert np.array_equal(sq.parse_sequence_text("[1, 0.5]").values, [1.0, 0.5])  # JSON ints
    # entries numpy would read as numbers (strings, true) or as NaN (null)
    for text in ('["0.5", "0.25"]', "[true, 0.5]", "[null]"):
        with pytest.raises(InvalidInputError, match="JSON input must be an array of numbers"):
            sq.parse_sequence_text(text)
    with pytest.raises(InvalidInputError):
        sq.parse_sequence_text("not a number\n")
