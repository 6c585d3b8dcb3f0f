import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from flowcert import cylinder as cyl
from flowcert.errors import InvalidInputError, PreconditionError

SPEC1 = cyl.CylinderSpec(1)


def bump_graph(amplitude=0.01, R_dom=20.0, h=0.02, spec=SPEC1):
    return cyl.CylinderGraph.from_profile(spec, R_dom, h,
                                          lambda z: amplitude * np.exp(-(z**2)))


def area(g):
    return cyl.graph_F(g.spec, g.z, g.u)


def flat_area(spec, R_dom, h):
    z = cyl.uniform_grid(R_dom, h)
    return cyl.graph_F(spec, z, np.zeros_like(z))


class TestClosedForm:
    def test_reference_values(self):
        assert cyl.CylinderSpec(1).F_value == pytest.approx(
            math.sqrt(2.0 * math.pi) * math.exp(-0.5), abs=1e-12)
        assert cyl.CylinderSpec(2).F_value == pytest.approx(4.0 / math.e, abs=1e-12)
        assert cyl.CylinderSpec(1).F_value == pytest.approx(1.52035, abs=1e-5)
        assert cyl.CylinderSpec(2).F_value == pytest.approx(1.47152, abs=1e-5)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_against_independent_quadrature(self, k):
        # axial integral of the flat profile done by scipy on the whole line
        spec = cyl.CylinderSpec(k)
        val, _ = quad(lambda z: (2 * k) ** (k / 2) * math.exp(-(2 * k + z * z) / 4.0),
                      -np.inf, np.inf)
        oracle = (4 * math.pi) ** (-(k + 1) / 2) * cyl.sphere_area(k) * val
        assert spec.F_value == pytest.approx(oracle, abs=1e-10)

    def test_sphere_area(self):
        assert cyl.sphere_area(1) == pytest.approx(2.0 * math.pi, abs=1e-14)
        assert cyl.sphere_area(2) == pytest.approx(4.0 * math.pi, abs=1e-14)


class TestGraphArea:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_profile_matches_closed_form(self, k):
        spec = cyl.CylinderSpec(k)
        assert flat_area(spec, R_dom=20.0, h=0.02) == pytest.approx(spec.F_value, abs=1e-8)

    def test_short_domain_adds_the_flat_tail(self):
        # on [-3, 3] the tail beyond the grid is 0.0515 of F = 1.5203
        assert flat_area(SPEC1, R_dom=3.0, h=0.01) == pytest.approx(SPEC1.F_value, abs=1e-5)

    def test_k1_fine_grid(self):
        F = flat_area(SPEC1, R_dom=20.0, h=0.01)
        assert F == pytest.approx(1.52035, abs=1e-5)
        assert F == pytest.approx(
            math.sqrt(2 * math.pi) * math.exp(-0.5), abs=1e-6)

    def test_refinement_stability_on_zero(self):
        a = flat_area(SPEC1, 20.0, 0.02)
        b = flat_area(SPEC1, 20.0, 0.01)
        assert abs(a - b) < 1e-8

    def test_small_bump_raises_area_only_slightly(self):
        g = bump_graph(0.01, h=0.02)
        F_bump = area(g)
        assert F_bump > SPEC1.F_value - 1e-3
        g2 = bump_graph(0.01, h=0.01)
        assert area(g2) == pytest.approx(F_bump, abs=1e-6)

    def test_quadrature_order_at_least_1p9(self):
        # the O(h^2) error comes from the finite-difference slope of the data
        def area_at(h):
            g = cyl.CylinderGraph.from_profile(SPEC1, 20.0, h,
                                               lambda z: 0.2 * np.exp(-(z**2) / 2.0))
            return area(g)

        e1 = area_at(0.4) - area_at(0.1)
        e2 = area_at(0.2) - area_at(0.1)
        order = math.log2(abs(e1 / e2) - 1.0)  # Richardson with shared fine reference
        assert order >= 1.9

    def test_reflection_invariance(self):
        g = cyl.CylinderGraph.from_profile(
            SPEC1, 20.0, 0.02, lambda z: 0.05 * np.exp(-((z - 1.5) ** 2)))
        assert cyl.graph_F(SPEC1, g.z, g.u[::-1]) == pytest.approx(area(g), abs=1e-13)

    def test_geometry_error(self):
        with pytest.raises(PreconditionError):
            cyl.CylinderGraph.from_profile(SPEC1, 20.0, 0.1,
                                           lambda z: -2.0 * np.exp(-(z**2)))

    def test_row_reaching_r_zero_is_refused(self):
        # one row of a stack with r <= 0 refuses the whole stack
        z = cyl.uniform_grid(20.0, 0.1)
        rows = np.stack([np.zeros_like(z), -2.0 * np.exp(-(z**2))])
        with pytest.raises(PreconditionError, match="r <= 0"):
            cyl.graph_F(SPEC1, z, rows)


class TestRowStacks:
    """Each measure reduces over the last axis: a (3, N) stack of profiles on
    one grid gives the bits of three single-row calls, and a single row gives
    an np.float64."""

    @pytest.fixture
    def rows(self):
        z = cyl.uniform_grid(20.0, 0.05)
        u = np.array([a * np.exp(-((z - c) ** 2)) for a, c in [(0.01, 0.0), (-0.03, 1.5), (0.05, -2.0)]])
        u[:, [0, -1]] = 0.0
        return z, u

    @pytest.mark.parametrize("center, scale", [(0.0, 1.0), (0.3, 1.05)])
    def test_graph_F(self, rows, center, scale):
        z, u = rows
        single = [cyl.graph_F(SPEC1, z, row, center=center, scale=scale) for row in u]
        assert all(type(v) is np.float64 for v in single)
        stacked = cyl.graph_F(SPEC1, z, u, center=center, scale=scale)
        assert stacked.shape == (3,) and stacked.tobytes() == np.array(single).tobytes()

    def test_dist_R(self, rows):
        z, u = rows
        single = [cyl.dist_R(z, row, 5.0) for row in u]
        assert all(type(v) is np.float64 for v in single)
        stacked = cyl.dist_R(z, u, 5.0)
        assert stacked.shape == (3,) and stacked.tobytes() == np.array(single).tobytes()

    def test_graph_distance_broadcasts_one_row_against_a_stack(self, rows):
        z, u = rows
        single = [cyl.graph_distance(z, row, u[0], 5.0) for row in u]
        assert all(type(v) is np.float64 for v in single) and single[0] == 0.0
        for reference in (u[0], u[:1]):
            stacked = cyl.graph_distance(z, u, reference, 5.0)
            assert stacked.shape == (3,) and stacked.tobytes() == np.array(single).tobytes()


class TestDistance:
    def test_zero_profile(self):
        z = cyl.uniform_grid(20.0, 0.05)
        assert cyl.dist_R(z, np.zeros_like(z), R=10.0) == 0.0

    @pytest.mark.parametrize("freq, ratio", [(0.5, 1.0), (1.0, 1.0), (2.0, 4.0)],
                             ids=["C0-sets-it", "all-equal", "C2-sets-it"])
    def test_cosine_profile(self, freq, ratio):
        # a cos(freq z) has sup|u| = a, sup|u_z| = a freq, sup|u_zz| = a freq^2
        a = 0.05
        g = cyl.CylinderGraph.from_profile(SPEC1, 20.0, 0.01, lambda z: a * np.cos(freq * z))
        assert cyl.dist_R(g.z, g.u, R=10.0) == pytest.approx(ratio * a, rel=1e-3)

    def test_monotone_in_R(self):
        g = bump_graph(0.03, h=0.05)
        prev = 0.0
        for R in (2.0, 5.0, 10.0, 15.0):
            d = cyl.dist_R(g.z, g.u, R)
            assert d >= prev
            prev = d

    @settings(max_examples=40, deadline=None)
    @given(exponent=st.integers(-6, 6))
    def test_linearity_exact_for_binary_scales(self, exponent):
        a = 2.0**exponent
        g = bump_graph(0.01, h=0.1)
        assert cyl.dist_R(g.z, a * g.u, 8.0) == a * cyl.dist_R(g.z, g.u, 8.0)

    def test_linearity_general_scale(self):
        g = bump_graph(0.01, h=0.1)
        assert cyl.dist_R(g.z, 0.3 * g.u, 8.0) == pytest.approx(0.3 * cyl.dist_R(g.z, g.u, 8.0),
                                                                rel=1e-14)

    def test_radius_precondition(self):
        g = bump_graph(0.01, h=0.1)
        with pytest.raises(PreconditionError):
            cyl.dist_R(g.z, g.u, R=19.95)
        with pytest.raises(PreconditionError):
            cyl.dist_R(g.z, g.u, R=-1.0)

    def test_window_without_grid_point(self):
        # 14 nodes on [-20, 20] put the two nearest the origin at +-1.54
        z = cyl.uniform_grid(20.0, 3.0)
        with pytest.raises(PreconditionError):
            cyl.dist_R(z, np.zeros_like(z), R=1.0)
        assert cyl.dist_R(z, np.zeros_like(z), R=1.6) == 0.0

    def test_graph_distance_is_difference_norm(self):
        g1 = bump_graph(0.02, h=0.05)
        g2 = bump_graph(0.005, h=0.05)
        assert cyl.graph_distance(g1.z, g1.u, g2.u, R=8.0) == cyl.dist_R(g1.z, g1.u - g2.u, R=8.0)


class TestEntropyEstimate:
    def test_identity_grid_returns_graph_area(self):
        g = cyl.CylinderGraph.zero(SPEC1, 20.0, 0.02)
        est = cyl.estimate_entropy(g, centers=[0.0], scales=[1.0])
        assert est == pytest.approx(area(g), abs=1e-14)

    def test_flat_cylinder_peaks_at_identity(self):
        g = cyl.CylinderGraph.zero(SPEC1, 20.0, 0.02)
        est = cyl.estimate_entropy(g, centers=np.linspace(-1, 1, 5),
                                   scales=np.linspace(0.9, 1.1, 5))
        F_cyl = SPEC1.F_value
        assert est >= F_cyl - 1e-9
        assert est <= F_cyl + 1e-9

    def test_lower_bounds_graph_area_when_identity_included(self):
        g = bump_graph(0.05, h=0.05)
        est = cyl.estimate_entropy(g, centers=[-0.5, 0.0, 0.5], scales=[0.95, 1.0, 1.05])
        assert est >= area(g) - 1e-14

    def test_rejects_bad_scales(self):
        # a non-finite centre or scale, or an empty grid of either, is
        # refused, not turned into a bound of -inf or skipped
        g = bump_graph()
        for centers, scales in [([0.0], [0.0]), ([0.0], [math.nan]), ([0.0], [math.inf]),
                                ([math.nan], [1.0]), ([0.0, math.nan], [1.0]),
                                ([], [1.0]), ([0.0], []), ([], [])]:
            with pytest.raises(InvalidInputError):
                cyl.estimate_entropy(g, centers=centers, scales=scales)

    @pytest.mark.parametrize("centers, scales", [([[0.0, 1.0]], [1.0]), ([0.0], [[1.0]]),
                                                 ([[0.0], [1.0]], [[1.0, 2.0]])])
    def test_rejects_grids_of_more_than_one_axis(self, centers, scales):
        # a nested list is refused as a usage error, not a TypeError from float()
        with pytest.raises(InvalidInputError, match="1-d"):
            cyl.estimate_entropy(cyl.CylinderGraph.zero(SPEC1, 20.0, 0.1), centers, scales)

    @pytest.mark.parametrize("centers, scales", [(["a"], [1.0]), ([0.0], ["a"]),
                                                 ([[0.0], [1.0, 2.0]], [1.0]),
                                                 ([0.0], [[1.0], [1.0, 2.0]])],
                             ids=["string-center", "string-scale", "ragged-centers",
                                  "ragged-scales"])
    def test_rejects_non_numeric_and_ragged_grids(self, centers, scales):
        # refused as a usage error (exit 64), not numpy's bare ValueError
        with pytest.raises(InvalidInputError, match="lists of numbers") as info:
            cyl.estimate_entropy(cyl.CylinderGraph.zero(SPEC1, 20.0, 0.1), centers, scales)
        assert info.value.exit_code == 64


def test_profile_csv_roundtrip(tmp_path):
    g = bump_graph(0.02, h=0.25)
    path = tmp_path / "profile.csv"
    cyl.profile_to_csv(g.z, g.u, path)
    back = cyl.profile_from_csv(SPEC1, path)
    assert np.array_equal(back.z, g.z)
    assert np.array_equal(back.u, g.u)


@pytest.mark.parametrize("text, line", [
    ("z,u\n0,0\n0,1,2\n", 3),
    ("z,u\n0,abc\n", 2),
    ("z,u\n0,0\n0.1,0\n0\n", 4),
    ("z,u\n", 2),
], ids=["three-values", "not-a-number", "one-value", "no-rows"])
def test_profile_csv_refuses_malformed_rows(tmp_path, text, line):
    path = tmp_path / "profile.csv"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}, line {line}: ")):
        cyl.profile_from_csv(SPEC1, path)


@pytest.mark.parametrize("text, error", [
    ("z,u\n-1,0\n0,0\n1,0\n", InvalidInputError),
    ("z,u\n0,0\n0.1,0\n0.3,0\n0.4,0\n0.5,0\n", InvalidInputError),
    ("z,u\n0,0\n0.1,nan\n0.2,0\n0.3,0\n0.4,0\n", InvalidInputError),
    ("z,u\n0,0\n0.1,-2\n0.2,0\n0.3,0\n0.4,0\n", PreconditionError),
], ids=["three-rows", "non-uniform", "non-finite", "r-below-zero"])
def test_profile_csv_refusal_of_its_grid_names_the_file(tmp_path, text, error):
    # well-formed rows that no graph can hold keep their class and exit
    # code, and the message starts with the file
    path = tmp_path / "profile.csv"
    path.write_text(text)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: ") as exc:
        cyl.profile_from_csv(SPEC1, path)
    assert type(exc.value) is error


def test_write_csv_cells_are_float_reprs_with_crlf(tmp_path):
    path = tmp_path / "cols.csv"
    cyl.write_csv(path, ["a", "b"], [np.array([0.1, 2.0]), [np.float64(1e-300), 3]])
    assert path.read_bytes() == b"a,b\r\n0.1,1e-300\r\n2.0,3.0\r\n"


def test_write_csv_integer_columns_stay_integers(tmp_path):
    path = tmp_path / "cols.csv"
    cyl.write_csv(path, ["t", "stages"], [np.array([0.5, 1.0]), np.array([3, 12])])
    assert path.read_bytes() == b"t,stages\r\n0.5,3\r\n1.0,12\r\n"


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        cyl.CylinderGraph(SPEC1, np.array([0.0, 0.1, 0.3, 0.4, 0.5]), np.zeros(5))
    with pytest.raises(InvalidInputError):
        cyl.CylinderGraph(SPEC1, np.linspace(-1, 1, 9), np.zeros(5))
