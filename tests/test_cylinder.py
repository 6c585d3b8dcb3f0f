import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from flowcert import cylinder as cyl
from flowcert import harness
from flowcert.errors import GeometryError, InvalidInputError, PreconditionError

SPEC1 = cyl.CylinderSpec(1)


def bump_graph(amplitude=0.01, R_dom=20.0, h=0.02, spec=SPEC1):
    return cyl.CylinderGraph.from_profile(spec, R_dom, h,
                                          lambda z: amplitude * np.exp(-(z**2)))


class TestClosedForm:
    def test_reference_values(self):
        assert cyl.cylinder_F(cyl.CylinderSpec(1)) == pytest.approx(
            math.sqrt(2.0 * math.pi) * math.exp(-0.5), abs=1e-12)
        assert cyl.cylinder_F(cyl.CylinderSpec(2)) == pytest.approx(4.0 / math.e, abs=1e-12)
        assert cyl.cylinder_F(cyl.CylinderSpec(1)) == pytest.approx(1.52035, abs=1e-5)
        assert cyl.cylinder_F(cyl.CylinderSpec(2)) == pytest.approx(1.47152, abs=1e-5)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_against_independent_quadrature(self, k):
        # axial integral of the flat profile done by scipy on the whole line
        spec = cyl.CylinderSpec(k)
        val, _ = quad(lambda z: (2 * k) ** (k / 2) * math.exp(-(2 * k + z * z) / 4.0),
                      -np.inf, np.inf)
        oracle = (4 * math.pi) ** (-(k + 1) / 2) * cyl.sphere_area(k) * val
        assert cyl.cylinder_F(spec) == pytest.approx(oracle, abs=1e-10)

    def test_sphere_area(self):
        assert cyl.sphere_area(1) == pytest.approx(2.0 * math.pi, abs=1e-14)
        assert cyl.sphere_area(2) == pytest.approx(4.0 * math.pi, abs=1e-14)


class TestGraphArea:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_profile_matches_closed_form(self, k):
        spec = cyl.CylinderSpec(k)
        g = cyl.CylinderGraph.zero(spec, R_dom=20.0, h=0.02)
        area = cyl.graph_F(g)
        assert area.value == pytest.approx(cyl.cylinder_F(spec), abs=1e-8)
        assert area.tail > 0.0

    def test_k1_fine_grid(self):
        g = cyl.CylinderGraph.zero(SPEC1, R_dom=20.0, h=0.01)
        assert cyl.graph_F(g).value == pytest.approx(1.52035, abs=1e-5)
        assert cyl.graph_F(g).value == pytest.approx(
            math.sqrt(2 * math.pi) * math.exp(-0.5), abs=1e-6)

    def test_refinement_stability_on_zero(self):
        a = cyl.graph_F(cyl.CylinderGraph.zero(SPEC1, 20.0, 0.02)).value
        b = cyl.graph_F(cyl.CylinderGraph.zero(SPEC1, 20.0, 0.01)).value
        assert abs(a - b) < 1e-8

    def test_small_bump_raises_area_only_slightly(self):
        g = bump_graph(0.01, h=0.02)
        F_bump = cyl.graph_F(g).value
        assert F_bump > cyl.cylinder_F(SPEC1) - 1e-3
        g2 = bump_graph(0.01, h=0.01)
        assert cyl.graph_F(g2).value == pytest.approx(F_bump, abs=1e-6)

    def test_quadrature_order_at_least_1p9(self):
        # the O(h^2) error comes from the finite-difference slope of the data
        def area_at(h):
            g = cyl.CylinderGraph.from_profile(SPEC1, 20.0, h,
                                               lambda z: 0.2 * np.exp(-(z**2) / 2.0))
            return cyl.graph_F(g).value

        e1 = area_at(0.4) - area_at(0.1)
        e2 = area_at(0.2) - area_at(0.1)
        order = math.log2(abs(e1 / e2) - 1.0)  # Richardson with shared fine reference
        assert order >= 1.9

    def test_reflection_invariance(self):
        g = cyl.CylinderGraph.from_profile(
            SPEC1, 20.0, 0.02, lambda z: 0.05 * np.exp(-((z - 1.5) ** 2)))
        mirrored = cyl.CylinderGraph(SPEC1, g.z, g.u[::-1])
        assert cyl.graph_F(mirrored).value == pytest.approx(cyl.graph_F(g).value, abs=1e-13)

    def test_geometry_error(self):
        with pytest.raises(GeometryError):
            cyl.CylinderGraph.from_profile(SPEC1, 20.0, 0.1,
                                           lambda z: -2.0 * np.exp(-(z**2)))


class TestDistance:
    def test_zero_profile(self):
        rep = cyl.dist_R(cyl.CylinderGraph.zero(SPEC1, 20.0, 0.05), R=10.0)
        assert rep.dist == 0.0
        assert (rep.c0, rep.c1, rep.c2) == (0.0, 0.0, 0.0)

    def test_cosine_profile(self):
        a = 0.05
        g = cyl.CylinderGraph.from_profile(SPEC1, 20.0, 0.01, lambda z: a * np.cos(z))
        rep = cyl.dist_R(g, R=10.0)
        assert rep.c0 == pytest.approx(a, rel=1e-3)
        assert rep.c1 == pytest.approx(a, rel=1e-3)
        assert rep.c2 == pytest.approx(a, rel=1e-3)
        assert rep.dist == pytest.approx(a, rel=1e-3)

    def test_monotone_in_R(self):
        g = bump_graph(0.03, h=0.05)
        prev = 0.0
        for R in (2.0, 5.0, 10.0, 15.0):
            d = cyl.dist_R(g, R).dist
            assert d >= prev
            prev = d

    @settings(max_examples=40, deadline=None)
    @given(exponent=st.integers(-6, 6))
    def test_linearity_exact_for_binary_scales(self, exponent):
        a = 2.0**exponent
        g = bump_graph(0.01, h=0.1)
        scaled = cyl.CylinderGraph(SPEC1, g.z, a * g.u)
        r1, r2 = cyl.dist_R(scaled, 8.0), cyl.dist_R(g, 8.0)
        assert r1.dist == a * r2.dist
        assert (r1.c0, r1.c1, r1.c2) == (a * r2.c0, a * r2.c1, a * r2.c2)

    def test_linearity_general_scale(self):
        g = bump_graph(0.01, h=0.1)
        scaled = cyl.CylinderGraph(SPEC1, g.z, 0.3 * g.u)
        assert cyl.dist_R(scaled, 8.0).dist == pytest.approx(0.3 * cyl.dist_R(g, 8.0).dist,
                                                             rel=1e-14)

    def test_radius_precondition(self):
        g = bump_graph(0.01, h=0.1)
        with pytest.raises(PreconditionError):
            cyl.dist_R(g, R=19.95)
        with pytest.raises(PreconditionError):
            cyl.dist_R(g, R=-1.0)

    def test_graph_distance_is_difference_norm(self):
        g1 = bump_graph(0.02, h=0.05)
        g2 = bump_graph(0.005, h=0.05)
        d = cyl.graph_distance(g1, g2, R=8.0)
        direct = cyl.dist_R(cyl.CylinderGraph(SPEC1, g1.z, g1.u - g2.u), R=8.0)
        assert d.dist == direct.dist

    def test_json_schema(self):
        rep = cyl.dist_R(bump_graph(), R=8.0)
        assert set(harness.jsonable(rep)) == {"R", "c0", "c1", "c2", "dist"}


class TestEntropyEstimate:
    def test_identity_grid_returns_graph_area(self):
        g = cyl.CylinderGraph.zero(SPEC1, 20.0, 0.02)
        est = cyl.estimate_entropy(g, centers=[0.0], scales=[1.0])
        assert est == pytest.approx(cyl.graph_F(g).value, abs=1e-14)

    def test_flat_cylinder_peaks_at_identity(self):
        g = cyl.CylinderGraph.zero(SPEC1, 20.0, 0.02)
        est = cyl.estimate_entropy(g, centers=np.linspace(-1, 1, 5),
                                   scales=np.linspace(0.9, 1.1, 5))
        F_cyl = cyl.cylinder_F(SPEC1)
        assert est >= F_cyl - 1e-9
        assert est <= F_cyl + 1e-9

    def test_lower_bounds_graph_area_when_identity_included(self):
        g = bump_graph(0.05, h=0.05)
        est = cyl.estimate_entropy(g, centers=[-0.5, 0.0, 0.5], scales=[0.95, 1.0, 1.05])
        assert est >= cyl.graph_F(g).value - 1e-14

    def test_rejects_bad_scales(self):
        g = bump_graph()
        with pytest.raises(InvalidInputError):
            cyl.estimate_entropy(g, centers=[0.0], scales=[0.0])


def test_profile_csv_roundtrip(tmp_path):
    g = bump_graph(0.02, h=0.25)
    path = tmp_path / "profile.csv"
    cyl.profile_to_csv(g, path)
    back = cyl.profile_from_csv(SPEC1, path)
    assert np.array_equal(back.z, g.z)
    assert np.array_equal(back.u, g.u)


def test_write_csv_cells_are_float_reprs_with_crlf(tmp_path):
    path = tmp_path / "cols.csv"
    cyl.write_csv(path, ["a", "b"], [np.array([0.1, 2.0]), [np.float64(1e-300), 3]])
    assert path.read_bytes() == b"a,b\r\n0.1,1e-300\r\n2.0,3.0\r\n"


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        cyl.CylinderGraph(SPEC1, np.array([0.0, 0.1, 0.3, 0.4, 0.5]), np.zeros(5))
    with pytest.raises(InvalidInputError):
        cyl.CylinderGraph(SPEC1, np.linspace(-1, 1, 9), np.zeros(5))
