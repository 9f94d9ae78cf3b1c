"""Filled-set predicates, guide-family identities, boundary witnesses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxicassini.cassini import CassiniSpec
from taxicassini.characterization import (
    IdentityMode,
    boundary_check,
    cross_family_contains,
    filled_contains,
    grid_points,
    guide_family,
    intersection_of_unions_contains,
    random_points,
    sampling_box,
    union_of_intersections_contains,
    verify_identity,
)
from taxicassini.core import GeometryError, Point, foci_frame, taxicab_distance

dyadic = st.integers(-320, 320).map(lambda k: k / 16.0)
dyadic_points = st.builds(Point, dyadic, dyadic)
dyadic_radius = st.integers(1, 640).map(lambda k: k / 16.0)


class TestFilledContains:
    def test_strictness(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 5.0)
        # The origin has product exactly r^2 = 25: on the set, not in the
        # open filled region.
        assert not filled_contains(spec, Point(0, 0))
        assert filled_contains(CassiniSpec(Point(4, 1), Point(-4, -1), 6.0), Point(0, 0))

    def test_foci_belong_for_positive_radius(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 1.0)
        assert filled_contains(spec, spec.p)
        assert filled_contains(spec, spec.q)


class TestGuideFamily:
    def test_members_share_radius_and_anchor_foci(self):
        fam = guide_family(Point(4, 1), Point(-4, -1), 6.0)
        frame = foci_frame(Point(4, 1), Point(-4, -1))
        assert fam.lp_plus.p == Point(4, 1)
        assert fam.lp_plus.q == frame.g_plus == Point(-1, -4)
        assert fam.lp_minus.q == frame.g_minus == Point(1, 4)
        assert fam.lq_plus.p == Point(-4, -1)
        assert fam.lq_plus.q == frame.g_plus
        assert fam.lq_minus.q == frame.g_minus
        assert {m.r for m in (fam.lp_plus, fam.lp_minus, fam.lq_plus, fam.lq_minus)} == {6.0}


class TestPointwiseIdentities:
    """Each guide-family combination must agree with the filled set at
    every point; dyadic inputs make all products exact so the set
    identities hold at machine level with no tolerance band."""

    @settings(max_examples=300, deadline=None)
    @given(dyadic_points, dyadic_points, dyadic_radius, dyadic_points)
    def test_union_of_intersections(self, p, q, r, x):
        spec = CassiniSpec(p, q, r)
        fam = guide_family(p, q, r)
        assert union_of_intersections_contains(fam, x) == filled_contains(spec, x)

    @settings(max_examples=300, deadline=None)
    @given(dyadic_points, dyadic_points, dyadic_radius, dyadic_points)
    def test_intersection_of_unions(self, p, q, r, x):
        spec = CassiniSpec(p, q, r)
        fam = guide_family(p, q, r)
        assert intersection_of_unions_contains(fam, x) == filled_contains(spec, x)

    @settings(max_examples=300, deadline=None)
    @given(dyadic_points, dyadic_points, dyadic_radius, dyadic_points)
    def test_cross_family_sandwich_and_equalities(self, p, q, r, x):
        spec = CassiniSpec(p, q, r)
        first, second = cross_family_contains(p, q, r, x)
        in_pq = filled_contains(spec, x)
        # Subset directions: second <= filled <= first.
        assert not (second and not in_pq)
        assert not (in_pq and not first)
        # Exact forms: the slack on either side is the guide-complement set.
        frame = foci_frame(p, q)
        in_gg = filled_contains(CassiniSpec(frame.g_plus, frame.g_minus, r), x)
        assert first == (in_pq or in_gg)
        assert second == (in_pq and in_gg)


class TestSamplers:
    def test_sampling_box(self):
        center, half = sampling_box(Point(4, 1), Point(-4, -1), 6.0)
        assert center == Point(0, 0)
        assert half == taxicab_distance(Point(4, 1), Point(-4, -1)) + 6.0 + 1.0

    def test_grid_points_shape_and_corners(self):
        pts = grid_points(Point(4, 1), Point(-4, -1), 6.0, 20)
        assert pts.shape == (400, 2)
        assert pts.min() == -17.0
        assert pts.max() == 17.0

    def test_random_points_deterministic(self):
        a = random_points(Point(4, 1), Point(-4, -1), 6.0, 100, seed=7)
        b = random_points(Point(4, 1), Point(-4, -1), 6.0, 100, seed=7)
        c = random_points(Point(4, 1), Point(-4, -1), 6.0, 100, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (100, 2)
        assert np.all(np.abs(a) <= 17.0)


class TestVerifyIdentity:
    def test_zero_mismatches_on_reference_instances(self):
        for r in (3.0, 5.0, 6.0):
            pts = grid_points(Point(4, 1), Point(-4, -1), r, 50)
            for mode in IdentityMode:
                report = verify_identity(Point(4, 1), Point(-4, -1), r, mode, pts)
                assert report.mismatches == 0
                assert report.trials == 2500
                assert report.skipped_boundary_band + report.trials >= 2500

    def test_wide_band_skips_everything(self):
        pts = grid_points(Point(4, 1), Point(-4, -1), 6.0, 20)
        report = verify_identity(
            Point(4, 1), Point(-4, -1), 6.0, IdentityMode.UNION_OF_INTERSECTIONS, pts, band=1e30
        )
        assert report.mismatches == 0
        assert report.skipped_boundary_band == 400
        assert math.isinf(report.worst_residual)

    @pytest.mark.parametrize("band", [-1e-9, math.nan, math.inf])
    def test_bad_band_rejected(self, band):
        # An infinite band would skip every point and report no mismatch.
        pts = grid_points(Point(4, 1), Point(-4, -1), 6.0, 16)
        for mode in IdentityMode:
            with pytest.raises(GeometryError, match="band"):
                verify_identity(Point(4, 1), Point(-4, -1), 6.0, mode, pts, band=band)

    def test_worst_residual_is_min_counted_margin(self):
        pts = grid_points(Point(4, 1), Point(-4, -1), 6.0, 40)
        report = verify_identity(
            Point(4, 1), Point(-4, -1), 6.0, IdentityMode.CROSS_EQUALITIES, pts
        )
        assert report.worst_residual > 1e-9


class TestBoundaryCheck:
    def test_interior_point_has_no_outside_witness(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        assert not boundary_check(spec, [Point(0, 0)], probe_radius=0.05)

    def test_far_point_has_no_inside_witness(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        assert not boundary_check(spec, [Point(50, 50)], probe_radius=0.05)

    def test_curve_point_passes(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 3.0)
        assert boundary_check(spec, [Point(3.5, 0.5)], probe_radius=0.05)

    def test_pinch_segment_point_passes(self):
        # On the flat segment at the critical radius every nearby
        # non-inside probe lies on the set itself, which must count as an
        # outside witness.
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 5.0)
        assert boundary_check(spec, [Point(0, 0)], probe_radius=0.05)

    def test_invalid_inputs(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        with pytest.raises(GeometryError):
            boundary_check(CassiniSpec(Point(4, 1), Point(-4, -1), 0.0), [], 0.05)
        for radius in (0.0, math.nan, math.inf):
            with pytest.raises(GeometryError, match="probe radius"):
                boundary_check(spec, [Point(0, 0)], radius)
