"""Analytic curve construction: pieces, loops, classification, topology."""

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxicassini.cassini import (
    _REGION_UNDER_SWAP,
    CLOSURE_RTOL,
    RESIDUAL_RTOL,
    ZERO_LENGTH_RTOL,
    AssemblyError,
    CassiniSpec,
    DegenerateInput,
    GuideSegment,
    HyperbolaArc,
    PointLocation,
    Topology,
    _diamond_pieces,
    _standard_loops,
    _validate_loop,
    build_curves,
    classify_point,
    critical_radius,
    curve_polyline,
    product_value,
    sample_curve,
    topology,
)
from taxicassini.core import (
    GeometryError,
    Point,
    PointGroup,
    RegionId,
    standardize,
    taxicab_distance,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "instances.jsonl"

dyadic = st.integers(-320, 320).map(lambda k: k / 16.0)
dyadic_points = st.builds(Point, dyadic, dyadic)
dyadic_radius = st.integers(1, 640).map(lambda k: k / 16.0)


def dyadic_specs():
    return st.builds(
        lambda p, q, r: CassiniSpec(p, q, r), dyadic_points, dyadic_points, dyadic_radius
    )


def _tiny_lobe_spec(log_a, t, swap, s1, s2, m1, m2, u):
    # Half-difference (a, b) with b = a * t on either axis, midpoint (m1, m2),
    # r = (a + b) * 10^u well below r* = a + b.
    a, b = 10.0**log_a, 10.0**log_a * t
    if swap:
        a, b = b, a
    p, q = Point(m1 + s1 * a, m2 + s2 * b), Point(m1 - s1 * a, m2 - s2 * b)
    return CassiniSpec(p, q, (a + b) * 10.0**u)


_sign = st.sampled_from((-1.0, 1.0))
tiny_lobe_specs = st.builds(
    _tiny_lobe_spec,
    st.floats(-3.0, 0.0),
    st.floats(0.0, 1.0),
    st.booleans(),
    _sign,
    _sign,
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
    st.floats(-4.0, -0.5),
)


def winding_number(ring, center):
    """How often the closed polyline ring winds counterclockwise about center."""
    vectors = [(x.x1 - center.x1, x.x2 - center.x2) for x in ring]
    total = 0.0
    for (u1, u2), (v1, v2) in zip(vectors, vectors[1:] + vectors[:1]):
        total += math.atan2(u1 * v2 - u2 * v1, u1 * v1 + u2 * v2)
    return round(total / (2 * math.pi))


def focus_windings(spec):
    """Per loop of build_curves(spec), its winding numbers about p and about q."""
    return [
        tuple(winding_number(curve_polyline(curve, 64), focus) for focus in (spec.p, spec.q))
        for curve in build_curves(spec)
    ]


def assert_counterclockwise(spec):
    # One loop encloses both foci; two loops enclose one focus each.
    windings = focus_windings(spec)
    if len(windings) == 1:
        assert windings == [(1, 1)]
    else:
        assert sorted(windings) == [(0, 1), (1, 0)]


def standard_pieces(a, b, r, region):
    """The pieces _standard_loops(a, b, r) places in one region, in loop order."""
    return [piece for loop in _standard_loops(a, b, r) for piece in loop if piece.region is region]


class TestSpecAndScalars:
    def test_critical_radius_values(self):
        assert critical_radius(Point(4, 1), Point(-4, -1)) == 5.0
        assert critical_radius(Point(8, 3), Point(-8, -3)) == 11.0
        assert critical_radius(Point(2, 2), Point(2, 2)) == 0.0

    def test_product_value_at_origin(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        assert product_value(spec, Point(0, 0)) == 25.0

    def test_spec_rejects_bad_radius(self):
        with pytest.raises(GeometryError):
            CassiniSpec(Point(0, 0), Point(1, 1), -1.0)
        with pytest.raises(GeometryError):
            CassiniSpec(Point(0, 0), Point(1, 1), float("nan"))

    def test_spec_rejects_radius_whose_square_overflows(self):
        # r^2 = inf made every residual NaN, so build_curves validated its
        # curves and the band of classify_point(tol=0) was NaN.
        with pytest.raises(GeometryError, match="squared must be finite"):
            CassiniSpec(Point(1e200, 0), Point(-1e200, 0), 1e200)
        largest = math.sqrt(sys.float_info.max)
        spec = CassiniSpec(Point(0, 0), Point(1, 1), largest)
        assert math.isfinite(spec.r * spec.r)
        with pytest.raises(GeometryError, match="squared must be finite"):
            CassiniSpec(Point(0, 0), Point(1, 1), math.nextafter(largest, math.inf))

    @given(dyadic_points, dyadic_points)
    def test_critical_radius_is_half_distance(self, p, q):
        assert critical_radius(p, q) == taxicab_distance(p, q) / 2


class TestClassifyPoint:
    spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)

    def test_inside_on_outside(self):
        assert classify_point(self.spec, Point(0, 0)) is PointLocation.INSIDE
        assert classify_point(self.spec, Point(100, 100)) is PointLocation.OUTSIDE
        # Midpoint of the rectangle piece from (4,0) to (3,1) at r=3.
        spec3 = CassiniSpec(Point(4, 1), Point(-4, -1), 3.0)
        assert classify_point(spec3, Point(3.5, 0.5)) is PointLocation.ON

    def test_focus_is_inside_for_positive_radius(self):
        assert classify_point(self.spec, Point(4, 1)) is PointLocation.INSIDE

    def test_on_band_takes_precedence(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 5.0)
        assert classify_point(spec, Point(0, 0)) is PointLocation.ON

    def test_negative_tolerance_rejected(self):
        with pytest.raises(GeometryError):
            classify_point(self.spec, Point(0, 0), tol=-1e-3)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(GeometryError, match="finite"):
            classify_point(self.spec, Point(0, 0), tol=tol)

    def test_zero_radius(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 0.0)
        assert classify_point(spec, Point(4, 1)) is PointLocation.ON
        assert classify_point(spec, Point(0, 0)) is PointLocation.OUTSIDE


class TestTopology:
    @pytest.mark.parametrize(
        "p,q,r,expected",
        [
            (Point(1, 1), Point(1, 1), 0.0, Topology.POINT_PAIR),
            (Point(4, 1), Point(-4, -1), 0.0, Topology.POINT_PAIR),
            (Point(0, 0), Point(0, 0), 2.0, Topology.TAXICAB_CIRCLE),
            (Point(4, 1), Point(-4, -1), 3.0, Topology.TWO_CURVES),
            (Point(4, 1), Point(-4, -1), 5.0, Topology.PINCHED_EDGE),
            (Point(5, 0), Point(-5, 0), 5.0, Topology.PINCHED_VERTEX),
            (Point(0, 3), Point(0, -3), 3.0, Topology.PINCHED_VERTEX),
            (Point(4, 1), Point(-4, -1), 6.0, Topology.ONE_CURVE),
        ],
    )
    def test_classification(self, p, q, r, expected):
        assert topology(CassiniSpec(p, q, r)) is expected

    def test_pinch_requires_exact_critical_radius(self):
        p, q = Point(4, 1), Point(-4, -1)
        assert topology(CassiniSpec(p, q, math.nextafter(5.0, 0.0))) is Topology.TWO_CURVES
        assert topology(CassiniSpec(p, q, math.nextafter(5.0, 10.0))) is Topology.ONE_CURVE


class TestQuadrantPieces:
    def test_focus_quadrant_segment(self):
        spec = CassiniSpec(Point(8, 3), Point(-8, -3), 16.0)
        [piece] = standard_pieces(8.0, 3.0, 16.0, RegionId.QUADRANT_P)
        sp = math.hypot(8 + 3, 16.0)
        assert tuple(piece.start) == pytest.approx((8.0, sp - 8.0))
        assert tuple(piece.end) == pytest.approx((sp - 3.0, 3.0))
        for f in (0.0, 0.5, 1.0):
            x = Point(*piece.coords_at(f))
            assert x.x1 + x.x2 == pytest.approx(sp)
            assert product_value(spec, x) == pytest.approx(256.0)

    def test_opposite_quadrant_mirrors(self):
        [piece] = standard_pieces(8.0, 3.0, 16.0, RegionId.QUADRANT_Q)
        sp = math.hypot(11.0, 16.0)
        assert tuple(piece.start) == pytest.approx((-8.0, 8.0 - sp))
        assert tuple(piece.end) == pytest.approx((3.0 - sp, -3.0))

    def test_complement_quadrant_needs_large_radius(self):
        # The complement-quadrant branch exists only for r^2 >= 4ab = 96.
        assert standard_pieces(8.0, 3.0, 9.0, RegionId.QUADRANT_C1) == []
        [piece] = standard_pieces(8.0, 3.0, 16.0, RegionId.QUADRANT_C1)
        sc = math.hypot(8 - 3, 16.0)
        assert tuple(piece.start) == pytest.approx((sc - 3.0, -3.0))
        assert tuple(piece.end) == pytest.approx((8.0, 8.0 - sc))
        mid = Point(*piece.coords_at(0.5))
        spec = CassiniSpec(Point(8, 3), Point(-8, -3), 16.0)
        assert product_value(spec, mid) == pytest.approx(256.0)

    def test_complement_quadrant_threshold_collapses_to_corner(self):
        # a=8, b=2: r^2 = 4ab exactly at r = 8; the piece is the corner point.
        [piece] = standard_pieces(8.0, 2.0, 8.0, RegionId.QUADRANT_C1)
        assert piece.start == piece.end == Point(8.0, -2.0)


class TestRectanglePieces:
    def test_below_critical(self):
        pieces = standard_pieces(4.0, 1.0, 3.0, RegionId.CENTRAL_RECTANGLE)
        assert [(pc.start, pc.end) for pc in pieces] == [
            (Point(4.0, 0.0), Point(3.0, 1.0)),
            (Point(-4.0, 0.0), Point(-3.0, -1.0)),
        ]
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 3.0)
        for pc in pieces:
            assert product_value(spec, Point(*pc.coords_at(0.5))) == pytest.approx(9.0)

    def test_at_critical_single_pinch_segment(self):
        # Both loops run along the one diagonal segment, in opposite directions.
        plus, minus = standard_pieces(4.0, 1.0, 5.0, RegionId.CENTRAL_RECTANGLE)
        assert (plus.start, plus.end) == (Point(1.0, -1.0), Point(-1.0, 1.0))
        assert (minus.region, minus.start, minus.end) == (plus.region, plus.end, plus.start)

    def test_above_critical_empty(self):
        assert standard_pieces(4.0, 1.0, 6.0, RegionId.CENTRAL_RECTANGLE) == []


class TestHalfStripPieces:
    def test_single_arc_above_critical(self):
        [arc] = standard_pieces(8.0, 3.0, 16.0, RegionId.STRIP_P_C1)
        assert arc.center == Point(-3.0, -8.0)
        assert arc.run_axis == 2
        # At x2 = 0 the arc equation (x1+3)^2 - (x2+8)^2 = 256 gives
        # x1 = sqrt(320) - 3.
        mid = Point(*arc.coords_at(0.5))
        assert mid.x2 == pytest.approx(0.0)
        assert mid.x1 == pytest.approx(math.sqrt(320.0) - 3.0)
        for f in (0.0, 0.25, 1.0):
            x1, x2 = arc.coords_at(f)
            assert (x1 + 3.0) ** 2 - (x2 + 8.0) ** 2 == pytest.approx(256.0)
        assert {arc.start.x2, arc.end.x2} == {-3.0, 3.0}

    def test_bottom_strip_uses_other_guide_center(self):
        [arc] = standard_pieces(8.0, 3.0, 16.0, RegionId.STRIP_Q_C1)
        assert arc.center == Point(3.0, 8.0)
        assert arc.run_axis == 1

    def test_below_critical_keeps_one_slot_per_strip(self):
        # The top arc lies above the window about its center's u = -1 and
        # belongs to the loop about p; the bottom arc lies below the window
        # about u = 1 and belongs to the loop about q.
        p_loop, q_loop = _standard_loops(4.0, 1.0, 3.0)
        top = [pc for pc in p_loop + q_loop if pc.region is RegionId.STRIP_P_C2]
        bottom = [pc for pc in p_loop + q_loop if pc.region is RegionId.STRIP_Q_C1]
        assert top == [pc for pc in p_loop if pc.region is RegionId.STRIP_P_C2]
        assert bottom == [pc for pc in q_loop if pc.region is RegionId.STRIP_Q_C1]
        assert len(top) == len(bottom) == 1
        # Both strips run along x1, so the endpoints' x1 give the run range.
        assert top[0].run_axis == bottom[0].run_axis == 1
        assert sorted((top[0].start.x1, top[0].end.x1)) == [3.0, 4.0]
        assert sorted((bottom[0].start.x1, bottom[0].end.x1)) == [-4.0, -3.0]
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 3.0)
        for arc in top + bottom:
            for f in (0.0, 0.5, 1.0):
                assert product_value(spec, Point(*arc.coords_at(f))) == pytest.approx(9.0)

    def test_arc_residual_is_exact_on_samples(self):
        spec = CassiniSpec(Point(8, 3), Point(-8, -3), 16.0)
        for strip in (
            RegionId.STRIP_P_C1,
            RegionId.STRIP_P_C2,
            RegionId.STRIP_Q_C1,
            RegionId.STRIP_Q_C2,
        ):
            [arc] = standard_pieces(8.0, 3.0, 16.0, strip)
            for k in range(9):
                x = Point(*arc.coords_at(k / 8))
                assert product_value(spec, x) == pytest.approx(256.0, rel=1e-12)


class TestPieceParametrization:
    def test_segment_point_at_endpoints_exact(self):
        seg = GuideSegment(RegionId.QUADRANT_P, Point(1, 2), Point(3, 0))
        assert Point(*seg.coords_at(0.0)) == Point(1, 2)
        assert Point(*seg.coords_at(1.0)) == Point(3, 0)


class TestBuildCurves:
    def test_zero_radius_is_degenerate(self):
        with pytest.raises(DegenerateInput):
            build_curves(CassiniSpec(Point(4, 1), Point(-4, -1), 0.0))

    def test_circle_is_a_diamond(self):
        curves = build_curves(CassiniSpec(Point(0, 0), Point(0, 0), 2.0))
        assert len(curves) == 1
        pts = sample_curve(curves[0], 8)
        assert {Point(2, 0), Point(0, 2), Point(-2, 0), Point(0, -2)} <= set(pts)

    @pytest.mark.parametrize(
        "p,q,r,count",
        [
            (Point(4, 1), Point(-4, -1), 3.0, 2),
            (Point(4, 1), Point(-4, -1), 5.0, 2),
            (Point(4, 1), Point(-4, -1), 6.0, 1),
            (Point(8, 3), Point(-8, -3), 10.0, 2),
            (Point(8, 3), Point(-8, -3), 16.0, 1),
            (Point(5, 0), Point(-5, 0), 5.0, 2),
            (Point(5, 0), Point(-5, 0), 8.0, 1),
            (Point(2, 2), Point(-2, -2), 4.0, 2),
        ],
    )
    def test_component_count_matches_topology(self, p, q, r, count):
        curves = build_curves(CassiniSpec(p, q, r))
        assert len(curves) == count

    def test_loops_are_closed_chains(self):
        spec = CassiniSpec(Point(8, 3), Point(-8, -3), 16.0)
        for pieces in build_curves(spec):
            for i, piece in enumerate(pieces):
                nxt = pieces[(i + 1) % len(pieces)]
                assert taxicab_distance(piece.end, nxt.start) < 1e-9

    def test_counterclockwise_orientation(self):
        for p, q, r in [
            (Point(4, 1), Point(-4, -1), 6.0),
            (Point(4, 1), Point(-4, -1), 3.0),
            (Point(4, 1), Point(-4, -1), 5.0),
            (Point(5, 0), Point(-5, 0), 5.0),
            (Point(1.5, -2.25), Point(-3.5, 4.0), 2.0),
            (Point(-1, 3), Point(2, -1), 1.5),
            (Point(0, 0), Point(0, 0), 2.0),
        ]:
            assert_counterclockwise(CassiniSpec(p, q, r))

    def test_tiny_lobes_wind_counterclockwise(self):
        # On both specs a float shoelace sum of the loop is pure roundoff.
        assert focus_windings(TINY_LOBE_SPEC) == [(1, 0), (0, 1)]
        assert focus_windings(MIDPOINT_ORIENTED_SPEC) == [(1, 0), (0, 1)]

    @settings(max_examples=150, deadline=None)
    @given(tiny_lobe_specs)
    def test_random_tiny_lobes_wind_counterclockwise(self, spec):
        assert_counterclockwise(spec)

    def test_one_frame_per_build(self, monkeypatch):
        # The guide complements of all four strips come from one foci_frame call.
        import taxicassini.cassini as cassini

        calls = []
        real = cassini.foci_frame
        monkeypatch.setattr(cassini, "foci_frame", lambda p, q: calls.append(1) or real(p, q))
        for r in (3.0, 5.0, 6.0):
            calls.clear()
            build_curves(CassiniSpec(Point(4, 1), Point(-4, -1), r))
            assert len(calls) == 1

    def test_pinched_edge_loops_share_the_flat_segment(self):
        curves = build_curves(CassiniSpec(Point(4, 1), Point(-4, -1), 5.0))
        segments = []
        for curve in curves:
            for piece in curve:
                if piece.region is RegionId.CENTRAL_RECTANGLE:
                    segments.append(frozenset({piece.start, piece.end}))
        assert segments[0] == segments[1] == frozenset({Point(1, -1), Point(-1, 1)})

    def test_pinched_vertex_loops_meet_at_midpoint(self):
        curves = build_curves(CassiniSpec(Point(5, 0), Point(-5, 0), 5.0))
        for curve in curves:
            endpoints = {piece.start for piece in curve}
            assert Point(0, 0) in endpoints

    def test_translated_instance(self):
        spec = CassiniSpec(Point(1.5, -2.25), Point(-3.5, 4.0), 6.0)
        curves = build_curves(spec)
        assert len(curves) == 1
        for x in sample_curve(curves[0], 64):
            assert classify_point(spec, x) is PointLocation.ON

    def test_sample_curve_needs_enough_points(self):
        curve = build_curves(CassiniSpec(Point(0, 0), Point(0, 0), 2.0))[0]
        with pytest.raises(GeometryError):
            sample_curve(curve, 7)

    def test_polyline_does_not_repeat_first_point(self):
        curve = build_curves(CassiniSpec(Point(4, 1), Point(-4, -1), 6.0))[0]
        ring = curve_polyline(curve, 16)
        assert len(ring) == 16 * len(curve)
        assert ring[0] != ring[-1]

    def test_fixture_pieces_under_the_point_group_are_pinned(self):
        # Each fixture moved by each point-group element about its midpoint,
        # every piece pinned at full precision through its repr; the info
        # reports print six decimals.
        digest = hashlib.sha256()
        for line in FIXTURES.read_text().splitlines():
            rec = json.loads(line)
            p, q = Point(*map(float, rec["p"])), Point(*map(float, rec["q"]))
            m1, m2 = (p.x1 + q.x1) / 2, (p.x2 + q.x2) / 2
            for g in PointGroup:
                moved = [g.apply(x.x1 - m1, x.x2 - m2) for x in (p, q)]
                p_g, q_g = (Point(m1 + u1, m2 + u2) for u1, u2 in moved)
                for curve in build_curves(CassiniSpec(p_g, q_g, float(rec["r"]))):
                    digest.update(repr(curve).encode())
        assert digest.hexdigest() == (
            "4a4fcbf75647ebb281603529203c278e7290805e6df88874171447f1ead68f6e"
        )

    @settings(max_examples=60, deadline=None)
    @given(dyadic_specs())
    def test_random_instances_build_and_lie_on_the_set(self, spec):
        if spec.p == spec.q:
            spec = CassiniSpec(spec.p, spec.q, spec.r)
        curves = build_curves(spec)
        r_star = critical_radius(spec.p, spec.q)
        if spec.p == spec.q:
            assert len(curves) == 1
        elif spec.r < r_star:
            assert len(curves) == 2
        elif spec.r > r_star:
            assert len(curves) == 1
        else:
            assert len(curves) == 2
        target = spec.r * spec.r
        tol = 1e-9 * max(1.0, target)
        for curve in curves:
            for x in sample_curve(curve, 24):
                assert abs(product_value(spec, x) - target) <= tol

    @settings(max_examples=40, deadline=None)
    @given(dyadic_specs())
    def test_swapping_foci_gives_the_same_locus(self, spec):
        swapped = CassiniSpec(spec.q, spec.p, spec.r)
        tol = 1e-9 * max(1.0, spec.r * spec.r)
        for curve in build_curves(swapped):
            for x in sample_curve(curve, 16):
                assert abs(product_value(spec, x) - spec.r * spec.r) <= tol


# Reference construction: piece evaluation, mapping and validation through
# one Point per sample, with each arc's run range and branch worked out here
# from its endpoints, and each loop oriented in a second pass after mapping.
# Assembly of the standard-frame pieces is shared; everything else must match
# the reference bit for bit.


def reference_point_at(piece, f):
    if f == 0.0:
        return piece.start
    if f == 1.0:
        return piece.end
    if isinstance(piece, GuideSegment):
        return Point(
            piece.start.x1 + f * (piece.end.x1 - piece.start.x1),
            piece.start.x2 + f * (piece.end.x2 - piece.start.x2),
        )
    run, center = piece.run_axis, piece.center
    other = 3 - run
    # The run coordinate goes from start's to end's; the branch is the sign
    # of start's offset from the center in the other coordinate.
    u_start, u_end = piece.start.coord(run), piece.end.coord(run)
    offset = piece.start.coord(other) - center.coord(other)
    branch = 1 if offset > 0 else -1
    u = u_start + f * (u_end - u_start)
    x_other = center.coord(other) + branch * math.hypot(u - center.coord(run), piece.radius)
    return Point(u, x_other) if run == 1 else Point(x_other, u)


def reference_reversed(piece):
    return dataclasses.replace(piece, start=piece.end, end=piece.start)


def reference_map_piece(piece, iso):
    swap = iso.element.value[0]
    region = piece.region
    if swap:
        region = _REGION_UNDER_SWAP.get(region, region)
    start, end = iso.apply(piece.start), iso.apply(piece.end)
    if isinstance(piece, GuideSegment):
        return GuideSegment(region, start, end)
    return HyperbolaArc(
        region=region,
        center=iso.apply(piece.center),
        run_axis=3 - piece.run_axis if swap else piece.run_axis,
        radius=piece.radius,
        start=start,
        end=end,
    )


def reference_validate_loop(spec, pieces, samples_per_piece):
    scale = max(1.0, taxicab_distance(spec.p, spec.q) + spec.r)
    target = spec.r * spec.r
    residual_tol = RESIDUAL_RTOL * max(1.0, target)
    for i, piece in enumerate(pieces):
        nxt = pieces[(i + 1) % len(pieces)]
        gap = taxicab_distance(reference_point_at(piece, 1.0), reference_point_at(nxt, 0.0))
        if gap > CLOSURE_RTOL * scale:
            raise AssemblyError(f"pieces {i} and {(i + 1) % len(pieces)} leave a gap of {gap!r}")
        for k in range(samples_per_piece + 1):
            x = reference_point_at(piece, k / samples_per_piece)
            residual = abs(taxicab_distance(x, spec.p) * taxicab_distance(x, spec.q) - target)
            if residual > residual_tol:
                raise AssemblyError(f"piece {i} sample {x} misses the level set by {residual!r}")


def reference_build_curves(spec, samples_per_piece=16):
    """The reference curves of spec; samples_per_piece=None skips validation."""
    if spec.r == 0:
        raise DegenerateInput("r = 0 yields the bare focus pair, not a curve")
    iso, p_std = standardize(spec.p, spec.q)
    inverse = iso.inverse()
    if spec.p == spec.q:
        raw_loops = [_diamond_pieces(spec.r)]
    else:
        raw_loops = _standard_loops(p_std.x1, p_std.x2, spec.r)
    zero_tol = ZERO_LENGTH_RTOL * max(1.0, taxicab_distance(spec.p, spec.q) + spec.r)
    curves = []
    for k, raw in enumerate(raw_loops, 1):
        mapped = [reference_map_piece(piece, inverse) for piece in raw]
        kept = [piece for piece in mapped if piece.length_scale() > zero_tol]
        where = f"loop {k} of {len(raw_loops)}"
        if not kept:
            raise AssemblyError(f"{spec}, {where}: all pieces of a loop degenerated to points")
        if inverse.element.determinant == 1:
            # The raw loops run clockwise, and so do their images.
            kept = [reference_reversed(piece) for piece in reversed(kept)]
        if samples_per_piece is not None:
            try:
                reference_validate_loop(spec, kept, samples_per_piece)
            except AssemblyError as exc:
                raise AssemblyError(f"{spec}, {where}: {exc}") from None
        curves.append(tuple(kept))
    return curves


def reference_sample_curve(curve, n):
    count = len(curve)
    points = []
    for k in range(n):
        t = k * count / n
        i = min(int(t), count - 1)
        points.append(reference_point_at(curve[i], t - i))
    return points


def reference_curve_polyline(curve, samples_per_piece):
    return [
        reference_point_at(piece, k / samples_per_piece)
        for piece in curve
        for k in range(samples_per_piece)
    ]


def _outcome(build, sample, polyline, spec):
    """Everything a caller sees: pieces and point coordinates, or the error."""
    try:
        curves = build(spec)
    except (AssemblyError, GeometryError) as exc:
        return type(exc), str(exc)
    return [
        (
            repr(curve),
            repr([(x.x1, x.x2) for n in (8, 61) for x in sample(curve, n)]),
            repr([(x.x1, x.x2) for x in polyline(curve, 5)]),
        )
        for curve in curves
    ]


def _validation_outcome(validate, spec, pieces, samples_per_piece):
    try:
        validate(spec, pieces, samples_per_piece)
    except (AssemblyError, GeometryError) as exc:
        return type(exc), str(exc)
    return None


def _stress_spec(signs, exponents, u):
    # Signed coordinates log-uniform over 1e-6 .. 1e9 and r = r* * 10^u:
    # the large-coordinate, r << r* regime.
    coords = [sign * 10.0**e for sign, e in zip(signs, exponents)]
    p, q = Point(coords[0], coords[1]), Point(coords[2], coords[3])
    return CassiniSpec(p, q, critical_radius(p, q) * 10.0**u)


_coordinate = st.floats(-20.0, 20.0)
random_specs = st.builds(
    lambda p1, p2, q1, q2, r: CassiniSpec(Point(p1, p2), Point(q1, q2), r),
    _coordinate,
    _coordinate,
    _coordinate,
    _coordinate,
    st.floats(0.0, 40.0, exclude_min=True),
)


stress_specs = st.builds(
    _stress_spec,
    st.lists(st.sampled_from((-1.0, 1.0)), min_size=4, max_size=4),
    st.lists(st.floats(-6.0, 9.0), min_size=4, max_size=4),
    st.floats(-3.3, -1.0),
)
# The same regime down to r = 1e-6 r*, where many lobes fail to assemble.
deep_stress_specs = st.builds(
    _stress_spec,
    st.lists(st.sampled_from((-1.0, 1.0)), min_size=4, max_size=4),
    st.lists(st.floats(-6.0, 9.0), min_size=4, max_size=4),
    st.floats(-6.0, -1.0),
)
# A residual miss found among the perfbench scale-stress specs, and the
# all-pieces-degenerate lobe of ROADMAP item 3.
RESIDUAL_MISS_SPEC = CassiniSpec(
    Point(0.0014966530639784724, 2945252.409567547),
    Point(-8.725068365324634e-06, 2411666.2233538902),
    319.55182061393936,
)
DEGENERATE_LOBE_SPEC = CassiniSpec(Point(4, 1), Point(-4, -1), 5e-6)
# Tiny lobes: the lobe area is near or below the roundoff of a float
# shoelace sum at these coordinates, which then gives either sign.  On the
# first the sum over piece starts and midpoints is -8.9e-16 while the exact
# area of that polygon is +3.2e-19; on the second it has opposite signs on
# the two loops.
TINY_LOBE_SPEC = CassiniSpec(
    Point(-4.335912401800746, -1.889080395257578),
    Point(-4.318676099280427, -1.8896585327468522),
    2.678320235843774e-06,
)
MIDPOINT_ORIENTED_SPEC = CassiniSpec(
    Point(1.7138933289400303e-06, -0.9954772549728785),
    Point(0.0005011872336272725, -0.9954772549728785),
    1.251648308473473e-07,
)


class TestFloatPathMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(random_specs, dyadic_specs(), stress_specs), st.integers(1, 24))
    @example(RESIDUAL_MISS_SPEC, 16)
    @example(DEGENERATE_LOBE_SPEC, 16)
    @example(MIDPOINT_ORIENTED_SPEC, 16)
    @example(TINY_LOBE_SPEC, 16)
    @example(CassiniSpec(Point(0, 0), Point(0, 0), 2.0), 3)
    @example(CassiniSpec(Point(4, 1), Point(-4, -1), 5.0), 1)
    def test_build_sample_and_errors_match_reference(self, spec, samples_per_piece):
        got = _outcome(build_curves, sample_curve, curve_polyline, spec)
        want = _outcome(
            reference_build_curves, reference_sample_curve, reference_curve_polyline, spec
        )
        assert got == want
        if isinstance(got, list):
            for curve in build_curves(spec):
                for piece in curve:
                    for f in (0.0, 0.5, 1.0):
                        got_point = Point(*piece.coords_at(f))
                        assert repr(got_point) == repr(reference_point_at(piece, f))
        # Validation at other sample counts, on the loops before validation.
        try:
            loops = reference_build_curves(spec, None)
        except (AssemblyError, GeometryError):
            loops = []
        for pieces in loops:
            assert _validation_outcome(
                _validate_loop, spec, pieces, samples_per_piece
            ) == _validation_outcome(reference_validate_loop, spec, pieces, samples_per_piece)


class TestArcEndpoints:
    # An arc stores no branch and no run range: coords_at reads the branch
    # off start and the run range off both endpoints.  That branch is the
    # arc's own only if end lies strictly on the same side of the center,
    # and the samples run along the arc only if their run coordinates are
    # monotone.
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(random_specs, dyadic_specs(), stress_specs, deep_stress_specs))
    def test_endpoints_share_a_side_and_the_run_is_monotone(self, spec):
        try:
            curves = build_curves(spec)
        except (AssemblyError, DegenerateInput):
            return
        for curve in curves:
            for arc in curve:
                if not isinstance(arc, HyperbolaArc):
                    continue
                run, other = arc.run_axis, 3 - arc.run_axis
                center = arc.center.coord(other)
                offsets = (arc.start.coord(other) - center, arc.end.coord(other) - center)
                assert min(offsets) > 0 or max(offsets) < 0
                runs = [arc.coords_at(k / 16)[run - 1] for k in range(17)]
                assert runs in (sorted(runs), sorted(runs, reverse=True))


def _diamond_side(start, end):
    return GuideSegment(RegionId.QUADRANT_P, Point(*map(float, start)), Point(*map(float, end)))


class TestAssemblyErrors:
    def test_residual_miss_names_the_first_failing_sample(self):
        with pytest.raises(AssemblyError) as info:
            build_curves(RESIDUAL_MISS_SPEC)
        assert str(info.value) == (
            f"{RESIDUAL_MISS_SPEC}, loop 1 of 2: "
            "piece 0 sample Point(x1=0.16894694566124557, x2=2945252.433489017)"
            " misses the level set by 0.00010898271284531802"
        )

    def test_all_pieces_degenerate(self):
        with pytest.raises(AssemblyError) as info:
            build_curves(DEGENERATE_LOBE_SPEC)
        assert str(info.value) == (
            "CassiniSpec(p=Point(x1=4, x2=1), q=Point(x1=-4, x2=-1), r=5e-06), loop 1 of 2: "
            "all pieces of a loop degenerated to points"
        )

    def test_gap_is_checked_before_the_pieces_own_samples(self):
        # Three sides of the unit diamond, the third running off the curve
        # to (0, -3): the gap back to the first side is reported, not the
        # third side's misses.
        spec = CassiniSpec(Point(0, 0), Point(0, 0), 1.0)
        pieces = [
            _diamond_side((1, 0), (0, 1)),
            _diamond_side((0, 1), (-1, 0)),
            _diamond_side((-1, 0), (0, -3)),
        ]
        for validate in (_validate_loop, reference_validate_loop):
            with pytest.raises(AssemblyError) as info:
                validate(spec, pieces, 4)
            assert str(info.value) == "pieces 2 and 0 leave a gap of 4.0"

    def test_earlier_miss_is_reported_before_a_later_gap(self):
        spec = CassiniSpec(Point(0, 0), Point(0, 0), 1.0)
        pieces = [
            _diamond_side((1, 0), (0, 1)),
            _diamond_side((0, 1), (-2, 0)),
            _diamond_side((-2, 0), (0, -3)),
        ]
        for validate in (_validate_loop, reference_validate_loop):
            with pytest.raises(AssemblyError) as info:
                validate(spec, pieces, 4)
            assert str(info.value) == (
                "piece 1 sample Point(x1=-0.5, x2=0.75) misses the level set by 0.5625"
            )

    def test_residual_equal_to_the_tolerance_passes(self):
        # d(x, p) = 1e-9 and d(x, q) = 1 exactly, so the residual against
        # r^2 = 0 is RESIDUAL_RTOL itself; one ulp further out it fails.
        spec = CassiniSpec(Point(0.0, 0.0), Point(1.0, 1e-9), 0.0)
        on_tol = Point(0.0, RESIDUAL_RTOL)
        _validate_loop(spec, [GuideSegment(RegionId.QUADRANT_P, on_tol, on_tol)], 4)
        beyond = Point(0.0, math.nextafter(RESIDUAL_RTOL, 1.0))
        with pytest.raises(AssemblyError, match="misses the level set"):
            _validate_loop(spec, [GuideSegment(RegionId.QUADRANT_P, beyond, beyond)], 4)
