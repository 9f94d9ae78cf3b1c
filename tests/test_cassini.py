"""Analytic curve construction: pieces, loops, classification, topology."""

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import pickle
import struct
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from taxicassini import campaign
from taxicassini.campaign import CampaignResult, random_spec, run_residual_campaign
from taxicassini.cassini import (
    RESIDUAL_RTOL,
    AssemblyError,
    CassiniSpec,
    DegenerateInput,
    GuideSegment,
    HyperbolaArc,
    PointLocation,
    Topology,
    _axis_sides,
    _diamond_pieces,
    _loop_validator,
    _piece_certificate,
    _standard_loops,
    build_curves,
    classify_point,
    critical_radius,
    curve_polyline,
    product_value,
    sample_coords,
    sample_curve,
    topology,
)
from taxicassini.characterization import grid_points, sampling_box
from taxicassini.core import (
    GeometryError,
    Point,
    PointGroup,
    RegionId,
    distance_product,
    guide_complements,
    midpoint,
    standardize,
    taxicab_distance,
)

from references import REGION_BY_SIDES, classify_region, placed, reference_midpoint

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


# The identity element and the translation by (-0.0, -0.0): the identity
# map, exactly: 1 * x == x and x + (-0.0) == x for every float x, the sign
# of a zero included, while x + 0.0 turns -0.0 into 0.0.
STANDARD = (PointGroup.IDENTITY, Point(-0.0, -0.0))


def standard_loops(a, b, r):
    """The loops of _standard_loops(a, b, r) left in the standard frame.  The
    identity has determinant +1, so they run counterclockwise."""
    return _standard_loops(a, b, r, *STANDARD)


def standard_pieces(a, b, r, region):
    """The pieces standard_loops(a, b, r) places in one region, in loop order."""
    return [piece for loop in standard_loops(a, b, r) for piece in loop if piece.region is region]


def fixture_specs_under_the_point_group():
    """Each fixture moved by each point-group element about its midpoint."""
    for line in FIXTURES.read_text().splitlines():
        rec = json.loads(line)
        p, q = Point(*map(float, rec["p"])), Point(*map(float, rec["q"]))
        m1, m2 = (p.x1 + q.x1) / 2, (p.x2 + q.x2) / 2
        for g in PointGroup:
            moved = [g.apply(x.x1 - m1, x.x2 - m2) for x in (p, q)]
            p_g, q_g = (Point(m1 + u1, m2 + u2) for u1, u2 in moved)
            yield CassiniSpec(p_g, q_g, float(rec["r"]))


def coords_at(piece, f):
    """The (x1, x2) pair piece.coords_at gives at one parameter."""
    (x,) = piece.coords_at((f,))
    return x


def pairs(points):
    """The (x1, x2) pair of each point."""
    return [(x.x1, x.x2) for x in points]


REFERENCE_SIDES = {region: sides for sides, region in REGION_BY_SIDES.items()}


def reference_run_axis(region):
    """The axis on which a half-strip lies between the focus lines."""
    return 1 if REFERENCE_SIDES[region][0] == "m" else 2


def reference_location(product, r, tol):
    """classify_point's docstring on a given product: On iff |product - r^2|
    <= tol * max(1, r^2), Inside iff product falls below the band, Outside
    otherwise."""
    target = r * r
    band = tol * max(1.0, target)
    if abs(product - target) <= band:
        return PointLocation.ON
    if product < target - band:
        return PointLocation.INSIDE
    return PointLocation.OUTSIDE


def _nudged(value, steps):
    # value moved by steps ulps, toward +inf for positive steps.
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


# r^2 rounds to 1 at r = 1 and to its float neighbours at the neighbours of
# 1, so the band's scale max(1, r^2) switches between these three radii.
_BAND_SWITCH_RADII = (1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0))


@st.composite
def classify_cases(draw):
    """(spec, x, tol): foci in [-4, 4]^2, r at the band's switch or drawn, x
    drawn in the plane or within a few ulps of a curve sample, and tol 0,
    1e-9, drawn, or within a few ulps of the band edge that x lies on."""
    coordinate = st.floats(-4.0, 4.0)
    steps = st.integers(-3, 3)
    p = Point(draw(coordinate), draw(coordinate))
    q = Point(draw(coordinate), draw(coordinate))
    r = draw(st.one_of(st.sampled_from(_BAND_SWITCH_RADII), st.floats(0.0, 40.0)))
    spec = CassiniSpec(p, q, r)
    x = Point(draw(coordinate), draw(coordinate))
    if r > 0 and draw(st.booleans()):
        try:
            curves = build_curves(spec)
        except (AssemblyError, DegenerateInput):
            curves = []
        if curves:
            sample = draw(st.sampled_from(sample_curve(draw(st.sampled_from(curves)), 16)))
            x = Point(_nudged(sample.x1, draw(steps)), _nudged(sample.x2, draw(steps)))
    target = r * r
    edge = abs(taxicab_distance(x, p) * taxicab_distance(x, q) - target) / max(1.0, target)
    tol = draw(
        st.one_of(
            st.sampled_from((0.0, 1e-9)),
            st.floats(0.0, 1e-3),
            steps.map(lambda k: max(0.0, _nudged(edge, k))),
        )
    )
    return spec, x, tol


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

    def test_spec_rejects_overflowing_foci(self):
        # Each of these errors named a point the user never gave: g_plus,
        # the standard focus or the midpoint; sampling_box returned inf.
        for p, q in [
            (Point(1e308, 0), Point(-1e308, 0)),
            (Point(0, 1e308), Point(0, 1e308)),
            (Point(1e308, 1e308), Point(1e308, 1e308)),
        ]:
            with pytest.raises(GeometryError) as info:
                CassiniSpec(p, q, 1.0)
            assert str(info.value) == (
                f"foci {p} and {q} are too large for r = 1.0:"
                " 4 (|p1| + |p2| + |q1| + |q2| + r) must be finite"
            )

    @pytest.mark.parametrize("r", [1.0, 1e154])
    def test_largest_foci_keep_every_sum_finite(self, r):
        # 4 (S + r), S the sum of the |coordinates|, is finite up to S =
        # max/4: at every sign pattern of four coordinates of max/16, and of
        # one of max/4, the sums the package forms stay finite.
        edge = sys.float_info.max / 16
        patterns = list(itertools.product((0.0, edge, -edge), repeat=4))
        for k in range(4):
            for single in (4 * edge, -4 * edge):
                patterns.append(tuple(single if j == k else 0.0 for j in range(4)))
        for p1, p2, q1, q2 in patterns:
            spec = CassiniSpec(Point(p1, p2), Point(q1, q2), r)
            # These build Points, which reject a non-finite coordinate, and
            # grid_points would warn on an overflowing box width.
            guide_complements(spec.p, spec.q)
            standardize(spec.p, spec.q)
            half = sampling_box(spec)[1]
            x1, x2 = grid_points(spec, 2)
            assert math.isfinite(half) and math.isfinite(critical_radius(spec.p, spec.q))
            assert np.isfinite(x1).all() and np.isfinite(x2).all()
        beyond = math.nextafter(edge, math.inf)
        for coordinates in ((beyond, edge, -edge, edge), (0.0, 0.0, 0.0, -4 * beyond)):
            p1, p2, q1, q2 = coordinates
            with pytest.raises(GeometryError, match="too large"):
                CassiniSpec(Point(p1, p2), Point(q1, q2), r)

    @given(dyadic_points, dyadic_points)
    def test_critical_radius_is_half_distance(self, p, q):
        assert critical_radius(p, q) == taxicab_distance(p, q) / 2


def _value_instances():
    # One of each bulk value type, and the pieces of a two-lobe and a
    # one-curve spec.
    spec = CassiniSpec(Point(4.3, 1.7), Point(-3.9, -1.2), 5.0)
    segment = GuideSegment(RegionId.QUADRANT_P, Point(1.0, 2.0), Point(2.0, 1.0))
    arc = HyperbolaArc(RegionId.STRIP_P_C1, Point(-1.0, -4.0), 6.0, Point(3.0, 5.0), Point(-2.0, 3.0))
    pieces = [
        piece
        for r in (5.0, 9.0)
        for curve in build_curves(dataclasses.replace(spec, r=r))
        for piece in curve
    ]
    return [Point(1.5, -2.0), spec, segment, arc] + pieces


class TestValueTypes:
    """Point, CassiniSpec and the two piece types hold their fields in slots:
    no per-instance dict, and the frozen dataclass contract kept."""

    def test_no_instance_dict(self):
        instances = _value_instances()
        assert {type(x) for x in instances} == {Point, CassiniSpec, GuideSegment, HyperbolaArc}
        for x in instances:
            assert not hasattr(x, "__dict__"), x
            assert type(x).__slots__ == tuple(f.name for f in dataclasses.fields(x))

    def test_frozen(self):
        for x in _value_instances():
            before = repr(x)
            for name in type(x).__slots__ + ("extra",):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(x, name, 1.0)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(x, name)
            assert repr(x) == before

    def test_copies_round_trip(self):
        for x in _value_instances():
            copies = [copy.deepcopy(x), copy.copy(x), dataclasses.replace(x)]
            if hasattr(copy, "replace"):  # Python 3.13 and later
                copies.append(copy.replace(x))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copies.append(pickle.loads(pickle.dumps(x, protocol)))
            for y in copies:
                assert type(y) is type(x) and y == x and hash(y) == hash(x)
                assert repr(y) == repr(x)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_goes_through_the_constructor(self, protocol):
        # A stream whose float is replaced by a value the constructor
        # rejects: protocol 0 writes floats as text, the others as 8 bytes.
        def crafted(x, old: float, new: float) -> bytes:
            data = pickle.dumps(x, protocol)
            if protocol == 0:
                old_bytes, new_bytes = f"F{old!r}\n".encode(), f"F{new!r}\n".encode()
            else:
                old_bytes, new_bytes = struct.pack(">d", old), struct.pack(">d", new)
            assert data.count(old_bytes) == 1
            return data.replace(old_bytes, new_bytes)

        spec = CassiniSpec(Point(1.25, 0.5), Point(-0.75, 0.5), 3.5)
        cases = [
            (Point(1.25, 0.5), 1.25, math.inf, "coordinates must be finite"),
            (spec, 1.25, math.nan, "coordinates must be finite"),
            (spec, 3.5, -1.0, "radius parameter must be finite"),
            (spec, -0.75, 1e308, "too large"),
        ]
        for x, old, new, text in cases:
            with pytest.raises(GeometryError, match=text):
                pickle.loads(crafted(x, old, new))

    def test_point_memory(self):
        # Slotted, a Point is its object header and two references; with a
        # dict it took about 88 traced bytes, its floats excluded.
        xs = [float(k) for k in range(10_000)]
        points = [None] * len(xs)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k, x in enumerate(xs):
                points[k] = Point(x, x)
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert used / len(points) <= 56


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

    @pytest.mark.parametrize(
        "r,x,tol,expected",
        [
            # p = q = 0 and r = 2: the band is 4 tol about r^2 = 4, and the
            # products 9 and 1 sit exactly on its edges at tol 1.25 and 0.75.
            (2.0, Point(3, 0), 1.25, PointLocation.ON),
            (2.0, Point(3, 0), math.nextafter(1.25, 0), PointLocation.OUTSIDE),
            (2.0, Point(1, 0), 0.75, PointLocation.ON),
            (2.0, Point(1, 0), math.nextafter(0.75, 0), PointLocation.INSIDE),
            (2.0, Point(2, 0), 0.0, PointLocation.ON),
            (2.0, Point(math.nextafter(2, 3), 0), 0.0, PointLocation.OUTSIDE),
            # The product and the band both overflow to inf.
            (1e154, Point(1e200, 0), 10.0, PointLocation.ON),
            # Only the product overflows.
            (1.0, Point(1e200, 0), 1e308, PointLocation.OUTSIDE),
        ],
        ids=[
            "outer-edge", "outside-outer-edge", "inner-edge", "inside-inner-edge",
            "zero-band", "zero-band-next", "both-overflow", "product-overflows",
        ],
    )
    def test_band_edges(self, r, x, tol, expected):
        spec = CassiniSpec(Point(0, 0), Point(0, 0), r)
        assert classify_point(spec, x, tol) is expected
        assert reference_location(product_value(spec, x), r, tol) is expected

    def test_zero_radius(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 0.0)
        assert classify_point(spec, Point(4, 1)) is PointLocation.ON
        assert classify_point(spec, Point(0, 0)) is PointLocation.OUTSIDE

    # Sweep: classify_point must match its docstring's float reference.
    @pytest.mark.sweep
    @settings(max_examples=300, deadline=None)
    @given(classify_cases())
    @example((CassiniSpec(Point(0, 0), Point(0, 0), 1.0), Point(0.5, 0.5), 0.0))
    @example((CassiniSpec(Point(1, 0), Point(-1, 0), 1.0), Point(0, 1e-9), 1e-9))
    def test_matches_float_reference(self, case):
        spec, x, tol = case
        want = reference_location(taxicab_distance(x, spec.p) * taxicab_distance(x, spec.q), spec.r, tol)
        assert classify_point(spec, x, tol) is want
        assert reference_location(product_value(spec, x), spec.r, tol) is want


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
        assert tuple(piece.start) == pytest.approx((sp - 3.0, 3.0))
        assert tuple(piece.end) == pytest.approx((8.0, sp - 8.0))
        for f in (0.0, 0.5, 1.0):
            x = Point(*coords_at(piece, f))
            assert x.x1 + x.x2 == pytest.approx(sp)
            assert product_value(spec, x) == pytest.approx(256.0)

    def test_opposite_quadrant_mirrors(self):
        [piece] = standard_pieces(8.0, 3.0, 16.0, RegionId.QUADRANT_Q)
        sp = math.hypot(11.0, 16.0)
        assert tuple(piece.start) == pytest.approx((3.0 - sp, -3.0))
        assert tuple(piece.end) == pytest.approx((-8.0, 8.0 - sp))

    def test_complement_quadrant_needs_large_radius(self):
        # The complement-quadrant branch exists only for r^2 >= 4ab = 96.
        assert standard_pieces(8.0, 3.0, 9.0, RegionId.QUADRANT_C1) == []
        [piece] = standard_pieces(8.0, 3.0, 16.0, RegionId.QUADRANT_C1)
        sc = math.hypot(8 - 3, 16.0)
        assert tuple(piece.start) == pytest.approx((8.0, 8.0 - sc))
        assert tuple(piece.end) == pytest.approx((sc - 3.0, -3.0))
        mid = Point(*coords_at(piece, 0.5))
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
            (Point(3.0, 1.0), Point(4.0, 0.0)),
            (Point(-3.0, -1.0), Point(-4.0, 0.0)),
        ]
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 3.0)
        for pc in pieces:
            assert product_value(spec, Point(*coords_at(pc, 0.5))) == pytest.approx(9.0)

    def test_at_critical_single_pinch_segment(self):
        # Both loops run along the one diagonal segment, in opposite directions.
        plus, minus = standard_pieces(4.0, 1.0, 5.0, RegionId.CENTRAL_RECTANGLE)
        assert (plus.start, plus.end) == (Point(-1.0, 1.0), Point(1.0, -1.0))
        assert (minus.region, minus.start, minus.end) == (plus.region, plus.end, plus.start)

    def test_above_critical_empty(self):
        assert standard_pieces(4.0, 1.0, 6.0, RegionId.CENTRAL_RECTANGLE) == []


class TestHalfStripPieces:
    def test_single_arc_above_critical(self):
        [arc] = standard_pieces(8.0, 3.0, 16.0, RegionId.STRIP_P_C1)
        assert arc.center == Point(-3.0, -8.0)
        # Between the focus lines along x2, so the arc runs along x2.
        assert arc.region is REGION_BY_SIDES["p", "m"]
        # At x2 = 0 the arc equation (x1+3)^2 - (x2+8)^2 = 256 gives
        # x1 = sqrt(320) - 3.
        mid = Point(*coords_at(arc, 0.5))
        assert mid.x2 == pytest.approx(0.0)
        assert mid.x1 == pytest.approx(math.sqrt(320.0) - 3.0)
        for f in (0.0, 0.25, 1.0):
            x1, x2 = coords_at(arc, f)
            assert (x1 + 3.0) ** 2 - (x2 + 8.0) ** 2 == pytest.approx(256.0)
        assert {arc.start.x2, arc.end.x2} == {-3.0, 3.0}

    def test_bottom_strip_uses_other_guide_center(self):
        [arc] = standard_pieces(8.0, 3.0, 16.0, RegionId.STRIP_Q_C1)
        assert arc.center == Point(3.0, 8.0)
        assert arc.region is REGION_BY_SIDES["m", "q"]

    def test_below_critical_keeps_one_slot_per_strip(self):
        # The top arc lies above the window about its center's u = -1 and
        # belongs to the loop about p; the bottom arc lies below the window
        # about u = 1 and belongs to the loop about q.
        p_loop, q_loop = standard_loops(4.0, 1.0, 3.0)
        top = [pc for pc in p_loop + q_loop if pc.region is RegionId.STRIP_P_C2]
        bottom = [pc for pc in p_loop + q_loop if pc.region is RegionId.STRIP_Q_C1]
        assert top == [pc for pc in p_loop if pc.region is RegionId.STRIP_P_C2]
        assert bottom == [pc for pc in q_loop if pc.region is RegionId.STRIP_Q_C1]
        assert len(top) == len(bottom) == 1
        # Both strips lie between the focus lines along x1, so they run
        # along x1 and the endpoints' x1 give the run range.
        assert REFERENCE_SIDES[top[0].region][0] == REFERENCE_SIDES[bottom[0].region][0] == "m"
        assert sorted((top[0].start.x1, top[0].end.x1)) == [3.0, 4.0]
        assert sorted((bottom[0].start.x1, bottom[0].end.x1)) == [-4.0, -3.0]
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 3.0)
        for arc in top + bottom:
            for f in (0.0, 0.5, 1.0):
                assert product_value(spec, Point(*coords_at(arc, f))) == pytest.approx(9.0)

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
                x = Point(*coords_at(arc, k / 8))
                assert product_value(spec, x) == pytest.approx(256.0, rel=1e-12)


class TestPieceParametrization:
    def test_segment_point_at_endpoints_exact(self):
        seg = GuideSegment(RegionId.QUADRANT_P, Point(1, 2), Point(3, 0))
        assert Point(*coords_at(seg, 0.0)) == Point(1, 2)
        assert Point(*coords_at(seg, 1.0)) == Point(3, 0)


class TestBuildCurves:
    def test_zero_radius_is_degenerate(self):
        with pytest.raises(DegenerateInput):
            build_curves(CassiniSpec(Point(4, 1), Point(-4, -1), 0.0))

    def test_overflowing_midpoint_is_named(self):
        # A spec whose midpoint would overflow is rejected where it is made,
        # naming the foci as given, before build_curves rounds any sum.
        with pytest.raises(GeometryError) as info:
            CassiniSpec(Point(0, 1e308), Point(0, 1e308), 1.0)
        assert str(info.value) == (
            "foci Point(x1=0, x2=1e+308) and Point(x1=0, x2=1e+308) are too large for"
            " r = 1.0: 4 (|p1| + |p2| + |q1| + |q2| + r) must be finite"
        )

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

    @pytest.mark.parametrize(
        "center,r",
        [((0.0, 0.0), r) for r in (5e-324, 1e-300, 1e-13, 4e-13, 1.0)] + [((5.0, 5.0), 1e-13)],
    )
    def test_small_taxicab_circles_build(self, center, r):
        # Each side has L1 length 2r > 0: only coinciding ends drop a side.
        c1, c2 = center
        spec = CassiniSpec(Point(c1, c2), Point(c1, c2), r)
        (curve,) = build_curves(spec)
        vertices = {Point(c1 + r, c2), Point(c1, c2 + r), Point(c1 - r, c2), Point(c1, c2 - r)}
        assert len(curve) == 4
        assert {piece.start for piece in curve} == vertices
        for x in sample_curve(curve, 32):
            assert classify_point(spec, x) is PointLocation.ON

    # Half an ulp of 1e6 is 2^-34: a radius below it rounds every vertex of
    # the circle onto its center, one just above it moves each vertex by an ulp.
    HALF_ULP_1E6 = math.ulp(1e6) / 2

    def test_circle_below_float_resolution_is_degenerate_input(self):
        r = math.nextafter(self.HALF_ULP_1E6, 0.0)
        spec = CassiniSpec(Point(1e6, 1e6), Point(1e6, 1e6), r)
        with pytest.raises(DegenerateInput) as info:
            build_curves(spec)
        assert str(info.value) == (
            f"{spec}, loop 1 of 1: r = {r!r} is below the float resolution at its"
            " coordinates: every piece rounds onto one point, or an arc's end onto its"
            " center's line"
        )

    def test_circle_just_above_float_resolution_builds(self):
        r = math.nextafter(self.HALF_ULP_1E6, 1.0)
        spec = CassiniSpec(Point(1e6, 1e6), Point(1e6, 1e6), r)
        (curve,) = build_curves(spec)
        up, down = math.nextafter(1e6, 2e6), math.nextafter(1e6, 0.0)
        assert {piece.start for piece in curve} == {
            Point(up, 1e6), Point(1e6, up), Point(down, 1e6), Point(1e6, down)
        }

    @pytest.mark.parametrize("c", [1e16, 1e17, 1e100, 1e300])
    def test_circle_flat_on_a_coordinate_line_is_degenerate_input(self, c):
        # The unit offsets along the large coordinate round away, so the
        # circle lies flat on a coordinate line and its vertices there, on
        # the center, miss the level set by r^2.  This raised AssemblyError.
        for p in (Point(0.0, c), Point(c, 0.0)):
            spec = CassiniSpec(p, p, 1.0)
            with pytest.raises(DegenerateInput) as info:
                build_curves(spec)
            assert str(info.value) == (
                f"{spec}, loop 1 of 1: r = 1.0 is below the float resolution at its"
                " coordinates: every piece rounds onto one point, or an arc's end onto its"
                " center's line"
            )

    def test_lobes_below_float_resolution_are_degenerate_input(self):
        # At r = 1e-160 every piece of a lobe rounds onto its focus; the
        # other spec keeps two arcs per lobe, each with its ends on its
        # center's line.
        for spec in (CassiniSpec(Point(4, 1), Point(-4, -1), 1e-160), ARC_ON_CENTER_LINE_SPEC):
            with pytest.raises(DegenerateInput) as info:
                build_curves(spec)
            assert str(info.value) == (
                f"{spec}, loop 1 of 2: r = {spec.r!r} is below the float resolution at its"
                " coordinates: every piece rounds onto one point, or an arc's end onto its"
                " center's line"
            )

    def test_reference_instance_keeps_every_piece_down_to_2_to_the_minus_60(self):
        # Scaling by 2^k is exact, and a piece is dropped only when its ends
        # coincide: all 8 pieces stay, in the same regions, at every scale.
        def regions(k):
            s = 2.0**k
            (curve,) = build_curves(CassiniSpec(Point(4 * s, s), Point(-4 * s, -s), 6 * s))
            return [piece.region for piece in curve]

        want = regions(0)
        assert len(want) == 8
        for k in range(-60, 0):
            assert regions(k) == want, k

    def test_sample_curve_needs_enough_points(self):
        curve = build_curves(CassiniSpec(Point(0, 0), Point(0, 0), 2.0))[0]
        for sample in (sample_curve, sample_coords):
            with pytest.raises(GeometryError, match="^need at least 8 samples, got 7$"):
                sample(curve, 7)

    def test_polyline_does_not_repeat_first_point(self):
        curve = build_curves(CassiniSpec(Point(4, 1), Point(-4, -1), 6.0))[0]
        ring = curve_polyline(curve, 16)
        assert len(ring) == 16 * len(curve)
        assert ring[0] != ring[-1]

    def test_fixture_pieces_under_the_point_group_are_pinned(self):
        # Every piece pinned at full precision through its repr; the info
        # reports print six decimals.
        digest = hashlib.sha256()
        for spec in fixture_specs_under_the_point_group():
            for curve in build_curves(spec):
                digest.update(repr(curve).encode())
        assert digest.hexdigest() == (
            "0c55cc44b975c3677068788106ca809e4904f53012b63eae840963f0ee6721d5"
        )

    @settings(max_examples=60, deadline=None)
    @given(dyadic_specs())
    def test_random_instances_build_and_lie_on_the_set(self, spec):
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
# from its endpoints.  The package builds each piece once, in the input frame;
# the reference builds the standard-frame loops in place (STANDARD), maps
# them piece by piece and orients each loop in a second pass.  Assembly of
# the standard-frame pieces is shared; everything else must match the
# reference bit for bit.


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
    run, center = reference_run_axis(piece.region), piece.center
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


# A swap of the coordinates exchanges the complements c1 = (p1, q2) and
# c2 = (q1, p2), so it exchanges the labels that name them.
REFERENCE_REGION_UNDER_SWAP = {
    RegionId.QUADRANT_C1: RegionId.QUADRANT_C2,
    RegionId.QUADRANT_C2: RegionId.QUADRANT_C1,
    RegionId.STRIP_P_C1: RegionId.STRIP_P_C2,
    RegionId.STRIP_P_C2: RegionId.STRIP_P_C1,
    RegionId.STRIP_Q_C1: RegionId.STRIP_Q_C2,
    RegionId.STRIP_Q_C2: RegionId.STRIP_Q_C1,
}


def reference_map_piece(piece, element, t):
    """piece mapped by the point-group element, then moved by t."""
    swap = element.value[0]
    region = piece.region
    if swap:
        region = REFERENCE_REGION_UNDER_SWAP.get(region, region)
    start, end = placed(element, t, piece.start), placed(element, t, piece.end)
    if isinstance(piece, GuideSegment):
        return GuideSegment(region, start, end)
    return HyperbolaArc(region, placed(element, t, piece.center), piece.radius, start, end)


def reference_in_region(spec, region, x):
    """Whether x lies in the closed region of spec's foci widened by 16 u C
    beyond each coordinate line, u the unit roundoff and C = 2 max|focus
    coordinate| + r, but by at least 16 times the least subnormal.  An axis
    on which the foci share the coordinate is not checked."""
    p, q = spec.p, spec.q
    slack = 16 * 2.0**-53 * (2.0 * max(abs(p.x1), abs(p.x2), abs(q.x1), abs(q.x2)) + spec.r)
    slack = max(slack, 16 * 5e-324)
    for pj, qj, xj, side in zip((p.x1, p.x2), (q.x1, q.x2), (x.x1, x.x2), REFERENCE_SIDES[region]):
        if pj == qj:
            continue
        lo, hi = min(pj, qj), max(pj, qj)
        # "m" lies between the lines; the focus with the larger coordinate
        # names the side above hi.
        if side == "m":
            inside = lo - slack <= xj <= hi + slack
        elif side == ("p" if pj > qj else "q"):
            inside = xj >= hi - slack
        else:
            inside = xj <= lo + slack
        if not inside:
            return False
    return True


def validate_loop(spec, pieces, samples_per_piece):
    """The package's check of one loop of spec's pieces."""
    _loop_validator(spec, samples_per_piece)(pieces)


def reference_validate_loop(spec, pieces, samples_per_piece):
    target = spec.r * spec.r
    residual_tol = RESIDUAL_RTOL * max(1.0, target)
    for i, piece in enumerate(pieces):
        for k in range(samples_per_piece + 1):
            x = reference_point_at(piece, k / samples_per_piece)
            residual = abs(taxicab_distance(x, spec.p) * taxicab_distance(x, spec.q) - target)
            if residual > residual_tol:
                raise AssemblyError(f"piece {i} sample {x} misses the level set by {residual!r}")
            if not reference_in_region(spec, piece.region, x):
                raise AssemblyError(
                    f"piece {i} sample {x} lies outside its region {piece.region.value}"
                )


def reference_ends_on_center_line(piece):
    """Whether piece is an arc with an end on its center's line, where the
    branch cannot be read off that end."""
    if isinstance(piece, GuideSegment):
        return False
    other = 3 - reference_run_axis(piece.region)
    return piece.center.coord(other) in (piece.start.coord(other), piece.end.coord(other))


def reference_build_curves(spec, samples_per_piece=16):
    """The reference curves of spec; samples_per_piece=None skips validation."""
    if spec.r == 0:
        raise DegenerateInput("r = 0 yields the bare focus pair, not a curve")
    m = reference_midpoint(spec.p, spec.q)
    element, p_std = standardize(spec.p, spec.q)
    back = element.inverse()
    if p_std == Point(0.0, 0.0):
        raw_loops = [_diamond_pieces(spec.r, *STANDARD)]
    else:
        raw_loops = standard_loops(p_std.x1, p_std.x2, spec.r)
    curves = []
    for k, raw in enumerate(raw_loops, 1):
        # Only a piece whose ends coincide once mapped is dropped.
        kept = [
            piece
            for piece in (reference_map_piece(piece, back, m) for piece in raw)
            if piece.start != piece.end
        ]
        where = f"loop {k} of {len(raw_loops)}"
        if not kept or any(map(reference_ends_on_center_line, kept)):
            raise DegenerateInput(
                f"{spec}, {where}: r = {spec.r!r} is below the float resolution at its"
                " coordinates: every piece rounds onto one point, or an arc's end onto its"
                " center's line"
            )
        if back.determinant == -1:
            # The standard loops run counterclockwise, and a reflection
            # turns their images clockwise.
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
            repr([(x.x1, x.x2) for n in (8, 61, 64) for x in sample(curve, n)]),
            repr([(x.x1, x.x2) for m in (5, 128) for x in polyline(curve, m)]),
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
# A residual miss found among the perfbench scale-stress specs; lobes a
# millionth of r* across, four pieces each; and lobes about (+-1e6, 0) that
# no float point meets to 1e-9 max(1, r^2) (ROADMAP item 3).
RESIDUAL_MISS_SPEC = CassiniSpec(
    Point(0.0014966530639784724, 2945252.409567547),
    Point(-8.725068365324634e-06, 2411666.2233538902),
    319.55182061393936,
)
SMALL_LOBE_SPEC = CassiniSpec(Point(4, 1), Point(-4, -1), 5e-6)
UNREPRESENTABLE_LOBE_SPEC = CassiniSpec(Point(1e6, 0), Point(-1e6, 0), 1.0)
# Lobes 1.8e-287 tall on the line x1 = 1, far below its float resolution:
# the arcs keep distinct ends, but on their centers' line x1 = 1, so no
# branch can be read off them (found by TestArcEndpoints).
ARC_ON_CENTER_LINE_SPEC = CassiniSpec(Point(1, 0), Point(1, 1.8310357702690814e-287), 5e-324)
# Foci the least subnormal apart: their half-difference rounds to zero, so
# the curve is the taxicab circle about the midpoint (-0.0, 0.0), whose zeros
# would otherwise differ in sign across the dropped arcs.
SUBNORMAL_FOCI_SPEC = CassiniSpec(Point(0.0, 0.0), Point(-5e-324, 0.0), 1.0)
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

# Foci on the line x2 = -0.0: some pieces start or end at x2 = -0.0, which
# every evaluator must keep.
SIGNED_ZERO_SPEC = CassiniSpec(Point(0.0, -0.0), Point(2.0, -0.0), 0.75)
# Foci the least subnormal apart whose difference and half-difference differ
# in sign or order, since the half rounds to zero: the point-group element
# follows the difference, so the circle's pieces get the regions of these foci.
SUBNORMAL_APART_SPECS = [
    CassiniSpec(Point(-5e-324, 1.0), Point(-0.0, 1.0), 1.0),
    CassiniSpec(Point(1.0, -5e-324), Point(1.0, -0.0), 1.0),
    CassiniSpec(Point(0.0, 1.0), Point(5e-324, 1.0), 1.0),
]
# At subnormal scales 16 u C underflows, and the region test's slack is 16
# times the least subnormal: this circle's vertex (1e-310, 0) lies one
# subnormal off q's coordinate line.
SUBNORMAL_SCALE_SPEC = CassiniSpec(Point(0.0, 0.0), Point(0.0, 5e-324), 1e-310)


# Sweep: pieces, samples and errors must match the two-pass reference bit for bit.
@pytest.mark.sweep
class TestFloatPathMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(random_specs, dyadic_specs(), stress_specs), st.integers(1, 24))
    @example(RESIDUAL_MISS_SPEC, 16)
    @example(SUBNORMAL_APART_SPECS[0], 16)
    @example(SUBNORMAL_APART_SPECS[1], 16)
    @example(SUBNORMAL_APART_SPECS[2], 16)
    @example(SUBNORMAL_SCALE_SPEC, 16)
    @example(SMALL_LOBE_SPEC, 16)
    @example(UNREPRESENTABLE_LOBE_SPEC, 16)
    @example(MIDPOINT_ORIENTED_SPEC, 16)
    @example(TINY_LOBE_SPEC, 16)
    @example(CassiniSpec(Point(0, 0), Point(0, 0), 2.0), 3)
    @example(CassiniSpec(Point(4, 1), Point(-4, -1), 5.0), 1)
    @example(SIGNED_ZERO_SPEC, 16)
    @example(SUBNORMAL_FOCI_SPEC, 16)
    def test_build_sample_and_errors_match_reference(self, spec, samples_per_piece):
        got = _outcome(build_curves, sample_curve, curve_polyline, spec)
        want = _outcome(
            reference_build_curves, reference_sample_curve, reference_curve_polyline, spec
        )
        assert got == want
        if isinstance(got, list):
            for curve in build_curves(spec):
                for piece in curve:
                    want = [reference_point_at(piece, f) for f in (0.0, 0.5, 1.0)]
                    assert repr(piece.coords_at((0.0, 0.5, 1.0))) == repr(pairs(want))
                # The coordinate twin of sample_curve, bit for bit, at the
                # residual campaign's sample count.
                got_xy = [tuple(row) for row in sample_coords(curve, 64).tolist()]
                assert repr(got_xy) == repr(pairs(sample_curve(curve, 64)))
        # Validation at other sample counts, on the loops before validation.
        try:
            loops = reference_build_curves(spec, None)
        except (AssemblyError, GeometryError):
            loops = []
        for pieces in loops:
            assert _validation_outcome(
                validate_loop, spec, pieces, samples_per_piece
            ) == _validation_outcome(reference_validate_loop, spec, pieces, samples_per_piece)


# The point reflection x -> -x through the midpoint swaps the foci, so it
# swaps the sides "p" and "q" of both axes and keeps "m".
REFERENCE_REGION_MIRROR = {
    region: REGION_BY_SIDES[tuple({"p": "q", "m": "m", "q": "p"}[side] for side in sides)]
    for region, sides in REFERENCE_SIDES.items()
}


@st.composite
def standard_frames(draw):
    """(a, b, r) for p = (a, b) = -q, a >= b >= 0, at scales 1e-6 to 1e9:
    b = 0 or drawn, and r below, at or above r* = a + b, or with r^2 = 4ab
    exactly."""
    kind = draw(st.sampled_from(("below r*", "r*", "above r*", "r^2 = 4ab")))
    if kind == "r^2 = 4ab":
        # a = s k^2, b = s m^2 and r = 2 s k m, with s a power of two: every
        # value is exact, and so are r^2 and 4ab.
        s = 2.0 ** draw(st.integers(-20, 30))
        k = draw(st.integers(1, 2**12))
        m = draw(st.integers(1, k))
        return s * k * k, s * m * m, 2.0 * s * k * m
    a = 10.0 ** draw(st.floats(-6.0, 9.0))
    b = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0).map(lambda t: a * t)))
    rstar = a + b
    factor = 10.0 ** draw(st.floats(0.0, 3.0))
    if kind == "below r*":
        return a, b, min(rstar / factor, math.nextafter(rstar, 0.0))
    if kind == "above r*":
        return a, b, max(rstar * factor, math.nextafter(rstar, math.inf))
    return a, b, rstar


def piece_coordinates(piece):
    """The coordinates a piece stores: its ends, and an arc's center."""
    points = (piece.start, piece.end)
    if isinstance(piece, HyperbolaArc):
        points += (piece.center,)
    return [(x.x1, x.x2) for x in points]


# Sweep: the q half must be the p half negated, at standard frames from 1e-6 to 1e9.
@pytest.mark.sweep
class TestPointReflection:
    # _standard_loops writes p's half only and places each piece with its
    # point reflection.  In the standard frame the reflection negates every
    # coordinate, a zero's sign included, so pieces are compared by repr.

    @settings(max_examples=300, deadline=None)
    @given(standard_frames())
    @example((4.0, 1.0, 3.0))
    @example((4.0, 1.0, 5.0))
    @example((4.0, 1.0, 6.0))
    @example((8.0, 2.0, 8.0))
    @example((5.0, 0.0, 5.0))
    @example((5.0, 0.0, 2.0))
    @example((5.0, 0.0, 8.0))
    def test_q_half_is_the_p_half_negated(self, case):
        a, b, r = case
        loops = standard_loops(a, b, r)
        if r > a + b:
            # One loop: a half, then its reflection.
            (loop,) = loops
            assert len(loop) % 2 == 0
            halves = loop[: len(loop) // 2], loop[len(loop) // 2 :]
        else:
            halves = loops
        first, second = halves
        # Counted before build_curves drops any piece whose ends coincide.
        assert len(first) == len(second) > 0
        for piece, image in zip(first, second):
            assert type(image) is type(piece)
            assert image.region is REFERENCE_REGION_MIRROR[piece.region]
            negated = [(-x1, -x2) for x1, x2 in piece_coordinates(piece)]
            assert repr(piece_coordinates(image)) == repr(negated)
            if isinstance(piece, HyperbolaArc):
                assert image.radius == piece.radius == r


def assert_closed_by_construction(spec):
    """Each piece of every curve build_curves(spec) returns starts where the
    previous one ends, a zero's sign included, and no piece has coinciding
    ends.  Returns the number of junctions checked."""
    try:
        curves = build_curves(spec)
    except (AssemblyError, DegenerateInput):
        return 0
    for curve in curves:
        for piece, nxt in zip(curve, curve[1:] + curve[:1]):
            assert repr(piece.end) == repr(nxt.start), (spec, piece, nxt)
            assert piece.start != piece.end, (spec, piece)
    return sum(map(len, curves))


circle_specs = st.builds(
    lambda c1, c2, r: CassiniSpec(Point(c1, c2), Point(c1, c2), r),
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6),
    st.floats(0.0, 40.0, exclude_min=True),
)
# standard_frames as specs: p = (a, b) = -q, with r = r* and r^2 = 4ab exact.
standard_specs = standard_frames().map(
    lambda case: CassiniSpec(Point(case[0], case[1]), Point(-case[0], -case[1]), case[2])
)


# Sweep: each piece must end where the next starts, a zero's sign included.
@pytest.mark.sweep
class TestJunctions:
    # Each junction is computed once and placed once, and the piece that
    # ends there and the piece that starts there share the one Point; a
    # piece is dropped only when its ends coincide, so its neighbours still
    # meet.  Every loop closes by construction.

    def test_campaign_specs(self):
        rng = np.random.default_rng(11)
        checked = sum(assert_closed_by_construction(random_spec(rng)) for _ in range(1500))
        assert checked > 8000

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            random_specs, dyadic_specs(), stress_specs, deep_stress_specs, circle_specs, standard_specs
        )
    )
    @example(CassiniSpec(Point(4, 1), Point(-4, -1), 3.0))
    @example(CassiniSpec(Point(4, 1), Point(-4, -1), 5.0))
    @example(CassiniSpec(Point(4, 1), Point(-4, -1), 6.0))
    @example(CassiniSpec(Point(5, 0), Point(-5, 0), 5.0))
    @example(CassiniSpec(Point(5, 0), Point(-5, 0), 8.0))
    @example(SMALL_LOBE_SPEC)
    @example(SIGNED_ZERO_SPEC)
    @example(SUBNORMAL_FOCI_SPEC)
    def test_every_piece_starts_where_the_previous_one_ends(self, spec):
        assert_closed_by_construction(spec)


_tiny_coordinates = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.0, -2.0))


# Sweep: zero and subnormal coordinates must build or raise DegenerateInput.
@pytest.mark.sweep
class TestTinyCoordinates:
    # The point-group element follows p - q, whose signs and order a halving
    # can lose: (p - q) / 2 rounds a difference of the least subnormal to
    # a zero.  At subnormal scales 16 u C underflows, so the region test's
    # slack has a floor of 16 times the least subnormal.

    @pytest.mark.parametrize("spec", SUBNORMAL_APART_SPECS + [SUBNORMAL_SCALE_SPEC], ids=repr)
    def test_foci_the_least_subnormal_apart_build(self, spec):
        (curve,) = build_curves(spec)
        assert [type(piece) for piece in curve] == [GuideSegment] * 4

    @settings(max_examples=300, deadline=None)
    @given(
        st.builds(Point, _tiny_coordinates, _tiny_coordinates),
        st.builds(Point, _tiny_coordinates, _tiny_coordinates),
        st.floats(0.0, 1e150, exclude_min=True),
    )
    def test_build_returns_curves_or_degenerate_input(self, p, q, r):
        # Any valid spec builds, or is below the float resolution; an
        # AssemblyError would be an implementation bug.
        try:
            curves = build_curves(CassiniSpec(p, q, r))
        except DegenerateInput:
            return
        assert curves


# Sweep: each region's sides and images must match the tests' own tables.
@pytest.mark.sweep
class TestRegionTable:
    # Each region's facts are attributes of its member, checked here against
    # tables written from the definitions: sides 0 on p's side away from q,
    # 1 between the coordinate lines, 2 on q's side away from p.
    LABELS_AND_SIDES = {
        RegionId.QUADRANT_P: ("Q_p", (0, 0)),
        RegionId.QUADRANT_Q: ("Q_q", (2, 2)),
        RegionId.QUADRANT_C1: ("Q_c1", (0, 2)),
        RegionId.QUADRANT_C2: ("Q_c2", (2, 0)),
        RegionId.STRIP_P_C1: ("S_p_c1", (0, 1)),
        RegionId.STRIP_P_C2: ("S_p_c2", (1, 0)),
        RegionId.STRIP_Q_C1: ("S_q_c1", (1, 2)),
        RegionId.STRIP_Q_C2: ("S_q_c2", (2, 1)),
        RegionId.CENTRAL_RECTANGLE: ("R", (1, 1)),
    }

    def test_every_region_has_its_sides_and_images(self):
        assert list(RegionId) == list(self.LABELS_AND_SIDES)
        for region, (_, sides) in self.LABELS_AND_SIDES.items():
            assert region.sides == sides
            assert tuple("pmq"[side] for side in sides) == REFERENCE_SIDES[region]
            assert region.swapped is REFERENCE_REGION_UNDER_SWAP.get(region, region)
            assert region.mirrored is REFERENCE_REGION_MIRROR[region]
            assert region.swapped.swapped is region
            assert region.mirrored.mirrored is region

    def test_value_and_repr_are_the_label(self):
        for region, (label, _) in self.LABELS_AND_SIDES.items():
            assert region.value == label
            assert RegionId(label) is region
            assert repr(region) == f"<RegionId.{region.name}: {label!r}>"


def construction_mix():
    """A seeded mix of specs: the campaign distribution, scale-stress specs,
    dyadic specs at r = r* and at r^2 = 4ab exactly, and a circle.  Drawn
    here, not by the package, so that the mix cannot change with it."""
    rng = np.random.default_rng(20261020)
    specs = []
    while len(specs) < 1000:
        # Coordinates uniform in [-20, 20], r uniform in (0, 40].
        coords = rng.uniform(-20.0, 20.0, 4).tolist()
        p, q, r = Point(*coords[:2]), Point(*coords[2:]), float(rng.uniform(0.0, 40.0))
        if r > 0 and p != q:
            specs.append(CassiniSpec(p, q, r))
    while len(specs) < 2000:
        # Signed coordinates log-uniform over 1e-6 .. 1e9, r = r* 10^u, u in [-3.3, -1].
        signs = np.where(rng.random(4) < 0.5, -1.0, 1.0)
        coords = (signs * 10.0 ** rng.uniform(-6.0, 9.0, 4)).tolist()
        p, q = Point(*coords[:2]), Point(*coords[2:])
        if p != q:
            rstar = (abs(p.x1 - q.x1) + abs(p.x2 - q.x2)) / 2
            specs.append(CassiniSpec(p, q, rstar * 10.0 ** float(rng.uniform(-3.3, -1.0))))
    for _ in range(250):
        # Midpoint m and half-difference (a, b) = (k^2, j^2) / 16 in either
        # order and with either signs, so a + b, a b and 2 k j / 16 are exact.
        m1, m2, k, j = (int(v) for v in rng.integers(-320, 321, 4))
        k, j = abs(k) + 1, abs(j)
        a, b = k * k / 16, j * j / 16
        s1, s2 = rng.choice([-1.0, 1.0], 2).tolist()
        if rng.random() < 0.5:
            a, b = b, a
        p = Point(m1 / 16 + s1 * a, m2 / 16 + s2 * b)
        q = Point(m1 / 16 - s1 * a, m2 / 16 - s2 * b)
        specs.append(CassiniSpec(p, q, a + b))
        specs.append(CassiniSpec(p, q, 2 * k * j / 16 or 1.0))
    specs.append(CassiniSpec(Point(1.5, -2.0), Point(1.5, -2.0), 3.0))
    return specs


def construction_digest(specs):
    """SHA-256 over each spec's repr(build_curves(spec)), or its error's
    type and text, one line each."""
    digest = hashlib.sha256()
    for spec in specs:
        try:
            line = repr(build_curves(spec))
        except GeometryError as exc:
            line = f"{type(exc).__name__}: {exc}"
        except AssemblyError as exc:
            line = f"AssemblyError: {exc}"
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


# Zeros of both signs, the least subnormals and small integers.
SPECIAL_COORDINATES = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.0, -2.0)


def special_coordinate_mix():
    """All 4,096 focus pairs with coordinates in SPECIAL_COORDINATES, each
    at r = 5e-324, 1, 3 and 1e150."""
    return [
        CassiniSpec(Point(p1, p2), Point(q1, q2), r)
        for p1, p2, q1, q2 in itertools.product(SPECIAL_COORDINATES, repeat=4)
        for r in (5e-324, 1.0, 3.0, 1e150)
    ]


class TestConstructionDigest:
    # Every piece and every error text of a fixed mix of 2,501 specs, pinned
    # byte for byte: a change to the construction's arithmetic, its pieces'
    # order or their reprs moves the digest.
    PINNED = "4868923f5945651b4eec6bb20f95e104dccdc69ab471ad83a4ae92801e3e14b3"
    # The same for the 16,384 specs of special_coordinate_mix, where placement
    # adds signed zeros and subnormals to the midpoint; 3,552 of them raise
    # DegenerateInput.
    PINNED_SPECIAL = "474882e578f310c865b4ec175f00c047a765e692e9edec086a29c2e2aff5e9c4"

    def test_construction_is_pinned(self):
        assert construction_digest(construction_mix()) == self.PINNED

    def test_special_coordinates_are_pinned(self):
        assert construction_digest(special_coordinate_mix()) == self.PINNED_SPECIAL


class _IndexPiece:
    """A stand-in piece whose coordinates are (its index, the parameter), and
    which records the parameters it is asked for."""

    def __init__(self, index):
        self.index = index
        self.fractions = []

    def coords_at(self, fractions):
        self.fractions += fractions
        return [(float(self.index), f) for f in fractions]


# Sweep: sample_curve's piece index has no clamp.
@pytest.mark.sweep
class TestSampleCurve:
    # sample_curve takes piece int(k * count / n) with no clamp to count - 1.

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.integers(8, 2**40), st.data())
    def test_float_index_is_the_exact_floor(self, count, n, data):
        # The exact quotient is at least 1/n below the next integer, and
        # 1/n >= 2^-40 is far more than its rounding error, at most 2^-47.
        for k in (n - 1, data.draw(st.integers(0, n - 1))):
            assert int(k * count / n) == k * count // n
        if n > count:
            assert int((n - 1) * count / n) == count - 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 64), st.integers(8, 4096))
    def test_samples_walk_the_pieces_in_order(self, count, n):
        pieces = tuple(_IndexPiece(i) for i in range(count))
        points = sample_curve(pieces, n)
        indices = [x.x1 for x in points]
        assert len(points) == n
        assert indices == sorted(indices)
        assert indices[0] == 0 and indices[-1] == (n - 1) * count // n
        # Piece i is asked, in one call, for exactly the parameters of the
        # samples k with k * count // n == i, each computed as t - i.
        for i, piece in enumerate(pieces):
            want = [k * count / n - i for k in range(n) if k * count // n == i]
            assert piece.fractions == want
            assert all(0.0 <= f < 1.0 for f in piece.fractions)


# Sweep: coords_at must match the one-parameter reference under all eight elements.
@pytest.mark.sweep
class TestCoordsAt:
    # coords_at is the one evaluator of both piece kinds; reference_point_at
    # works out each parameter on its own, through one Point.  The pieces
    # are placed by every point-group element about the spec's midpoint.
    # Pairs are compared by repr, which tells a zero's sign.
    ENDS = [0.0, 1.0, 2.0**-50, 1 - 2.0**-50]

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(random_specs, dyadic_specs(), stress_specs),
        st.lists(st.floats(0.0, 1.0), max_size=8),
    )
    @example(CassiniSpec(Point(4, 1), Point(-4, -1), 3.0), [0.5])
    @example(SIGNED_ZERO_SPEC, [0.5])
    def test_matches_the_reference_bit_for_bit(self, spec, drawn):
        _, p_std = standardize(spec.p, spec.q)
        a, b = p_std.x1, p_std.x2
        assume(a > 0)
        m = midpoint(spec.p, spec.q)
        fractions = self.ENDS + drawn
        kinds = set()
        # Above r* every strip holds an arc, whatever the drawn radius.
        for r in (spec.r, 3 * (a + b)):
            for g in PointGroup:
                for loop in _standard_loops(a, b, r, g, m):
                    for piece in loop:
                        kinds.add(type(piece))
                        want = [reference_point_at(piece, f) for f in fractions]
                        assert repr(piece.coords_at(fractions)) == repr(pairs(want))
                        assert repr(coords_at(piece, fractions[-1])) == repr(pairs(want)[-1])
        assert kinds == {GuideSegment, HyperbolaArc}


# Sweep: an arc's ends must lie on one side of its center, its run monotone.
@pytest.mark.sweep
class TestArcEndpoints:
    # An arc stores no branch and no run range: coords_at reads the branch
    # off start and the run range off both endpoints.  That branch is the
    # arc's own only if end lies strictly on the same side of the center,
    # and the samples run along the arc only if their run coordinates are
    # monotone.
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(random_specs, dyadic_specs(), stress_specs, deep_stress_specs))
    @example(ARC_ON_CENTER_LINE_SPEC)
    def test_endpoints_share_a_side_and_the_run_is_monotone(self, spec):
        try:
            curves = build_curves(spec)
        except (AssemblyError, DegenerateInput):
            return
        for curve in curves:
            for arc in curve:
                if not isinstance(arc, HyperbolaArc):
                    continue
                run = reference_run_axis(arc.region)
                other = 3 - run
                center = arc.center.coord(other)
                offsets = (arc.start.coord(other) - center, arc.end.coord(other) - center)
                assert min(offsets) > 0 or max(offsets) < 0
                runs = [coords_at(arc, k / 16)[run - 1] for k in range(17)]
                assert runs in (sorted(runs), sorted(runs, reverse=True))


def turning_sign(arc):
    """+1 if the arc turns left as it runs from start to end, -1 if right.

    On run axis 1 the arc is the graph x2 = c2 + b sqrt((x1 - c1)^2 + r^2),
    convex for the branch b = +1 and concave for b = -1, so it turns left
    running towards larger x1 iff b = +1.  On run axis 2 it is that graph
    with the axes exchanged, a reflection, which flips the sign.  The branch
    is read off start as coords_at reads it; an arc of zero run length gets 0.
    """
    run = reference_run_axis(arc.region)
    other = 3 - run
    branch = 1 if arc.start.coord(other) > arc.center.coord(other) else -1
    du = arc.end.coord(run) - arc.start.coord(run)
    return (1 if run == 1 else -1) * ((du > 0) - (du < 0)) * branch


def assert_never_convex(spec):
    # Every loop runs counterclockwise, so an arc that turns right makes it
    # nonconvex; a taxicab circle, the one convex case, has no arc.
    for curve in build_curves(spec):
        arcs = [piece for piece in curve if isinstance(piece, HyperbolaArc)]
        if spec.p == spec.q:
            assert arcs == []
        else:
            assert arcs, spec
            assert [turning_sign(arc) for arc in arcs] == [-1] * len(arcs), spec


# Sweep: every arc must turn right, so no loop with p != q is convex.
@pytest.mark.sweep
class TestArcTurning:
    # The filled set is never convex when p != q: on the strip above both
    # foci the curve is a convex function of the run coordinate and the set
    # lies below it, so each arc turns right on its counterclockwise loop.

    def test_fixture_arcs_turn_right(self):
        # The sign formula agrees with the exact cross product of the points
        # at f = 0, 1/2 and 1.
        arcs = 0
        for spec in fixture_specs_under_the_point_group():
            assert_never_convex(spec)
            for arc in (piece for curve in build_curves(spec) for piece in curve):
                if isinstance(arc, HyperbolaArc):
                    arcs += 1
                    s, m, e = ([Fraction(c) for c in x] for x in arc.coords_at((0.0, 0.5, 1.0)))
                    cross = (m[0] - s[0]) * (e[1] - m[1]) - (m[1] - s[1]) * (e[0] - m[0])
                    assert (cross > 0) - (cross < 0) == turning_sign(arc)
        assert arcs > 0

    @settings(max_examples=200, deadline=None)
    @given(dyadic_specs())
    def test_every_arc_turns_right(self, spec):
        # At the drawn radius and at r = r*, where the loops pinch.
        assert_never_convex(spec)
        rstar = critical_radius(spec.p, spec.q)
        if rstar > 0:
            assert_never_convex(CassiniSpec(spec.p, spec.q, rstar))


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

    def test_unrepresentable_lobe_names_its_miss(self):
        with pytest.raises(AssemblyError) as info:
            build_curves(UNREPRESENTABLE_LOBE_SPEC)
        assert str(info.value) == (
            "CassiniSpec(p=Point(x1=1000000.0, x2=0), q=Point(x1=-1000000.0, x2=0), r=1.0),"
            " loop 1 of 2: piece 0 sample Point(x1=1000000.0, x2=5.00003807246685e-07)"
            " misses the level set by 7.6144936200783775e-06"
        )

    def test_first_missing_piece_is_reported(self):
        # Pieces 1 and 2 both miss the unit diamond; the first is named.
        spec = CassiniSpec(Point(0, 0), Point(0, 0), 1.0)
        pieces = [
            _diamond_side((1, 0), (0, 1)),
            _diamond_side((0, 1), (-2, 0)),
            _diamond_side((-2, 0), (0, -3)),
        ]
        for validate in (validate_loop, reference_validate_loop):
            with pytest.raises(AssemblyError) as info:
                validate(spec, pieces, 4)
            assert str(info.value) == (
                "piece 1 sample Point(x1=-0.5, x2=0.75) misses the level set by 0.5625"
            )

    def test_residual_equal_to_the_tolerance_passes(self):
        # d(x, p) = 1e-9 and d(x, q) = 1 exactly, so the residual against
        # r^2 = 0 is RESIDUAL_RTOL itself; one ulp further out it fails.  The
        # point is a corner of the central rectangle, its region.
        spec = CassiniSpec(Point(0.0, 0.0), Point(1.0, 1e-9), 0.0)
        on_tol = Point(0.0, RESIDUAL_RTOL)
        validate_loop(spec, [GuideSegment(RegionId.CENTRAL_RECTANGLE, on_tol, on_tol)], 4)
        beyond = Point(0.0, math.nextafter(RESIDUAL_RTOL, 1.0))
        with pytest.raises(AssemblyError, match="misses the level set"):
            validate_loop(spec, [GuideSegment(RegionId.CENTRAL_RECTANGLE, beyond, beyond)], 4)


# The piece certificate lets validation skip a piece's samples, so it must
# never accept a piece whose points miss the level set anywhere.


def _radius_variant(spec, which):
    """The radius under test: spec's own, r* or a float neighbour of it, or
    2 sqrt(ab), where the complement-quadrant segments shrink to a corner."""
    rstar = critical_radius(spec.p, spec.q)
    _, half = standardize(spec.p, spec.q)
    return {
        "drawn": spec.r,
        "below r*": math.nextafter(rstar, 0.0),
        "r*": rstar,
        "above r*": math.nextafter(rstar, math.inf),
        "2 sqrt(ab)": 2.0 * math.sqrt(half.x1 * half.x2),
    }[which]


def _certificate_of(spec):
    target = spec.r * spec.r
    return _piece_certificate(spec, target, RESIDUAL_RTOL * max(1.0, target))


# Sweep: a certified piece must meet the residual bound at every parameter.
@pytest.mark.sweep
class TestCertificateSoundness:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(random_specs, dyadic_specs(), stress_specs, deep_stress_specs),
        st.sampled_from(("drawn", "below r*", "r*", "above r*", "2 sqrt(ab)")),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
    )
    @example(RESIDUAL_MISS_SPEC, "drawn", [0.5])
    @example(CassiniSpec(Point(4, 1), Point(-4, -1), 5.0), "drawn", [0.25])
    def test_certified_pieces_meet_the_residual_bound_at_every_parameter(
        self, spec, radius, fractions
    ):
        r = _radius_variant(spec, radius)
        if not r > 0:
            return
        spec = CassiniSpec(spec.p, spec.q, r)
        try:
            loops = reference_build_curves(spec, None)
        except (AssemblyError, DegenerateInput):
            return
        target = r * r
        tol = RESIDUAL_RTOL * max(1.0, target)
        certified = _certificate_of(spec)
        for piece in (piece for loop in loops for piece in loop):
            if not certified(piece):
                continue
            for f in fractions + [k / 16 for k in range(17)]:
                x = Point(*coords_at(piece, f))
                residual = abs(taxicab_distance(x, spec.p) * taxicab_distance(x, spec.q) - target)
                assert residual <= tol, (piece, f, residual)


_rational = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 1000))
_positive = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 1000))
# Strictly between 0 and 1.
_inner = st.builds(lambda k, m: Fraction(k, k + m), st.integers(1, 1000), st.integers(1, 1000))


def _coordinate_on_side(pj, qj, side, beyond, inner):
    # A coordinate strictly on one side of the lines xj = pj and xj = qj:
    # "p" beyond pj away from qj, "m" between them, "q" beyond qj.
    if side == "m":
        return qj + inner * (pj - qj)
    away = 1 if pj > qj else -1
    return pj + away * beyond if side == "p" else qj - away * beyond


class TestRegionForms:
    # Exact arithmetic: each region's sign table turns the distances into
    # affine forms, and on a half-strip their product is the hyperbola
    # (x_other - c_other)^2 - (x_run - c_run)^2 about a guide complement.
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_rational, min_size=4, max_size=4),
        st.lists(st.tuples(_positive, _positive, _inner, _inner), min_size=1, max_size=3),
    )
    def test_forms_are_the_distances_and_strip_products_are_hyperbolas(self, foci, offsets):
        p1, p2, q1, q2 = foci
        if p1 == q1 or p2 == q2:
            return
        p, q = Point(p1, p2), Point(q1, q2)
        axes = (_axis_sides(p1, q1, 0, 0), _axis_sides(p2, q2, 0, 0))
        complements = guide_complements(p, q)
        for (side1, side2), region in REGION_BY_SIDES.items():
            signs = [axes[axis][side][:2] for axis, side in zip((0, 1), region.sides)]
            (ep1, eq1), (ep2, eq2) = [(int(ep), int(eq)) for ep, eq in signs]

            def form_p(x1, x2):
                return ep1 * (x1 - p1) + ep2 * (x2 - p2)

            def form_q(x1, x2):
                return eq1 * (x1 - q1) + eq2 * (x2 - q2)

            centers = [g for g in complements if form_p(*g) == form_q(*g) == 0]
            for beyond1, beyond2, inner1, inner2 in offsets:
                x1 = _coordinate_on_side(p1, q1, side1, beyond1, inner1)
                x2 = _coordinate_on_side(p2, q2, side2, beyond2, inner2)
                assert classify_region(p, q, Point(x1, x2)) == {region}
                product = form_p(x1, x2) * form_q(x1, x2)
                assert product == (abs(x1 - p1) + abs(x2 - p2)) * (abs(x1 - q1) + abs(x2 - q2))
                if (side1 == "m") == (side2 == "m"):
                    continue
                # A half-strip: the run axis is the one between the lines.
                assert len(centers) == 1
                (c1, c2), = centers
                run, other = (x1 - c1, x2 - c2) if side1 == "m" else (x2 - c2, x1 - c1)
                assert product == other * other - run * run


_REGIONS = list(RegionId)
# Each half-strip and the one across the central rectangle from it.
_STRIP_ACROSS = {
    RegionId.STRIP_P_C1: RegionId.STRIP_Q_C2,
    RegionId.STRIP_Q_C2: RegionId.STRIP_P_C1,
    RegionId.STRIP_P_C2: RegionId.STRIP_Q_C1,
    RegionId.STRIP_Q_C1: RegionId.STRIP_P_C2,
}


def _arc_mutations(arc, a, b, complements):
    """(kind, piece) for each way to get a standard-frame arc wrong; the arc
    lies about one of the guide complements (g+, g-) and the wrong center
    is the other."""
    run = reference_run_axis(arc.region)
    other = 3 - run
    center = arc.center
    branch = 1 if arc.start.coord(other) > center.coord(other) else -1
    g_plus, g_minus = complements
    wrong = g_minus if center == g_plus else g_plus

    def on_branch(u):
        # The point over run coordinate u on the arc's branch, by
        # reference_point_at's formula.
        x_other = center.coord(other) + branch * math.hypot(u - center.coord(run), arc.radius)
        return Point(u, x_other) if run == 1 else Point(x_other, u)

    def mirrored(x):
        # x reflected through the center's line along the run axis.
        x_other = 2 * center.coord(other) - x.coord(other)
        return Point(x.x1, x_other) if other == 2 else Point(x_other, x.x2)

    u = arc.start.coord(run)
    x_other = arc.start.coord(other) * (1 + 1e-6)
    half_width = a if run == 1 else b
    yield "center", dataclasses.replace(arc, center=wrong)
    yield "branch side", dataclasses.replace(arc, start=mirrored(arc.start), end=mirrored(arc.end))
    yield "window end", dataclasses.replace(arc, start=on_branch(u + 1e-6 * abs(u)))
    yield "window end", dataclasses.replace(arc, start=on_branch(u - 1e-6 * abs(u)))
    yield "end off the branch", dataclasses.replace(
        arc, start=Point(u, x_other) if run == 1 else Point(x_other, u)
    )
    yield "chord", GuideSegment(arc.region, arc.start, arc.end)
    yield "radius", dataclasses.replace(arc, radius=arc.radius * (1 + 1e-6))
    yield "across the window", dataclasses.replace(
        arc, start=on_branch(-half_width), end=on_branch(half_width)
    )
    yield "strip across", dataclasses.replace(
        arc, region=_STRIP_ACROSS[arc.region], center=wrong
    )


def _mutated_loops(loop, a, b):
    """(kind, loop) for each single-piece mutation of a standard-frame loop,
    rotated so that the mutated piece comes first and is checked first."""
    # The guide complements of p = (a, b) = -q, exact as the package takes them.
    complements = Point(-b, -a), Point(b, a)
    for i, piece in enumerate(loop):
        rest = loop[i + 1 :] + loop[:i]
        region = _REGIONS[(_REGIONS.index(piece.region) + 1) % len(_REGIONS)]
        yield "region label", [dataclasses.replace(piece, region=region), *rest]
        # The piece runs on past its end into the next piece's region, to a
        # point of the curve there, and the next piece starts at that point;
        # or it starts early, inside the previous piece.
        nxt, prev = rest[0], rest[-1]
        past = Point(*coords_at(nxt, 1e-4))
        yield "past its end", [
            dataclasses.replace(piece, end=past),
            dataclasses.replace(nxt, start=past),
            *rest[1:],
        ]
        early = Point(*coords_at(prev, 1 - 1e-4))
        yield "before its start", [
            dataclasses.replace(piece, start=early),
            *rest[:-1],
            dataclasses.replace(prev, end=early),
        ]
        if isinstance(piece, HyperbolaArc):
            for kind, mutated in _arc_mutations(piece, a, b, complements):
                yield kind, [mutated, *rest]


class TestPieceCertificate:
    # Standard-frame (a, b, r) below, at and above r* = a + b, and on both
    # sides of r^2 = 4ab.
    MUTATED = [(4.0, 1.0, r) for r in (3.0, 4.0, 4.5, 5.0, 5.5, 6.0, 10.0)] + [
        (3.0, 2.0, 1.0),
        (0.75, 0.5, 1.25),
        (2.5, 0.5, 2.9),
    ]

    def test_mutated_pieces_get_the_reference_verdict(self):
        rejected = {}
        for a, b, r in self.MUTATED:
            spec = CassiniSpec(Point(a, b), Point(-a, -b), r)
            for loop in standard_loops(a, b, r):
                loop = [piece for piece in loop if piece.start != piece.end]
                for kind, mutated in _mutated_loops(loop, a, b):
                    for samples in (1, 4, 16):
                        want = _validation_outcome(reference_validate_loop, spec, mutated, samples)
                        assert _validation_outcome(validate_loop, spec, mutated, samples) == want
                    rejected.setdefault(kind, []).append(want is not None)
        # Every sample must lie in its piece's region, so a piece with the
        # wrong label, or an arc about the wrong center, whose interior then
        # runs along another part of the curve, is always rejected.  Every
        # other kind of mutation is caught on some loop, so the comparison
        # is not vacuous.
        assert all(rejected["region label"]) and all(rejected["center"])
        assert all(any(verdicts) for verdicts in rejected.values())

    def test_certified_mutated_pieces_meet_the_residual_bound(self):
        # The samples need not see a mutation that only a sliver of the
        # piece shows, so the certificate's own verdict is checked too, at
        # parameters down to 2^-50 from either end.
        fractions = sorted(
            {k / 64 for k in range(65)}
            | {2.0**-k for k in range(1, 51)}
            | {1 - 2.0**-k for k in range(1, 51)}
        )
        for a, b, r in self.MUTATED:
            spec = CassiniSpec(Point(a, b), Point(-a, -b), r)
            certified = _certificate_of(spec)
            tol = RESIDUAL_RTOL * max(1.0, r * r)
            for loop in standard_loops(a, b, r):
                loop = [piece for piece in loop if piece.start != piece.end]
                for kind, (piece, *_) in _mutated_loops(loop, a, b):
                    if not certified(piece):
                        continue
                    for f in fractions:
                        x = Point(*coords_at(piece, f))
                        residual = abs(taxicab_distance(x, spec.p) * taxicab_distance(x, spec.q) - r * r)
                        assert residual <= tol, (kind, piece, f, residual)

    def test_every_piece_of_the_campaign_distribution_is_certified(self):
        # A certificate that quietly gave up would only make builds slower;
        # here it fails a test.
        rng = np.random.default_rng(5)
        for _ in range(200):
            spec = random_spec(rng)
            certified = _certificate_of(spec)
            for curve in build_curves(spec):
                for piece in curve:
                    assert certified(piece), (spec, piece)


def reference_residual_campaign(trials, seed, samples_per_curve):
    """run_residual_campaign through one Point and one product_value call per
    sample, and a running max over them."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for _ in range(trials):
        spec = random_spec(rng)
        target = spec.r * spec.r
        scale = max(1.0, target)
        residual = max(
            abs(product_value(spec, x) - target)
            for curve in build_curves(spec)
            for x in sample_curve(curve, samples_per_curve)
        )
        worst = max(worst, residual / scale)
        failures += residual > RESIDUAL_RTOL * scale
    return CampaignResult(trials, failures, 0, worst)


class _NonFinitePiece:
    """A stand-in piece of the unit taxicab circle about the origin: its
    start and end are (1, 0), for 0 < f < 1/2 its coordinates lie on the
    circle or, if miss, off it, and from f = 1/2 on they are (value, f)."""

    region = RegionId.CENTRAL_RECTANGLE
    start = end = Point(1.0, 0.0)

    def __init__(self, value, miss=True):
        self.value = value
        self.miss = miss

    def coords_at(self, fractions):
        return [
            ((1.0 + f, 0.0) if self.miss else (1.0 - f, f)) if f < 0.5 else (self.value, f)
            for f in fractions
        ]


def point_error(x1, x2):
    """The text of the GeometryError that Point(x1, x2) raises."""
    with pytest.raises(GeometryError) as info:
        Point(x1, x2)
    return str(info.value)


# Sweep: the array residual campaign must match the per-Point reference loop.
@pytest.mark.sweep
class TestResidualCampaign:
    @pytest.mark.parametrize("seed", [7, 42])
    @pytest.mark.parametrize("samples_per_curve", [16, 64])
    def test_matches_the_per_point_reference(self, seed, samples_per_curve):
        got = run_residual_campaign(500, seed, samples_per_curve)
        assert repr(got) == repr(reference_residual_campaign(500, seed, samples_per_curve))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 128))
    def test_drawn_campaigns_match_the_per_point_reference(self, seed, samples_per_curve):
        got = run_residual_campaign(10, seed, samples_per_curve)
        assert repr(got) == repr(reference_residual_campaign(10, seed, samples_per_curve))

    def test_counts_failing_specs_not_samples(self, monkeypatch):
        # Every sample of the first of three specs misses r^2 by 1e-6 of
        # max(1, r^2), far beyond RESIDUAL_RTOL: one spec fails, not each
        # of its samples.
        first = random_spec(np.random.default_rng(7))

        def product(a, b, x1, x2):
            f = distance_product(a, b, x1, x2)
            if (a, b) == (first.p, first.q):
                return f + 1e-6 * max(1.0, first.r * first.r)
            return f

        monkeypatch.setattr(campaign, "distance_product", product)
        result = run_residual_campaign(trials=3, seed=7, samples_per_curve=16)
        assert (result.trials, result.failures) == (3, 1)
        assert math.isclose(result.worst_residual, 1e-6, rel_tol=1e-6)


class TestNonFiniteSamples:
    # On arrays a NaN residual compares false and would pass unseen, so
    # every sampling path raises Point's own error at the first sample that
    # is not finite, as sample_curve does.

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_samplers_raise_the_point_error(self, value):
        curve = (_NonFinitePiece(value),)
        want = point_error(value, 0.5)
        for sample in (sample_curve, sample_coords):
            with pytest.raises(GeometryError) as info:
                sample(curve, 8)
            assert str(info.value) == want
        with pytest.raises(GeometryError) as info:
            curve_polyline(curve, 4)
        assert str(info.value) == want

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_residual_campaign_raises_the_point_error(self, value, monkeypatch):
        monkeypatch.setattr(campaign, "build_curves", lambda spec: [(_NonFinitePiece(value),)])
        with pytest.raises(GeometryError) as info:
            run_residual_campaign(trials=1, seed=7, samples_per_curve=8)
        assert str(info.value) == point_error(value, 0.5)

    @pytest.mark.parametrize("miss", [False, True])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_validation_raises_the_point_error(self, value, miss):
        # The foci coincide, so no piece is certified and its samples are
        # checked.  With miss, the sample at f = 1/4 misses the level set
        # before the non-finite one; the non-finite sample's error still
        # comes first, as when each sample of a piece was a Point before
        # any was checked.
        spec = CassiniSpec(Point(0.0, 0.0), Point(0.0, 0.0), 1.0)
        with pytest.raises(GeometryError) as info:
            validate_loop(spec, [_NonFinitePiece(value, miss)], 4)
        assert str(info.value) == point_error(value, 0.5)
