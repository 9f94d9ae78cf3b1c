"""Exact piecewise construction of taxicab Cassini curves.

The locus K(p, q; r) of points whose taxicab distances to two foci multiply
to r^2 is, for r > 0, a union of guide-line segments (in the quadrants and
the central rectangle) and taxicab-hyperbola arcs (in the half-strips),
glued into one or two simple closed curves depending on how r compares with
the critical radius r* = d(p, q) / 2.  Construction happens in the standard
frame (midpoint at the origin, one focus in the closed first octant) and is
conjugated back through the standardizing isometry.

Orientation needs no arithmetic: the standard-frame loops run clockwise by
construction, and the map back keeps that orientation when its point-group
element has determinant +1 and flips it when the determinant is -1.  Under
determinant +1 each loop is mapped back to front with the ends of every
piece swapped, so every returned curve runs counterclockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .core import (
    GeometryError,
    Isometry,
    Point,
    RegionId,
    distance_product,
    foci_frame,
    standardize,
    taxicab_distance,
)

# Every emitted curve point satisfies |d(x,p)*d(x,q) - r^2| within this
# relative tolerance (scaled by max(1, r^2)).
RESIDUAL_RTOL = 1e-9
# Consecutive pieces must share endpoints within this relative tolerance.
CLOSURE_RTOL = 1e-9
# Pieces shorter than this (relative to instance scale) are dropped.
ZERO_LENGTH_RTOL = 1e-12
# Validation checks each piece at this many equal parameter steps.
_VALIDATION_SAMPLES = 16


class DegenerateInput(GeometryError):
    """Instance has no curve to build (r = 0)."""


class AssemblyError(RuntimeError):
    """Pieces failed to close up; signals an implementation bug, not bad input."""


@dataclass(frozen=True)
class CassiniSpec:
    """Foci p, q and radius parameter r >= 0 defining K(p, q; r)."""

    p: Point
    q: Point
    r: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.r) or self.r < 0:
            raise GeometryError(f"radius parameter must be finite and nonnegative, got {self.r!r}")
        # Every product comparison is against r^2: an overflowed square would
        # turn each residual and on-band into inf or NaN, which no check trips.
        if not math.isfinite(self.r * self.r):
            raise GeometryError(f"radius parameter squared must be finite, got r = {self.r!r}")


def critical_radius(p: Point, q: Point) -> float:
    """Half the taxicab distance between the foci; the topology transition."""
    return taxicab_distance(p, q) / 2


def product_value(spec: CassiniSpec, x: Point) -> float:
    """d(x, p) * d(x, q); zero exactly at the foci."""
    return distance_product(spec.p, spec.q, x.x1, x.x2)


class PointLocation(Enum):
    INSIDE = "Inside"
    ON = "On"
    OUTSIDE = "Outside"


def classify_point(spec: CassiniSpec, x: Point, tol: float = 1e-9) -> PointLocation:
    """Locate x relative to the curve with a relative on-band of width tol.

    On iff |product - r^2| <= tol * max(1, r^2); Inside iff product falls
    below the band; Outside otherwise.  The comparisons take the rounded
    product and the rounded r^2, so tol = 0 means On iff the two rounded
    values are equal; it is not an exact predicate, and a point within a few
    ulps of the curve can land on either side of it (ROADMAP open item 1
    adds an exact sign predicate).
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise GeometryError(f"tolerance must be finite and nonnegative, got {tol!r}")
    f = product_value(spec, x)
    target = spec.r * spec.r
    band = tol * max(1.0, target)
    if abs(f - target) <= band:
        return PointLocation.ON
    if f < target - band:
        return PointLocation.INSIDE
    return PointLocation.OUTSIDE


class Topology(Enum):
    POINT_PAIR = "PointPair"
    TAXICAB_CIRCLE = "TaxicabCircle"
    TWO_CURVES = "TwoCurves"
    PINCHED_EDGE = "PinchedEdge"
    PINCHED_VERTEX = "PinchedVertex"
    ONE_CURVE = "OneCurve"


def topology(spec: CassiniSpec) -> Topology:
    """Topological class of K(p, q; r); comparisons with r* are exact."""
    if spec.r == 0:
        # Coincident foci degenerate to a single point, still PointPair.
        return Topology.POINT_PAIR
    if spec.p == spec.q:
        return Topology.TAXICAB_CIRCLE
    rstar = critical_radius(spec.p, spec.q)
    if spec.r < rstar:
        return Topology.TWO_CURVES
    if spec.r > rstar:
        return Topology.ONE_CURVE
    if spec.p.x1 == spec.q.x1 or spec.p.x2 == spec.q.x2:
        return Topology.PINCHED_VERTEX
    return Topology.PINCHED_EDGE


@dataclass(frozen=True)
class GuideSegment:
    """Straight curve piece on a guide line (slope +1 or -1)."""

    region: RegionId
    start: Point
    end: Point

    def coords_at(self, f: float) -> tuple[float, float]:
        """Coordinates at parameter f in [0, 1]; exact at the endpoints."""
        start, end = self.start, self.end
        if f == 0.0:
            return start.x1, start.x2
        if f == 1.0:
            return end.x1, end.x2
        return start.x1 + f * (end.x1 - start.x1), start.x2 + f * (end.x2 - start.x2)

    def length_scale(self) -> float:
        return taxicab_distance(self.start, self.end)


@dataclass(frozen=True)
class HyperbolaArc:
    """Curve piece on one branch of a taxicab hyperbola inside a half-strip.

    The arc satisfies (x_other - center_other)^2 - (x_run - center_run)^2 =
    radius^2 where "run" is the coordinate axis sweeping the strip and
    "other" the remaining one.  The center is a guide complement of the
    foci.  The endpoints carry everything else: the run coordinate goes from
    start's to end's, and the branch is the side of the center that start
    lies on in the other coordinate.  coords_at(0) and coords_at(1) return
    the endpoints exactly.
    """

    region: RegionId
    center: Point
    run_axis: int
    radius: float
    start: Point
    end: Point

    def coords_at(self, f: float) -> tuple[float, float]:
        """Coordinates at parameter f in [0, 1]; exact at the endpoints."""
        start, end, center = self.start, self.end, self.center
        if f == 0.0:
            return start.x1, start.x2
        if f == 1.0:
            return end.x1, end.x2
        if self.run_axis == 1:
            branch = 1 if start.x2 > center.x2 else -1
            return _arc_coords(center, 1, branch, self.radius, start.x1 + f * (end.x1 - start.x1))
        branch = 1 if start.x1 > center.x1 else -1
        return _arc_coords(center, 2, branch, self.radius, start.x2 + f * (end.x2 - start.x2))

    def length_scale(self) -> float:
        return abs(self.end.coord(self.run_axis) - self.start.coord(self.run_axis))


CurvePiece = Union[GuideSegment, HyperbolaArc]


def _arc_coords(
    center: Point, run_axis: int, branch: int, radius: float, u: float
) -> tuple[float, float]:
    # The point at run coordinate u on the given side (+1 or -1) of the center.
    if run_axis == 1:
        return u, center.x2 + branch * math.hypot(u - center.x1, radius)
    return center.x1 + branch * math.hypot(u - center.x2, radius), u


def _diamond_pieces(r: float) -> list[GuideSegment]:
    # Taxicab circle about the origin: the radius-r diamond, clockwise from
    # the east vertex like the standard-frame loops.
    east, north = Point(r, 0.0), Point(0.0, r)
    west, south = Point(-r, 0.0), Point(0.0, -r)
    return [
        GuideSegment(RegionId.QUADRANT_C1, east, south),
        GuideSegment(RegionId.QUADRANT_Q, south, west),
        GuideSegment(RegionId.QUADRANT_C2, west, north),
        GuideSegment(RegionId.QUADRANT_P, north, east),
    ]


def _standard_loops(a: float, b: float, r: float) -> list[list[CurvePiece]]:
    """The pieces of K(p, q; r) for p = (a, b) = -q, a >= b >= 0, in clockwise loops.

    Each focus quadrant holds a guide segment; each complement quadrant holds
    one iff r^2 >= 4ab (the corner point at equality).  Each half-strip holds
    an arc of the taxicab hyperbola about a guide complement.  Above r* = a + b
    the arcs span their strips and everything forms one loop.  At or below r*
    each arc leaves its strip over the window |u - c_run| < c around the
    center, c = sqrt(r*^2 - r^2): the part below the window belongs to the
    loop about q, the part above it to the loop about p.  The central
    rectangle then holds the waist segments on x1 + x2 = +-c, a single one
    shared by both loops at r = r*.  Adjacent entries share endpoints; entries
    of zero length are dropped later without opening gaps.
    """
    rstar = a + b
    sp = math.hypot(rstar, r)
    frame = foci_frame(Point(a, b), Point(-a, -b))
    g_plus, g_minus = frame.g_plus, frame.g_minus
    qp = GuideSegment(RegionId.QUADRANT_P, Point(a, sp - a), Point(sp - b, b))
    qq = GuideSegment(RegionId.QUADRANT_Q, Point(-a, a - sp), Point(b - sp, -b))
    qc1 = qc2 = None
    if r * r >= 4.0 * a * b:
        sc = math.hypot(a - b, r)
        qc1 = GuideSegment(RegionId.QUADRANT_C1, Point(sc - b, -b), Point(a, a - sc))
        qc2 = GuideSegment(RegionId.QUADRANT_C2, Point(b - sc, b), Point(-a, sc - a))
    # Per half-strip: region, hyperbola center, run axis and branch side.
    top = (RegionId.STRIP_P_C2, g_plus, 1, 1)
    bottom = (RegionId.STRIP_Q_C1, g_minus, 1, -1)
    right = (RegionId.STRIP_P_C1, g_plus, 2, 1)
    left = (RegionId.STRIP_Q_C2, g_minus, 2, -1)

    def arc(strip, lo: float, hi: float, reverse: bool = False) -> Optional[HyperbolaArc]:
        # The strip's arc over lo <= u <= hi, run from hi to lo if reverse.
        if not hi > lo:
            return None
        region, center, run_axis, branch = strip
        u0, u1 = (hi, lo) if reverse else (lo, hi)
        return HyperbolaArc(
            region=region,
            center=center,
            run_axis=run_axis,
            radius=r,
            start=Point(*_arc_coords(center, run_axis, branch, r, u0)),
            end=Point(*_arc_coords(center, run_axis, branch, r, u1)),
        )

    def chain(*pieces: Optional[CurvePiece]) -> list[CurvePiece]:
        return [piece for piece in pieces if piece is not None]

    if r > rstar:
        loop = chain(
            qp,
            arc(right, -b, b, True),
            qc1,
            arc(bottom, -a, a, True),
            qq,
            arc(left, -b, b),
            qc2,
            arc(top, -a, a),
        )
        return [loop]
    # Offset of the rectangle segments from the midpoint diagonal; exact 0 at r = r*.
    c = math.sqrt((rstar - r) * (rstar + r))
    hi, lo = min(a, c + b), max(-a, c - b)
    rect_plus = GuideSegment(RegionId.CENTRAL_RECTANGLE, Point(hi, c - hi), Point(lo, c - lo))
    if r == rstar:
        rect_minus = GuideSegment(RegionId.CENTRAL_RECTANGLE, rect_plus.end, rect_plus.start)
    else:
        rect_minus = GuideSegment(
            RegionId.CENTRAL_RECTANGLE, Point(-hi, hi - c), Point(-lo, lo - c)
        )
    p_loop = chain(
        qp,
        arc(right, max(-b, g_plus.x2 + c), b, True),
        qc1,
        arc(bottom, max(-a, g_minus.x1 + c), a, True),
        rect_plus,
        arc(top, max(-a, g_plus.x1 + c), a),
    )
    q_loop = chain(
        qq,
        arc(left, -b, min(b, g_minus.x2 - c)),
        qc2,
        arc(top, -a, min(a, g_plus.x1 - c)),
        rect_minus,
        arc(bottom, -a, min(a, g_minus.x1 - c), True),
    )
    return [p_loop, q_loop]


_REGION_UNDER_SWAP = {
    RegionId.QUADRANT_C1: RegionId.QUADRANT_C2,
    RegionId.QUADRANT_C2: RegionId.QUADRANT_C1,
    RegionId.STRIP_P_C1: RegionId.STRIP_P_C2,
    RegionId.STRIP_P_C2: RegionId.STRIP_P_C1,
    RegionId.STRIP_Q_C1: RegionId.STRIP_Q_C2,
    RegionId.STRIP_Q_C2: RegionId.STRIP_Q_C1,
}


def _map_piece(piece: CurvePiece, iso: Isometry) -> CurvePiece:
    # A swap of the coordinates also swaps the run axis and the strip labels.
    # Under determinant +1 build_curves walks the loop back to front, so the
    # piece runs from its mapped end to its mapped start.
    swap = iso.element.value[0]
    region = _REGION_UNDER_SWAP.get(piece.region, piece.region) if swap else piece.region
    start, end = iso.apply(piece.start), iso.apply(piece.end)
    if iso.element.determinant == 1:
        start, end = end, start
    if isinstance(piece, GuideSegment):
        return GuideSegment(region, start, end)
    run_axis = 3 - piece.run_axis if swap else piece.run_axis
    return HyperbolaArc(region, iso.apply(piece.center), run_axis, piece.radius, start, end)


def _validate_loop(spec: CassiniSpec, pieces: list[CurvePiece], samples_per_piece: int) -> None:
    scale = max(1.0, taxicab_distance(spec.p, spec.q) + spec.r)
    target = spec.r * spec.r
    residual_tol = RESIDUAL_RTOL * max(1.0, target)
    fractions = [k / samples_per_piece for k in range(samples_per_piece + 1)]
    p, q = spec.p, spec.q
    for i, piece in enumerate(pieces):
        nxt = pieces[(i + 1) % len(pieces)]
        gap = taxicab_distance(piece.end, nxt.start)
        if gap > CLOSURE_RTOL * scale:
            raise AssemblyError(
                f"pieces {i} and {(i + 1) % len(pieces)} leave a gap of {gap!r}"
            )
        for f in fractions:
            x1, x2 = piece.coords_at(f)
            residual = abs(distance_product(p, q, x1, x2) - target)
            if residual > residual_tol:
                # Point raises GeometryError if the sample is not finite.
                raise AssemblyError(
                    f"piece {i} sample {Point(x1, x2)} misses the level set by {residual!r}"
                )


def build_curves(spec: CassiniSpec) -> list[tuple[CurvePiece, ...]]:
    """Assemble K(p, q; r) into its closed curves, counterclockwise.

    A curve is the tuple of its pieces in cyclic order, each piece starting
    where the previous one ends.  Returns one curve above the critical
    radius, two below it, and two sharing their pinch boundary at it (the
    shared rectangle segment, or the shared vertex when the foci lie on a
    coordinate line).  Each returned curve is validated: consecutive pieces
    meet within CLOSURE_RTOL of the instance scale and sampled points
    satisfy the defining product equation within RESIDUAL_RTOL of
    max(1, r^2).
    """
    if spec.r == 0:
        raise DegenerateInput("r = 0 yields the bare focus pair, not a curve")
    iso, p_std = standardize(spec.p, spec.q)
    inverse = iso.inverse()
    # The raw loops run clockwise; the map back keeps that under determinant
    # +1, so those loops are walked back to front (see _map_piece).
    backward = inverse.element.determinant == 1
    if spec.p == spec.q:
        raw_loops = [_diamond_pieces(spec.r)]
    else:
        raw_loops = _standard_loops(p_std.x1, p_std.x2, spec.r)

    scale = max(1.0, taxicab_distance(spec.p, spec.q) + spec.r)
    zero_tol = ZERO_LENGTH_RTOL * scale
    curves = []
    for k, raw in enumerate(raw_loops, 1):
        mapped = [_map_piece(piece, inverse) for piece in (raw[::-1] if backward else raw)]
        kept = [piece for piece in mapped if piece.length_scale() > zero_tol]
        where = f"loop {k} of {len(raw_loops)}"
        if not kept:
            raise AssemblyError(f"{spec}, {where}: all pieces of a loop degenerated to points")
        try:
            _validate_loop(spec, kept, _VALIDATION_SAMPLES)
        except AssemblyError as exc:
            raise AssemblyError(f"{spec}, {where}: {exc}") from None
        curves.append(tuple(kept))
    return curves


def sample_curve(curve: tuple[CurvePiece, ...], n: int) -> list[Point]:
    """n points in cyclic order along a curve of build_curves, n >= 8.

    The curve parameter is uniform per piece: segments are sampled evenly in
    arc length, hyperbola arcs evenly in the coordinate running along their
    strip.
    """
    if n < 8:
        raise GeometryError(f"need at least 8 samples, got {n}")
    count = len(curve)
    points = []
    for k in range(n):
        t = k * count / n
        i = min(int(t), count - 1)
        x1, x2 = curve[i].coords_at(t - i)
        points.append(Point(x1, x2))
    return points


def curve_polyline(curve: tuple[CurvePiece, ...], samples_per_piece: int = 64) -> list[Point]:
    """Closed ring of samples_per_piece points per piece of a curve of build_curves.

    The ring does not repeat its first point: the last point joins the first.
    """
    if samples_per_piece < 1:
        raise GeometryError("samples_per_piece must be positive")
    points = []
    for piece in curve:
        for k in range(samples_per_piece):
            x1, x2 = piece.coords_at(k / samples_per_piece)
            points.append(Point(x1, x2))
    return points
