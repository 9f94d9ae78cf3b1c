"""Exact piecewise construction of taxicab Cassini curves.

The locus K(p, q; r) of points whose taxicab distances to two foci multiply
to r^2 is, for r > 0, a union of guide-line segments (in the quadrants and
the central rectangle) and taxicab-hyperbola arcs (in the half-strips),
glued into one or two simple closed curves depending on how r compares with
the critical radius r* = d(p, q) / 2.  Construction happens in the standard
frame (midpoint at the origin, one focus in the closed first octant) and is
conjugated back through the standardizing isometry.
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
    below the band; Outside otherwise.  tol = 0 gives exact comparisons.
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
    slope_sign: int

    def coords_at(self, f: float) -> tuple[float, float]:
        """Coordinates at parameter f in [0, 1]; exact at the endpoints."""
        start, end = self.start, self.end
        if f == 0.0:
            return start.x1, start.x2
        if f == 1.0:
            return end.x1, end.x2
        return start.x1 + f * (end.x1 - start.x1), start.x2 + f * (end.x2 - start.x2)

    def reversed(self) -> "GuideSegment":
        return GuideSegment(self.region, self.end, self.start, self.slope_sign)

    def length_scale(self) -> float:
        return taxicab_distance(self.start, self.end)


@dataclass(frozen=True)
class HyperbolaArc:
    """Curve piece on one branch of a taxicab hyperbola inside a half-strip.

    The arc satisfies (x_other - center_other)^2 - (x_run - center_run)^2 =
    radius^2 where "run" is the coordinate axis sweeping the strip and
    "other" the remaining one; branch_dir picks the side of the center.  The
    center is a guide complement of the foci.  Endpoints are stored so that
    coords_at(0) and coords_at(1) are exact.
    """

    region: RegionId
    center: Point
    run_axis: int
    branch_dir: int
    radius: float
    u_start: float
    u_end: float
    start: Point
    end: Point

    def coords_at(self, f: float) -> tuple[float, float]:
        """Coordinates at parameter f in [0, 1]; exact at the endpoints."""
        if f == 0.0:
            return self.start.x1, self.start.x2
        if f == 1.0:
            return self.end.x1, self.end.x2
        u = self.u_start + f * (self.u_end - self.u_start)
        return _arc_coords(self.center, self.run_axis, self.branch_dir, self.radius, u)

    def reversed(self) -> "HyperbolaArc":
        return HyperbolaArc(
            self.region,
            self.center,
            self.run_axis,
            self.branch_dir,
            self.radius,
            self.u_end,
            self.u_start,
            self.end,
            self.start,
        )

    def length_scale(self) -> float:
        return abs(self.u_end - self.u_start)


CurvePiece = Union[GuideSegment, HyperbolaArc]


def _arc_coords(
    center: Point, run_axis: int, branch_dir: int, radius: float, u: float
) -> tuple[float, float]:
    if run_axis == 1:
        return u, center.x2 + branch_dir * math.hypot(u - center.x1, radius)
    return center.x1 + branch_dir * math.hypot(u - center.x2, radius), u


@dataclass(frozen=True)
class ClosedCurve:
    """One simple closed curve of a Cassini set: cyclic counterclockwise pieces."""

    spec: CassiniSpec
    pieces: tuple[CurvePiece, ...]


def _standard_params(spec: CassiniSpec) -> tuple[float, float]:
    # Valid standard frame: q = -p exactly and p in the closed first octant.
    p, q = spec.p, spec.q
    if q.x1 != -p.x1 or q.x2 != -p.x2 or not (p.x1 >= p.x2 >= 0):
        raise GeometryError(
            f"spec is not in standard frame (need q = -p, p1 >= p2 >= 0): p={p}, q={q}"
        )
    return p.x1, p.x2


def _rect_half_span(rstar: float, r: float) -> float:
    # Offset of the rectangle segments from the midpoint diagonal; exact 0 at r = r*.
    return math.sqrt(max((rstar - r) * (rstar + r), 0.0))


def quadrant_piece(spec: CassiniSpec, quadrant: RegionId) -> Optional[GuideSegment]:
    """Guide segment of the curve inside one quadrant of the standard frame.

    Segments in the focus quadrants exist for every r >= 0.  Segments in the
    complement quadrants exist iff r^2 >= 4 * p1 * p2; at exact equality the
    segment degenerates to the corner point and is still returned.
    """
    a, b = _standard_params(spec)
    r = spec.r
    if quadrant is RegionId.QUADRANT_P or quadrant is RegionId.QUADRANT_Q:
        sp = math.hypot(a + b, r)
        if quadrant is RegionId.QUADRANT_P:
            return GuideSegment(quadrant, Point(a, sp - a), Point(sp - b, b), -1)
        return GuideSegment(quadrant, Point(-a, a - sp), Point(b - sp, -b), -1)
    if quadrant is RegionId.QUADRANT_C1 or quadrant is RegionId.QUADRANT_C2:
        if r * r < 4.0 * a * b:
            return None
        sc = math.hypot(a - b, r)
        if quadrant is RegionId.QUADRANT_C1:
            return GuideSegment(quadrant, Point(sc - b, -b), Point(a, a - sc), 1)
        return GuideSegment(quadrant, Point(b - sc, b), Point(-a, sc - a), 1)
    raise GeometryError(f"{quadrant} is not a quadrant")


def rectangle_pieces(spec: CassiniSpec) -> list[GuideSegment]:
    """Curve segments inside the central rectangle of the standard frame.

    The curve meets the rectangle [-p1, p1] x [-p2, p2] in segments on the
    two guide lines x1 + x2 = +-sqrt(r*^2 - r^2): two segments below the
    critical radius, the single diagonal segment through the origin at it,
    nothing above it.  When the foci share a coordinate line the segments
    degenerate to points.
    """
    a, b = _standard_params(spec)
    r = spec.r
    rstar = a + b
    if r > rstar:
        return []
    c = _rect_half_span(rstar, r)
    hi = min(a, c + b)
    lo = max(-a, c - b)
    plus = GuideSegment(
        RegionId.CENTRAL_RECTANGLE, Point(hi, c - hi), Point(lo, c - lo), -1
    )
    if r == rstar:
        return [plus]
    minus = GuideSegment(
        RegionId.CENTRAL_RECTANGLE, Point(-hi, hi - c), Point(-lo, lo - c), -1
    )
    return [plus, minus]


# Per half-strip: coordinate axis running along the strip, which guide
# complement is the hyperbola center, and the side of the center the strip
# occupies.  The sweep range is [-p1, p1] for the long-axis strips and
# [-p2, p2] for the short-axis ones.
_STRIP_TABLE = {
    RegionId.STRIP_P_C2: (1, "g_plus", 1),
    RegionId.STRIP_Q_C1: (1, "g_minus", -1),
    RegionId.STRIP_P_C1: (2, "g_plus", 1),
    RegionId.STRIP_Q_C2: (2, "g_minus", -1),
}


def _strip_geometry(spec: CassiniSpec, strip: RegionId):
    if strip not in _STRIP_TABLE:
        raise GeometryError(f"{strip} is not a half-strip")
    if spec.r == 0:
        raise GeometryError("half-strip arcs are undefined for r = 0")
    a, b = _standard_params(spec)
    run_axis, center_name, branch = _STRIP_TABLE[strip]
    center = getattr(foci_frame(spec.p, spec.q), center_name)
    half = a if run_axis == 1 else b
    return run_axis, center, branch, -half, half


def _make_arc(
    strip: RegionId,
    center: Point,
    run_axis: int,
    branch: int,
    radius: float,
    u0: float,
    u1: float,
) -> HyperbolaArc:
    return HyperbolaArc(
        region=strip,
        center=center,
        run_axis=run_axis,
        branch_dir=branch,
        radius=radius,
        u_start=u0,
        u_end=u1,
        start=Point(*_arc_coords(center, run_axis, branch, radius, u0)),
        end=Point(*_arc_coords(center, run_axis, branch, radius, u1)),
    )


def _strip_component_pair(
    spec: CassiniSpec, strip: RegionId
) -> tuple[Optional[HyperbolaArc], Optional[HyperbolaArc]]:
    """The strip's two potential arc components for 0 < r <= r*, by u-slot.

    The hyperbola leaves the strip over the window |u - c_run| <
    sqrt(r*^2 - r^2) around the center's run-coordinate, cutting the sweep
    range into a low-u and a high-u component; either may be empty.  Keeping
    the slots positional matters: the low-u component always belongs to the
    loop around q and the high-u one to the loop around p.
    """
    run_axis, center, branch, lo, hi = _strip_geometry(spec, strip)
    a, b = _standard_params(spec)
    rstar = a + b
    if spec.r > rstar:
        raise GeometryError("component split is defined only for r <= r*")
    c = _rect_half_span(rstar, spec.r)
    c_run = center.coord(run_axis)
    first: Optional[HyperbolaArc] = None
    second: Optional[HyperbolaArc] = None
    first_hi = min(hi, c_run - c)
    if first_hi > lo:
        first = _make_arc(strip, center, run_axis, branch, spec.r, lo, first_hi)
    second_lo = max(lo, c_run + c)
    if hi > second_lo:
        second = _make_arc(strip, center, run_axis, branch, spec.r, second_lo, hi)
    return first, second


def halfstrip_pieces(spec: CassiniSpec, strip: RegionId) -> list[HyperbolaArc]:
    """Arcs of the curve inside one half-strip of the standard frame.

    Returns 0, 1, or 2 arcs: above the critical radius the full sweep is a
    single arc; at or below it the sweep may split into two components (the
    long-axis strips carry both when r is between the complement-quadrant
    threshold and r*), and collapsed strips carry none.
    """
    run_axis, center, branch, lo, hi = _strip_geometry(spec, strip)
    a, b = _standard_params(spec)
    if spec.r > a + b:
        if hi > lo:
            return [_make_arc(strip, center, run_axis, branch, spec.r, lo, hi)]
        return []
    return [arc for arc in _strip_component_pair(spec, strip) if arc is not None]


def _diamond_pieces(r: float) -> list[GuideSegment]:
    # Taxicab circle about the origin: the radius-r diamond, counterclockwise.
    east, north = Point(r, 0.0), Point(0.0, r)
    west, south = Point(-r, 0.0), Point(0.0, -r)
    return [
        GuideSegment(RegionId.QUADRANT_P, east, north, -1),
        GuideSegment(RegionId.QUADRANT_C2, north, west, 1),
        GuideSegment(RegionId.QUADRANT_Q, west, south, -1),
        GuideSegment(RegionId.QUADRANT_C1, south, east, 1),
    ]


def _assemble_standard_loops(std: CassiniSpec) -> list[list[CurvePiece]]:
    """Order the standard-frame pieces into closed loops, before cleanup.

    Adjacent entries share endpoints by construction; zero-length entries
    are dropped later without opening gaps.
    """
    a, b = _standard_params(std)
    rstar = a + b
    qp = quadrant_piece(std, RegionId.QUADRANT_P)
    qq = quadrant_piece(std, RegionId.QUADRANT_Q)
    qc1 = quadrant_piece(std, RegionId.QUADRANT_C1)
    qc2 = quadrant_piece(std, RegionId.QUADRANT_C2)
    assert qp is not None and qq is not None

    if std.r > rstar:
        top = halfstrip_pieces(std, RegionId.STRIP_P_C2)
        bottom = halfstrip_pieces(std, RegionId.STRIP_Q_C1)
        right = halfstrip_pieces(std, RegionId.STRIP_P_C1)
        left = halfstrip_pieces(std, RegionId.STRIP_Q_C2)
        loop: list[CurvePiece] = [qp]
        if right:
            loop.append(right[0].reversed())
        if qc1 is not None:
            loop.append(qc1)
        if bottom:
            loop.append(bottom[0].reversed())
        loop.append(qq)
        if left:
            loop.append(left[0])
        if qc2 is not None:
            loop.append(qc2)
        if top:
            loop.append(top[0])
        return [loop]

    top_first, top_second = _strip_component_pair(std, RegionId.STRIP_P_C2)
    bottom_first, bottom_second = _strip_component_pair(std, RegionId.STRIP_Q_C1)
    _, right_second = _strip_component_pair(std, RegionId.STRIP_P_C1)
    left_first, _ = _strip_component_pair(std, RegionId.STRIP_Q_C2)
    rect = rectangle_pieces(std)
    rect_plus = rect[0]
    # At the pinch there is a single rectangle segment shared by both loops.
    rect_minus = rect[1] if len(rect) > 1 else rect[0].reversed()

    p_loop: list[CurvePiece] = [qp]
    if right_second is not None:
        p_loop.append(right_second.reversed())
    if qc1 is not None:
        p_loop.append(qc1)
    if bottom_second is not None:
        p_loop.append(bottom_second.reversed())
    p_loop.append(rect_plus)
    if top_second is not None:
        p_loop.append(top_second)

    q_loop: list[CurvePiece] = [qq]
    if left_first is not None:
        q_loop.append(left_first)
    if qc2 is not None:
        q_loop.append(qc2)
    if top_first is not None:
        q_loop.append(top_first)
    q_loop.append(rect_minus)
    if bottom_first is not None:
        q_loop.append(bottom_first.reversed())
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
    swap, s1, s2 = iso.element.value
    region = _REGION_UNDER_SWAP.get(piece.region, piece.region) if swap else piece.region
    if isinstance(piece, GuideSegment):
        return GuideSegment(
            region, iso.apply(piece.start), iso.apply(piece.end), piece.slope_sign * s1 * s2
        )
    center, start, end = iso.apply(piece.center), iso.apply(piece.start), iso.apply(piece.end)
    run_axis = 3 - piece.run_axis if swap else piece.run_axis
    if run_axis == 1:
        u_start, u_end, offset = start.x1, end.x1, start.x2 - center.x2
    else:
        u_start, u_end, offset = start.x2, end.x2, start.x1 - center.x1
    return HyperbolaArc(
        region=region,
        center=center,
        run_axis=run_axis,
        branch_dir=1 if offset > 0 else -1,
        radius=piece.radius,
        u_start=u_start,
        u_end=u_end,
        start=start,
        end=end,
    )


def _signed_area(pieces: list[CurvePiece]) -> float:
    pts = []
    for piece in pieces:
        pts.append(piece.coords_at(0.0))
        pts.append(piece.coords_at(0.5))
    total = 0.0
    for (u1, u2), (v1, v2) in zip(pts, pts[1:] + pts[:1]):
        total += u1 * v2 - v1 * u2
    return total / 2


def _orient_ccw(pieces: list[CurvePiece]) -> list[CurvePiece]:
    if _signed_area(pieces) < 0:
        return [piece.reversed() for piece in reversed(pieces)]
    return pieces


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


def build_curves(spec: CassiniSpec, samples_per_piece: int = 16) -> list[ClosedCurve]:
    """Assemble K(p, q; r) into its closed curves, counterclockwise.

    Returns one curve above the critical radius, two below it, and two
    sharing their pinch boundary at it (the shared rectangle segment, or the
    shared vertex when the foci lie on a coordinate line).  Each returned
    curve is validated: consecutive pieces meet within CLOSURE_RTOL of the
    instance scale and sampled points satisfy the defining product equation
    within RESIDUAL_RTOL of max(1, r^2).
    """
    if spec.r == 0:
        raise DegenerateInput("r = 0 yields the bare focus pair, not a curve")
    if samples_per_piece < 1:
        raise GeometryError("samples_per_piece must be positive")
    iso, p_std, q_std = standardize(spec.p, spec.q)
    inverse = iso.inverse()
    std = CassiniSpec(p_std, q_std, spec.r)
    if spec.p == spec.q:
        raw_loops = [list(_diamond_pieces(spec.r))]
    else:
        raw_loops = _assemble_standard_loops(std)

    scale = max(1.0, taxicab_distance(spec.p, spec.q) + spec.r)
    zero_tol = ZERO_LENGTH_RTOL * scale
    curves = []
    for raw in raw_loops:
        mapped = [_map_piece(piece, inverse) for piece in raw]
        kept = [piece for piece in mapped if piece.length_scale() > zero_tol]
        if not kept:
            raise AssemblyError("all pieces of a loop degenerated to points")
        kept = _orient_ccw(kept)
        _validate_loop(spec, kept, samples_per_piece)
        curves.append(ClosedCurve(spec=spec, pieces=tuple(kept)))
    return curves


def sample_curve(curve: ClosedCurve, n: int) -> list[Point]:
    """n points in cyclic order along the curve, n >= 8.

    The curve parameter is uniform per piece: segments are sampled evenly in
    arc length, hyperbola arcs evenly in the coordinate running along their
    strip.
    """
    if n < 8:
        raise GeometryError(f"need at least 8 samples, got {n}")
    pieces = curve.pieces
    count = len(pieces)
    points = []
    for k in range(n):
        t = k * count / n
        i = min(int(t), count - 1)
        x1, x2 = pieces[i].coords_at(t - i)
        points.append(Point(x1, x2))
    return points


def curve_polyline(curve: ClosedCurve, samples_per_piece: int = 64) -> list[Point]:
    """Closed ring of points tracing the curve; the last point joins the first."""
    if samples_per_piece < 1:
        raise GeometryError("samples_per_piece must be positive")
    points = []
    for piece in curve.pieces:
        for k in range(samples_per_piece):
            x1, x2 = piece.coords_at(k / samples_per_piece)
            points.append(Point(x1, x2))
    return points
