"""Exact piecewise construction of taxicab Cassini curves.

The locus K(p, q; r) of points whose taxicab distances to two foci multiply
to r^2 is, for r > 0, a union of guide-line segments (in the quadrants and
the central rectangle) and taxicab-hyperbola arcs (in the half-strips),
glued into one or two simple closed curves depending on how r compares with
the critical radius r* = d(p, q) / 2.  Every endpoint is computed in the
standard frame (midpoint at the origin, one focus in the closed first
octant) and placed in the input frame by the inverse of the standardizing
point-group element about the midpoint, so each piece is built once, where
it is returned.

Orientation needs no arithmetic: the standard-frame loops run clockwise,
and the map back keeps that orientation when its point-group element has
determinant +1 and flips it when the determinant is -1.  Under
determinant +1 each loop is built back to front with the ends of every
piece swapped, so every returned curve runs counterclockwise.

The filled set is never convex when p != q.  Every loop holds an arc, and
on each half-strip the curve bulges away from the set: on the strip above
both foci it is x2 = c2 + sqrt((x1 - c1)^2 + r^2), a convex function of x1
with the set below it.  So every arc turns right on its counterclockwise
loop.  The taxicab circle (p = q), all guide segments, is the one convex
case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, starmap
from typing import Callable, Sequence, Union

import numpy as np

from .core import (
    CassiniSpec,
    GeometryError,
    Point,
    PointGroup,
    RegionId,
    distance_product,
    midpoint,
    standardize,
    taxicab_distance,
)

# Validation holds the computed |d(x,p)*d(x,q) - r^2| of a piece's points to
# this relative tolerance (scaled by max(1, r^2)): at every parameter for a
# piece its certificate covers, and at the _VALIDATION_SAMPLES + 1 samples
# for any other.
RESIDUAL_RTOL = 1e-9
# Validation checks each piece its certificate does not cover at this many
# equal parameter steps.
_VALIDATION_SAMPLES = 16
# Unit roundoff of binary64: a correctly rounded operation has relative error
# at most this.
_UNIT_ROUNDOFF = 2.0**-53


class DegenerateInput(GeometryError):
    """Instance has no curve to build in floats: r = 0, or a loop that r is
    too small to resolve at its coordinates, whose pieces all round onto one
    point or which has an arc with an end rounded onto its center's line."""


class AssemblyError(RuntimeError):
    """Pieces failed to close up; signals an implementation bug, not bad input."""


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


# The members classify_point returns, read once rather than through the enum
# class on every call.
_INSIDE, _ON, _OUTSIDE = PointLocation.INSIDE, PointLocation.ON, PointLocation.OUTSIDE
# Bound once, as in core: classify_point checks its tolerance on every call.
_isfinite = math.isfinite


def classify_point(spec: CassiniSpec, x: Point, tol: float = 1e-9) -> PointLocation:
    """Locate x relative to the curve with a relative on-band of width tol.

    On iff |product - r^2| <= tol * max(1, r^2); Inside iff product falls
    below the band; Outside otherwise.  The comparisons take the rounded
    product and the rounded r^2, so tol = 0 means On iff the two rounded
    values are equal; it is not an exact predicate, and a point within a few
    ulps of the curve can land on either side of it (ROADMAP open item 1
    adds an exact sign predicate).
    """
    if not (_isfinite(tol) and tol >= 0):
        raise GeometryError(f"tolerance must be finite and nonnegative, got {tol!r}")
    # product_value's one line, inlined: this is the per-point path.
    f = distance_product(spec.p, spec.q, x.x1, x.x2)
    r = spec.r
    target = r * r
    # max(1.0, target) for the finite target >= 0 that CassiniSpec guarantees.
    band = tol * (target if target > 1.0 else 1.0)
    # |f - target| <= band without the call to abs; NaN fails both.
    if -band <= f - target <= band:
        return _ON
    if f < target - band:
        return _INSIDE
    return _OUTSIDE


class Topology(Enum):
    POINT_PAIR = "PointPair"
    TAXICAB_CIRCLE = "TaxicabCircle"
    TWO_CURVES = "TwoCurves"
    PINCHED_EDGE = "PinchedEdge"
    PINCHED_VERTEX = "PinchedVertex"
    ONE_CURVE = "OneCurve"


def topology(spec: CassiniSpec) -> Topology:
    """Topological class of K(p, q; r), from comparing r with the rounded
    r* = critical_radius(p, q).

    build_curves makes the same comparison, so its loop count agrees with
    the class returned here.  It is not the exact class of the float inputs:
    where r is within rounding of the exact r*, the two can differ (ROADMAP
    item 19).
    """
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


@dataclass(frozen=True, init=False)
class GuideSegment:
    """Straight curve piece on a guide line (slope +1 or -1)."""

    __slots__ = ("region", "start", "end")
    region: RegionId
    start: Point
    end: Point

    def __init__(self, region: RegionId, start: Point, end: Point) -> None:
        # The slot stores a generated frozen __init__ makes, each through its
        # slot's descriptor (bound after the class), as Point's are.
        _set_segment_region(self, region)
        _set_segment_start(self, start)
        _set_segment_end(self, end)

    def __reduce__(self):
        return GuideSegment, (self.region, self.start, self.end)

    def coords_at(self, fractions: Sequence[float]) -> list[tuple[float, float]]:
        """The (x1, x2) pairs at parameters in [0, 1]: start's at 0, end's at
        1, and start + f * (end - start) between."""
        s1, s2 = first = (self.start.x1, self.start.x2)
        e1, e2 = last = (self.end.x1, self.end.x2)
        d1, d2 = e1 - s1, e2 - s2
        return [
            first if f == 0.0 else last if f == 1.0 else (s1 + f * d1, s2 + f * d2)
            for f in fractions
        ]


_set_segment_region = GuideSegment.region.__set__
_set_segment_start = GuideSegment.start.__set__
_set_segment_end = GuideSegment.end.__set__


@dataclass(frozen=True, init=False)
class HyperbolaArc:
    """Curve piece on one branch of a taxicab hyperbola inside a half-strip.

    The arc satisfies (x_other - center_other)^2 - (x_run - center_run)^2 =
    radius^2 where "run" is the coordinate axis sweeping the strip and
    "other" the remaining one.  The region gives the run axis: the axis on
    which its half-strip lies between the focus lines.  The center is a
    guide complement of the foci.  The endpoints carry everything else: the
    run coordinate goes from start's to end's, and the branch is the side of
    the center that start lies on in the other coordinate, so build_curves
    returns no arc with an end on the center's line.  coords_at returns the
    endpoints' own coordinates at parameters 0 and 1.
    """

    __slots__ = ("region", "center", "radius", "start", "end")
    region: RegionId
    center: Point
    radius: float
    start: Point
    end: Point

    def __init__(
        self, region: RegionId, center: Point, radius: float, start: Point, end: Point
    ) -> None:
        # As GuideSegment's: the slot stores a generated frozen __init__
        # makes, through the slots' descriptors.
        _set_arc_region(self, region)
        _set_arc_center(self, center)
        _set_arc_radius(self, radius)
        _set_arc_start(self, start)
        _set_arc_end(self, end)

    def __reduce__(self):
        return HyperbolaArc, (self.region, self.center, self.radius, self.start, self.end)

    def coords_at(self, fractions: Sequence[float]) -> list[tuple[float, float]]:
        """The (x1, x2) pairs at parameters in [0, 1]: start's at 0, end's at
        1, and between them the branch point over the run coordinate
        u0 + f * du, on the side (branch +1 or -1) of the center that start
        lies on: c_other + branch * hypot(u - c_run, radius)."""
        start, end, radius = self.start, self.end, self.radius
        c1, c2 = self.center.x1, self.center.x2
        first, last = (start.x1, start.x2), (end.x1, end.x2)
        hypot = math.hypot
        if self.region.sides[0] == 1:
            # Run axis 1: the branch lies above or below the center.
            branch = 1 if start.x2 > c2 else -1
            u0, du = start.x1, end.x1 - start.x1
            return [
                first if f == 0.0 else last if f == 1.0
                else (u, c2 + branch * hypot(u - c1, radius))
                for f in fractions
                for u in (u0 + f * du,)
            ]
        branch = 1 if start.x1 > c1 else -1
        u0, du = start.x2, end.x2 - start.x2
        return [
            first if f == 0.0 else last if f == 1.0
            else (c1 + branch * hypot(u - c2, radius), u)
            for f in fractions
            for u in (u0 + f * du,)
        ]


_set_arc_region = HyperbolaArc.region.__set__
_set_arc_center = HyperbolaArc.center.__set__
_set_arc_radius = HyperbolaArc.radius.__set__
_set_arc_start = HyperbolaArc.start.__set__
_set_arc_end = HyperbolaArc.end.__set__

CurvePiece = Union[GuideSegment, HyperbolaArc]


def _placing(element: PointGroup, t: Point, r: float):
    """Constructors of loops computed in the standard frame and placed by
    element, then moved by t.

    Returns (place, loop).  place(x1, x2) is the Point G(x1, x2) + t for
    the element G, each coordinate s * u + t_j: the sign is exact, so the
    sum is its one rounding.  loop(junctions, kinds) takes placed junctions
    in the standard frame's clockwise order and, per junction, the
    standard-frame region of the piece that starts there and its arc's
    center (None on a segment).  It returns the closed loop of pieces, from
    each junction to the next and from the last back to the first: guide
    segments, and arcs of radius r.  A swap of the coordinates swaps a
    region's sides, and with them an arc's run axis.  Under determinant +1
    the placed loop would run clockwise, so each piece runs from its end to
    its start and the pieces are listed back to front.
    """
    swap, s1, s2, t1, t2 = element.swap, element.s1, element.s2, t.x1, t.x2
    backward = element.determinant == 1

    # element.apply written out for each value of swap, then the translation.
    if swap:
        place = lambda x1, x2: Point(s1 * x2 + t1, s2 * x1 + t2)
    else:
        place = lambda x1, x2: Point(s1 * x1 + t1, s2 * x2 + t2)

    def loop(junctions: list[Point], kinds: list) -> list[CurvePiece]:
        starts, ends = junctions, junctions[1:] + junctions[:1]
        if backward:
            starts, ends = ends, starts
        pieces = [
            GuideSegment(region.swapped if swap else region, start, end)
            if center is None
            else HyperbolaArc(region.swapped if swap else region, center, r, start, end)
            for (region, center), start, end in zip(kinds, starts, ends)
        ]
        return pieces[::-1] if backward else pieces

    return place, loop


def _diamond_pieces(r: float, element: PointGroup, t: Point) -> list[CurvePiece]:
    # Taxicab circle about the origin, placed by element and moved by t: the
    # radius-r diamond, written clockwise from the east vertex like the
    # standard-frame loops.
    place, loop = _placing(element, t, r)
    vertices = [place(r, 0.0), place(0.0, -r), place(-r, 0.0), place(0.0, r)]
    quadrants = (RegionId.QUADRANT_C1, RegionId.QUADRANT_Q, RegionId.QUADRANT_C2, RegionId.QUADRANT_P)
    return loop(vertices, [(region, None) for region in quadrants])


def _standard_loops(
    a: float, b: float, r: float, element: PointGroup, t: Point
) -> list[list[CurvePiece]]:
    """The loops of K(p, q; r) for p = (a, b) = -q, a >= b >= 0, placed by
    element and moved by t.

    A loop is written as its junctions, the points where one piece ends and
    the next starts, and the region of each piece, with its arc's center.
    Every junction and center is computed once, in closed form in this
    standard frame, and placed once; the piece ending at a junction
    and the piece starting there share the one Point, so every loop closes
    exactly.  The loops below are written clockwise; _placing lists them so
    that each runs counterclockwise once placed.  Only p's half is written:
    the point reflection x -> -x swaps the foci and maps the set onto
    itself, so the other half's junctions are the exact negations, its
    regions the mirrored ones, and its arcs lie about the other guide
    complement.  The guide complements g+ = (-b, -a) and g- = (b, a) are
    exact.

    With r* = a + b, each focus quadrant holds a guide segment on x1 + x2 =
    +-sp, sp = hypot(r*, r), and each complement quadrant one on x1 - x2 =
    +-sc, sc = hypot(a - b, r), iff r^2 >= 4ab (the corner point at
    equality).  Each half-strip holds an arc of the taxicab hyperbola about a
    guide complement.  Above r* the arcs span their strips, and p's half and
    its reflection form one loop.  At or below r* each arc leaves its strip
    over the window |u - c_run| < c around its center, c = sqrt(r*^2 - r^2),
    and the part on p's side of the window belongs to the loop about p, whose
    reflection is the loop about q.  The central rectangle then holds the
    waist segments on x1 + x2 = +-c, a single one shared by both loops at r
    = r*, and the clipped arcs end at the waist's ends (hi, c - hi) and (lo,
    c - lo).  The one comparison r^2 >= 4ab, true above r*, decides whether
    the complement segment and the bottom strip's arc lie between the
    junctions; where it fails, the right strip's arc ends at the waist.
    """
    place, loop = _placing(element, t, r)
    # A zero b as +0.0, the zero that the differences below round to, and
    # -b written as 0.0 - b: junctions that coincide then agree in the sign
    # of every zero too.
    b += 0.0
    rstar = a + b
    sp = math.hypot(rstar, r)
    # p's half: each junction, and the region of the piece that starts there
    # with its arc's guide complement, g+ for 1, g- for -1 (0 on a segment).
    junctions = [(a, sp - a), (sp - b, b)]
    kinds = [(RegionId.QUADRANT_P, 0), (RegionId.STRIP_P_C1, 1)]
    if r * r >= 4.0 * a * b:
        sc = math.hypot(a - b, r)
        junctions += [(sc - b, 0.0 - b), (a, a - sc)]
        kinds += [(RegionId.QUADRANT_C1, 0), (RegionId.STRIP_Q_C1, -1)]
    if not r > rstar:
        # The waist's offset from the midpoint diagonal; exact 0 at r = r*.
        # c - b >= -b >= -a, so lo needs no clamp to the rectangle.  The
        # product under the root overflows once r* passes about 1.34e154,
        # and only then is it taken apart.
        c_squared = (rstar - r) * (rstar + r)
        if c_squared < math.inf:
            c = math.sqrt(c_squared)
        else:
            c = math.sqrt(rstar - r) * math.sqrt(rstar + r)
        hi, lo = min(a, c + b), c - b
        junctions += [(hi, c - hi), (lo, c - lo)]
        kinds += [(RegionId.CENTRAL_RECTANGLE, 0), (RegionId.STRIP_P_C2, 1)]
    # The placed guide complements, indexed by the sign that names them
    # (None at 0); the reflection swaps them.
    guide = (None, place(-b, -a), place(b, a))
    p_points = [place(x1, x2) for x1, x2 in junctions]
    q_points = [place(-x1, -x2) for x1, x2 in junctions]
    p_kinds = [(region, guide[g]) for region, g in kinds]
    q_kinds = [(region.mirrored, guide[-g]) for region, g in kinds]
    if r > rstar:
        return [loop(p_points + q_points, p_kinds + q_kinds)]
    return [loop(p_points, p_kinds), loop(q_points, q_kinds)]


# Certificate constants in units of u = _UNIT_ROUNDOFF and C (see
# _piece_certificate): the slack of the region test, the rounding of the
# forms at an arc's center, the bound's allowance per unit of its distance
# sum, and the budget's allowances.
_SLACK_UC = 16.0
_FORM_UC = 16.0
_SUMS_UC = 512.0
_TARGET_U = 16.0
_SQUARE_UC2 = 2.0**17


def _axis_sides(pj: float, qj: float, c: float, slack: float) -> tuple:
    """Per side of one axis (numbered as in RegionId.sides), for pj != qj: the
    sign of xj - pj and of xj - qj on that side, and the side's interval of
    xj widened by slack and cut to [-c, c]."""
    if pj > qj:
        return (
            (1.0, 1.0, pj - slack, c),
            (-1.0, 1.0, qj - slack, pj + slack),
            (-1.0, -1.0, -c, qj + slack),
        )
    return (
        (-1.0, -1.0, -c, pj + slack),
        (1.0, -1.0, pj - slack, qj + slack),
        (1.0, 1.0, qj - slack, c),
    )


def _instance_bound(spec: CassiniSpec) -> float:
    # C = 2 max|focus coordinate| + r, the scale of the rounding allowances.
    p, q = spec.p, spec.q
    return 2.0 * max(abs(p.x1), abs(p.x2), abs(q.x1), abs(q.x2)) + spec.r


def _uncertified(piece: CurvePiece) -> bool:
    return False


def _piece_certificate(
    spec: CassiniSpec, target: float, residual_tol: float
) -> Callable[[CurvePiece], bool]:
    """A test of one piece, built once per spec, that is True only if the
    residual |d(x,p) * d(x,q) - target| computed as _loop_validator's check computes it
    is at most residual_tol at the point piece.coords_at gives for every
    float f in [0, 1].  False decides nothing: the caller samples the piece.

    The algebra.  On each of the nine closed regions of RegionId the signs of
    x1 - p1, x2 - p2, x1 - q1 and x2 - q2 are fixed, so d(x, p) and d(x, q)
    are affine forms L_p and L_q with coefficients +-1 there (_axis_sides).
    Along a segment L_p * L_q is quadratic in the parameter t and exceeds its
    chord by dL_p * dL_q * t (t - 1), dL the change over the segment: the
    residual stays within the larger end residual plus |dL_p * dL_q| / 4.  On
    a half-strip with run axis j the forms have opposite signs in x_j and
    equal signs in the other coordinate, so with y = x - c, a = L_p(c) and
    b = L_q(c), L_p * L_q = y_other^2 - y_run^2 + a (e_q . y) + b (e_p . y)
    + a b, e the signs of the forms.  On the arc's branch y_other^2 - y_run^2
    = r^2, so its residual is at most (|a| + |b|) |y|_1 + |a b|, which
    vanishes at the exact guide complement.

    The rounding.  Let u be the unit roundoff and C = 2 max|focus coordinate|
    + r, so the foci lie in [-C/2, C/2]^2 and r <= C.  A piece is tested only
    if its ends lie in its region, widened by the slack below and cut to
    [-C, C]^2, and an arc only if its center lies in [-C, C]^2 too.  Then
    its point at f lies within 13 uC, in L1, of an exact point X: the point
    s + f (e - s) on a segment, or the branch point over the computed run
    coordinate on an arc (math.hypot errs by under one ulp).  The region test
    allows a slack of 16 uC beyond each coordinate line; with the rounding of
    the test and of the run coordinate every such X lies within v = 34 uC of
    its region, so d = L + rho with 0 <= rho <= 4 v per form.  Summing the
    slack, the distance from X and the rounding of the product (5 u of it),
    of r^2 and of the end residuals, every term that is linear in uC is at
    most 290 uC * S, S the piece's bound on d(x, p) + d(x, q); the others are
    at most 16 u max(1, r^2) + 2^17 (uC)^2 in all.  S is the larger sum at a
    segment's ends, since L_p + L_q is affine along it, and 2 (max|x_run -
    c_run| + r) + |a| + |b| on an arc, where L_p + L_q = 2 |y_other| + a + b.
    A piece is certified iff its end residuals meet residual_tol and its
    bound plus 512 uC * S is at most residual_tol - 16 u max(1, r^2) -
    2^17 (uC)^2.  No piece is certified when that budget is not positive, or
    when the foci share a coordinate and a region has no fixed sign.  The
    allowance is a static error filter in the sense of Shewchuk (Discrete
    Comput. Geom. 1997): its constants are fixed per spec, it decides most
    pieces, and the samples decide the rest.
    """
    p, q, r = spec.p, spec.q, spec.r
    p1, p2, q1, q2 = p.x1, p.x2, q.x1, q.x2
    if p1 == q1 or p2 == q2:
        return _uncertified
    c = _instance_bound(spec)
    uc = _UNIT_ROUNDOFF * c
    budget = residual_tol - _TARGET_U * _UNIT_ROUNDOFF * max(1.0, target) - _SQUARE_UC2 * uc * uc
    if not budget > 0:
        return _uncertified
    sums_allowance = _SUMS_UC * uc
    form_allowance = _FORM_UC * uc
    axis1 = _axis_sides(p1, q1, c, _SLACK_UC * uc)
    axis2 = _axis_sides(p2, q2, c, _SLACK_UC * uc)

    def certified(piece: CurvePiece) -> bool:
        side1, side2 = piece.region.sides
        ep1, eq1, lo1, hi1 = axis1[side1]
        ep2, eq2, lo2, hi2 = axis2[side2]
        s1, s2 = piece.start.x1, piece.start.x2
        e1, e2 = piece.end.x1, piece.end.x2
        # The samples at f = 0 and f = 1 are the ends, in the sample loop's arithmetic.
        ps, qs = abs(s1 - p1) + abs(s2 - p2), abs(s1 - q1) + abs(s2 - q2)
        pe, qe = abs(e1 - p1) + abs(e2 - p2), abs(e1 - q1) + abs(e2 - q2)
        ends, other_end = abs(ps * qs - target), abs(pe * qe - target)
        if other_end > ends:
            ends = other_end
        # Both ends lie in the region, which also bounds an arc's run range.
        if not (lo1 <= s1 <= hi1 and lo1 <= e1 <= hi1 and lo2 <= s2 <= hi2 and lo2 <= e2 <= hi2):
            return False
        if type(piece) is GuideSegment:
            d1, d2 = e1 - s1, e2 - s2
            sums = ps + qs if ps + qs > pe + qe else pe + qe
            bound = ends + abs((ep1 * d1 + ep2 * d2) * (eq1 * d1 + eq2 * d2)) / 4
            return bound + sums_allowance * sums <= budget
        center = piece.center
        k1, k2 = center.x1, center.x2
        if not (piece.radius == r and abs(k1) <= c and abs(k2) <= c and ends <= residual_tol):
            return False
        # The forms multiply to y_other^2 - y_run^2 only with the run axis
        # between the lines and the other on a focus's side, where
        # e_p = e_q; the branch, read off the start as coords_at reads it,
        # must point away from the foci.  floor is the least |y_other| that
        # keeps the branch on that side.
        if side1 == 1:
            if side2 == 1 or (1.0 if s2 > k2 else -1.0) != ep2:
                return False
            run_s, run_e, k_run = s1, e1, k1
            floor = lo2 - k2 if ep2 > 0 else k2 - hi2
        else:
            if side2 != 1 or (1.0 if s1 > k1 else -1.0) != ep1:
                return False
            run_s, run_e, k_run = s2, e2, k2
            floor = lo1 - k1 if ep1 > 0 else k1 - hi1
        lo, hi = (run_s, run_e) if run_s < run_e else (run_e, run_s)
        # |y_other| is least at the run value nearest the center.
        nearest = lo - k_run if lo > k_run else (k_run - hi if hi < k_run else 0.0)
        if math.hypot(nearest, r) < floor:
            return False
        forms = (
            abs(ep1 * (k1 - p1) + ep2 * (k2 - p2))
            + abs(eq1 * (k1 - q1) + eq2 * (k2 - q2))
            + form_allowance
        )
        farthest = hi - k_run if hi - k_run > k_run - lo else k_run - lo
        sums = 2.0 * (farthest + r) + forms
        return (forms + sums_allowance) * sums <= budget

    return certified


def _region_box(spec: CassiniSpec, region: RegionId) -> tuple[float, float, float, float]:
    """(lo1, hi1, lo2, hi2): the closed region of spec's foci, widened by the
    certificate's slack of 16 uC beyond each coordinate line, but by at least
    16 times the least subnormal, and unbounded outward.  An axis on which
    the foci share the coordinate is unbounded."""
    # 16 uC underflows at subnormal scales, where rounding errs by up to 2^-1075.
    slack = max(_SLACK_UC * _UNIT_ROUNDOFF * _instance_bound(spec), _SLACK_UC * 2.0**-1074)
    box: list[float] = []
    for pj, qj, side in zip(spec.p, spec.q, region.sides):
        if pj == qj:
            box += (-math.inf, math.inf)
        else:
            box += _axis_sides(pj, qj, math.inf, slack)[side][2:]
    return tuple(box)


def _loop_validator(spec: CassiniSpec, samples_per_piece: int) -> Callable[[list[CurvePiece]], None]:
    """The check of a loop of spec's pieces, built once per spec with its
    certificate; a piece the certificate fails has its samples checked."""
    target = spec.r * spec.r
    residual_tol = RESIDUAL_RTOL * max(1.0, target)
    certified = _piece_certificate(spec, target, residual_tol)
    p, q = spec.p, spec.q

    def validate(pieces: list[CurvePiece]) -> None:
        for i, piece in enumerate(pieces):
            # A certified piece lies in its region by the certificate's own
            # region test; the samples of any other must stay in its region too.
            if certified(piece):
                continue
            lo1, hi1, lo2, hi2 = _region_box(spec, piece.region)
            coords = piece.coords_at([k / samples_per_piece for k in range(samples_per_piece + 1)])
            for x1, x2 in coords:
                residual = abs(distance_product(p, q, x1, x2) - target)
                if residual > residual_tol or not (lo1 <= x1 <= hi1 and lo2 <= x2 <= hi2):
                    # A sample that is not finite fails a check, and its error
                    # comes first: Point raises GeometryError at the piece's
                    # first such sample.
                    list(starmap(Point, coords))
                    x = Point(x1, x2)
                    if residual > residual_tol:
                        raise AssemblyError(f"piece {i} sample {x} misses the level set by {residual!r}")
                    raise AssemblyError(
                        f"piece {i} sample {x} lies outside its region {piece.region.value}"
                    )

    return validate


def _off_center_line(piece: CurvePiece) -> bool:
    # False for an arc with an end on its center's line, off which coords_at
    # cannot read the branch.
    if type(piece) is GuideSegment:
        return True
    other = 2 if piece.region.sides[0] == 1 else 1
    k = piece.center.coord(other)
    return piece.start.coord(other) != k != piece.end.coord(other)


def build_curves(spec: CassiniSpec) -> list[tuple[CurvePiece, ...]]:
    """Assemble K(p, q; r) into its closed curves, counterclockwise.

    A curve is the tuple of its pieces in cyclic order, each piece starting
    at the very Point where the previous one ends.  Returns one curve above
    the critical radius, two below it, and two sharing their pinch boundary
    at it (the shared rectangle segment, or the shared vertex when the foci
    lie on a coordinate line).  Each junction is computed once, so a piece
    is dropped only when its float ends coincide, and the loop stays closed
    without it.  Each returned curve is validated: each piece satisfies the
    defining product equation within RESIDUAL_RTOL of max(1, r^2) as computed
    in floats: at every parameter where its certificate holds, and at the
    validation samples, which must also lie in the piece's region, where it
    does not (see _piece_certificate).  Raises DegenerateInput for r = 0, and
    for a loop below the float resolution: every piece rounds onto one
    point, an arc's end onto its center's line, or a taxicab circle flat
    onto one coordinate line, off the level set.
    """
    if spec.r == 0:
        raise DegenerateInput("r = 0 yields the bare focus pair, not a curve")
    m = midpoint(spec.p, spec.q)
    element, p_std = standardize(spec.p, spec.q)
    back = element.inverse()
    circle = p_std.x1 == 0
    if circle:
        # p = q, or foci whose half-difference rounds to zero: in floats
        # the taxicab circle about the midpoint.
        loops = [_diamond_pieces(spec.r, back, m)]
    else:
        loops = _standard_loops(p_std.x1, p_std.x2, spec.r, back, m)
    validate = _loop_validator(spec, _VALIDATION_SAMPLES)
    curves = []
    for k, loop in enumerate(loops, 1):
        kept = []
        for piece in loop:
            start, end = piece.start, piece.end
            if start.x1 != end.x1 or start.x2 != end.x2:
                kept.append(piece)
        if not (kept and all(map(_off_center_line, kept))):
            raise _below_resolution(spec, k, len(loops))
        try:
            validate(kept)
        except AssemblyError as exc:
            # A circle whose offsets along one axis round away lies flat on
            # a coordinate line, and its vertex on the center misses the
            # level set by r^2 unless r^2 is within the residual tolerance.
            if circle and _on_one_line(kept):
                raise _below_resolution(spec, k, len(loops)) from None
            raise AssemblyError(f"{spec}, loop {k} of {len(loops)}: {exc}") from None
        curves.append(tuple(kept))
    return curves


def _below_resolution(spec: CassiniSpec, k: int, count: int) -> DegenerateInput:
    return DegenerateInput(
        f"{spec}, loop {k} of {count}: r = {spec.r!r} is below the float resolution at its"
        " coordinates: every piece rounds onto one point, or an arc's end onto its center's line"
    )


def _on_one_line(pieces: list[CurvePiece]) -> bool:
    # True when every piece starts on one coordinate line.
    x1s, x2s = zip(*(piece.start for piece in pieces))
    return len(set(x1s)) == 1 or len(set(x2s)) == 1


@functools.lru_cache(maxsize=16)
def _sample_plan(count: int, n: int) -> tuple[tuple[float, ...], ...]:
    """Per piece i of a curve of count pieces, the parameters t - i of the
    samples k < n whose t = k * count / n has int(t) == i."""
    plan: list[list[float]] = [[] for _ in range(count)]
    for k in range(n):
        # k * count / n is the correctly rounded quotient of two ints whose
        # exact value is at most count - count / n, so it rounds up to count
        # only if n > 2**53: int(t) is always a piece index.
        t = k * count / n
        i = int(t)
        plan[i].append(t - i)
    return tuple(map(tuple, plan))


def _sample_pairs(curve: tuple[CurvePiece, ...], n: int) -> list[tuple[float, float]]:
    # The (x1, x2) pairs of sample_curve(curve, n), which need not be finite.
    if n < 8:
        raise GeometryError(f"need at least 8 samples, got {n}")
    pairs: list[tuple[float, float]] = []
    for piece, fractions in zip(curve, _sample_plan(len(curve), n)):
        pairs += piece.coords_at(fractions)
    return pairs


def sample_curve(curve: tuple[CurvePiece, ...], n: int) -> list[Point]:
    """n points in cyclic order along a curve of build_curves, n >= 8.

    The curve parameter is uniform per piece: segments are sampled evenly in
    arc length, hyperbola arcs evenly in the coordinate running along their
    strip.
    """
    return list(starmap(Point, _sample_pairs(curve, n)))


def sample_coords(curve: tuple[CurvePiece, ...], n: int) -> np.ndarray:
    """The coordinates of sample_curve(curve, n) as an (n, 2) float array.

    The values equal the points' bit for bit, signed zeros included, and the
    errors are sample_curve's: GeometryError for n < 8, and Point's
    GeometryError for the first sample that is not finite.
    """
    pairs = _sample_pairs(curve, n)
    xy = np.fromiter(chain.from_iterable(pairs), float, 2 * n).reshape(n, 2)
    if not np.isfinite(xy).all():
        # Point raises GeometryError at the first sample that is not finite.
        list(starmap(Point, pairs))
    return xy


def curve_polyline(curve: tuple[CurvePiece, ...], samples_per_piece: int = 64) -> list[Point]:
    """Closed ring of samples_per_piece points per piece of a curve of build_curves.

    The ring does not repeat its first point: the last point joins the first.
    """
    if samples_per_piece < 1:
        raise GeometryError("samples_per_piece must be positive")
    fractions = [k / samples_per_piece for k in range(samples_per_piece)]
    pairs: list[tuple[float, float]] = []
    for piece in curve:
        pairs += piece.coords_at(fractions)
    return list(starmap(Point, pairs))
