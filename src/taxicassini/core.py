"""Planar taxicab (L1) geometry primitives.

Distances and the distance product d(x,a)·d(x,b), singly or for several
pairs sharing their distance fields, the labels of the nine closed regions
that the coordinate lines through two foci cut the plane into, the complements
of a focus pair, and the isometry group of the taxicab plane (translations
composed with the eight-element dihedral point group).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence


class GeometryError(ValueError):
    """Input outside an operation's documented domain."""


@dataclass(frozen=True)
class Point:
    """A location in the plane; coordinates must be finite."""

    x1: float
    x2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise GeometryError(f"coordinates must be finite, got ({self.x1!r}, {self.x2!r})")

    def __iter__(self) -> Iterator[float]:
        yield self.x1
        yield self.x2

    def coord(self, axis: int) -> float:
        """Coordinate by axis number, 1 or 2."""
        return self.x1 if axis == 1 else self.x2


ORIGIN = Point(0.0, 0.0)


def taxicab_distance(a: Point, b: Point) -> float:
    """L1 distance |a1 - b1| + |a2 - b2|."""
    return abs(a.x1 - b.x1) + abs(a.x2 - b.x2)


def distance_product(a: Point, b: Point, x1, x2):
    """d(x, a) * d(x, b) at x = (x1, x2), for floats or broadcasting arrays;
    builtin abs serves both, so each array element equals the scalar call.
    """
    return (abs(x1 - a.x1) + abs(x2 - a.x2)) * (abs(x1 - b.x1) + abs(x2 - b.x2))


def distance_products(pairs: Sequence[tuple[Point, Point]], x1, x2) -> list:
    """distance_product(a, b, x1, x2) for each (a, b) in pairs, in order.

    Each distinct focus's field d(x, a) is computed once and shared by every
    pair naming it, so four foci paired six ways cost four fields and six
    multiplies.  Foci are shared by value, and for float or float-array
    coordinates each product equals the single-pair call element for element
    and bit for bit.  On a grid given as axes x1 of shape (n,) and x2 of
    shape (n, 1), a field is a row of n offsets plus a column of n offsets,
    added by broadcasting.
    """
    fields: dict[Point, object] = {}

    def distance_field(a: Point):
        d = fields.get(a)
        if d is None:
            d = fields[a] = abs(x1 - a.x1) + abs(x2 - a.x2)
        return d

    return [distance_field(a) * distance_field(b) for a, b in pairs]


class RegionId(Enum):
    """The nine closed regions induced by the coordinate lines through p and q.

    Quadrants sit at the foci and at the two coordinate complements
    c1 = (p1, q2) and c2 = (q1, p2); half-strips join a focus to a complement;
    the central rectangle has all four as corners.  Regions are closed, so
    boundary points belong to every region touching them.  When the foci share
    a coordinate line some regions collapse to rays or a segment but keep
    their identity.
    """

    QUADRANT_P = "Q_p"
    QUADRANT_Q = "Q_q"
    QUADRANT_C1 = "Q_c1"
    QUADRANT_C2 = "Q_c2"
    STRIP_P_C1 = "S_p_c1"
    STRIP_P_C2 = "S_p_c2"
    STRIP_Q_C1 = "S_q_c1"
    STRIP_Q_C2 = "S_q_c2"
    CENTRAL_RECTANGLE = "R"


@dataclass(frozen=True)
class FociFrame:
    """Derived landmarks of a focus pair.

    c1/c2 are the coordinate complements, g_plus/g_minus the guide complements
    (intersections of the slope +1/-1 guide lines through p with the opposite
    guide lines through q).
    """

    c1: Point
    c2: Point
    g_plus: Point
    g_minus: Point


def foci_frame(p: Point, q: Point) -> FociFrame:
    """Compute the coordinate and guide complements of (p, q)."""
    g_plus = Point(
        (p.x1 - p.x2 + q.x1 + q.x2) / 2,
        (-p.x1 + p.x2 + q.x1 + q.x2) / 2,
    )
    g_minus = Point(
        (p.x1 + p.x2 + q.x1 - q.x2) / 2,
        (p.x1 + p.x2 - q.x1 + q.x2) / 2,
    )
    return FociFrame(
        c1=Point(p.x1, q.x2),
        c2=Point(q.x1, p.x2),
        g_plus=g_plus,
        g_minus=g_minus,
    )


class PointGroup(Enum):
    """The eight linear taxicab isometries fixing the origin.

    Values are (swap, s1, s2) encoding x -> (s1*u, s2*v) where (u, v) is
    (x2, x1) when swap else (x1, x2).  Declaration order is the fixed
    enumeration used by standardize's tie-break.
    """

    IDENTITY = (False, 1, 1)
    ROT90 = (True, -1, 1)
    ROT180 = (False, -1, -1)
    ROT270 = (True, 1, -1)
    FLIP_X1 = (False, -1, 1)  # reflect across the vertical coordinate line
    FLIP_X2 = (False, 1, -1)  # reflect across the horizontal coordinate line
    FLIP_DIAG = (True, 1, 1)  # reflect across the slope +1 guide line
    FLIP_ANTIDIAG = (True, -1, -1)  # reflect across the slope -1 guide line

    def apply(self, x1: float, x2: float) -> tuple[float, float]:
        swap, s1, s2 = self.value
        if swap:
            return s1 * x2, s2 * x1
        return s1 * x1, s2 * x2

    @property
    def determinant(self) -> int:
        """+1 for the rotations, -1 for the reflections; a swap negates s1*s2."""
        swap, s1, s2 = self.value
        return -s1 * s2 if swap else s1 * s2

    def inverse(self) -> "PointGroup":
        # A swap sends (x1, x2) to (s1*x2, s2*x1), undone by (s2*x2, s1*x1);
        # every other element is its own inverse.
        swap, s1, s2 = self.value
        return PointGroup((True, s2, s1)) if swap else self


@dataclass(frozen=True)
class Isometry:
    """Distance-preserving map x -> G(x) + t for a point-group element G."""

    element: PointGroup
    translation: Point = field(default=ORIGIN)

    def apply(self, x: Point) -> Point:
        y1, y2 = self.element.apply(x.x1, x.x2)
        return Point(y1 + self.translation.x1, y2 + self.translation.x2)

    def inverse(self) -> "Isometry":
        g = self.element.inverse()
        t1, t2 = g.apply(self.translation.x1, self.translation.x2)
        return Isometry(g, Point(-t1, -t2))


def standardize(p: Point, q: Point) -> tuple[Isometry, Point]:
    """Isometry placing the focus pair in standard position.

    Returns (phi, p') where phi maps the midpoint to the origin and p to p'
    in the closed first octant (p1' >= p2' >= 0), so q goes to -p'.  The
    point-group element is the first in the fixed enumeration that works, so
    an already-standard pair gets the identity.  The returned point is the
    exact octant representative of the half-difference vector; applying phi
    to p reproduces it, and to q its negation, to within roundoff (<= 1e-12
    relative).
    """
    v1 = (p.x1 - q.x1) / 2
    v2 = (p.x2 - q.x2) / 2
    element = PointGroup.IDENTITY
    w1, w2 = v1, v2
    for candidate in PointGroup:
        u1, u2 = candidate.apply(v1, v2)
        if u1 >= u2 >= 0:
            element, w1, w2 = candidate, u1, u2
            break
    else:  # pragma: no cover - every vector has an octant representative
        raise GeometryError("no point-group element standardizes the pair")
    m1, m2 = element.apply((p.x1 + q.x1) / 2, (p.x2 + q.x2) / 2)
    iso = Isometry(element, Point(-m1, -m2))
    return iso, Point(w1, w2)
