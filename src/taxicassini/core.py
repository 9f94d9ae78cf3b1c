"""Planar taxicab (L1) geometry primitives.

Distances and the distance product d(x,a)·d(x,b), singly or for several
pairs sharing their distance fields, the instance type CassiniSpec, the nine
closed regions that the coordinate lines through two foci cut the plane into,
the guide complements and the midpoint of a focus pair, the eight-element
dihedral point group of the taxicab plane, and the element and focus that
put a pair in standard position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence


class GeometryError(ValueError):
    """Input outside an operation's documented domain."""


# Bound once: every Point's check calls it, and a global name is cheaper to
# read than an attribute of a module.
_isfinite = math.isfinite


@dataclass(frozen=True, init=False)
class Point:
    """A location in the plane; coordinates must be finite."""

    # Slots, not a per-instance dict.  They are declared here, not by
    # dataclass(slots=True), which rebuilds the class on 3.10 and 3.11: the
    # frozen __setattr__ then raises TypeError for a new name, not
    # FrozenInstanceError.
    __slots__ = ("x1", "x2")
    x1: float
    x2: float

    def __init__(self, x1: float, x2: float) -> None:
        # The slot stores a generated frozen __init__ makes, after one check
        # of the arguments: a __post_init__ check would cost a second call
        # and re-read both fields, on every sample and probe point.  Each
        # store goes straight to its slot's descriptor (bound below), not
        # through object.__setattr__'s lookup of the name on the type.
        if not (_isfinite(x1) and _isfinite(x2)):
            raise GeometryError(f"coordinates must be finite, got ({x1!r}, {x2!r})")
        _set_x1(self, x1)
        _set_x2(self, x2)

    def __reduce__(self):
        # A copy or an unpickled Point is built by __init__, with its check.
        return Point, (self.x1, self.x2)

    def __iter__(self) -> Iterator[float]:
        yield self.x1
        yield self.x2

    def coord(self, axis: int) -> float:
        """Coordinate by axis number, 1 or 2."""
        if axis == 1:
            return self.x1
        if axis == 2:
            return self.x2
        raise GeometryError(f"axis must be 1 or 2, got {axis!r}")


# The slots' own member descriptors' stores, bound once: every Point is built
# through these two.
_set_x1 = Point.x1.__set__
_set_x2 = Point.x2.__set__


@dataclass(frozen=True)
class CassiniSpec:
    """Foci p, q and radius parameter r >= 0 defining K(p, q; r).

    Every sum the package forms from the foci and r stays finite: with S
    = |p1| + |p2| + |q1| + |q2|, p - q, p + q and the guide complements'
    sums are at most S in magnitude, d(p, q) + r at most S + r, and the
    sampling box's half-width, corners and width at most 3 (S + r) + 2.  A
    spec is rejected unless 4 (S + r) is finite.  This also rejects foci
    such as (1.2e307, 1.2e307) and (-1.2e307, -1.2e307), none of whose
    sums overflows; foci with every |coordinate| up to about 1.1e307, a
    sixteenth of the largest float, are accepted.
    """

    __slots__ = ("p", "q", "r")
    p: Point
    q: Point
    r: float

    def __post_init__(self) -> None:
        p, q, r = self.p, self.q, self.r
        if not math.isfinite(r) or r < 0:
            raise GeometryError(f"radius parameter must be finite and nonnegative, got {r!r}")
        # Every product comparison is against r^2: an overflowed square would
        # turn each residual and on-band into inf or NaN, which no check trips.
        if not math.isfinite(r * r):
            raise GeometryError(f"radius parameter squared must be finite, got r = {r!r}")
        # An overflowed sum would surface later as a non-finite point the
        # caller never gave; this names the foci instead.
        if not math.isfinite(4.0 * (abs(p.x1) + abs(p.x2) + abs(q.x1) + abs(q.x2) + r)):
            raise GeometryError(
                f"foci {p} and {q} are too large for r = {r!r}:"
                " 4 (|p1| + |p2| + |q1| + |q2| + r) must be finite"
            )

    def __reduce__(self):
        # A copy or an unpickled spec is built by __init__, with its checks.
        return CassiniSpec, (self.p, self.q, self.r)


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

    Each member's value is its label, and its facts are plain attributes:
    sides, its side of the coordinate lines along x1 and along x2, 0 on p's
    side away from q, 1 between the two lines and 2 on q's side away from p;
    swapped, its image under the swap of the coordinates, which transposes
    the sides; and mirrored, its image under the point reflection through
    the midpoint, which swaps the foci and so each side i with side 2 - i.
    """

    def __new__(cls, label: str, sides: tuple[int, int]) -> "RegionId":
        region = object.__new__(cls)
        region._value_ = label
        region.sides = sides
        return region

    QUADRANT_P = "Q_p", (0, 0)
    QUADRANT_Q = "Q_q", (2, 2)
    QUADRANT_C1 = "Q_c1", (0, 2)
    QUADRANT_C2 = "Q_c2", (2, 0)
    STRIP_P_C1 = "S_p_c1", (0, 1)
    STRIP_P_C2 = "S_p_c2", (1, 0)
    STRIP_Q_C1 = "S_q_c1", (1, 2)
    STRIP_Q_C2 = "S_q_c2", (2, 1)
    CENTRAL_RECTANGLE = "R", (1, 1)


_REGION_BY_SIDES = {region.sides: region for region in RegionId}
for _region in RegionId:
    _i, _j = _region.sides
    _region.swapped = _REGION_BY_SIDES[_j, _i]
    _region.mirrored = _REGION_BY_SIDES[2 - _i, 2 - _j]


def midpoint(p: Point, q: Point) -> Point:
    """The midpoint (p + q) / 2, each coordinate rounded once."""
    return Point((p.x1 + q.x1) / 2, (p.x2 + q.x2) / 2)


def guide_complements(p: Point, q: Point) -> tuple[Point, Point]:
    """The guide complements (g+, g-) of (p, q).

    g+ is where the slope +1 guide line through p meets the slope -1 guide
    line through q, and g- where the slope -1 line through p meets the slope
    +1 line through q.
    """
    g_plus = Point(
        (p.x1 - p.x2 + q.x1 + q.x2) / 2,
        (-p.x1 + p.x2 + q.x1 + q.x2) / 2,
    )
    g_minus = Point(
        (p.x1 + p.x2 + q.x1 - q.x2) / 2,
        (p.x1 + p.x2 - q.x1 + q.x2) / 2,
    )
    return g_plus, g_minus


class PointGroup(Enum):
    """The eight linear taxicab isometries fixing the origin.

    Values are (swap, s1, s2) encoding x -> (s1*u, s2*v) where (u, v) is
    (x2, x1) when swap else (x1, x2).  determinant is +1 for the rotations
    and -1 for the reflections.  Declaration order is the fixed enumeration
    used by standardize's tie-break.
    """

    IDENTITY = (False, 1, 1)
    ROT90 = (True, -1, 1)
    ROT180 = (False, -1, -1)
    ROT270 = (True, 1, -1)
    FLIP_X1 = (False, -1, 1)  # reflect across the vertical coordinate line
    FLIP_X2 = (False, 1, -1)  # reflect across the horizontal coordinate line
    FLIP_DIAG = (True, 1, 1)  # reflect across the slope +1 guide line
    FLIP_ANTIDIAG = (True, -1, -1)  # reflect across the slope -1 guide line

    def __init__(self, swap: bool, s1: int, s2: int) -> None:
        # The value's parts as attributes, cheaper to read than .value.
        self.swap, self.s1, self.s2 = swap, s1, s2
        self.determinant = -s1 * s2 if swap else s1 * s2

    def apply(self, x1: float, x2: float) -> tuple[float, float]:
        if self.swap:
            return self.s1 * x2, self.s2 * x1
        return self.s1 * x1, self.s2 * x2

    def inverse(self) -> "PointGroup":
        return self._inverse


for _element in PointGroup:
    # A swap sends (x1, x2) to (s1*x2, s2*x1), undone by (s2*x2, s1*x1);
    # every other element is its own inverse.
    _element._inverse = PointGroup((True, _element.s2, _element.s1)) if _element.swap else _element
# Each element with the parts of its value, in declaration order.
_ELEMENT_PARTS = tuple((element, element.swap, element.s1, element.s2) for element in PointGroup)


def standardize(p: Point, q: Point) -> tuple[PointGroup, Point]:
    """The point-group element and focus of the pair's standard position.

    Returns (G, p') where G is the first element in the fixed enumeration
    that puts the difference p - q in the closed first octant, so an
    already-standard pair gets the identity, and p' = G((p - q) / 2) is the
    standard focus: p1' >= p2' >= 0, with -p' the standard q.  The standard
    frame has the midpoint at the origin, and x there is placed in the
    input frame at G^-1(x) + midpoint(p, q).  Where every sum and halving
    is exact, as for dyadic foci, placing p' and -p' gives back p and q bit
    for bit.
    """
    d1 = p.x1 - q.x1
    d2 = p.x2 - q.x2
    # The element follows p - q itself: halving can round a subnormal
    # difference to a zero, which would lose its sign and its order.
    for element, swap, s1, s2 in _ELEMENT_PARTS:
        u1, u2 = (s1 * d2, s2 * d1) if swap else (s1 * d1, s2 * d2)
        if u1 >= u2 >= 0:
            break
    else:  # pragma: no cover - every vector has an octant representative
        raise GeometryError("no point-group element standardizes the pair")
    # Halving is monotone and keeps signs, so the half-difference stays in
    # the octant.
    w1, w2 = element.apply(d1 / 2, d2 / 2)
    return element, Point(w1, w2)
