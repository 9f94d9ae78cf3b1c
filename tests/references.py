"""Pointwise references shared by the test modules.

Written from the definitions alone, so the checks that use them do not
share code with the package under test.
"""

from taxicassini.core import Point, RegionId, taxicab_distance


def reference_midpoint(p: Point, q: Point) -> Point:
    """(p + q) / 2, coordinate by coordinate."""
    return Point((p.x1 + q.x1) / 2, (p.x2 + q.x2) / 2)


def placed(element, t: Point, x: Point) -> Point:
    """x mapped by the point-group element, then moved by t: the element's
    value (swap, s1, s2) sends x to (s1 u, s2 v), where (u, v) is (x2, x1)
    under a swap and (x1, x2) otherwise."""
    swap, s1, s2 = element.value
    u, v = (x.x2, x.x1) if swap else (x.x1, x.x2)
    return Point(s1 * u + t.x1, s2 * v + t.x2)


def closer_to(a: Point, b: Point, x: Point) -> bool:
    """True if x is at least as close to a as to b (ties included)."""
    return taxicab_distance(x, a) <= taxicab_distance(x, b)


# Region by the sides of x along x1 and x2: "p" on p's side away from q,
# "m" between the two coordinate lines, "q" beyond q.
REGION_BY_SIDES = {
    ("p", "p"): RegionId.QUADRANT_P,
    ("p", "m"): RegionId.STRIP_P_C1,
    ("p", "q"): RegionId.QUADRANT_C1,
    ("m", "p"): RegionId.STRIP_P_C2,
    ("m", "m"): RegionId.CENTRAL_RECTANGLE,
    ("m", "q"): RegionId.STRIP_Q_C1,
    ("q", "p"): RegionId.QUADRANT_C2,
    ("q", "m"): RegionId.STRIP_Q_C2,
    ("q", "q"): RegionId.QUADRANT_Q,
}


def axis_sides(pj: float, qj: float, xj: float) -> set[str]:
    """The sides of xj along one axis.  The intervals are closed, so a value
    on a line gets several sides; when the foci share the coordinate, "p" is
    the >= side."""
    sides = set()
    if pj == qj:
        if xj >= pj:
            sides.add("p")
        if xj == pj:
            sides.add("m")
        if xj <= pj:
            sides.add("q")
        return sides
    s = 1.0 if pj > qj else -1.0
    dp = s * (xj - pj)
    dq = s * (xj - qj)
    if dp >= 0:
        sides.add("p")
    if dp <= 0 and dq >= 0:
        sides.add("m")
    if dq <= 0:
        sides.add("q")
    return sides


def classify_region(p: Point, q: Point, x: Point) -> frozenset[RegionId]:
    """All closed regions of the foci p, q that contain x; comparisons are exact."""
    sides1 = axis_sides(p.x1, q.x1, x.x1)
    sides2 = axis_sides(p.x2, q.x2, x.x2)
    return frozenset(REGION_BY_SIDES[a, b] for a in sides1 for b in sides2)
