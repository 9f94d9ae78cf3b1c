"""Filled taxicab Cassini sets and their guide-family set algebra.

The filled set L(p, q; r) = {x : d(x,p) * d(x,q) < r^2} of a focus pair can
be rebuilt from the four guide Cassini sets pairing each focus with the two
guide complements g+ and g-: a union of intersections, an intersection of
unions, and two cross-pairings that sandwich L and hit it exactly after
combining with the filled set of the complements themselves.  This module
provides the pointwise predicates, a vectorized sampler-based verifier for
each identity, and a probe-based witness that curve points are boundary
points of L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .cassini import CassiniSpec, product_value
from .core import GeometryError, Point, distance_product, foci_frame, taxicab_distance

# Probe classifications treat |f - r^2| below this (relative) guard as "not
# strictly inside": the open set is defined by a strict inequality that
# cannot be certified closer than roundoff.
BOUNDARY_GUARD_RTOL = 1e-12


def filled_contains(spec: CassiniSpec, x: Point) -> bool:
    """Strict membership in the open filled set L(p, q; r); empty for r = 0."""
    return product_value(spec, x) < spec.r * spec.r


@dataclass(frozen=True)
class GuideFamily:
    """The four guide Cassini specs (focus, guide complement, r) of a pair.

    Each member's foci share a guide line, and all four share the radius
    parameter of the originating spec.
    """

    lp_plus: CassiniSpec
    lp_minus: CassiniSpec
    lq_plus: CassiniSpec
    lq_minus: CassiniSpec


def guide_family(p: Point, q: Point, r: float) -> GuideFamily:
    frame = foci_frame(p, q)
    return GuideFamily(
        lp_plus=CassiniSpec(p, frame.g_plus, r),
        lp_minus=CassiniSpec(p, frame.g_minus, r),
        lq_plus=CassiniSpec(q, frame.g_plus, r),
        lq_minus=CassiniSpec(q, frame.g_minus, r),
    )


# The guide-family combinations of the memberships in L(p,g+), L(p,g-),
# L(q,g+), L(q,g-); & and | serve Python bools and NumPy bool arrays alike.
def _union_of_intersections(pp, pm, qp, qm):
    return (pp & pm) | (qp & qm)


def _intersection_of_unions(pp, pm, qp, qm):
    return (pp | qp) & (pm | qm)


def _cross_union(pp, pm, qp, qm):
    return (pp | qm) & (pm | qp)


def _cross_intersection(pp, pm, qp, qm):
    return (pp & qm) | (pm & qp)


def _family_memberships(fam: GuideFamily, x: Point) -> list[bool]:
    members = (fam.lp_plus, fam.lp_minus, fam.lq_plus, fam.lq_minus)
    return [filled_contains(member, x) for member in members]


def union_of_intersections_contains(fam: GuideFamily, x: Point) -> bool:
    """Membership in [L(p,g+) n L(p,g-)] u [L(q,g+) n L(q,g-)]."""
    return _union_of_intersections(*_family_memberships(fam, x))


def intersection_of_unions_contains(fam: GuideFamily, x: Point) -> bool:
    """Membership in [L(p,g+) u L(q,g+)] n [L(p,g-) u L(q,g-)]."""
    return _intersection_of_unions(*_family_memberships(fam, x))


def cross_family_contains(p: Point, q: Point, r: float, x: Point) -> tuple[bool, bool]:
    """Membership in the two cross-pairings of the guide family.

    First component: [L(p,g+) u L(q,g-)] n [L(p,g-) u L(q,g+)], a superset
    of L(p,q;r) equal to L(p,q;r) u L(g+,g-;r).  Second component:
    [L(p,g+) n L(q,g-)] u [L(p,g-) n L(q,g+)], a subset of L(p,q;r) equal
    to L(p,q;r) n L(g+,g-;r).
    """
    members = _family_memberships(guide_family(p, q, r), x)
    return _cross_union(*members), _cross_intersection(*members)


class IdentityMode(Enum):
    UNION_OF_INTERSECTIONS = "union-of-intersections"
    INTERSECTION_OF_UNIONS = "intersection-of-unions"
    CROSS_SUBSETS = "cross-subsets"
    CROSS_EQUALITIES = "cross-equalities"


@dataclass(frozen=True)
class IdentityReport:
    """Tally of one identity check over a point sample.

    trials = mismatches + skipped_boundary_band + agreements.  worst_residual
    is the smallest relative margin |f - r^2| / max(1, r^2) over all counted
    (non-skipped) points and involved sets: how close the verdicts came to
    the ambiguity band (inf when every point was skipped).
    """

    trials: int
    mismatches: int
    skipped_boundary_band: int
    worst_residual: float


def sampling_box(p: Point, q: Point, r: float) -> tuple[Point, float]:
    """Midpoint-centered square box that strictly contains the curve.

    Every curve point is within taxicab distance r + d/2 of the midpoint, so
    half-width d + r + 1 leaves a positive-margin frame around it.
    """
    half = taxicab_distance(p, q) + r + 1.0
    return Point((p.x1 + q.x1) / 2, (p.x2 + q.x2) / 2), half


def grid_points(p: Point, q: Point, r: float, n: int) -> np.ndarray:
    """Uniform n x n point grid over the sampling box, as an (n*n, 2) array."""
    if n < 2:
        raise GeometryError(f"grid needs at least 2 nodes per side, got {n}")
    center, half = sampling_box(p, q, r)
    xs = np.linspace(center.x1 - half, center.x1 + half, n)
    ys = np.linspace(center.x2 - half, center.x2 + half, n)
    mx, my = np.meshgrid(xs, ys)
    return np.column_stack([mx.ravel(), my.ravel()])


def random_points(p: Point, q: Point, r: float, count: int, seed: int) -> np.ndarray:
    """Seeded uniform random points over the sampling box, as (count, 2)."""
    if count < 1:
        raise GeometryError(f"need at least one point, got {count}")
    rng = np.random.default_rng(seed)
    center, half = sampling_box(p, q, r)
    return np.column_stack(
        [
            rng.uniform(center.x1 - half, center.x1 + half, count),
            rng.uniform(center.x2 - half, center.x2 + half, count),
        ]
    )


def verify_identity(
    p: Point,
    q: Point,
    r: float,
    mode: IdentityMode,
    points: np.ndarray,
    band: float = 1e-9,
) -> IdentityReport:
    """Check one guide-family identity on a finite point sample.

    Points whose product lies within band * max(1, r^2) of r^2 for any
    involved filled set are skipped: the sets are open, so strict-inequality
    verdicts that close to a boundary are floating-point noise.  For
    CROSS_SUBSETS only violations of the two subset directions count as
    mismatches; the other modes demand equality.
    """
    if not (math.isfinite(band) and band >= 0):
        raise GeometryError(f"band must be finite and nonnegative, got {band!r}")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x1, x2 = pts[:, 0], pts[:, 1]
    frame = foci_frame(p, q)
    target = r * r
    # L(p,q) first, then the guide family in the order the combinations take.
    pairs = [(p, q), (p, frame.g_plus), (p, frame.g_minus), (q, frame.g_plus), (q, frame.g_minus)]
    if mode is IdentityMode.CROSS_EQUALITIES:
        pairs.append((frame.g_plus, frame.g_minus))
    involved = [distance_product(a, b, x1, x2) for a, b in pairs]
    inside = [f < target for f in involved]
    in_pq, family = inside[0], inside[1:5]

    if mode is IdentityMode.UNION_OF_INTERSECTIONS:
        bad = in_pq != _union_of_intersections(*family)
    elif mode is IdentityMode.INTERSECTION_OF_UNIONS:
        bad = in_pq != _intersection_of_unions(*family)
    elif mode is IdentityMode.CROSS_SUBSETS:
        bad = (in_pq & ~_cross_union(*family)) | (_cross_intersection(*family) & ~in_pq)
    elif mode is IdentityMode.CROSS_EQUALITIES:
        in_gg = inside[5]
        bad = (_cross_union(*family) != (in_pq | in_gg)) | (
            _cross_intersection(*family) != (in_pq & in_gg)
        )
    else:
        raise GeometryError(f"unknown identity mode {mode!r}")

    scale = max(1.0, target)
    margins = np.min(np.abs(np.stack(involved) - target), axis=0) / scale
    skipped = margins <= band
    counted = ~skipped
    mismatches = int(np.count_nonzero(bad & counted))
    worst = float(margins[counted].min()) if counted.any() else math.inf
    return IdentityReport(
        trials=pts.shape[0],
        mismatches=mismatches,
        skipped_boundary_band=int(np.count_nonzero(skipped)),
        worst_residual=worst,
    )


def _star_directions(count: int = 16) -> tuple[tuple[float, float], ...]:
    # Directions normalized to taxicab length 1, so a probe at radius rho is
    # at taxicab distance exactly rho (up to roundoff) from the base point.
    dirs = []
    for k in range(count):
        angle = 2 * math.pi * k / count
        dx, dy = math.cos(angle), math.sin(angle)
        norm = abs(dx) + abs(dy)
        dirs.append((dx / norm, dy / norm))
    return tuple(dirs)


_STAR = _star_directions()


def boundary_check(
    spec: CassiniSpec, curve_points: Iterable[Point], probe_radius: float
) -> bool:
    """Witness that each curve point lies on the boundary of the filled set.

    For every given point, probes on a 16-direction taxicab-unit star at
    radii probe_radius * {1, 1/2, 1/4} must find (a) a point strictly inside
    L, beyond the roundoff guard, and (b) a point not inside L up to the
    guard.  The latter allows probes landing back on the level set itself:
    across the flat segment the curve traces inside the central rectangle at
    the critical radius, every nearby non-inside point is on the set, so a
    strictly-greater product cannot be required there.
    """
    if spec.r <= 0:
        raise GeometryError("boundary witnesses need r > 0")
    if not (math.isfinite(probe_radius) and probe_radius > 0):
        raise GeometryError(f"probe radius must be positive and finite, got {probe_radius!r}")
    target = spec.r * spec.r
    guard = BOUNDARY_GUARD_RTOL * max(1.0, target)
    radii = (probe_radius, probe_radius / 2, probe_radius / 4)
    for x in curve_points:
        found_inside = False
        found_outside = False
        for rho in radii:
            for dx, dy in _STAR:
                f = product_value(spec, Point(x.x1 + rho * dx, x.x2 + rho * dy))
                if f < target - guard:
                    found_inside = True
                else:
                    found_outside = True
                if found_inside and found_outside:
                    break
            if found_inside and found_outside:
                break
        if not (found_inside and found_outside):
            return False
    return True
