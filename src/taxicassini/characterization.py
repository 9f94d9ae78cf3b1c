"""Filled taxicab Cassini sets and their guide-family set algebra.

The filled set L(p, q; r) = {x : d(x,p) * d(x,q) < r^2} of a focus pair can
be rebuilt from the four guide Cassini sets pairing each focus with the two
guide complements g+ and g-: a union of intersections, an intersection of
unions, and two cross-pairings that sandwich L and hit it exactly after
combining with the filled set of the complements themselves.  This module
provides the guide family, a vectorized verifier that checks all four
identities on one point sample at once, and a probe-based witness that a
curve point is a boundary point of L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (
    CassiniSpec,
    GeometryError,
    Point,
    distance_product,
    distance_products,
    foci_frame,
    midpoint,
    taxicab_distance,
)

# Probe classifications treat |f - r^2| below this (relative) guard as "not
# strictly inside": the open set is defined by a strict inequality that
# cannot be certified closer than roundoff.
BOUNDARY_GUARD_RTOL = 1e-12

# Radius of the largest witness circle boundary_check probes around a point
# (it then halves it twice).
BOUNDARY_PROBE_RADIUS = 0.05


class GuideFamily(NamedTuple):
    """The four guide Cassini specs (focus, guide complement, r) of a pair,
    in the order the combinations take them.

    Each member's foci share a guide line, and all four share the radius
    parameter of the originating spec.
    """

    lp_plus: CassiniSpec
    lp_minus: CassiniSpec
    lq_plus: CassiniSpec
    lq_minus: CassiniSpec


def guide_family(spec: CassiniSpec) -> GuideFamily:
    """L(p,g+), L(p,g-), L(q,g+), L(q,g-) at the radius of spec."""
    p, q, r = spec.p, spec.q, spec.r
    frame = foci_frame(p, q)
    return GuideFamily(
        lp_plus=CassiniSpec(p, frame.g_plus, r),
        lp_minus=CassiniSpec(p, frame.g_minus, r),
        lq_plus=CassiniSpec(q, frame.g_plus, r),
        lq_minus=CassiniSpec(q, frame.g_minus, r),
    )


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


def sampling_box(spec: CassiniSpec) -> tuple[Point, float]:
    """Midpoint-centered square box that strictly contains the curve.

    Every curve point is within taxicab distance r + d/2 of the midpoint, so
    half-width s + max(1, s * 2^-40), with s = d + r, leaves a positive-margin
    frame around it.  The margin is 1 up to s = 2^40 and grows with s beyond,
    so it never rounds away, as a fixed 1 would once ulp(s) reaches 1.
    """
    p, q = spec.p, spec.q
    s = taxicab_distance(p, q) + spec.r
    half = s + max(1.0, s * 2.0**-40)
    return midpoint(p, q), half


def grid_points(spec: CassiniSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform n x n grid over the sampling box, as broadcasting axes.

    Returns x1 of shape (n,) and x2 of shape (n, 1); broadcast together they
    give the n x n grid, row by row (x1 varies fastest), and a distance field
    over it costs 2n subtractions plus one n x n add.
    """
    if n < 2:
        raise GeometryError(f"grid needs at least 2 nodes per side, got {n}")
    center, half = sampling_box(spec)
    xs = np.linspace(center.x1 - half, center.x1 + half, n)
    ys = np.linspace(center.x2 - half, center.x2 + half, n)
    return xs, ys[:, None]


def _tally(margin: np.ndarray, band: float) -> tuple[np.ndarray, int, float]:
    """Counted mask, skip count and worst counted margin of one margin array.

    A nan margin is counted, and makes the worst margin nan."""
    counted = ~(margin <= band)
    worst = float(margin.min(initial=math.inf, where=counted))
    return counted, margin.size - int(np.count_nonzero(counted)), worst


def verify_identities(
    spec: CassiniSpec, x1, x2, band: float = 1e-9
) -> dict[IdentityMode, IdentityReport]:
    """Check the four guide-family identities on one finite point sample.

    The sample is the broadcast of the coordinates x1 and x2, such as the
    axes grid_points returns or two (N,) columns; trials is its size.
    Returns one report per IdentityMode, in declaration order.  The six sets
    involved, L(p,q), the guide family and L(g+,g-), pair up the four points
    p, q, g+, g-, so one distance_products call computes four distance fields
    and six products.

    Points whose product lies within band * max(1, r^2) of r^2 for any set
    a mode involves are skipped: the sets are open, so strict-inequality
    verdicts that close to a boundary are floating-point noise.
    CROSS_EQUALITIES involves all six sets, the other modes the first five.
    For CROSS_SUBSETS only violations of the two subset directions count as
    mismatches; the other modes demand equality.  Non-finite coordinates
    raise GeometryError: no verdict about them is meaningful.
    """
    if not (math.isfinite(band) and band >= 0):
        raise GeometryError(f"band must be finite and nonnegative, got {band!r}")
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise GeometryError("identity sample coordinates must be finite")
    try:
        trials = np.broadcast(x1, x2).size
    except ValueError:
        raise GeometryError(
            f"identity sample coordinates of shapes {x1.shape} and {x2.shape} do not broadcast"
        ) from None
    fam = guide_family(spec)
    target = spec.r * spec.r
    # L(p,q), the guide family in the order the combinations take, then
    # L(g+,g-): the family's second foci are the guide complements.
    pairs = [(m.p, m.q) for m in (spec, *fam)] + [(fam.lp_plus.q, fam.lp_minus.q)]
    products = distance_products(pairs, x1, x2)
    # Memberships in L(p,q), L(p,g+), L(p,g-), L(q,g+), L(q,g-) and L(g+,g-).
    in_pq, pp, pm, qp, qm, in_gg = [f < target for f in products]

    # A point's margin is its least relative gap |f - r^2| over the sets a
    # mode involves.  min is exact, so the six-set margin extends the
    # five-set one.  The gaps overwrite the products, which the masks above
    # no longer need.
    for f in products:
        np.subtract(f, target, out=f)
        np.abs(f, out=f)
    gap = products[0]
    for f in products[1:5]:
        np.minimum(gap, f, out=gap)
    scale = max(1.0, target)
    five_sets = _tally(gap / scale, band)
    np.minimum(gap, products[5], out=gap)
    six_sets = _tally(np.divide(gap, scale, out=gap), band)

    cross_union = (pp | qm) & (pm | qp)
    cross_intersection = (pp & qm) | (pm & qp)
    violations = {
        IdentityMode.UNION_OF_INTERSECTIONS: (in_pq != ((pp & pm) | (qp & qm)), five_sets),
        IdentityMode.INTERSECTION_OF_UNIONS: (in_pq != ((pp | qp) & (pm | qm)), five_sets),
        IdentityMode.CROSS_SUBSETS: (
            (in_pq & ~cross_union) | (cross_intersection & ~in_pq),
            five_sets,
        ),
        IdentityMode.CROSS_EQUALITIES: (
            (cross_union != (in_pq | in_gg)) | (cross_intersection != (in_pq & in_gg)),
            six_sets,
        ),
    }
    return {
        mode: IdentityReport(
            trials=trials,
            mismatches=int(np.count_nonzero(bad & counted)),
            skipped_boundary_band=skipped,
            worst_residual=worst,
        )
        for mode, (bad, (counted, skipped, worst)) in violations.items()
    }


def verify_identity(
    spec: CassiniSpec,
    mode: IdentityMode,
    x1,
    x2,
    band: float = 1e-9,
) -> IdentityReport:
    """Check one guide-family identity on a finite point sample: the report
    of mode from verify_identities, with the same coordinates, skip band and
    errors."""
    return verify_identities(spec, x1, x2, band)[mode]


def _star_directions() -> tuple[tuple[float, float], ...]:
    # Sixteen directions normalized to taxicab length 1, so a probe at
    # radius rho is at taxicab distance exactly rho (up to roundoff) from
    # the base point.
    dirs = []
    for k in range(16):
        angle = 2 * math.pi * k / 16
        dx, dy = math.cos(angle), math.sin(angle)
        norm = abs(dx) + abs(dy)
        dirs.append((dx / norm, dy / norm))
    return tuple(dirs)


_STAR = _star_directions()


def boundary_check(spec: CassiniSpec, x: Point) -> bool:
    """Witness that the point x lies on the boundary of the filled set.

    Probes on a 16-direction taxicab-unit star at radii
    BOUNDARY_PROBE_RADIUS * {1, 1/2, 1/4} must find (a) a point strictly
    inside L, beyond the roundoff guard, and (b) a point not inside L up to
    the guard.  The latter allows probes landing back on the level set
    itself: across the flat segment the curve traces inside the central
    rectangle at the critical radius, every nearby non-inside point is on the
    set, so a strictly-greater product cannot be required there.
    """
    if spec.r <= 0:
        raise GeometryError("boundary witnesses need r > 0")
    target = spec.r * spec.r
    guard = BOUNDARY_GUARD_RTOL * max(1.0, target)
    found_inside = found_outside = False
    for rho in (BOUNDARY_PROBE_RADIUS, BOUNDARY_PROBE_RADIUS / 2, BOUNDARY_PROBE_RADIUS / 4):
        for dx, dy in _STAR:
            f = distance_product(spec.p, spec.q, x.x1 + rho * dx, x.x2 + rho * dy)
            if f < target - guard:
                found_inside = True
            else:
                found_outside = True
            if found_inside and found_outside:
                return True
    return False
