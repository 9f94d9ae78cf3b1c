"""Seeded verification campaigns over randomized instances.

Shared by the CLI verify command and the acceptance tests: residual checks
on constructed curves, the four guide-family identities on point grids,
marching-squares component counts against the analytic topology, and
boundary witnesses across the topology classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cassini import (
    RESIDUAL_RTOL,
    CassiniSpec,
    build_curves,
    critical_radius,
    product_value,
    sample_curve,
)
from .characterization import (
    IdentityMode,
    boundary_check,
    grid_points,
    sampling_box,
    verify_identities,
)
from .core import Point, standardize, taxicab_distance
from .oracle import component_count, extract_contour, grid_field


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one campaign; passed iff failures == 0.

    worst_residual is campaign-specific: the largest relative residual for
    the residual campaign, the smallest relative margin from the ambiguity
    band for identity campaigns, and inf where not applicable.
    """

    name: str
    trials: int
    failures: int
    skipped: int
    worst_residual: float


def random_spec(rng: np.random.Generator) -> CassiniSpec:
    """Random instance with coordinates in [-20, 20] and r in (0, 40].

    Coordinates and r are Python floats, so the campaigns' scalar
    arithmetic does not run on NumPy scalars.
    """
    while True:
        coords = rng.uniform(-20.0, 20.0, 4).tolist()
        r = float(rng.uniform(0.0, 40.0))
        p = Point(coords[0], coords[1])
        q = Point(coords[2], coords[3])
        if r > 0 and p != q:
            return CassiniSpec(p, q, r)


def run_residual_campaign(
    trials: int = 500, seed: int = 42, samples_per_curve: int = 64
) -> CampaignResult:
    """Build random instances and check sampled points against the equation."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for _ in range(trials):
        spec = random_spec(rng)
        target = spec.r * spec.r
        scale = max(1.0, target)
        for curve in build_curves(spec):
            for x in sample_curve(curve, samples_per_curve):
                rel = abs(product_value(spec, x) - target) / scale
                worst = max(worst, rel)
                if rel > RESIDUAL_RTOL:
                    failures += 1
    return CampaignResult("residual", trials, failures, 0, worst)


def run_identity_campaigns(
    trials: int = 200,
    grid_n: int = 100,
    seed: int = 42,
    band: float = 1e-9,
) -> dict[IdentityMode, CampaignResult]:
    """Check the four set identities on a grid of points per random instance.

    Each instance and its grid axes are drawn once and checked for every
    mode by one verify_identities call, which shares four distance fields
    among the instance's products.  Returns one result per IdentityMode, in
    declaration order.
    """
    rng = np.random.default_rng(seed)
    mismatches = dict.fromkeys(IdentityMode, 0)
    skipped = dict.fromkeys(IdentityMode, 0)
    worst = dict.fromkeys(IdentityMode, math.inf)
    for _ in range(trials):
        spec = random_spec(rng)
        x1, x2 = grid_points(spec, grid_n)
        for mode, report in verify_identities(spec, x1, x2, band).items():
            mismatches[mode] += report.mismatches
            skipped[mode] += report.skipped_boundary_band
            worst[mode] = min(worst[mode], report.worst_residual)
    points_total = trials * grid_n * grid_n
    return {
        mode: CampaignResult(mode.value, points_total, mismatches[mode], skipped[mode], worst[mode])
        for mode in IdentityMode
    }


def run_identity_campaign(
    mode: IdentityMode,
    trials: int = 200,
    grid_n: int = 100,
    seed: int = 42,
    band: float = 1e-9,
) -> CampaignResult:
    """Check one set identity on a grid of points per random instance: the
    result of mode from run_identity_campaigns."""
    return run_identity_campaigns(trials, grid_n, seed, band)[mode]


def _random_topology_spec(rng: np.random.Generator) -> CassiniSpec:
    # Foci at least 2 apart and r away from the critical radius by over 1%,
    # so the analytic component count is unambiguous and grid-resolvable.
    while True:
        coords = rng.uniform(-20.0, 20.0, 4).tolist()
        p = Point(coords[0], coords[1])
        q = Point(coords[2], coords[3])
        if taxicab_distance(p, q) < 2.0:
            continue
        ratio = float(rng.uniform(0.2, 2.0))
        if abs(ratio - 1.0) <= 0.01:
            continue
        return CassiniSpec(p, q, ratio * critical_radius(p, q))


def _topology_grid(spec: CassiniSpec) -> int:
    """Resolution of a sampling-box grid that resolves the instance's features.

    The grid's spacing over the sampling box is at most r*/64 and also at
    most a quarter of the smallest geometric feature: the lobe depth and
    inter-lobe channel below the critical radius, the waist width above it.
    """
    rstar = critical_radius(spec.p, spec.q)
    r = spec.r
    _, p_std = standardize(spec.p, spec.q)
    a, b = p_std.x1, p_std.x2
    _, half_width = sampling_box(spec)
    if r < rstar:
        channel = math.sqrt((rstar - r) * (rstar + r))
        lobe_depth = rstar - channel
        spacing = min(rstar / 64, lobe_depth / 4, channel / 2)
    else:
        waist = 2.0 * (math.hypot(b, r) - a)
        spacing = min(rstar / 64, waist / 4)
    return max(16, math.ceil(2.0 * half_width / spacing) + 1)


def run_topology_campaign(trials: int = 100, seed: int = 42) -> CampaignResult:
    """Compare marching-squares component counts with the analytic topology."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        spec = _random_topology_spec(rng)
        expected = 2 if spec.r < critical_radius(spec.p, spec.q) else 1
        contour = extract_contour(grid_field(spec, n=_topology_grid(spec)))
        if component_count(contour) != expected:
            failures += 1
    return CampaignResult("topology", trials, failures, 0, math.inf)


def boundary_suite() -> list[tuple[str, CassiniSpec, list[Point]]]:
    """Fixed instances covering every curve topology class.

    The pinch instances carry the midpoint explicitly: it lies on the curve
    (on the flat segment for the edge pinch, at the shared vertex for the
    vertex pinch) but is never hit by uniform sampling.
    """
    return [
        ("two-curves", CassiniSpec(Point(4.0, 1.0), Point(-4.0, -1.0), 3.0), []),
        ("one-curve", CassiniSpec(Point(4.0, 1.0), Point(-4.0, -1.0), 6.0), []),
        ("circle", CassiniSpec(Point(0.0, 0.0), Point(0.0, 0.0), 2.0), []),
        ("pinched-edge", CassiniSpec(Point(4.0, 1.0), Point(-4.0, -1.0), 5.0), [Point(0.0, 0.0)]),
        ("pinched-vertex", CassiniSpec(Point(5.0, 0.0), Point(-5.0, 0.0), 5.0), [Point(0.0, 0.0)]),
    ]


def run_boundary_campaign(samples_per_curve: int = 64) -> CampaignResult:
    """Boundary witnesses on sampled curve points of every topology class."""
    failures = 0
    trials = 0
    for _, spec, extras in boundary_suite():
        points = list(extras)
        for curve in build_curves(spec):
            points.extend(sample_curve(curve, samples_per_curve))
        trials += len(points)
        for point in points:
            if not boundary_check(spec, point):
                failures += 1
    return CampaignResult("boundary", trials, failures, 0, math.inf)
