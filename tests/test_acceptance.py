"""Acceptance gate: the nine end-to-end criteria.

Each test runs one criterion at its stated tolerances and records a single
pass/fail line through the criterion_line fixture; the lines are replayed
in the terminal summary.
"""

import time

import numpy as np

from taxicassini.campaign import (
    boundary_suite,
    random_spec,
    run_identity_campaigns,
    run_residual_campaign,
    run_topology_campaign,
)
from taxicassini.cassini import (
    CassiniSpec,
    PointLocation,
    Topology,
    build_curves,
    classify_point,
    curve_polyline,
    sample_curve,
    topology,
)
from taxicassini.characterization import IdentityMode, boundary_check
from taxicassini.cli import main
from taxicassini.core import (
    Point,
    PointGroup,
    RegionId,
    taxicab_distance,
)
from taxicassini.oracle import component_count, extract_contour, grid_field, hausdorff
from references import classify_region, closer_to, placed

WIDE_INSTANCE = (Point(8, 3), Point(-8, -3), 16.0)
SINGLE_INSTANCE = (Point(4, 1), Point(-4, -1), 6.0)


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def test_criterion_1_curve_residuals(criterion_line):
    rng = np.random.default_rng(42)
    for _ in range(50):
        spec = random_spec(rng)
        assert all(-20 <= c <= 20 for c in (*spec.p, *spec.q))
        assert 0 < spec.r <= 40

    start = time.perf_counter()
    result = run_residual_campaign(trials=500, seed=42, samples_per_curve=64)
    elapsed = time.perf_counter() - start
    ok = result.failures == 0 and result.worst_residual <= 1e-9 and elapsed < 10.0
    criterion_line(
        f"criterion 1 curve-residuals: {_status(ok)} trials=500 "
        f"worst={result.worst_residual:.3e} elapsed={elapsed:.2f}s"
    )
    assert result.failures == 0
    assert result.worst_residual <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_guide_family_identities(criterion_line):
    start = time.perf_counter()
    results = run_identity_campaigns(trials=200, grid_n=100, seed=42, band=1e-9)
    reports = [
        results[IdentityMode.UNION_OF_INTERSECTIONS],
        results[IdentityMode.INTERSECTION_OF_UNIONS],
    ]
    elapsed = time.perf_counter() - start
    mismatches = sum(rep.failures for rep in reports)
    points = sum(rep.trials for rep in reports)
    ok = mismatches == 0 and all(rep.trials == 2_000_000 for rep in reports) and elapsed < 60.0
    criterion_line(
        f"criterion 2 guide-family-identities: {_status(ok)} points={points} "
        f"mismatches={mismatches} elapsed={elapsed:.2f}s"
    )
    assert mismatches == 0
    assert all(rep.trials == 2_000_000 for rep in reports)
    assert elapsed < 60.0


def test_criterion_3_cross_family_identities(criterion_line):
    start = time.perf_counter()
    results = run_identity_campaigns(trials=200, grid_n=100, seed=42, band=1e-9)
    reports = [results[IdentityMode.CROSS_SUBSETS], results[IdentityMode.CROSS_EQUALITIES]]
    elapsed = time.perf_counter() - start
    mismatches = sum(rep.failures for rep in reports)
    ok = mismatches == 0 and all(rep.trials == 2_000_000 for rep in reports) and elapsed < 60.0
    criterion_line(
        f"criterion 3 cross-family-identities: {_status(ok)} "
        f"points={sum(rep.trials for rep in reports)} mismatches={mismatches} "
        f"elapsed={elapsed:.2f}s"
    )
    assert mismatches == 0
    assert all(rep.trials == 2_000_000 for rep in reports)


def test_criterion_4_topology_counts(criterion_line):
    result = run_topology_campaign(trials=100, seed=42)

    # Pinch cases are checked analytically: grid extraction is unreliable on
    # the flat segment, the closed-form construction is not.
    edge = CassiniSpec(Point(4, 1), Point(-4, -1), 5.0)
    vertex = CassiniSpec(Point(5, 0), Point(-5, 0), 5.0)
    edge_curves = build_curves(edge)
    vertex_curves = build_curves(vertex)
    pinch_ok = (
        topology(edge) is Topology.PINCHED_EDGE
        and topology(vertex) is Topology.PINCHED_VERTEX
        and len(edge_curves) == 2
        and len(vertex_curves) == 2
        and all(
            frozenset({Point(1, -1), Point(-1, 1)})
            == {piece.start for piece in curve if piece.region is RegionId.CENTRAL_RECTANGLE}
            | {piece.end for piece in curve if piece.region is RegionId.CENTRAL_RECTANGLE}
            for curve in edge_curves
        )
        and all(Point(0, 0) in {piece.start for piece in curve} for curve in vertex_curves)
    )
    ok = result.failures == 0 and result.trials == 100 and pinch_ok
    criterion_line(
        f"criterion 4 topology-counts: {_status(ok)} trials={result.trials} "
        f"mismatches={result.failures} pinch-analytic={'PASS' if pinch_ok else 'FAIL'}"
    )
    assert result.failures == 0
    assert result.trials == 100
    assert pinch_ok


def test_criterion_5_oracle_convergence(criterion_line):
    lines = []
    overall = True
    for p, q, r in (WIDE_INSTANCE, SINGLE_INSTANCE):
        spec = CassiniSpec(p, q, r)
        ring = [(x.x1, x.x2) for x in curve_polyline(build_curves(spec)[0], 128)]
        ring.append(ring[0])
        dists, spacings = [], []
        # Refine by 4x per level: the Hausdorff maximum sits at curve
        # corners whose offset within their grid cell varies between
        # levels, so 2x steps make the ratio noisy around 0.5 while 4x
        # steps keep it safely below the bound for any corner phase.
        for n in (257, 1025, 4097):
            grid = grid_field(spec, n=n)
            contour = extract_contour(grid)
            assert component_count(contour) == 1
            dists.append(hausdorff(ring, contour.polylines[0]))
            spacings.append(grid.spacing)
        bounds_ok = all(d <= 2 * h for d, h in zip(dists, spacings))
        ratios = [dists[1] / dists[0], dists[2] / dists[1]]
        ratios_ok = all(ratio <= 0.6 for ratio in ratios)
        overall = overall and bounds_ok and ratios_ok
        lines.append(
            f"({p.x1:g},{p.x2:g})/r={r:g} dists="
            + ",".join(f"{d:.4f}" for d in dists)
            + f" ratios={ratios[0]:.2f},{ratios[1]:.2f}"
        )
        assert bounds_ok
        assert ratios_ok
    criterion_line(
        f"criterion 5 oracle-convergence: {_status(overall)} " + " | ".join(lines)
    )


def test_criterion_6_boundary_witnesses(criterion_line):
    suite = boundary_suite()
    seen = {topology(spec) for _, spec, _ in suite}
    assert seen == {
        Topology.TWO_CURVES,
        Topology.ONE_CURVE,
        Topology.TAXICAB_CIRCLE,
        Topology.PINCHED_EDGE,
        Topology.PINCHED_VERTEX,
    }

    # The pinched-edge extra probe is the midpoint: on the curve, inside the
    # central rectangle, exactly the flat-segment case.
    edge_spec = next(spec for name, spec, _ in suite if name == "pinched-edge")
    mid = Point(0, 0)
    assert classify_point(edge_spec, mid, tol=0.0) is PointLocation.ON
    assert RegionId.CENTRAL_RECTANGLE in classify_region(edge_spec.p, edge_spec.q, mid)

    checked = 0
    failures = 0
    for _, spec, extras in suite:
        points = list(extras)
        for curve in build_curves(spec):
            points.extend(sample_curve(curve, 64))
        checked += len(points)
        if not all(boundary_check(spec, x) for x in points):
            failures += 1
    ok = failures == 0
    criterion_line(
        f"criterion 6 boundary-witnesses: {_status(ok)} instances=5 points={checked} "
        f"failing-instances={failures}"
    )
    assert failures == 0


def _dyadic(rng, lo: float, hi: float) -> float:
    return float(rng.integers(round(lo * 16), round(hi * 16) + 1)) / 16.0


def _dyadic_spec(rng) -> CassiniSpec:
    while True:
        p = Point(_dyadic(rng, -20, 20), _dyadic(rng, -20, 20))
        q = Point(_dyadic(rng, -20, 20), _dyadic(rng, -20, 20))
        if p != q:
            return CassiniSpec(p, q, float(rng.integers(1, 41)))


def _dyadic_probes(rng, spec: CassiniSpec, count: int) -> list:
    half = taxicab_distance(spec.p, spec.q) + spec.r + 1.0
    mid1 = (spec.p.x1 + spec.q.x1) / 2
    mid2 = (spec.p.x2 + spec.q.x2) / 2
    span = int(half * 16)
    offs = rng.integers(-span, span + 1, size=(count, 2)) / 16.0
    return [Point(mid1 + dx, mid2 + dy) for dx, dy in offs]


def test_criterion_7_symmetry_invariance(criterion_line):
    rng = np.random.default_rng(20240814)
    cases = 0
    disagreements = 0

    def check(spec, mapped_spec, transform, probes):
        nonlocal disagreements
        for x in probes:
            before = classify_point(spec, x, tol=0.0)
            after = classify_point(mapped_spec, transform(x), tol=0.0)
            if before is not after:
                disagreements += 1

    for element in PointGroup:
        spec = _dyadic_spec(rng)
        move = lambda x: placed(element, Point(0.0, 0.0), x)
        mapped = CassiniSpec(move(spec.p), move(spec.q), spec.r)
        check(spec, mapped, move, _dyadic_probes(rng, spec, 1000))
        cases += 1

    for _ in range(20):
        spec = _dyadic_spec(rng)
        t = Point(_dyadic(rng, -20, 20), _dyadic(rng, -20, 20))
        move = lambda x: placed(PointGroup.IDENTITY, t, x)
        mapped = CassiniSpec(move(spec.p), move(spec.q), spec.r)
        check(spec, mapped, move, _dyadic_probes(rng, spec, 1000))
        cases += 1

    for lam in (0.5, 2.0, 3.0):
        spec = _dyadic_spec(rng)
        scale = lambda x: Point(lam * x.x1, lam * x.x2)
        mapped = CassiniSpec(scale(spec.p), scale(spec.q), lam * spec.r)
        check(spec, mapped, scale, _dyadic_probes(rng, spec, 1000))
        cases += 1

    ok = disagreements == 0
    criterion_line(
        f"criterion 7 symmetry-invariance: {_status(ok)} cases={cases} "
        f"points-per-case=1000 disagreements={disagreements}"
    )
    assert cases == 31
    assert disagreements == 0


def test_criterion_8_guide_cover(criterion_line):
    rng = np.random.default_rng(8)
    count = 100_000
    a = rng.integers(-320, 321, size=(count, 2)) / 16.0
    x = rng.integers(-640, 641, size=(count, 2)) / 16.0
    nonzero = np.concatenate([np.arange(-128, 0), np.arange(1, 129)])
    s = rng.choice(nonzero, size=count) / 16.0
    t = rng.choice(nonzero, size=count) / 16.0
    # b on the slope +1 guide line through a, c on the slope -1 line.
    b = a + np.stack([s, s], axis=1)
    c = a + np.stack([t, -t], axis=1)

    da = np.abs(x - a).sum(axis=1)
    db = np.abs(x - b).sum(axis=1)
    dc = np.abs(x - c).sum(axis=1)
    covered = (da <= db) | (da <= dc)
    violations = int(count - covered.sum())

    # Tie the vectorized arithmetic back to the scalar predicate.
    for i in range(0, count, count // 200):
        pa, pb, pc = Point(*a[i]), Point(*b[i]), Point(*c[i])
        px = Point(*x[i])
        assert (closer_to(pa, pb, px) or closer_to(pa, pc, px)) == bool(covered[i])

    ok = violations == 0
    criterion_line(
        f"criterion 8 guide-cover: {_status(ok)} configurations={count} "
        f"counterexamples={violations}"
    )
    assert violations == 0


def test_criterion_9_figure_regression(criterion_line, tmp_path):
    figures = {
        "family": ["--p", "4,1", "--q", "-4,-1", "--r", "3,5,6"],
        "wide": ["--p", "8,3", "--q", "-8,-3", "--r", "16"],
        "single": ["--p", "4,1", "--q", "-4,-1", "--r", "6"],
    }
    identical = True
    sizes = {}
    for name, flags in figures.items():
        first = tmp_path / f"{name}-1.svg"
        second = tmp_path / f"{name}-2.svg"
        assert main(["render", *flags, "--out", str(first)]) == 0
        assert main(["render", *flags, "--out", str(second)]) == 0
        payload = first.read_bytes()
        assert payload.startswith(b"<?xml")
        identical = identical and payload == second.read_bytes()
        sizes[name] = len(payload)
    criterion_line(
        f"criterion 9 figure-regression: {_status(identical)} figures=3 "
        f"bytes={','.join(f'{name}:{size}' for name, size in sizes.items())}"
    )
    assert identical
