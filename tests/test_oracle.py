"""Grid sampling, marching squares, Hausdorff distance."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxicassini import oracle
from taxicassini.campaign import _random_topology_spec, _topology_grid
from taxicassini.cassini import (
    CassiniSpec,
    PointLocation,
    build_curves,
    classify_point,
    curve_polyline,
    product_value,
)
from taxicassini.characterization import sampling_box
from taxicassini.core import GeometryError, Point
from taxicassini.oracle import (
    BoxTooSmall,
    Contour,
    ScalarGrid,
    _directed_hausdorff,
    component_count,
    extract_contour,
    grid_field,
    hausdorff,
    ring_contains,
)

DIAMOND = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)]


def closed_ring(curve, samples_per_piece=64):
    ring = [(p.x1, p.x2) for p in curve_polyline(curve, samples_per_piece)]
    return ring + [ring[0]]


def meshgrid_field(spec, half_width, n):
    """Reference for grid_field: the product field node by node."""
    center, default_half = sampling_box(spec.p, spec.q, spec.r)
    half = default_half if half_width is None else float(half_width)
    xs = np.linspace(center.x1 - half, center.x1 + half, n)
    ys = np.linspace(center.x2 - half, center.x2 + half, n)
    mx, my = np.meshgrid(xs, ys)
    dp = np.abs(mx - spec.p.x1) + np.abs(my - spec.p.x2)
    dq = np.abs(mx - spec.q.x1) + np.abs(my - spec.q.x2)
    return dp * dq - spec.r * spec.r


def brute_directed(points, polyline):
    """Reference for the pruned search: every vertex against every segment."""
    if polyline.shape[0] == 1:
        seg_a = polyline
        seg_u = np.zeros_like(polyline)
    else:
        seg_a = polyline[:-1]
        seg_u = polyline[1:] - polyline[:-1]
    px = points[:, 0:1]
    py = points[:, 1:2]
    ax = seg_a[None, :, 0]
    ay = seg_a[None, :, 1]
    ux = seg_u[None, :, 0]
    uy = seg_u[None, :, 1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tx = np.clip(np.nan_to_num((px - ax) / ux), 0.0, 1.0)
        ty = np.clip(np.nan_to_num((py - ay) / uy), 0.0, 1.0)
    best = None
    for t in (np.zeros_like(tx), np.ones_like(tx), tx, ty):
        dist = np.abs(px - (ax + t * ux)) + np.abs(py - (ay + t * uy))
        best = dist if best is None else np.minimum(best, dist)
    return max(0.0, float(best.min(axis=1).max()))


def assert_matches_brute_force(a, b):
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    forward, backward = brute_directed(pa, pb), brute_directed(pb, pa)
    assert _directed_hausdorff(pa, pb) == forward
    assert _directed_hausdorff(pb, pa) == backward
    assert hausdorff(a, b) == max(forward, backward)


# Lattice values make axis-parallel segments (u = 0 in one coordinate) and
# repeated vertices common; the scales and offsets span 1e-6 .. 1e9.
_coordinate = st.one_of(
    st.integers(-6, 6).map(float),
    st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False),
)
_vertices = st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=40)


@st.composite
def polyline_pairs(draw):
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 7.0, 1e3, 1e6, 1e9]))
    ox = draw(st.sampled_from([0.0, 0.5, -3.25e4, 6e8, -1e9]))
    oy = draw(st.sampled_from([0.0, -0.5, 2.5e5, -6e8, 1e9]))
    a, b = draw(_vertices), draw(_vertices)
    return (
        [(ox + scale * x, oy + scale * y) for x, y in a],
        [(ox + scale * x, oy + scale * y) for x, y in b],
    )


def reference_extract_contour(grid):
    """Reference for extract_contour: marching squares one cell at a time.

    Edges are keyed by ("h" | "v", i, j) tuples and stitched through a dict
    of neighbour lists; saddles are resolved by product_value at the center.
    """
    vals = grid.values
    if (vals == 0).any():
        bump = 1e-12 * max(1.0, float(np.abs(vals).max()))
        vals = np.where(vals == 0, bump, vals)
    neg = vals < 0

    def edge_point(key):
        kind, i, j = key
        v0 = vals[j, i]
        if kind == "h":
            v1 = vals[j, i + 1]
            t = v0 / (v0 - v1)
            return grid.origin.x1 + (i + t) * grid.spacing, grid.origin.x2 + j * grid.spacing
        v1 = vals[j + 1, i]
        t = v0 / (v0 - v1)
        return grid.origin.x1 + i * grid.spacing, grid.origin.x2 + (j + t) * grid.spacing

    def center_inside(i, j):
        x = Point(
            grid.origin.x1 + (i + 0.5) * grid.spacing,
            grid.origin.x2 + (j + 0.5) * grid.spacing,
        )
        return product_value(grid.spec, x) - grid.spec.r * grid.spec.r < 0

    # Mixed cells in row-major order.
    mixed = ~(
        (neg[:-1, :-1] == neg[:-1, 1:]) & (neg[:-1, 1:] == neg[1:, 1:]) & (neg[1:, 1:] == neg[1:, :-1])
    )
    segments = []
    for j, i in np.argwhere(mixed).tolist():
        south, north = ("h", i, j), ("h", i, j + 1)
        west, east = ("v", i, j), ("v", i + 1, j)
        sa, sb, sc, sd = neg[j, i], neg[j, i + 1], neg[j + 1, i + 1], neg[j + 1, i]
        crossings = []
        if sa != sb:
            crossings.append(south)
        if sb != sc:
            crossings.append(east)
        if sc != sd:
            crossings.append(north)
        if sd != sa:
            crossings.append(west)
        if len(crossings) == 2:
            segments.append((crossings[0], crossings[1]))
        elif len(crossings) == 4:
            if bool(sa) == center_inside(i, j):
                segments += [(south, east), (north, west)]
            else:
                segments += [(south, west), (east, north)]

    adjacency = {}
    for k1, k2 in segments:
        adjacency.setdefault(k1, []).append(k2)
        adjacency.setdefault(k2, []).append(k1)
    visited = set()
    polylines, closed_flags = [], []
    for start in adjacency:
        if start in visited:
            continue
        path = [start]
        visited.add(start)
        prev, current, closed = None, start, False
        while True:
            nxt = next((cand for cand in adjacency[current] if cand != prev), None)
            if nxt is None:
                break
            if nxt == start:
                closed = True
                break
            if nxt in visited:
                break
            path.append(nxt)
            visited.add(nxt)
            prev, current = current, nxt
        pts = [edge_point(key) for key in path]
        if closed:
            pts.append(pts[0])
        polylines.append(np.asarray(pts, dtype=float))
        closed_flags.append(closed)
    return Contour(polylines=tuple(polylines), closed_flags=tuple(closed_flags))


def assert_same_contour(grid):
    got = extract_contour(grid)
    want = reference_extract_contour(grid)
    assert got.closed_flags == want.closed_flags
    assert len(got.polylines) == len(want.polylines)
    for line, ref_line in zip(got.polylines, want.polylines):
        assert line.shape == ref_line.shape
        assert line.tobytes() == ref_line.tobytes()


# Specs for hand-built unit cells at the origin: the field at the cell center
# (0.5, 0.5) is 0 < r^2 for the first and 1 > r^2 for the second.
CENTER_INSIDE = CassiniSpec(Point(0.5, 0.5), Point(0.5, 0.5), 1.0)
CENTER_OUTSIDE = CassiniSpec(Point(0, 0), Point(1, 1), 0.5)

# Node values from a small set make zero nodes and saddle cells common.
_NODE_VALUES = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.0])


@st.composite
def small_grids(draw):
    nx = draw(st.integers(2, 12))
    ny = draw(st.integers(2, 12))
    values = np.array(draw(st.lists(_NODE_VALUES, min_size=nx * ny, max_size=nx * ny)))
    values = values.reshape(ny, nx)
    if draw(st.booleans()):
        # A positive frame, as grid_field makes: every polyline closes.
        values[0, :] = values[-1, :] = values[:, 0] = values[:, -1] = 1.0
    origin = Point(draw(st.sampled_from([0.0, -3.5, 1e3])), draw(st.sampled_from([0.0, 2.25, -7e2])))
    spacing = draw(st.sampled_from([1.0, 0.3, 17.0]))

    # Foci inside the grid's extent, so center signs vary from cell to cell.
    def coordinate(lo, count):
        return draw(st.floats(lo, lo + (count - 1) * spacing, allow_nan=False))

    p = Point(coordinate(origin.x1, nx), coordinate(origin.x2, ny))
    q = Point(coordinate(origin.x1, nx), coordinate(origin.x2, ny))
    spec = CassiniSpec(p, q, draw(st.floats(0.0, 2.0 * max(nx, ny) * spacing)))
    return ScalarGrid(origin, spacing, nx, ny, values, spec)


def test_oracle_imports_no_construction():
    # The oracle is evidence only while it shares no code with the piecewise
    # construction: from cassini it may take the spec type, and from
    # characterization the sampling box.  Everything else, the product
    # kernel included, comes from core.
    allowed = {
        "taxicassini.cassini": {"CassiniSpec"},
        "taxicassini.characterization": {"sampling_box"},
    }
    source = Path(oracle.__file__).read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name not in allowed, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.level == 1
                base = "taxicassini" + (f".{node.module}" if node.module else "")
            else:
                base = node.module
            for alias in node.names:
                assert f"{base}.{alias.name}" not in allowed, alias.name
                if base in allowed:
                    assert alias.name in allowed[base], f"{base}.{alias.name}"


class TestGridField:
    def test_circle_node_values(self):
        spec = CassiniSpec(Point(0, 0), Point(0, 0), 2.0)
        grid = grid_field(spec, half_width=5.0, n=21)
        assert grid.spacing == 0.5
        # Node at world (0,0): f - r^2 = 0 - 4.
        assert grid.values[10, 10] == -4.0
        # Node at world (5,5): f = (5+5)^2 = 100, so 100 - 4 = 96.
        assert grid.values[20, 20] == 96.0
        # values[j, i] belongs to the node origin + (i, j) * spacing.
        assert grid.origin == Point(-5.0, -5.0)
        assert grid.origin.x1 + 10 * grid.spacing == 0.0
        assert grid.origin.x2 + 20 * grid.spacing == 5.0

    def test_default_box_keeps_edges_positive(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        grid = grid_field(spec, n=64)
        assert grid.origin == Point(-17.0, -17.0)
        edges = np.concatenate(
            [grid.values[0, :], grid.values[-1, :], grid.values[:, 0], grid.values[:, -1]]
        )
        assert np.all(edges > 0)

    def test_too_small_box_rejected(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        with pytest.raises(BoxTooSmall):
            grid_field(spec, half_width=3.0, n=32)

    def test_minimum_resolution(self):
        spec = CassiniSpec(Point(0, 0), Point(0, 0), 2.0)
        grid = grid_field(spec, half_width=5.0, n=16)
        assert grid.nx == grid.ny == 16
        with pytest.raises(GeometryError):
            grid_field(spec, half_width=5.0, n=15)

    @pytest.mark.parametrize("n", [16, 257])
    @pytest.mark.parametrize("half_width", [None, 23.5])
    def test_matches_meshgrid_reference(self, n, half_width):
        for spec in (
            CassiniSpec(Point(4, 1), Point(-4, -1), 6.0),
            CassiniSpec(Point(8.3, 3.1), Point(-8.7, -2.9), 15.9),
            CassiniSpec(Point(0.1, 0.2), Point(0.1, 0.2), 1.7),
        ):
            grid = grid_field(spec, half_width=half_width, n=n)
            assert np.array_equal(grid.values, meshgrid_field(spec, half_width, n))

    def test_node_signs_agree_with_classification(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        grid = grid_field(spec, n=48)
        band = 1e-9 * max(1.0, spec.r * spec.r)
        for iy in range(0, grid.ny, 5):
            for ix in range(0, grid.nx, 5):
                value = grid.values[iy, ix]
                if abs(value) <= band:
                    continue
                node = Point(grid.origin.x1 + ix * grid.spacing, grid.origin.x2 + iy * grid.spacing)
                loc = classify_point(spec, node)
                assert loc is (PointLocation.INSIDE if value < 0 else PointLocation.OUTSIDE)


class TestExtractContour:
    def test_circle_single_component(self):
        spec = CassiniSpec(Point(0, 0), Point(0, 0), 2.0)
        contour = extract_contour(grid_field(spec, n=129))
        assert component_count(contour) == 1
        assert all(contour.closed_flags)

    def test_two_lobes_below_critical(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 3.0)
        contour = extract_contour(grid_field(spec, n=257))
        assert component_count(contour) == 2

    def test_one_loop_above_critical(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        contour = extract_contour(grid_field(spec, n=257))
        assert component_count(contour) == 1

    def test_closed_polylines_repeat_first_point(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        grid = grid_field(spec, n=129)
        contour = extract_contour(grid)
        for polyline, closed in zip(contour.polylines, contour.closed_flags):
            assert closed
            assert np.array_equal(polyline[0], polyline[-1])
            steps = np.abs(np.diff(polyline, axis=0)).sum(axis=1)
            assert steps.max() <= 2 * grid.spacing

    def test_vertices_lie_near_the_level_set(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        grid = grid_field(spec, n=257)
        contour = extract_contour(grid)
        worst = 0.0
        for polyline in contour.polylines:
            for x, y in polyline:
                f = (abs(x - 4) + abs(y - 1)) * (abs(x + 4) + abs(y + 1))
                worst = max(worst, abs(f - 36.0))
        assert worst <= 40 * grid.spacing ** 2

    def test_empty_contour_when_field_is_positive(self):
        values = np.full((16, 16), 5.0)
        grid = ScalarGrid(Point(0, 0), 1.0, 16, 16, values, CassiniSpec(Point(0, 0), Point(0, 0), 1.0))
        contour = extract_contour(grid)
        assert contour.polylines == ()
        assert component_count(contour) == 0

    def test_saddle_cell_resolved_by_center_sign(self):
        # Hand-built 2x2 grid: one cell whose diagonal corners are inside.
        values = np.array([[-1.0, 3.0], [3.0, -9.0]])
        grid = ScalarGrid(Point(0, 0), 1.0, 2, 2, values, CENTER_INSIDE)
        contour = extract_contour(grid)
        assert len(contour.polylines) == 2
        assert not any(contour.closed_flags)
        # The spec's field at the center is 0 < r^2: inside, so the inside
        # corners join across south-east and north-west.
        joined = set()
        for polyline in contour.polylines:
            sides = set()
            for x, y in polyline:
                if y == 0.0:
                    sides.add("S")
                if y == 1.0:
                    sides.add("N")
                if x == 0.0:
                    sides.add("W")
                if x == 1.0:
                    sides.add("E")
            joined.add(frozenset(sides))
        assert joined == {frozenset({"S", "E"}), frozenset({"N", "W"})}

    def test_saddle_cell_outside_center(self):
        # The spec's field is 1 > r^2 at the center and 0 at the two inside
        # corners, so it agrees with the node signs.
        values = np.array([[-1.0, 3.0], [3.0, -1.0]])
        grid = ScalarGrid(Point(0, 0), 1.0, 2, 2, values, CENTER_OUTSIDE)
        contour = extract_contour(grid)
        joined = set()
        for polyline in contour.polylines:
            sides = set()
            for x, y in polyline:
                if y == 0.0:
                    sides.add("S")
                if y == 1.0:
                    sides.add("N")
                if x == 0.0:
                    sides.add("W")
                if x == 1.0:
                    sides.add("E")
            joined.add(frozenset(sides))
        assert joined == {frozenset({"S", "W"}), frozenset({"N", "E"})}


    @settings(max_examples=400, deadline=None)
    @given(small_grids())
    @example(ScalarGrid(Point(0, 0), 1.0, 2, 2, np.array([[-1.0, 3.0], [3.0, -9.0]]), CENTER_INSIDE))
    @example(ScalarGrid(Point(0, 0), 1.0, 2, 2, np.array([[3.0, -1.0], [-1.0, 3.0]]), CENTER_OUTSIDE))
    # A saddle whose center lies exactly on the level set: f = 1 * 1 = r^2.
    @example(
        ScalarGrid(
            Point(0, 0), 1.0, 2, 2, np.array([[-1.0, 3.0], [3.0, -9.0]]), CassiniSpec(Point(0, 0), Point(1, 1), 1.0)
        )
    )
    def test_matches_reference(self, grid):
        assert_same_contour(grid)

    def test_topology_campaign_grids_match_reference(self):
        # The 100 grids of run_topology_campaign at its default seed.
        rng = np.random.default_rng(42)
        for _ in range(100):
            spec = _random_topology_spec(rng)
            half_width, n = _topology_grid(spec)
            assert_same_contour(grid_field(spec, half_width=half_width, n=n))


class TestHausdorff:
    def test_identical_polylines(self):
        assert hausdorff(DIAMOND, DIAMOND) == 0.0

    def test_shifted_diamond(self):
        shifted = [(x + 0.1, y) for x, y in DIAMOND]
        assert hausdorff(DIAMOND, shifted) == pytest.approx(0.1)
        assert hausdorff(shifted, DIAMOND) == pytest.approx(0.1)

    def test_point_against_segment(self):
        assert hausdorff([(0.0, 1.0)], [(-1.0, 0.0), (1.0, 0.0)]) == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(GeometryError):
            hausdorff([], DIAMOND)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(GeometryError):
            hausdorff([(0.0, 0.0), (bad, 1.0)], DIAMOND)
        with pytest.raises(GeometryError):
            hausdorff(DIAMOND, [(1.0, bad)])

    @settings(max_examples=300, deadline=None)
    @given(polyline_pairs())
    @example(([(0.0, 1.0)], [(-1.0, 0.0), (1.0, 0.0)]))
    @example(([(3.0, -2.0)], [(1e9, 1e9)]))
    @example(([(0.0, 0.0), (0.0, 0.0), (0.0, 5.0)], [(1.0, 1.0), (1.0, 1.0)]))
    @example(([(0.0, 0.0), (4.0, 0.0), (4.0, 3.0)], [(1.0, 2.0), (1.0, -2.0), (6.0, -2.0)]))
    def test_matches_brute_force(self, pair):
        assert_matches_brute_force(*pair)

    def test_contour_ladder_matches_brute_force(self):
        spec = CassiniSpec(Point(8, 3), Point(-8, -3), 16.0)
        ring = closed_ring(build_curves(spec)[0], 128)
        for n in (65, 257):
            contour = extract_contour(grid_field(spec, n=n))
            assert_matches_brute_force(ring, contour.polylines[0])

    def test_analytic_vs_contour_is_tight(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        grid = grid_field(spec, n=257)
        contour = extract_contour(grid)
        ring = closed_ring(build_curves(spec)[0], 128)
        assert hausdorff(ring, contour.polylines[0]) <= 2 * grid.spacing


class TestRingContains:
    def test_inside_outside(self):
        assert ring_contains(DIAMOND, Point(0, 0))
        assert ring_contains(DIAMOND, Point(0.5, 0.25))
        assert not ring_contains(DIAMOND, Point(3, 0))
        assert not ring_contains(DIAMOND, Point(0.9, 0.9))

    def test_open_ring_accepted(self):
        assert ring_contains(DIAMOND[:-1], Point(0, 0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(GeometryError):
            ring_contains(DIAMOND[:-1] + [(bad, 0.0)], Point(0, 0))

    def test_contour_agrees_with_classification(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        contour = extract_contour(grid_field(spec, n=257))
        ring = contour.polylines[0]
        assert ring_contains(ring, Point(0, 0))
        assert ring_contains(ring, Point(4, 1))
        assert not ring_contains(ring, Point(12, 0))


class TestConvergence:
    def test_spacing_halving_tightens_the_contour(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        ring = closed_ring(build_curves(spec)[0], 128)
        dists = []
        for n in (65, 129, 257):
            grid = grid_field(spec, n=n)
            contour = extract_contour(grid)
            assert component_count(contour) == 1
            dists.append(hausdorff(ring, contour.polylines[0]))
        assert dists[1] <= 0.75 * dists[0]
        assert dists[2] <= 0.75 * dists[1]
