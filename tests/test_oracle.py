"""Grid sampling, marching squares, Hausdorff distance."""

import json
import math
import tracemalloc
from dataclasses import dataclass
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
    critical_radius,
    curve_polyline,
    product_value,
)
from taxicassini.characterization import sampling_box
from taxicassini.core import GeometryError, Point, PointGroup, distance_product, standardize
from taxicassini.oracle import (
    _CASE_SEGMENTS,
    BoxTooSmall,
    Contour,
    ScalarGrid,
    _directed_hausdorff,
    _saddle_inside,
    component_count,
    extract_contour,
    grid_field,
    hausdorff,
)

DIAMOND = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)]


def closed_ring(curve, samples_per_piece=64):
    ring = [(p.x1, p.x2) for p in curve_polyline(curve, samples_per_piece)]
    return ring + [ring[0]]


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "instances.jsonl"


def fixture_spec(label):
    for line in FIXTURES.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["label"] == label:
            return CassiniSpec(Point(*map(float, record["p"])), Point(*map(float, record["q"])), float(record["r"]))
    raise KeyError(label)


def about_midpoint(spec, element):
    """spec with both foci moved by a point-group element about their midpoint."""
    mx, my = (spec.p.x1 + spec.q.x1) / 2, (spec.p.x2 + spec.q.x2) / 2

    def move(x):
        y1, y2 = element.apply(x.x1 - mx, x.x2 - my)
        return Point(y1 + mx, y2 + my)

    return CassiniSpec(move(spec.p), move(spec.q), spec.r)


@dataclass(frozen=True, eq=False)
class ValuesGrid:
    """A grid whose node values are given, not sampled.

    values[j, i] belongs to the node origin + (i, j) * spacing, and the spec
    only resolves saddle cells.  It offers extract_contour the interface of
    ScalarGrid, with a bound that decides no tile.
    """

    origin: Point
    spacing: float
    nx: int
    ny: int
    values: np.ndarray
    spec: CassiniSpec

    def __post_init__(self):
        assert self.values.shape == (self.ny, self.nx)

    def nodes(self, i, j, out=None):
        return np.subtract(self.values[j, i], 0.0, out=out)

    def tile_signs(self, side):
        return np.zeros((-(-(self.ny - 1) // side), -(-(self.nx - 1) // side)), dtype=np.int8)


def every_node(grid):
    """The whole field of a grid, as an (ny, nx) array."""
    return grid.nodes(np.arange(grid.nx), np.arange(grid.ny)[:, None])


def without_repeats(line):
    """A polyline without the vertices equal to their predecessor."""
    return line[np.r_[True, (line[1:] != line[:-1]).any(axis=1)]]


def materialised_grid(spec, n=256):
    """Reference for grid_field: the whole n x n field on the axes of
    oracle.grid_points (so a patched box applies to both), filled a block of
    rows per kernel call, with the same frame check."""
    xs, ys = oracle.grid_points(spec, n)
    ys = ys.ravel()
    values = np.empty((n, n))
    target = spec.r * spec.r
    rows = max(1, (1 << 15) // n)
    for j in range(0, n, rows):
        block = distance_product(spec.p, spec.q, xs, ys[j : j + rows, None])
        np.subtract(block, target, out=values[j : j + rows])
    edge_min = min(
        values[0, :].min(), values[-1, :].min(), values[:, 0].min(), values[:, -1].min()
    )
    if edge_min <= 0:
        raise BoxTooSmall(
            f"level set reaches the sampling frame (worst edge node {edge_min!r})"
        )
    return ValuesGrid(Point(xs[0], ys[0]), float(xs[1] - xs[0]), n, n, values, spec)


def box_of_half_width(half):
    """A stand-in for grid_points: the axes of the midpoint-centered square
    box of the given half-width."""

    def axes(spec, n):
        center, _ = sampling_box(spec)
        xs = np.linspace(center.x1 - half, center.x1 + half, n)
        ys = np.linspace(center.x2 - half, center.x2 + half, n)
        return xs, ys[:, None]

    return axes


def whole_field_contour(grid):
    """Reference for extract_contour: the same table-driven marching squares
    and stitching, over the whole materialised field at once, with repeated
    vertices dropped afterwards."""
    vals = grid.values
    nx, ny = grid.nx, grid.ny
    neg = vals < 0
    rows = np.flatnonzero(neg.any(axis=1))
    cols = np.flatnonzero(neg.any(axis=0))
    if rows.size == 0:
        return Contour(polylines=())
    j0 = max(int(rows[0]) - 1, 0)
    i0 = max(int(cols[0]) - 1, 0)
    j1 = min(int(rows[-1]) + 2, ny)
    i1 = min(int(cols[-1]) + 2, nx)
    win = neg[j0:j1, i0:i1]
    a = win[:-1, :-1]
    b = win[:-1, 1:]
    c = win[1:, 1:]
    d = win[1:, :-1]
    mixed = ~((a == b) & (b == c) & (c == d))
    cells = np.argwhere(mixed)
    j = cells[:, 0] + j0
    i = cells[:, 1] + i0
    base = j * nx + i
    flat_neg = neg.ravel()
    case = np.zeros(base.size, dtype=np.intp)
    for bit, step in enumerate((0, 1, nx + 1, nx)):
        case |= flat_neg[base + step].astype(np.intp) << bit
    saddle = np.flatnonzero((case == 5) | (case == 10))
    if saddle.size:
        inside = _saddle_inside(grid, i[saddle], j[saddle])
        case[saddle[inside]] = 15 - case[saddle[inside]]

    horizontal = nx * ny
    edge_offset = np.array([0, horizontal + 1, nx, horizontal], dtype=np.intp)
    seg_edges = _CASE_SEGMENTS[case]
    present = seg_edges[:, :, 0] >= 0
    seg_cell = np.nonzero(present)[0]
    keys = (base[seg_cell, None] + edge_offset[seg_edges[present]]).ravel()
    if keys.size == 0:
        return Contour(polylines=())

    edge_ids, first_pos, group = np.unique(keys, return_index=True, return_inverse=True)
    by_appearance = np.argsort(first_pos)
    edge_ids = edge_ids[by_appearance]
    first_pos = first_pos[by_appearance]
    rank_of_group = np.empty(edge_ids.size, dtype=np.intp)
    rank_of_group[by_appearance] = np.arange(edge_ids.size)
    rank = rank_of_group[group]
    nb0 = rank[first_pos ^ 1]
    second = np.ones(keys.size, dtype=bool)
    second[first_pos] = False
    second_pos = np.flatnonzero(second)
    nb1 = np.full(edge_ids.size, -1, dtype=np.intp)
    nb1[rank[second_pos]] = rank[second_pos ^ 1]

    vertical = edge_ids >= horizontal
    local = edge_ids - np.where(vertical, horizontal, 0)
    flat = vals.ravel()
    v0 = flat[local]
    v1 = flat[local + np.where(vertical, nx, 1)]
    t = v0 / (v0 - v1)
    points = np.empty((edge_ids.size, 2))
    points[:, 0] = grid.origin.x1 + (local % nx + np.where(vertical, 0.0, t)) * grid.spacing
    points[:, 1] = grid.origin.x2 + (local // nx + np.where(vertical, t, 0.0)) * grid.spacing

    visited = bytearray(edge_ids.size)
    polylines = []
    for start in range(edge_ids.size):
        if visited[start]:
            continue
        path = [start]
        visited[start] = 1
        prev, current, closed = -1, start, False
        while True:
            nxt = int(nb0[current])
            if nxt == prev:
                nxt = int(nb1[current])
                if nxt < 0:
                    break
            if nxt == start:
                closed = True
                break
            if visited[nxt]:
                break
            path.append(nxt)
            visited[nxt] = 1
            prev, current = current, nxt
        if closed:
            path.append(start)
        polylines.append(without_repeats(points[path]))
    return Contour(polylines=tuple(polylines))


def meshgrid_field(spec, n):
    """Reference for grid_field: the product field node by node over the
    sampling box."""
    center, half = sampling_box(spec)
    xs = np.linspace(center.x1 - half, center.x1 + half, n)
    ys = np.linspace(center.x2 - half, center.x2 + half, n)
    mx, my = np.meshgrid(xs, ys)
    dp = np.abs(mx - spec.p.x1) + np.abs(my - spec.p.x2)
    dq = np.abs(mx - spec.q.x1) + np.abs(my - spec.q.x2)
    return dp * dq - spec.r * spec.r


def brute_directed(points, polyline):
    """Reference for the pruned search: every vertex against every segment.

    Vertices go a few rows at a time, so a contour of thousands of vertices
    fits in memory; each row's minimum still covers every segment.
    """
    if polyline.shape[0] == 1:
        seg_a = polyline
        seg_u = np.zeros_like(polyline)
    else:
        seg_a = polyline[:-1]
        seg_u = polyline[1:] - polyline[:-1]
    ax = seg_a[None, :, 0]
    ay = seg_a[None, :, 1]
    ux = seg_u[None, :, 0]
    uy = seg_u[None, :, 1]
    rows = max(1, (1 << 16) // seg_a.shape[0])
    worst = 0.0
    for lo in range(0, points.shape[0], rows):
        px = points[lo : lo + rows, 0:1]
        py = points[lo : lo + rows, 1:2]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            tx = np.clip(np.nan_to_num((px - ax) / ux), 0.0, 1.0)
            ty = np.clip(np.nan_to_num((py - ay) / uy), 0.0, 1.0)
        best = None
        for t in (np.zeros_like(tx), np.ones_like(tx), tx, ty):
            dist = np.abs(px - (ax + t * ux)) + np.abs(py - (ay + t * uy))
            best = dist if best is None else np.minimum(best, dist)
        worst = max(worst, float(best.min(axis=1).max()))
    return worst


def assert_matches_brute_force(a, b):
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    forward, backward = brute_directed(pa, pb), brute_directed(pb, pa)
    assert _directed_hausdorff(pa, pb) == forward
    assert _directed_hausdorff(pb, pa) == backward
    assert hausdorff(a, b) == max(forward, backward)
    assert hausdorff(pa, pb) == max(forward, backward)


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
    of neighbour lists; saddles are resolved by product_value at the center,
    and vertices equal to their predecessor are dropped afterwards.
    """
    vals = grid.values
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
    polylines = []
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
        polylines.append(without_repeats(np.asarray(pts, dtype=float)))
    return Contour(polylines=tuple(polylines))


def assert_equal_contours(got, want):
    assert len(got.polylines) == len(want.polylines)
    for line, ref_line in zip(got.polylines, want.polylines):
        assert line.shape == ref_line.shape
        assert line.tobytes() == ref_line.tobytes()


def assert_same_contour(grid):
    assert_equal_contours(extract_contour(grid), reference_extract_contour(grid))


def assert_closed_loops(contour):
    """Every polyline ends on its first vertex, bit for bit, and each is one
    component."""
    for line in contour.polylines:
        assert line[0].tobytes() == line[-1].tobytes()
    assert component_count(contour) == len(contour.polylines)


def assert_banded_matches_references(spec, n=256):
    """The tiled contour of grid_field equals both references' contours of
    the materialised field, bit for bit."""
    got = extract_contour(grid_field(spec, n=n))
    materialised = materialised_grid(spec, n)
    assert_equal_contours(got, whole_field_contour(materialised))
    assert_equal_contours(got, reference_extract_contour(materialised))


# Specs for hand-built unit cells at the origin: the field at the cell center
# (0.5, 0.5) is 0 < r^2 for the first and 1 > r^2 for the second.
CENTER_INSIDE = CassiniSpec(Point(0.5, 0.5), Point(0.5, 0.5), 1.0)
CENTER_OUTSIDE = CassiniSpec(Point(0, 0), Point(1, 1), 0.5)


def framed_cell(corners, spec):
    """A 4 x 4 grid whose middle cell, the unit cell at the origin, has the
    2 x 2 node values corners, inside a frame of positive nodes."""
    values = np.full((4, 4), 3.0)
    values[1:3, 1:3] = corners
    return ValuesGrid(Point(-1.0, -1.0), 1.0, 4, 4, values, spec)


def saddle_joins(contour):
    """The pairs of sides of the unit cell at the origin that the contour's
    steps join across it, each side named by its letter: S, E, N or W."""

    def side(x, y):
        if 0 < x < 1 and y in (0.0, 1.0):
            return "S" if y == 0.0 else "N"
        if 0 < y < 1 and x in (0.0, 1.0):
            return "W" if x == 0.0 else "E"
        return None

    joins = set()
    for line in contour.polylines:
        for (x0, y0), (x1, y1) in zip(line[:-1], line[1:]):
            ends = {side(x0, y0), side(x1, y1)}
            if None not in ends:
                joins.add(frozenset(ends))
    return joins


# Node values from a small set make zero nodes and saddle cells common.
_NODE_VALUES = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.0])


@st.composite
def small_grids(draw):
    nx = draw(st.integers(3, 12))
    ny = draw(st.integers(3, 12))
    values = np.array(draw(st.lists(_NODE_VALUES, min_size=nx * ny, max_size=nx * ny)))
    values = values.reshape(ny, nx)
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
    return ValuesGrid(origin, spacing, nx, ny, values, spec)


class TestGridField:
    def test_circle_node_values(self):
        # The sampling box of the circle has half-width 2 + 1 = 3.
        spec = CassiniSpec(Point(0, 0), Point(0, 0), 2.0)
        grid = grid_field(spec, n=25)
        values = every_node(grid)
        assert grid.spacing == 0.25
        # Node at world (0,0): f - r^2 = 0 - 4.
        assert values[12, 12] == -4.0
        # Node at world (3,3): f = (3+3)^2 = 36, so 36 - 4 = 32.
        assert values[24, 24] == 32.0
        # values[j, i] belongs to the node origin + (i, j) * spacing.
        assert grid.origin == Point(-3.0, -3.0)
        assert grid.origin.x1 + 12 * grid.spacing == 0.0
        assert grid.origin.x2 + 24 * grid.spacing == 3.0

    def test_default_box_keeps_edges_positive(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        grid = grid_field(spec, n=64)
        values = every_node(grid)
        assert grid.origin == Point(-17.0, -17.0)
        edges = np.concatenate([values[0, :], values[-1, :], values[:, 0], values[:, -1]])
        assert np.all(edges > 0)

    @pytest.mark.parametrize(
        "spec",
        [
            CassiniSpec(Point(0.5, 0), Point(-0.5, 0), 1e16),
            CassiniSpec(Point(0, 0), Point(0, 0), 1e16),
        ],
        ids=["unit-foci", "circle"],
    )
    def test_default_box_contains_curves_beyond_2_53(self, spec):
        # A fixed margin of 1 rounds away once ulp(d + r) reaches 1, and the
        # curve then reaches the frame.
        contour = extract_contour(grid_field(spec, n=33))
        assert len(contour.polylines) == 1
        assert_closed_loops(contour)

    def test_too_small_box_rejected(self, monkeypatch):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        monkeypatch.setattr(oracle, "grid_points", box_of_half_width(3.0))
        with pytest.raises(BoxTooSmall):
            grid_field(spec, n=32)

    @pytest.mark.parametrize("half_width", [1.0, 3.0, 6.5])
    def test_too_small_box_message_matches_reference(self, half_width, monkeypatch):
        # grid_field evaluates only the frame; its worst node is the one the
        # whole field gives.
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        monkeypatch.setattr(oracle, "grid_points", box_of_half_width(half_width))
        with pytest.raises(BoxTooSmall) as want:
            materialised_grid(spec, 33)
        with pytest.raises(BoxTooSmall) as got:
            grid_field(spec, n=33)
        assert str(got.value) == str(want.value)

    def test_overflowing_field_rejected(self):
        # Every frame product overflows to inf, on purpose.
        spec = CassiniSpec(Point(1e155, 0), Point(-1e155, 0), 1.0)
        with np.errstate(over="ignore"), pytest.raises(GeometryError, match="finite"):
            grid_field(spec, n=16)

    def test_minimum_resolution(self):
        spec = CassiniSpec(Point(0, 0), Point(0, 0), 2.0)
        grid = grid_field(spec, n=16)
        assert grid.nx == grid.ny == 16
        with pytest.raises(GeometryError):
            grid_field(spec, n=15)

    @pytest.mark.parametrize("n", [16, 257])
    def test_matches_meshgrid_reference(self, n):
        for spec in (
            CassiniSpec(Point(4, 1), Point(-4, -1), 6.0),
            CassiniSpec(Point(8.3, 3.1), Point(-8.7, -2.9), 15.9),
            CassiniSpec(Point(0.1, 0.2), Point(0.1, 0.2), 1.7),
        ):
            values = every_node(grid_field(spec, n=n))
            assert np.array_equal(values, meshgrid_field(spec, n))
            assert np.array_equal(values, materialised_grid(spec, n).values)

    def test_node_signs_agree_with_classification(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        grid = grid_field(spec, n=48)
        values = every_node(grid)
        band = 1e-9 * max(1.0, spec.r * spec.r)
        for iy in range(0, grid.ny, 5):
            for ix in range(0, grid.nx, 5):
                value = values[iy, ix]
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
        assert_closed_loops(contour)

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
        for polyline in contour.polylines:
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
        grid = ValuesGrid(Point(0, 0), 1.0, 16, 16, values, CassiniSpec(Point(0, 0), Point(0, 0), 1.0))
        contour = extract_contour(grid)
        assert contour.polylines == ()
        assert component_count(contour) == 0

    def test_non_finite_crossing_value_rejected(self):
        # Node (1, 1) is inside, and the products of its neighbours overflow
        # to inf, on purpose.
        spec = CassiniSpec(Point(0, 0), Point(0, 0), 1.0)
        axis = np.array([-1e200, 0.0, 1e200])
        with np.errstate(over="ignore"), pytest.raises(GeometryError, match="finite"):
            extract_contour(ScalarGrid(spec, axis, axis))

    def test_saddle_cell_resolved_by_center_sign(self):
        # One cell whose diagonal corners are inside, in a positive frame.
        # The spec's field at the center is 0 < r^2: inside, so the inside
        # corners join across south-east and north-west, into one loop
        # around both.
        contour = extract_contour(framed_cell([[-1.0, 3.0], [3.0, -9.0]], CENTER_INSIDE))
        assert component_count(contour) == 1
        assert_closed_loops(contour)
        assert saddle_joins(contour) == {frozenset("SE"), frozenset("NW")}

    def test_saddle_cell_outside_center(self):
        # The spec's field is 1 > r^2 at the center and 0 at the two inside
        # corners, so it agrees with the node signs: each inside corner gets
        # its own loop, crossing the cell's south and west or north and east.
        contour = extract_contour(framed_cell([[-1.0, 3.0], [3.0, -1.0]], CENTER_OUTSIDE))
        assert component_count(contour) == 2
        assert_closed_loops(contour)
        assert saddle_joins(contour) == {frozenset("SW"), frozenset("NE")}

    @pytest.mark.parametrize(
        "node", [(0, 2), (3, 0), (5, 3), (2, 6), (5, 6)], ids=["west", "south", "east", "north", "corner"]
    )
    def test_negative_frame_node_rejected(self, node):
        # An inside block away from the frame, and one inside frame node.
        values = np.full((7, 6), 3.0)
        values[2:5, 2:4] = -1.0
        values[node[1], node[0]] = -1.0
        grid = ValuesGrid(Point(0.0, 0.0), 1.0, 6, 7, values, CENTER_OUTSIDE)
        with pytest.raises(GeometryError, match="reaches the grid frame"):
            extract_contour(grid)

    def test_cells_past_the_frame_cannot_hang_the_walk(self):
        # Every node is a frame node, and all but one are inside.  The cells
        # that tiling adds past the last column repeat its nodes, so they
        # are mixed and give some edge id three times; with no check for
        # that, the walk never returned to its start.
        values = np.full((5, 2), -1.0)
        values[4, 1] = 1.0
        grid = ValuesGrid(Point(0.0, 0.0), 1.0, 2, 5, values, CENTER_OUTSIDE)
        with pytest.raises(GeometryError, match="reaches the grid frame"):
            extract_contour(grid)

    # Sweep: the contour walk must give the reference polylines on drawn grids.
    @pytest.mark.sweep
    @settings(max_examples=400, deadline=None)
    @given(small_grids())
    @example(framed_cell([[-1.0, 3.0], [3.0, -9.0]], CENTER_INSIDE))
    @example(framed_cell([[3.0, -1.0], [-1.0, 3.0]], CENTER_OUTSIDE))
    # A saddle whose center lies exactly on the level set: f = 1 * 1 = r^2.
    @example(framed_cell([[-1.0, 3.0], [3.0, -9.0]], CassiniSpec(Point(0, 0), Point(1, 1), 1.0)))
    def test_matches_reference(self, grid):
        assert_same_contour(grid)

    @pytest.mark.parametrize("seed", range(5))
    def test_many_tiles_match_reference(self, seed):
        # Several tiles across, with a narrower last tile row and column, and
        # zero nodes and saddle cells on the tile seams.
        rng = np.random.default_rng(seed)
        values = rng.choice([-2.0, -1.0, 0.0, 1.0, 3.0], size=(37, 50))
        values[0, :] = values[-1, :] = values[:, 0] = values[:, -1] = 1.0
        spec = CassiniSpec(Point(10.0, 20.0), Point(40.0, 5.0), 20.0)
        assert_same_contour(ValuesGrid(Point(0.0, 0.0), 1.0, 50, 37, values, spec))

    def test_topology_campaign_grids_match_reference(self):
        # The 100 grids of run_topology_campaign at its default seed.
        rng = np.random.default_rng(42)
        for _ in range(100):
            spec = _random_topology_spec(rng)
            assert_banded_matches_references(spec, n=_topology_grid(spec))

    def test_topology_grid_resolves_the_features(self):
        # Over the sampling box, the spacing is at most r*/64 and a quarter
        # of the smallest feature: the lobe depth and the channel between
        # the lobes, 2 sqrt(r*^2 - r^2) wide across the midpoint, below r*,
        # and the waist above it.
        rng = np.random.default_rng(0)
        for _ in range(200):
            spec = _random_topology_spec(rng)
            n = _topology_grid(spec)
            assert isinstance(n, int)
            spacing = 2 * sampling_box(spec)[1] / (n - 1)
            rstar = critical_radius(spec.p, spec.q)
            assert spacing <= rstar / 64
            _, p_std = standardize(spec.p, spec.q)
            if spec.r < rstar:
                channel = 2 * math.sqrt(rstar**2 - spec.r**2)
                assert spacing <= (rstar - channel / 2) / 4
                assert spacing <= channel / 4
            else:
                assert spacing <= 2 * (math.hypot(p_std.x2, spec.r) - p_std.x1) / 4

    @pytest.mark.parametrize("element", list(PointGroup), ids=lambda g: g.name)
    @pytest.mark.parametrize("label", ["strips-wide", "family-super"])
    def test_refinement_fixtures_match_reference(self, label, element):
        # Criterion 5's fixtures, moved as the refinement benchmark moves them.
        spec = about_midpoint(fixture_spec(label), element)
        for n in (257, 1025):
            assert_banded_matches_references(spec, n=n)

    def test_finest_refinement_matches_reference(self):
        assert_banded_matches_references(fixture_spec("strips-wide"), n=4097)

    def test_zero_node_is_its_own_crossing(self):
        # Nodes lie on the half-integers of [-8, 8].  f(0, 1) = 3 * 3 = r^2,
        # so node (16, 18) at (0, 1) is exactly zero, and its edge to the
        # negative node (16, 17) crosses the level set at the node itself.
        spec = CassiniSpec(Point(2, 0), Point(-2, 0), 3.0)
        grid = grid_field(spec, n=33)
        values = every_node(grid)
        assert values[18, 16] == 0.0 and values[17, 16] < 0
        node = (grid.origin.x1 + 16 * grid.spacing, grid.origin.x2 + 18 * grid.spacing)
        contour = extract_contour(grid)
        assert any((line == node).all(axis=1).any() for line in contour.polylines)
        assert_banded_matches_references(spec, n=33)

    @pytest.mark.parametrize("n, share", [(4097, 50), (16385, 100)])
    @pytest.mark.parametrize("label", ["strips-wide", "family-critical"])
    def test_work_grows_with_the_curve(self, label, n, share, monkeypatch):
        # Only the tiles whose bound leaves the sign open are evaluated.  The
        # rectangle of rows and columns that a row-then-column bound could
        # not prove positive held 1,508,990 nodes on strips-wide and 840,080
        # on family-critical at n = 4097; the tiles hold 136,986 and 199,988.
        grid = grid_field(fixture_spec(label), n=n)
        nodes = 0
        evaluate = ScalarGrid.nodes

        def counting(self, *args, **kwargs):
            nonlocal nodes
            block = evaluate(self, *args, **kwargs)
            nodes += block.size
            return block

        monkeypatch.setattr(ScalarGrid, "nodes", counting)
        contour = extract_contour(grid)
        assert contour.polylines
        assert_closed_loops(contour)
        assert nodes <= n * n // share

    @pytest.mark.parametrize("label", ["family-critical", "shared-line-pinch"])
    def test_pinch_contour_has_no_zero_length_steps(self, label):
        # Where a zero node has several negative neighbours, each crossing
        # edge ends at that node; family-critical at n = 4097 had 524 such
        # steps among 6,134 vertices.
        contour = extract_contour(grid_field(fixture_spec(label), n=4097))
        assert contour.polylines
        assert_closed_loops(contour)
        for line in contour.polylines:
            assert np.abs(np.diff(line, axis=0)).sum(axis=1).min() > 0

    def test_finest_grid_holds_no_field(self):
        # The n = 4097 field alone would take 128 MiB.
        spec = fixture_spec("strips-wide")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            contour = extract_contour(grid_field(spec, n=4097))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert component_count(contour) == 1
        assert peak < 16 * 2**20


# Specs at scales 1e-6 to 1e9, with offsets up to 1e9 from the origin.
_unit = st.one_of(st.integers(-20, 20).map(float), st.floats(-20.0, 20.0, allow_nan=False))


@st.composite
def scaled_specs(draw):
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 7.0, 1e3, 1e6, 1e9]))
    ox = draw(st.sampled_from([0.0, 0.5, -3.25e4, 6e8, -1e9]))
    oy = draw(st.sampled_from([0.0, -0.5, 2.5e5, -6e8, 1e9]))
    p = Point(ox + scale * draw(_unit), oy + scale * draw(_unit))
    q = Point(ox + scale * draw(_unit), oy + scale * draw(_unit))
    return CassiniSpec(p, q, scale * abs(draw(_unit)))


class TestClosedLoops:
    @settings(max_examples=300, deadline=None)
    @given(scaled_specs(), st.sampled_from([16, 17, 40]))
    def test_every_polyline_is_a_closed_loop(self, spec, n):
        assert_closed_loops(extract_contour(grid_field(spec, n=n)))


class TestTileSigns:
    @settings(max_examples=300, deadline=None)
    @given(scaled_specs(), st.sampled_from([16, 17, 40]))
    @example(CassiniSpec(Point(2, 0), Point(-2, 0), 3.0), 33)
    # Node (0, 3) is exactly zero, and one-cell tiles beside it have a least
    # product of exactly r^2.
    @example(CassiniSpec(Point(0, 0), Point(0, 0), 3.0), 17)
    @example(CassiniSpec(Point(8, 3), Point(-8, -3), 16.0), 40)
    def test_decided_tiles_have_the_predicted_sign(self, spec, n):
        # As the kernel evaluates the nodes: none negative in a tile marked
        # 1, all negative in a tile marked -1.
        grid = grid_field(spec, n=n)
        values = every_node(grid)
        for side in (1, 2, 5, 16):
            signs = grid.tile_signs(side)
            assert signs.shape == (-(-(n - 1) // side),) * 2
            for v, u in np.argwhere(signs != 0):
                tile = values[v * side : (v + 1) * side + 1, u * side : (u + 1) * side + 1]
                assert (tile >= 0).all() if signs[v, u] > 0 else (tile < 0).all()

    def test_bound_decides_both_signs(self):
        # A taxicab circle of radius 40 at n = 257: the tiles deep inside and
        # far outside are decided, and those on the curve are not.
        signs = grid_field(CassiniSpec(Point(0, 0), Point(0, 0), 40.0), n=257).tile_signs(16)
        assert set(np.unique(signs)) == {-1, 0, 1}


# A vertex inside the box of a long segment that passes 2 away, beside a
# short segment whose box is farther but which is 1 away: the nearest box
# gives a loose upper bound that the search must not return.
LOOSE_BOUND = ([(0.0, 0.0)], [(-10.0, -8.0), (10.0, 12.0), (0.5, 0.5), (0.6, 0.5)])


# The distance between each refinement fixture's 128-sample ring and its
# n = 4097 contour, as the all-pairs sweep gives it.
FINEST_DISTANCES = {"strips-wide": 0.0074148141658660904, "family-super": 0.003391883398964346}


@pytest.fixture(scope="module", params=sorted(FINEST_DISTANCES))
def finest_level(request):
    """A refinement fixture's 128-sample ring, its n = 4097 contour and the
    distance between them."""
    spec = fixture_spec(request.param)
    ring = closed_ring(build_curves(spec)[0], 128)
    return ring, extract_contour(grid_field(spec, n=4097)).polylines[0], FINEST_DISTANCES[request.param]


def closed_at_pinch(loop):
    """A closed polyline rolled to start and end at its vertex nearest the
    origin."""
    loop = np.asarray(loop)[:-1]
    loop = np.roll(loop, -int(np.abs(loop).sum(axis=1).argmin()), axis=0)
    return np.concatenate([loop, loop[:1]])


@pytest.fixture(scope="module")
def anchor_cases():
    """Polyline pairs with far more vertices on the first side than segments
    on the second, so that the search bounds most vertices from their
    anchor's segments."""
    curve = build_curves(fixture_spec("family-super"))[0]
    dense, coarse = np.asarray(closed_ring(curve, 128)), np.asarray(closed_ring(curve, 16))
    # Shuffled, the dense side's segments are chords across the whole curve,
    # which the search must visit nearly all of, so that case is smaller.
    shuffled = np.random.default_rng(5).permutation(closed_ring(curve, 64))
    # family-critical pinches at the origin: one polyline runs around both
    # loops from the pinch and back around the first loop in reverse.
    spec = fixture_spec("family-critical")
    first, second = (closed_at_pinch(line) for line in extract_contour(grid_field(spec, n=513)).polylines)
    rings = np.concatenate([closed_at_pinch(closed_ring(loop, 8)) for loop in build_curves(spec)])
    return {
        "ordered": (dense, coarse),
        "reversed": (dense[::-1], coarse),
        "shuffled": (shuffled, np.asarray(closed_ring(curve, 8))),
        "pinch": (np.concatenate([first, second, first[::-1]]), rings),
        "one-segment": (dense, np.array([[-9.0, -2.0], [9.0, 2.5]])),
    }


@pytest.fixture(scope="module")
def criterion_5_ladder():
    """(ring, contour, brute-force distance) for each level of criterion 5."""
    levels = []
    for spec in (CassiniSpec(Point(8, 3), Point(-8, -3), 16.0), CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)):
        ring = closed_ring(build_curves(spec)[0], 128)
        pa = np.asarray(ring)
        for n in (257, 1025, 4097):
            contour = extract_contour(grid_field(spec, n=n)).polylines[0]
            expected = max(brute_directed(pa, contour), brute_directed(contour, pa))
            levels.append((ring, contour, expected))
    return levels


# Sweep: the pruned search must equal the all-pairs sweep under every pair tiling.
@pytest.mark.sweep
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
    @example(LOOSE_BOUND)
    @example(LOOSE_BOUND[::-1])
    def test_matches_brute_force(self, pair):
        assert_matches_brute_force(*pair)

    def test_points_and_pairs_give_the_same_distance(self):
        # The docstring takes Points or coordinate pairs.
        spec = CassiniSpec(Point(8, 3), Point(-8, -3), 16.0)
        points = curve_polyline(build_curves(spec)[0], 16)
        points.append(points[0])
        ring = [(x.x1, x.x2) for x in points]
        contour = extract_contour(grid_field(spec, n=65)).polylines[0]
        assert hausdorff(points, contour) == hausdorff(ring, contour) > 0
        assert hausdorff(contour, points) == hausdorff(contour, ring)
        assert hausdorff(points, points[::2]) == hausdorff(ring, ring[::2]) > 0

    def test_contour_ladder_matches_brute_force(self):
        spec = CassiniSpec(Point(8, 3), Point(-8, -3), 16.0)
        ring = closed_ring(build_curves(spec)[0], 128)
        for n in (65, 257):
            contour = extract_contour(grid_field(spec, n=n))
            assert_matches_brute_force(ring, contour.polylines[0])

    # One pair per tile, odd tiles, the default, and the whole search in one.
    @pytest.mark.parametrize("chunk", [1, 3, 1 << 14, 2_000_000])
    @settings(max_examples=60, deadline=None)
    @given(polyline_pairs())
    @example(LOOSE_BOUND)
    @example(LOOSE_BOUND[::-1])
    def test_pair_tiling_cannot_change_the_result(self, chunk, pair):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_PAIR_CHUNK", chunk)
            assert_matches_brute_force(*pair)

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 14, 2_000_000])
    def test_pair_tiling_keeps_the_criterion_5_ladder(self, chunk, criterion_5_ladder, monkeypatch):
        monkeypatch.setattr(oracle, "_PAIR_CHUNK", chunk)
        for ring, contour, expected in criterion_5_ladder:
            assert hausdorff(ring, contour) == expected

    # Dense against coarse, with s = N // M vertices per anchor: 8 for the
    # rings, 10 for the pinch and N for the single segment.
    @pytest.mark.parametrize("chunk", [1, 3, 1 << 14])
    @pytest.mark.parametrize("case", ["ordered", "reversed", "shuffled", "pinch", "one-segment"])
    def test_anchor_bounds_match_brute_force(self, case, chunk, anchor_cases, monkeypatch):
        monkeypatch.setattr(oracle, "_PAIR_CHUNK", chunk)
        assert_matches_brute_force(*anchor_cases[case])

    @pytest.mark.parametrize("reach", [1e308, 9e307])
    @pytest.mark.parametrize("other", ["segment", "vertex"])
    def test_rejects_overflowing_segment(self, reach, other):
        # 2 * reach overflows, and the pair distances of an infinite segment
        # vector were NaN, so the search visited no vertex and returned 0.0.
        wide = [(-reach, 0.0), (reach, 0.0)]
        near = [(-reach, 1e307), (reach, 1e307)] if other == "segment" else [(0.0, 1e307)]
        message = "polyline segments must have finite coordinate differences"
        with pytest.raises(GeometryError, match=message):
            hausdorff(wide, near)
        with pytest.raises(GeometryError, match=message):
            hausdorff(near, wide)

    def test_finest_level_fits_the_pair_budget(self, finest_level):
        # Whole pair blocks at n = 4097 took 20.9 MiB on strips-wide.
        ring, contour, expected = finest_level
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            d = hausdorff(ring, contour)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == expected
        assert peak < 4 * 2**20

    def test_finest_level_evaluates_few_pairs(self, finest_level, monkeypatch):
        # Bounding each vertex by its nearest block's every segment took
        # 271,226 pairs on strips-wide; one segment per vertex takes 7,171
        # there and 6,623 on family-super.
        ring, contour, expected = finest_level
        pairs = 0
        pair_distance = oracle._pair_distance

        def counting(*args):
            nonlocal pairs
            pairs += np.broadcast(*args).size
            return pair_distance(*args)

        monkeypatch.setattr(oracle, "_pair_distance", counting)
        d = hausdorff(ring, contour)
        assert d == expected
        assert pairs <= 2 * (len(ring) + len(contour))

    @pytest.mark.parametrize(
        "bad",
        [
            [(0.0, 0.0), (1.0, 2.0, 3.0)],
            [(0.0, 0.0), "ab"],
            [(0.0, 0.0), 5.0],
            [(0.0, 0.0), None],
            np.zeros((3, 3)),
            np.zeros(4),
            np.array([["0", "0"], ["a", "b"]]),
        ],
        ids=["ragged", "string-row", "scalar-row", "none-row", "three-columns", "flat-array", "string-array"],
    )
    def test_rejects_malformed(self, bad):
        message = "polyline must be a nonempty sequence of planar points"
        with pytest.raises(GeometryError, match=message):
            hausdorff(bad, DIAMOND)
        with pytest.raises(GeometryError, match=message):
            hausdorff(DIAMOND, bad)

    def test_analytic_vs_contour_is_tight(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        grid = grid_field(spec, n=257)
        contour = extract_contour(grid)
        ring = closed_ring(build_curves(spec)[0], 128)
        assert hausdorff(ring, contour.polylines[0]) <= 2 * grid.spacing


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
