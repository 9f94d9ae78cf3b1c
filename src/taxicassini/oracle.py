"""Independent brute-force verification of the analytic construction.

Samples the product-of-distances field on a grid, extracts the r^2 level
set with marching squares (linear edge interpolation, saddles resolved by
the true field value at the cell center), and measures curve proximity with
a symmetric taxicab Hausdorff distance.  Nothing here reuses the piecewise
construction, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cassini import CassiniSpec
from .characterization import sampling_box
from .core import GeometryError, Point, distance_product

_ZERO_NODE_RTOL = 1e-12
# Nodes per kernel call in grid_field.  Each call makes three temporaries
# of this size; much smaller blocks pay more in per-call overhead.
_FIELD_NODES = 1 << 15


class BoxTooSmall(GeometryError):
    """The sampling box fails to strictly contain the filled set."""


@dataclass(frozen=True, eq=False)
class ScalarGrid:
    """Node samples of f(x) - r^2 on a uniform grid.

    values has shape (ny, nx), row-major: values[j, i] belongs to the node
    origin + (i * spacing, j * spacing).  The originating spec lets the
    contour extractor resolve saddle cells from the true field.
    """

    origin: Point
    spacing: float
    nx: int
    ny: int
    values: np.ndarray
    spec: CassiniSpec

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise GeometryError("grid needs at least 2 nodes per side")
        if self.spacing <= 0 or not math.isfinite(self.spacing):
            raise GeometryError(f"bad grid spacing {self.spacing!r}")
        if self.values.shape != (self.ny, self.nx):
            raise GeometryError(
                f"values shape {self.values.shape} != (ny, nx) = {(self.ny, self.nx)}"
            )
        if not np.isfinite(self.values).all():
            raise GeometryError("grid values must be finite")


def grid_field(spec: CassiniSpec, half_width: Optional[float] = None, n: int = 256) -> ScalarGrid:
    """Sample f - r^2 on an n x n grid over a midpoint-centered square box.

    The default box (taxicab_distance(p, q) + r + 1 half-width) strictly
    contains the curve, making every boundary node positive; BoxTooSmall is
    raised if any edge node fails that, since a contour touching the frame
    could not be extracted as closed polylines.
    """
    if n < 16:
        raise GeometryError(f"grid resolution must be at least 16, got {n}")
    center, default_half = sampling_box(spec.p, spec.q, spec.r)
    half = default_half if half_width is None else float(half_width)
    if half <= 0 or not math.isfinite(half):
        raise GeometryError(f"half_width must be positive and finite, got {half!r}")
    xs = np.linspace(center.x1 - half, center.x1 + half, n)
    ys = np.linspace(center.x2 - half, center.x2 + half, n)
    # A block of rows at a time: the row vector xs broadcasts against a
    # column of ys, so no meshgrid and no second n x n array is formed.
    values = np.empty((n, n))
    target = spec.r * spec.r
    rows = max(1, _FIELD_NODES // n)
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
    return ScalarGrid(
        origin=Point(xs[0], ys[0]),
        spacing=float(xs[1] - xs[0]),
        nx=n,
        ny=n,
        values=values,
        spec=spec,
    )


@dataclass(frozen=True)
class Contour:
    """Extracted level-set polylines; closed ones repeat their first point."""

    polylines: tuple[np.ndarray, ...]
    closed_flags: tuple[bool, ...]


def component_count(contour: Contour) -> int:
    """Number of closed polylines."""
    return sum(1 for flag in contour.closed_flags if flag)


# Marching-squares cases.  A cell's case is a | b<<1 | c<<2 | d<<3, where a,
# b, c, d say whether its corners (i, j), (i+1, j), (i+1, j+1), (i, j+1) are
# inside.  Its edges are S, E, N, W = 0, 1, 2, 3, and each row lists the
# cell's segments as pairs of edges, crossings in S, E, N, W order; -1 pads
# cases with fewer than two segments.  The saddle rows 5 and 10 pair the
# crossings for a center outside the set.  Complementing a case keeps its
# crossings, so a saddle whose center is inside takes the row of 15 - case.
_S, _E, _N, _W = 0, 1, 2, 3
_CASE_SEGMENTS = np.array(
    [
        [[-1, -1], [-1, -1]],  # 0
        [[_S, _W], [-1, -1]],  # 1: a
        [[_S, _E], [-1, -1]],  # 2: b
        [[_E, _W], [-1, -1]],  # 3: a b
        [[_E, _N], [-1, -1]],  # 4: c
        [[_S, _W], [_E, _N]],  # 5: a c, center outside
        [[_S, _N], [-1, -1]],  # 6: b c
        [[_N, _W], [-1, -1]],  # 7: a b c
        [[_N, _W], [-1, -1]],  # 8: d
        [[_S, _N], [-1, -1]],  # 9: a d
        [[_S, _E], [_N, _W]],  # 10: b d, center outside
        [[_E, _N], [-1, -1]],  # 11: a b d
        [[_E, _W], [-1, -1]],  # 12: c d
        [[_S, _E], [-1, -1]],  # 13: a c d
        [[_S, _W], [-1, -1]],  # 14: b c d
        [[-1, -1], [-1, -1]],  # 15
    ],
    dtype=np.intp,
)


def _saddle_inside(grid: ScalarGrid, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Whether the centers of cells (i, j) lie inside the filled set, by the
    true field at the center."""
    spec = grid.spec
    x1 = grid.origin.x1 + (i + 0.5) * grid.spacing
    x2 = grid.origin.x2 + (j + 0.5) * grid.spacing
    return distance_product(spec.p, spec.q, x1, x2) - spec.r * spec.r < 0


def extract_contour(grid: ScalarGrid) -> Contour:
    """Marching-squares zero level set of the grid, stitched into polylines.

    Nodes exactly at zero are nudged positive by 1e-12 of the value scale so
    every cell edge has a well-defined crossing.  Each mixed cell's corner
    signs index a 16-case table of segments between its edges (Lorensen and
    Cline 1987, in two dimensions).  Cells whose four corners alternate in
    sign are split according to the field sign at the cell center.  Every
    edge has an integer id, and the segments are joined at shared edges in
    the order cells are scanned, row by row.  Crossing points interpolate
    linearly along their edge.

    When every frame node is positive, as grid_field ensures, every polyline
    closes.  A hand-built grid with negative frame nodes may give open
    polylines, which end where they meet the frame.
    """
    vals = grid.values
    if (vals == 0).any():
        bump = _ZERO_NODE_RTOL * max(1.0, float(np.abs(vals).max()))
        vals = np.where(vals == 0, bump, vals)

    nx, ny = grid.nx, grid.ny
    neg = vals < 0
    rows = np.flatnonzero(neg.any(axis=1))
    cols = np.flatnonzero(neg.any(axis=0))
    if rows.size == 0:
        return Contour(polylines=(), closed_flags=())
    # Every mixed cell touches a negative node, so it lies in the window of
    # negative nodes grown by one cell; scanning only that window keeps the
    # row-major cell order of a full scan.
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
    for bit, step in enumerate((0, 1, nx + 1, nx)):  # corners a, b, c, d
        case |= flat_neg[base + step].astype(np.intp) << bit
    saddle = np.flatnonzero((case == 5) | (case == 10))
    if saddle.size:
        inside = _saddle_inside(grid, i[saddle], j[saddle])
        case[saddle[inside]] = 15 - case[saddle[inside]]

    # Edge ids: j*nx + i for the horizontal edge from node (i, j), and
    # nx*ny + j*nx + i for the vertical one.  Each segment is a pair of ids,
    # in cell order and, within a saddle cell, in table order.
    horizontal = nx * ny
    edge_offset = np.array([0, horizontal + 1, nx, horizontal], dtype=np.intp)  # S, E, N, W
    seg_edges = _CASE_SEGMENTS[case]
    present = seg_edges[:, :, 0] >= 0
    seg_cell = np.nonzero(present)[0]
    keys = (base[seg_cell, None] + edge_offset[seg_edges[present]]).ravel()
    if keys.size == 0:
        return Contour(polylines=(), closed_flags=())

    # An edge is shared by at most two cells and appears once in each, so
    # every id occurs once or twice in keys.  A stable sort groups the
    # occurrences of an id in the order they were emitted; the partner of
    # position k is position k ^ 1.  Ids are then ranked by first occurrence,
    # the order a walk over the segments meets them, and nb0 and nb1 hold
    # the ranks of the partners at an id's first and second occurrence (-1
    # when it occurs once).
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    group_start = np.flatnonzero(first)
    count = np.diff(np.append(group_start, keys.size))
    first_pos = order[group_start]
    by_appearance = np.argsort(first_pos)
    rank_of_group = np.empty(group_start.size, dtype=np.intp)
    rank_of_group[by_appearance] = np.arange(group_start.size)
    rank = np.empty(keys.size, dtype=np.intp)
    rank[order] = rank_of_group[np.cumsum(first) - 1]
    nb0 = np.empty(group_start.size, dtype=np.intp)
    nb0[rank_of_group] = rank[first_pos ^ 1]
    nb1 = np.full(group_start.size, -1, dtype=np.intp)
    twice = count == 2
    nb1[rank_of_group[twice]] = rank[order[group_start[twice] + 1] ^ 1]

    # Crossing points of the ranked edges, with t = v0 / (v0 - v1) measured
    # from the edge's lower node.
    edge_ids = sorted_keys[group_start][by_appearance]
    vertical = edge_ids >= horizontal
    local = edge_ids - np.where(vertical, horizontal, 0)
    flat = vals.ravel()
    v0 = flat[local]
    v1 = flat[local + np.where(vertical, nx, 1)]
    t = v0 / (v0 - v1)
    points = np.empty((edge_ids.size, 2))
    points[:, 0] = grid.origin.x1 + (local % nx + np.where(vertical, 0.0, t)) * grid.spacing
    points[:, 1] = grid.origin.x2 + (local // nx + np.where(vertical, t, 0.0)) * grid.spacing

    # Walk from each unvisited edge in rank order, always to the neighbour
    # that is not the previous edge (-1 before the first step), until the
    # walk returns to its start, leaves an edge with one neighbour, or meets
    # an edge an earlier walk took.
    next0 = nb0.tolist()
    next1 = nb1.tolist()
    visited = bytearray(edge_ids.size)
    polylines: list[np.ndarray] = []
    closed_flags: list[bool] = []
    for start in range(edge_ids.size):
        if visited[start]:
            continue
        path = [start]
        visited[start] = 1
        prev = -1
        current = start
        closed = False
        while True:
            nxt = next0[current]
            if nxt == prev:
                nxt = next1[current]
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
        polylines.append(points[path])
        closed_flags.append(closed)
    return Contour(polylines=tuple(polylines), closed_flags=tuple(closed_flags))


def _as_array(points: Sequence) -> np.ndarray:
    arr = np.asarray(
        [(pt.x1, pt.x2) if isinstance(pt, Point) else tuple(pt) for pt in points],
        dtype=float,
    )
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise GeometryError("polyline must be a nonempty sequence of planar points")
    if not np.isfinite(arr).all():
        raise GeometryError("polyline coordinates must be finite")
    return arr


# Vertex-segment pairs evaluated at once; bounds the working arrays.
_PAIR_CHUNK = 2_000_000


def _pair_distance(px, py, ax, ay, ux, uy) -> np.ndarray:
    """Taxicab distance from (px, py) to the segment a + t*u, t in [0, 1].

    The distance along a segment is piecewise linear in t; its minimum sits
    at an endpoint or where one coordinate difference vanishes.  Arguments
    broadcast elementwise, and each pair gets the same operations whatever
    the shapes, so a pair's value never depends on how pairs are grouped.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tx = np.clip(np.nan_to_num((px - ax) / ux), 0.0, 1.0)
        ty = np.clip(np.nan_to_num((py - ay) / uy), 0.0, 1.0)
    best = None
    for t in (np.zeros_like(tx), np.ones_like(tx), tx, ty):
        dist = np.abs(px - (ax + t * ux)) + np.abs(py - (ay + t * uy))
        best = dist if best is None else np.minimum(best, dist)
    return best


def _directed_hausdorff(points: np.ndarray, polyline: np.ndarray) -> float:
    # Max over points of the min taxicab distance to the polyline's segments.
    if polyline.shape[0] == 1:
        seg_a = polyline
        seg_u = np.zeros_like(polyline)
    else:
        seg_a = polyline[:-1]
        seg_u = polyline[1:] - polyline[:-1]
    m = seg_a.shape[0]
    # Blocks of consecutive segments with their bounding boxes.  Block k
    # holds segments k*size .. k*size + size - 1; the last block repeats the
    # final segment to fill up, which cannot change a minimum.
    size = max(1, math.isqrt(m))
    nblocks = -(-m // size)
    block_segs = np.minimum(np.arange(nblocks * size).reshape(nblocks, size), m - 1)
    # The boxes span a and the rounded a + u, the two points that t = 0 and
    # t = 1 reach in _pair_distance; every rounded a + t*u lies between
    # them, because rounding is monotone.  So a computed pair distance is
    # never below its block's computed box distance.  The slack of a few
    # ulps of the largest coordinate is a margin on top of that bound.
    ends = seg_a + seg_u
    box_lo = np.minimum(seg_a, ends)[block_segs].min(axis=1)
    box_hi = np.maximum(seg_a, ends)[block_segs].max(axis=1)
    scale = max(float(np.abs(points).max()), float(np.abs(polyline).max()))
    slack = 4 * np.finfo(float).eps * scale

    def box_distance(pts: np.ndarray) -> np.ndarray:
        # L1 distance from each point to each block box: a lower bound on
        # its distance to every segment in the block.
        gap_x = np.maximum(box_lo[None, :, 0] - pts[:, 0:1], pts[:, 0:1] - box_hi[None, :, 0])
        gap_y = np.maximum(box_lo[None, :, 1] - pts[:, 1:2], pts[:, 1:2] - box_hi[None, :, 1])
        return np.maximum(gap_x, 0.0) + np.maximum(gap_y, 0.0)

    def block_minimum(pts: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        # Exact min distance from pts[k] to the segments of blocks[k].
        segs = block_segs[blocks]
        a = seg_a[segs]
        u = seg_u[segs]
        dist = _pair_distance(pts[:, 0:1], pts[:, 1:2], a[..., 0], a[..., 1], u[..., 0], u[..., 1])
        return dist.min(axis=1)

    # Upper bound per point: its distance to the block nearest by box.
    chunk = max(1, _PAIR_CHUNK // max(nblocks, size))
    upper = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], chunk):
        pts = points[lo : lo + chunk]
        nearest = box_distance(pts).argmin(axis=1)
        upper[lo : lo + chunk] = block_minimum(pts, nearest)

    # Taha-Hanbury early break: visit points by descending upper bound and
    # stop once no remaining point can raise the running maximum.  A visited
    # point's minimum covers every block whose box is within its upper bound
    # (plus slack), so it equals the all-segments minimum exactly.
    order = np.argsort(-upper, kind="stable")
    sorted_upper = upper[order]
    worst = 0.0
    batch = 1
    pos = 0
    max_batch = max(1, _PAIR_CHUNK // (nblocks * size))
    while pos < order.size and sorted_upper[pos] > worst:
        stop = min(pos + min(batch, max_batch), order.size)
        idx = order[pos:stop]
        pts = points[idx]
        near = box_distance(pts) <= (upper[idx] + slack)[:, None]
        owner, blocks = np.nonzero(near)
        best = upper[idx].copy()
        np.minimum.at(best, owner, block_minimum(pts[owner], blocks))
        worst = max(worst, float(best.max()))
        pos = stop
        batch *= 2
    return worst


def hausdorff(a: Sequence, b: Sequence) -> float:
    """Symmetric taxicab Hausdorff distance between two polylines.

    Inputs are point sequences (Points or coordinate pairs) with finite
    coordinates; consecutive points are joined by segments, with no
    implicit wraparound, so closed rings must repeat their first point.
    Vertices of each polyline are measured against the segments of the
    other.

    The search is exact, not approximate.  Segments are grouped into blocks
    of consecutive segments; the L1 distance from a vertex to a block's
    bounding box bounds its distance to every segment inside from below.
    Each vertex first gets an upper bound, its distance to the block whose
    box is nearest.  Vertices are then visited by descending upper bound,
    and the search stops once the next bound cannot exceed the running
    maximum (Taha and Hanbury, IEEE TPAMI 2015).  A visited vertex is
    measured against every block whose box distance is within its upper
    bound plus a slack of a few ulps of the largest coordinate magnitude.
    Rounding cannot prune the segment that gives the computed minimum: a
    box spans the rounded segment endpoints, every rounded point a + t*u
    lies between them because rounding is monotone, so each computed pair
    distance is at least its block's computed box distance, and the slack
    is a margin on top.  Every evaluated pair uses the same floating-point
    operations as an all-pairs sweep, and min and max are exact, so the
    result is bit-identical to that sweep.
    """
    pa = _as_array(a)
    pb = _as_array(b)
    return max(_directed_hausdorff(pa, pb), _directed_hausdorff(pb, pa))


def ring_contains(ring: Sequence, x: Point) -> bool:
    """Even-odd test of x against a closed ring of points (no repeat needed)."""
    pts = _as_array(ring)
    if pts.shape[0] >= 2 and np.array_equal(pts[0], pts[-1]):
        pts = pts[:-1]
    x1 = np.asarray(pts[:, 0])
    x2 = np.asarray(pts[:, 1])
    y1 = np.roll(x1, -1)
    y2 = np.roll(x2, -1)
    straddles = (x2 > x.x2) != (y2 > x.x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross_x = x1 + (x.x2 - x2) / (y2 - x2) * (y1 - x1)
    hits = straddles & (cross_x > x.x1)
    return bool(np.count_nonzero(hits) % 2 == 1)
