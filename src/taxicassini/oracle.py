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

from .cassini import CassiniSpec, product_value
from .characterization import sampling_box
from .core import GeometryError, Point

_ZERO_NODE_RTOL = 1e-12


class BoxTooSmall(GeometryError):
    """The sampling box fails to strictly contain the filled set."""


@dataclass(frozen=True, eq=False)
class ScalarGrid:
    """Node samples of f(x) - r^2 on a uniform grid.

    values has shape (ny, nx), row-major: values[j, i] belongs to the node
    origin + (i * spacing, j * spacing).  The originating spec, when kept,
    lets the contour extractor resolve saddle cells from the true field.
    """

    origin: Point
    spacing: float
    nx: int
    ny: int
    values: np.ndarray
    spec: Optional[CassiniSpec] = None

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

    def node_point(self, i: int, j: int) -> Point:
        return Point(self.origin.x1 + i * self.spacing, self.origin.x2 + j * self.spacing)


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
    # Each distance is a row term plus a column term, so the field is built
    # by broadcasting two length-n vectors; IEEE + and * commute, so the
    # values equal the node-by-node products bit for bit.
    values = np.abs(ys - spec.p.x2)[:, None] + np.abs(xs - spec.p.x1)[None, :]
    values *= np.abs(ys - spec.q.x2)[:, None] + np.abs(xs - spec.q.x1)[None, :]
    values -= spec.r * spec.r
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


def _edge_point(grid: ScalarGrid, vals: np.ndarray, key: tuple[str, int, int]) -> tuple[float, float]:
    kind, i, j = key
    v0 = vals[j, i]
    if kind == "h":
        v1 = vals[j, i + 1]
        t = v0 / (v0 - v1)
        return grid.origin.x1 + (i + t) * grid.spacing, grid.origin.x2 + j * grid.spacing
    v1 = vals[j + 1, i]
    t = v0 / (v0 - v1)
    return grid.origin.x1 + i * grid.spacing, grid.origin.x2 + (j + t) * grid.spacing


def _center_sign(grid: ScalarGrid, vals: np.ndarray, i: int, j: int) -> bool:
    # True when the cell center is inside the filled set.
    if grid.spec is not None:
        x = Point(
            grid.origin.x1 + (i + 0.5) * grid.spacing,
            grid.origin.x2 + (j + 0.5) * grid.spacing,
        )
        target = grid.spec.r * grid.spec.r
        return product_value(grid.spec, x) - target < 0
    mean = (vals[j, i] + vals[j, i + 1] + vals[j + 1, i] + vals[j + 1, i + 1]) / 4
    return mean < 0


def extract_contour(grid: ScalarGrid) -> Contour:
    """Marching-squares zero level set of the grid, stitched into polylines.

    Nodes exactly at zero are nudged positive by 1e-12 of the value scale so
    every cell edge has a well-defined crossing.  Cells whose four corners
    alternate in sign are split according to the field sign at the cell
    center.  Because boundary nodes are positive, every polyline closes.
    """
    vals = grid.values
    if (vals == 0).any():
        bump = _ZERO_NODE_RTOL * max(1.0, float(np.abs(vals).max()))
        vals = np.where(vals == 0, bump, vals)

    neg = vals < 0
    rows = np.flatnonzero(neg.any(axis=1))
    cols = np.flatnonzero(neg.any(axis=0))
    if rows.size == 0:
        cells = np.empty((0, 2), dtype=np.intp)
    else:
        # Every mixed cell touches a negative node, so it lies in the window
        # of negative nodes grown by one cell; scanning only that window
        # keeps the row-major cell order of a full scan.
        j0 = max(int(rows[0]) - 1, 0)
        i0 = max(int(cols[0]) - 1, 0)
        j1 = min(int(rows[-1]) + 2, grid.ny)
        i1 = min(int(cols[-1]) + 2, grid.nx)
        win = neg[j0:j1, i0:i1]
        a = win[:-1, :-1]
        b = win[:-1, 1:]
        c = win[1:, 1:]
        d = win[1:, :-1]
        mixed = ~((a == b) & (b == c) & (c == d))
        cells = np.argwhere(mixed) + (j0, i0)

    segments: list[tuple[tuple[str, int, int], tuple[str, int, int]]] = []
    for j, i in cells:
        j = int(j)
        i = int(i)
        south = ("h", i, j)
        north = ("h", i, j + 1)
        west = ("v", i, j)
        east = ("v", i + 1, j)
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
            # Alternating corners: pair the crossings around whichever
            # diagonally opposite corners the center sign isolates.
            center_inside = _center_sign(grid, vals, i, j)
            if sa:  # corners a and c inside
                if center_inside:
                    segments.append((south, east))
                    segments.append((north, west))
                else:
                    segments.append((south, west))
                    segments.append((east, north))
            else:  # corners b and d inside
                if center_inside:
                    segments.append((south, west))
                    segments.append((east, north))
                else:
                    segments.append((south, east))
                    segments.append((north, west))

    adjacency: dict[tuple[str, int, int], list[tuple[str, int, int]]] = {}
    for k1, k2 in segments:
        adjacency.setdefault(k1, []).append(k2)
        adjacency.setdefault(k2, []).append(k1)

    point_cache: dict[tuple[str, int, int], tuple[float, float]] = {}

    def point_of(key: tuple[str, int, int]) -> tuple[float, float]:
        cached = point_cache.get(key)
        if cached is None:
            cached = _edge_point(grid, vals, key)
            point_cache[key] = cached
        return cached

    visited: set[tuple[str, int, int]] = set()
    polylines: list[np.ndarray] = []
    closed_flags: list[bool] = []
    for start in adjacency:
        if start in visited:
            continue
        path = [start]
        visited.add(start)
        prev = None
        current = start
        closed = False
        while True:
            nbrs = adjacency[current]
            nxt = None
            for cand in nbrs:
                if cand != prev:
                    nxt = cand
                    break
            if nxt is None or (nxt == prev and len(nbrs) == 1):
                break
            if nxt == start:
                closed = True
                break
            if nxt in visited:
                break
            path.append(nxt)
            visited.add(nxt)
            prev, current = current, nxt
        pts = [point_of(key) for key in path]
        if closed:
            pts.append(pts[0])
        polylines.append(np.asarray(pts, dtype=float))
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
