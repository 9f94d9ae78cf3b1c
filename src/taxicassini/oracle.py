"""Independent brute-force verification of the analytic construction.

Samples the product-of-distances field on a grid, extracts the r^2 level
set with marching squares (linear edge interpolation, saddles resolved by
the true field value at the cell center), and measures curve proximity with
a symmetric taxicab Hausdorff distance.  Nothing here reuses the piecewise
construction, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cassini import CassiniSpec
from .characterization import sampling_box
from .core import GeometryError, Point, distance_product

# Nodes per band of rows in extract_contour.  Each band's kernel call makes
# three temporaries of this size; much smaller bands pay more in per-call
# overhead, and at this size a topology-campaign grid (n = 181 to 423)
# takes one or two bands.
_FIELD_NODES = 1 << 17


class BoxTooSmall(GeometryError):
    """The sampling box fails to strictly contain the filled set."""


@dataclass(frozen=True, eq=False)
class ScalarGrid:
    """A uniform grid of f(x) - r^2 samples, evaluated on demand.

    Node (i, j) lies at (xs[i], ys[j]).  origin is node (0, 0) and spacing
    the step from xs[0] to xs[1]; extract_contour places crossings and
    saddle centers with them.  No node values are stored: rows() evaluates
    a block of nodes with the product kernel, and window() bounds the nodes
    that can be nonpositive, so no caller needs the whole field at once.
    """

    spec: CassiniSpec
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)

    @property
    def origin(self) -> Point:
        return Point(self.xs[0], self.ys[0])

    @property
    def spacing(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @property
    def nx(self) -> int:
        return self.xs.size

    @property
    def ny(self) -> int:
        return self.ys.size

    def rows(self, j0: int, j1: int, i0: int = 0, i1: Optional[int] = None) -> np.ndarray:
        """f - r^2 at the nodes (i, j) with j0 <= j < j1 and i0 <= i < i1, as
        an array of shape (j1 - j0, i1 - i0); i1 defaults to nx."""
        spec = self.spec
        block = distance_product(spec.p, spec.q, self.xs[i0:i1], self.ys[j0:j1, None])
        block -= spec.r * spec.r
        return block

    def window(self, j0: int, j1: int) -> Optional[tuple[int, int, int, int]]:
        """Bounds (k0, k1, i0, i1) such that every node of rows j0 .. j1 - 1
        outside rows k0 .. k1 - 1 or columns i0 .. i1 - 1 is strictly
        positive; None when every node of those rows is.

        A node's value is fl(fl(X_p + Y_p) * fl(X_q + Y_q)) - fl(r^2), with
        offsets X_a = fl|x1 - a1| and Y_a = fl|x2 - a2|.  Rounding is
        monotone, so putting a smaller offset in place of X_a or Y_a cannot
        raise the computed product.  A row whose Y offsets, with the least X
        offsets of the grid, already give a product above fl(r^2) is strictly
        positive, and so is a column whose X offsets do, with the least Y
        offsets of the rows not shown positive that way.  The bound reads
        only the field's definition, never the construction.
        """
        p, q = self.spec.p, self.spec.q
        r2 = self.spec.r * self.spec.r
        xp, xq = abs(self.xs - p.x1), abs(self.xs - q.x1)
        yp, yq = abs(self.ys[j0:j1] - p.x2), abs(self.ys[j0:j1] - q.x2)
        rows = np.flatnonzero((xp.min() + yp) * (xq.min() + yq) <= r2)
        if rows.size == 0:
            return None
        cols = np.flatnonzero((xp + yp[rows].min()) * (xq + yq[rows].min()) <= r2)
        if cols.size == 0:
            return None
        return j0 + int(rows[0]), j0 + int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def grid_field(spec: CassiniSpec, half_width: Optional[float] = None, n: int = 256) -> ScalarGrid:
    """The n x n grid of f - r^2 over a midpoint-centered square box.

    Only the four frame lines are evaluated here; extract_contour samples
    the rest, a band of rows at a time.  The default box
    (taxicab_distance(p, q) + r + 1 half-width) strictly contains the curve,
    making every frame node positive; BoxTooSmall is raised if any frame
    node fails that, since a contour touching the frame could not be
    extracted as closed polylines.
    """
    if n < 16:
        raise GeometryError(f"grid resolution must be at least 16, got {n}")
    center, default_half = sampling_box(spec)
    half = default_half if half_width is None else float(half_width)
    if half <= 0 or not math.isfinite(half):
        raise GeometryError(f"half_width must be positive and finite, got {half!r}")
    grid = ScalarGrid(
        spec,
        np.linspace(center.x1 - half, center.x1 + half, n),
        np.linspace(center.x2 - half, center.x2 + half, n),
    )
    frame = (grid.rows(0, 1), grid.rows(n - 1, n), grid.rows(0, n, 0, 1), grid.rows(0, n, n - 1, n))
    edge_min = min(line.min() for line in frame)
    if edge_min <= 0:
        raise BoxTooSmall(
            f"level set reaches the sampling frame (worst edge node {edge_min!r})"
        )
    if not (grid.spacing > 0 and math.isfinite(grid.spacing)):
        raise GeometryError(f"bad grid spacing {grid.spacing!r}")
    if not all(np.isfinite(line).all() for line in frame):
        raise GeometryError("grid values must be finite")
    return grid


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


def _band_segments(grid: ScalarGrid, j0: int, j1: int) -> tuple[np.ndarray, np.ndarray]:
    """Segments of the cells between node rows j0 and j1 - 1, in row-major
    cell order: their edge ids, and the values at the lower and upper node
    of each id's edge."""
    window = grid.window(j0, j1)
    if window is None:
        return np.empty(0, dtype=np.intp), np.empty((0, 2))
    # Every mixed cell has a negative corner, so it lies in the window grown
    # by one node; scanning only that block keeps the row-major cell order
    # of a full scan.
    k0, k1, i0, i1 = window
    k0, k1 = max(k0 - 1, j0), min(k1 + 1, j1)
    i0, i1 = max(i0 - 1, 0), min(i1 + 1, grid.nx)
    vals = grid.rows(k0, k1, i0, i1)
    neg = (vals < 0).view(np.uint8)
    case = neg[:-1, :-1] | neg[:-1, 1:] << 1 | neg[1:, 1:] << 2 | neg[1:, :-1] << 3
    cells = np.flatnonzero((case != 0) & (case != 15))
    width = i1 - i0
    cj, ci = np.divmod(cells, width - 1)
    j = cj + k0
    i = ci + i0
    case = case.ravel()[cells].astype(np.intp)
    saddle = np.flatnonzero((case == 5) | (case == 10))
    if saddle.size:
        inside = _saddle_inside(grid, i[saddle], j[saddle])
        case[saddle[inside]] = 15 - case[saddle[inside]]

    # Edge ids: j*nx + i for the horizontal edge from node (i, j), and
    # nx*ny + j*nx + i for the vertical one.  Each segment is a pair of ids,
    # in cell order and, within a saddle cell, in table order.
    nx = grid.nx
    horizontal = nx * grid.ny
    edge_offset = np.array([0, horizontal + 1, nx, horizontal], dtype=np.intp)  # S, E, N, W
    seg_edges = _CASE_SEGMENTS[case]
    present = seg_edges[:, :, 0] >= 0
    seg_cell = np.nonzero(present)[0]
    edges = seg_edges[present]
    keys = ((j * nx + i)[seg_cell, None] + edge_offset[edges]).ravel()
    # The same edges in the block: the offset of an edge's lower node from
    # its cell's corner (i, j), and of its upper node from the lower one.
    lower = (cj * width + ci)[seg_cell, None] + np.array([0, 1, width, 0])[edges]
    upper = lower + np.array([1, width, 1, width])[edges]
    flat = vals.ravel()
    return keys, np.stack((flat[lower.ravel()], flat[upper.ravel()]), axis=1)


def extract_contour(grid: ScalarGrid) -> Contour:
    """Marching-squares zero level set of the grid, stitched into polylines.

    The field is sampled a band of rows at a time, so the n x n field never
    exists.  Only rows and columns that grid.window() cannot prove strictly
    positive are evaluated, with one node more on each side; consecutive
    bands share a node row, which each evaluates over its own columns.  A
    band keeps only its segments' edge ids and the two node values of each
    crossing edge.

    A node is inside when its value is negative, so a node exactly at zero
    is outside, and a crossing edge always has one negative node.  Each
    mixed cell's corner signs index a 16-case table of segments between its
    edges (Lorensen and Cline 1987, in two dimensions).  Cells whose four
    corners alternate in sign are split according to the field sign at the
    cell center.  Crossing points interpolate linearly along their edge, so
    the crossing of an edge with a zero node is that node, which the field
    puts on the level set.  Every edge has an integer id, shared by the at
    most two segment ends on it, and the segments are joined at shared
    edges in the order cells are scanned, row by row.

    When every frame node is positive, as grid_field ensures, every polyline
    closes.  A grid with negative frame nodes may give open polylines, which
    end where they meet the frame.
    """
    nx, ny = grid.nx, grid.ny
    window = grid.window(0, ny)
    if window is None:
        return Contour(polylines=(), closed_flags=())
    k0, k1, i0, i1 = window
    j0, j1 = max(k0 - 1, 0), min(k1 + 1, ny)
    band = max(1, _FIELD_NODES // (i1 - i0 + 2))
    parts = [_band_segments(grid, j, min(j + band, j1 - 1) + 1) for j in range(j0, j1 - 1, band)]
    keys = np.concatenate([part[0] for part in parts])
    if keys.size == 0:
        return Contour(polylines=(), closed_flags=())

    # Crossing points of every segment end, with t = v0 / (v0 - v1)
    # measured from the edge's lower node.
    ends = np.concatenate([part[1] for part in parts])
    if not np.isfinite(ends).all():
        raise GeometryError("grid values must be finite")
    v0, v1 = ends[:, 0], ends[:, 1]
    horizontal = nx * ny
    vertical = keys >= horizontal
    local = keys - np.where(vertical, horizontal, 0)
    t = v0 / (v0 - v1)
    points = np.empty((keys.size, 2))
    points[:, 0] = grid.origin.x1 + (local % nx + np.where(vertical, 0.0, t)) * grid.spacing
    points[:, 1] = grid.origin.x2 + (local // nx + np.where(vertical, t, 0.0)) * grid.spacing

    # Position k of keys holds one end of segment k // 2, whose other end is
    # position k ^ 1.  An edge is shared by at most two cells and appears
    # once in each, so every id occurs once or twice, and twin[k] is the
    # other position of k's id, or -1.
    order = np.argsort(keys)
    same = keys[order[1:]] == keys[order[:-1]]
    twin = np.full(keys.size, -1, dtype=np.intp)
    twin[order[:-1][same]] = order[1:][same]
    twin[order[1:][same]] = order[:-1][same]

    # Walk from each untaken position in increasing order, the order of the
    # edges' first occurrences, across its segment and on through the twin,
    # until the walk returns to its start's edge, reaches an edge with one
    # segment end, or meets an edge an earlier walk took.  taken has one
    # byte more than keys, which absorbs the marks of missing twins (-1).
    twins = twin.tolist()
    taken = bytearray(keys.size + 1)
    polylines: list[np.ndarray] = []
    closed_flags: list[bool] = []
    for start in range(keys.size):
        if taken[start]:
            continue
        path = [start]
        taken[start] = taken[twins[start]] = 1
        pos = start ^ 1
        closed = False
        while True:
            if pos == twins[start]:
                closed = True
                break
            if taken[pos]:
                break
            path.append(pos)
            taken[pos] = taken[twins[pos]] = 1
            if twins[pos] < 0:
                break
            pos = twins[pos] ^ 1
        if closed:
            path.append(start)
        polylines.append(points[path])
        closed_flags.append(closed)
    return Contour(polylines=tuple(polylines), closed_flags=tuple(closed_flags))


def _as_array(points: Sequence) -> np.ndarray:
    try:
        if not isinstance(points, np.ndarray):
            points = [(pt.x1, pt.x2) if isinstance(pt, Point) else tuple(pt) for pt in points]
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise GeometryError("polyline must be a nonempty sequence of planar points")
    if not np.isfinite(arr).all():
        raise GeometryError("polyline coordinates must be finite")
    return arr


# Vertex-segment pairs evaluated at once.  Every working array of the
# Hausdorff search spans at most this many pairs or vertex-to-block box
# distances (or one vertex's row of boxes, if that is longer), so one
# float64 value per pair takes 128 KiB and the working set stays in cache.
_PAIR_CHUNK = 1 << 14


def _pair_distance(px, py, ax, ay, ux, uy) -> np.ndarray:
    """Taxicab distance from (px, py) to the segment a + t*u, t in [0, 1].

    The distance along a segment is piecewise linear in t; its minimum sits
    at an endpoint or where one coordinate difference vanishes.  Arguments
    broadcast elementwise to one shape for both coordinates, and each pair
    gets the same operations whatever the shapes, so a pair's value never
    depends on how pairs are grouped.
    The endpoints t = 0 and t = 1 broadcast as scalars, and tx, ty and the
    running minimum are updated in place, so besides its arguments a call
    holds at most six pair-sized float64 arrays at once: tx, ty, the
    minimum, one candidate and two terms of the candidate's expression
    (tracemalloc reads 6.5 arrays' worth for 2**14 pairs).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tx = np.nan_to_num((px - ax) / ux, copy=False)
        ty = np.nan_to_num((py - ay) / uy, copy=False)
    np.clip(tx, 0.0, 1.0, out=tx)
    np.clip(ty, 0.0, 1.0, out=ty)
    best = None
    for t in (0.0, 1.0, tx, ty):
        dist = np.abs(px - (ax + t * ux))
        dist += np.abs(py - (ay + t * uy))
        best = dist if best is None else np.minimum(best, dist, out=best)
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
    # seg_lo[k, j] and seg_hi[k, j] bound segment j of block k: its box
    # spans a and the rounded a + u, the two points that t = 0 and t = 1
    # reach in _pair_distance, and every rounded a + t*u lies between them,
    # because rounding is monotone.  A block's box spans its segments'
    # boxes, so a computed pair distance is never below its block's computed
    # box distance.  The slack of a few ulps of the largest coordinate is a
    # margin on top of that bound.
    ends = seg_a + seg_u
    seg_lo = np.minimum(seg_a, ends)[block_segs]
    seg_hi = np.maximum(seg_a, ends)[block_segs]
    box_lo = seg_lo.min(axis=1)
    box_hi = seg_hi.max(axis=1)
    scale = max(float(np.abs(points).max()), float(np.abs(polyline).max()))
    slack = 4 * np.finfo(float).eps * scale

    def box_distance(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # L1 distance from pts[k] to the boxes lo[j] .. hi[j], or to the
        # boxes lo[k, j] .. hi[k, j] of its own row: a lower bound on its
        # distance to every segment inside.
        px, py = pts[:, 0:1], pts[:, 1:2]
        gap_x = np.maximum(lo[..., 0] - px, px - hi[..., 0])
        gap_y = np.maximum(lo[..., 1] - py, py - hi[..., 1])
        return np.maximum(gap_x, 0.0) + np.maximum(gap_y, 0.0)

    def block_minimum(pts: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        # Exact min distance from pts[k] to the segments of blocks[k].
        segs = block_segs[blocks]
        a = seg_a[segs]
        u = seg_u[segs]
        dist = _pair_distance(pts[:, 0:1], pts[:, 1:2], a[..., 0], a[..., 1], u[..., 0], u[..., 1])
        return dist.min(axis=1)

    # Upper bound per point: its distance to one segment, the one whose box
    # is nearest within the block whose box is nearest.  The distance to any
    # segment bounds the minimum from above, so one pair per point is
    # enough, however loose; the visit phase makes every minimum it uses
    # exact.
    chunk = max(1, _PAIR_CHUNK // max(nblocks, size))
    upper = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], chunk):
        pts = points[lo : lo + chunk]
        block = box_distance(pts, box_lo, box_hi).argmin(axis=1)
        nearest = box_distance(pts, seg_lo[block], seg_hi[block]).argmin(axis=1)
        seg = block_segs[block, nearest]
        a = seg_a[seg]
        u = seg_u[seg]
        upper[lo : lo + chunk] = _pair_distance(pts[:, 0], pts[:, 1], a[:, 0], a[:, 1], u[:, 0], u[:, 1])

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
    step = max(1, _PAIR_CHUNK // size)
    while pos < order.size and sorted_upper[pos] > worst:
        stop = min(pos + min(batch, max_batch), order.size)
        idx = order[pos:stop]
        pts = points[idx]
        near = box_distance(pts, box_lo, box_hi) <= (upper[idx] + slack)[:, None]
        owner, blocks = np.nonzero(near)
        best = upper[idx].copy()
        # A point near many blocks can exceed the budget alone, so the
        # (point, block) pairs go in slices of at most _PAIR_CHUNK pairs.
        for lo in range(0, owner.size, step):
            sel = owner[lo : lo + step]
            np.minimum.at(best, sel, block_minimum(pts[sel], blocks[lo : lo + step]))
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
    Each vertex first gets an upper bound from one pair: its distance to
    the segment whose own bounding box is nearest, within the block whose
    box is nearest.  Any segment gives a valid bound, so a loose one costs
    time, never exactness.  Vertices are then visited by descending upper
    bound, and the search stops once the next bound cannot exceed the
    running maximum (Taha and Hanbury, IEEE TPAMI 2015).  A visited vertex is
    measured against every block whose box distance is within its upper
    bound plus a slack of a few ulps of the largest coordinate magnitude.
    Rounding cannot prune the segment that gives the computed minimum: a
    box spans the rounded segment endpoints, every rounded point a + t*u
    lies between them because rounding is monotone, so each computed pair
    distance is at least its block's computed box distance, and the slack
    is a margin on top.  Every evaluated pair uses the same floating-point
    operations as an all-pairs sweep, whatever tile of _PAIR_CHUNK pairs
    it falls in, and min and max are exact, so the result is bit-identical
    to that sweep.
    """
    pa = _as_array(a)
    pb = _as_array(b)
    return max(_directed_hausdorff(pa, pb), _directed_hausdorff(pb, pa))
