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

from .characterization import grid_points
from .core import CassiniSpec, GeometryError, Point, distance_product

# Values in extract_contour's work buffer, 1 MiB of float64.  A kernel call
# fills at most a quarter of it, since the call makes two temporaries of its
# own size.  The buffer keeps the whole 1 MiB because freeing a block that
# large lifts glibc's dynamic trim threshold: with a 256 KiB buffer, a later
# `verify` pass ran about 12% slower, most of it in the identity campaign.
_FIELD_NODES = 1 << 17


class BoxTooSmall(GeometryError):
    """The sampling box fails to strictly contain the filled set."""


@dataclass(frozen=True, eq=False)
class ScalarGrid:
    """A uniform grid of f(x) - r^2 samples, evaluated on demand.

    Node (i, j) lies at (xs[i], ys[j]).  origin is node (0, 0) and spacing
    the step from xs[0] to xs[1]; extract_contour places crossings and
    saddle centers with them.  No node values are stored: nodes() evaluates
    any set of nodes with the product kernel, and tile_signs() bounds the
    nodes of each square tile of cells, so no caller needs the whole field.
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

    def nodes(self, i, j, out: Optional[np.ndarray] = None) -> np.ndarray:
        """f - r^2 at the nodes (i, j) of integer index arrays that broadcast
        together, written into out when it is given."""
        spec = self.spec
        return np.subtract(distance_product(spec.p, spec.q, self.xs[i], self.ys[j]), spec.r * spec.r, out=out)

    def tile_signs(self, side: int) -> np.ndarray:
        """Per tile of side x side cells, at [j // side, i // side] for its
        cells (i, j): 1 if a bound proves that none of its nodes (the cells'
        corners) is negative, -1 if it proves that all are, else 0.

        A node's value is fl(fl(X_p + Y_p) * fl(X_q + Y_q)) - fl(r^2), with
        offsets X_a = fl|x1 - a1| and Y_a = fl|x2 - a2|.  Rounding is
        monotone, so the least offsets over a tile's node columns and rows
        give a product no larger than any node's, and the largest offsets
        one no smaller.  The bound reads only the field's definition.
        """
        spec = self.spec

        def spans(axis: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
            # Least and largest offset |axis - a| over each tile's nodes.
            offset = abs(axis - a)
            starts = np.arange(0, axis.size - 1, side)
            lo, hi = np.minimum(offset[:-1], offset[1:]), np.maximum(offset[:-1], offset[1:])
            return np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)

        (xp0, xp1), (xq0, xq1) = spans(self.xs, spec.p.x1), spans(self.xs, spec.q.x1)
        (yp0, yp1), (yq0, yq1) = spans(self.ys, spec.p.x2), spans(self.ys, spec.q.x2)
        r2 = spec.r * spec.r
        outside = (xp0 + yp0[:, None]) * (xq0 + yq0[:, None]) >= r2
        return outside.view(np.int8) - ((xp1 + yp1[:, None]) * (xq1 + yq1[:, None]) < r2)


def grid_field(spec: CassiniSpec, n: int = 256) -> ScalarGrid:
    """The n x n grid of f - r^2 on grid_points' axes over the sampling box.

    Only the four frame lines are evaluated here; extract_contour samples
    the rest, in the tiles whose bound leaves the sign open.  The sampling
    box strictly contains the curve, so every frame node is positive and
    every contour is a set of closed loops; BoxTooSmall is raised if any
    frame node fails that.
    """
    if n < 16:
        raise GeometryError(f"grid resolution must be at least 16, got {n}")
    xs, ys = grid_points(spec, n)
    grid = ScalarGrid(spec, xs, ys.ravel())
    ends, every = np.array([0, n - 1]), np.arange(n)
    frame = (grid.nodes(every, ends[:, None]), grid.nodes(ends, every[:, None]))
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
    """Extracted level-set loops; each polyline repeats its first point."""

    polylines: tuple[np.ndarray, ...]


def component_count(contour: Contour) -> int:
    """Number of closed loops."""
    return len(contour.polylines)


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


def _mixed_cells(grid: ScalarGrid) -> tuple[np.ndarray, np.ndarray]:
    """The mixed cells of the grid in row-major order: their ids j*nx + i,
    and the values at their corners a, b, c, d, the nodes (i, j), (i+1, j),
    (i+1, j+1) and (i, j+1).

    Only the tiles of 16 x 16 cells whose bound (grid.tile_signs) leaves the
    sign open can hold a mixed cell.  Their nodes are evaluated in kernel
    calls of at most _FIELD_NODES // 4 nodes into one work buffer, and one
    argsort puts the cells of all calls in row-major order.
    """
    nx, ny = grid.nx, grid.ny
    # Node k along a tile's side is node side*u + k, clamped to the last
    # node.  A cell that clamping adds has only frame nodes, so it is mixed
    # only beside a negative frame node, which extract_contour rejects.
    side = 16
    tile_v, tile_u = np.nonzero(grid.tile_signs(side) == 0)
    span = np.arange(side + 1)
    per_call = _FIELD_NODES // 4 // span.size**2
    work = np.empty(_FIELD_NODES)
    cells, corners = [np.empty(0, dtype=np.intp)], [np.empty((0, 4))]
    for lo in range(0, tile_u.size, per_call):
        u, v = tile_u[lo : lo + per_call], tile_v[lo : lo + per_call]
        cols = np.minimum(u[:, None] * side + span, nx - 1)[:, None, :]
        rows = np.minimum(v[:, None] * side + span, ny - 1)[:, :, None]
        vals = grid.nodes(cols, rows, out=work[: u.size * span.size**2].reshape(-1, span.size, span.size))
        neg = (vals < 0).view(np.uint8)
        case = neg[:, :-1, :-1] | neg[:, :-1, 1:] << 1 | neg[:, 1:, 1:] << 2 | neg[:, 1:, :-1] << 3
        tile, dj, di = np.unravel_index(np.flatnonzero((case != 0) & (case != 15)), case.shape)
        i, j = u[tile] * side + di, v[tile] * side + dj
        base = np.ravel_multi_index((tile, dj, di), vals.shape)[:, None]
        corners.append(vals.reshape(-1)[base + [0, 1, side + 2, side + 1]])  # a, b, c, d
        cells.append(j * nx + i)
    cell = np.concatenate(cells)
    order = np.argsort(cell)
    return cell[order], np.concatenate(corners)[order]


def extract_contour(grid: ScalarGrid) -> Contour:
    """Marching-squares zero level set of the grid, stitched into polylines.

    Only the tiles of cells that a bound cannot decide are sampled
    (_mixed_cells), so the work grows with the curve, not with the box; the
    mixed cells come in row-major order, as a scan of the whole grid gives.

    A node is inside when its value is negative, so a node exactly at zero
    is outside, and a crossing edge always has one negative node.  Each
    mixed cell's corner signs index a 16-case table of segments between its
    edges (Lorensen and Cline 1987, in two dimensions).  Cells whose four
    corners alternate in sign are split according to the field sign at the
    cell center.  Crossing points interpolate linearly along their edge, so
    the crossing of an edge with a zero node is that node, which the field
    puts on the level set.  Every edge has an integer id, shared by the at
    most two segment ends on it, and the segments are joined at shared
    edges in the order cells are scanned, row by row; a vertex equal to its
    predecessor, as at a zero node between two crossing edges, is dropped.

    Every frame node of grid_field's grids is positive, so every crossing
    edge is interior and shared by two mixed cells, and every polyline is a
    closed loop.  A grid whose level set reaches its frame raises
    GeometryError.
    """
    nx, ny = grid.nx, grid.ny
    cell, corner = _mixed_cells(grid)
    case = (corner < 0) @ np.array([1, 2, 4, 8], dtype=np.intp)
    saddle = np.flatnonzero((case == 5) | (case == 10))
    if saddle.size:
        inside = _saddle_inside(grid, cell[saddle] % nx, cell[saddle] // nx)
        case[saddle[inside]] = 15 - case[saddle[inside]]

    # Edge ids: j*nx + i for the horizontal edge from node (i, j), and
    # nx*ny + j*nx + i for the vertical one.  Each segment is a pair of ids,
    # in cell order and, within a saddle cell, in table order.  An edge's
    # values are the corners at its lower and upper node.
    horizontal = nx * ny
    edge_offset = np.array([0, horizontal + 1, nx, horizontal], dtype=np.intp)  # S, E, N, W
    seg_edges = _CASE_SEGMENTS[case]
    present = seg_edges[:, :, 0] >= 0
    seg_cell = np.nonzero(present)[0]
    edges = seg_edges[present]
    keys = (cell[seg_cell, None] + edge_offset[edges]).ravel()
    ends = corner[seg_cell[:, None, None], np.array([[0, 1], [1, 2], [3, 2], [0, 3]])[edges]].reshape(-1, 2)

    # Crossing points of every segment end, with t = v0 / (v0 - v1)
    # measured from the edge's lower node.
    if not np.isfinite(ends).all():
        raise GeometryError("grid values must be finite")
    v0, v1 = ends[:, 0], ends[:, 1]
    vertical = keys >= horizontal
    local = keys - np.where(vertical, horizontal, 0)
    t = v0 / (v0 - v1)
    points = np.empty((keys.size, 2))
    points[:, 0] = grid.origin.x1 + (local % nx + np.where(vertical, 0.0, t)) * grid.spacing
    points[:, 1] = grid.origin.x2 + (local // nx + np.where(vertical, t, 0.0)) * grid.spacing

    # Position k of keys holds one end of segment k // 2, whose other end is
    # position k ^ 1.  An interior edge appears once in each of its two
    # cells, and twin[k] is the other position of k's id.  A level set that
    # reaches the frame leaves an id once (twin -1) or, in cells added past
    # the frame, thrice, so twin is no involution and a walk may not close.
    order = np.argsort(keys)
    same = keys[order[1:]] == keys[order[:-1]]
    twin = np.full(keys.size, -1, dtype=np.intp)
    twin[order[:-1][same]] = order[1:][same]
    twin[order[1:][same]] = order[:-1][same]
    if (twin[twin] != np.arange(keys.size)).any():
        raise GeometryError("the level set reaches the grid frame")

    # Walk from each untaken position in increasing order, the order of the
    # edges' first occurrences: across its segment, then from each position
    # k on to succ[k], the far end of the segment through k's twin, back to
    # the start's edge.  twin is an involution without fixed points, and so
    # is k ^ 1, so succ is a permutation and every walk closes.  The walk
    # only steps; each finished loop then drops, in NumPy, the positions
    # reached across a zero-length segment, which would repeat their
    # predecessor's point, and marks the loop's positions and their partners
    # as taken.
    succ = (twin ^ 1).tolist()
    zero_length = (points[0::2] == points[1::2]).all(axis=1)
    taken = np.zeros(keys.size, dtype=bool)
    polylines: list[np.ndarray] = []
    start = 0
    while start < keys.size:
        first = start ^ 1
        loop = [first]
        pos = succ[first]
        while pos != first:
            loop.append(pos)
            pos = succ[pos]
        path = np.array(loop)
        taken[path] = taken[path ^ 1] = True
        keep = ~zero_length[path >> 1]
        # The loop ends at twin[start], on the start's edge: the polyline
        # closes with the start itself.
        path[-1] = start
        polylines.append(points[np.concatenate(([start], path[keep]))])
        rest = np.flatnonzero(~taken[start:])
        start += int(rest[0]) if rest.size else keys.size
    return Contour(polylines=tuple(polylines))


def _as_array(points: Sequence) -> np.ndarray:
    try:
        if not isinstance(points, np.ndarray):
            # A Point iterates over its two coordinates.
            points = [tuple(pt) for pt in points]
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


def _box_distance(px, py, lo_x, lo_y, hi_x, hi_y) -> np.ndarray:
    """L1 distance from (px, py) to the boxes lo .. hi, given per coordinate:
    a lower bound on the distance to every segment inside.  Arguments
    broadcast; the gaps are computed in place, in two result-sized arrays
    and one temporary."""
    gap = lo_x - px
    np.maximum(gap, px - hi_x, out=gap)
    np.maximum(gap, 0.0, out=gap)
    gap_y = lo_y - py
    np.maximum(gap_y, py - hi_y, out=gap_y)
    np.maximum(gap_y, 0.0, out=gap_y)
    gap += gap_y
    return gap


def _directed_hausdorff(points: np.ndarray, polyline: np.ndarray) -> float:
    # Max over points of the min taxicab distance to the polyline's segments.
    if polyline.shape[0] == 1:
        seg_a = polyline
        seg_u = np.zeros_like(polyline)
    else:
        seg_a = polyline[:-1]
        with np.errstate(over="ignore"):
            seg_u = polyline[1:] - polyline[:-1]
        # An infinite difference makes 0 * inf a NaN pair distance, and a NaN
        # bound would stop the search before it visits any vertex.
        if not np.isfinite(seg_u).all():
            raise GeometryError("polyline segments must have finite coordinate differences")
    m = seg_a.shape[0]
    n = points.shape[0]
    # Blocks of consecutive segments with their bounding boxes.  Block k
    # holds segments k*size .. k*size + size - 1; the last block repeats the
    # final segment to fill up, which cannot change a minimum.
    size = max(1, math.isqrt(m))
    nblocks = -(-m // size)
    block_segs = np.minimum(np.arange(nblocks * size).reshape(nblocks, size), m - 1)
    # A segment's box spans a and the rounded a + u, the two points that
    # t = 0 and t = 1 reach in _pair_distance, and every rounded a + t*u
    # lies between them, because rounding is monotone.  A block's box spans
    # its segments' boxes, so a computed pair distance is never below its
    # block's computed box distance.  The slack of a few ulps of the largest
    # coordinate is a margin on top of that bound.  Every coordinate is a
    # contiguous column: seg_box[c] is the lower x, lower y, upper x and
    # upper y of each segment's box for c = 0 .. 3, block_seg_box[c] the
    # same per block and slot, and block_box[c] per block.
    ends = seg_a + seg_u
    seg_box = np.concatenate([np.minimum(seg_a, ends).T, np.maximum(seg_a, ends).T])
    block_seg_box = seg_box[:, block_segs]
    block_box = np.concatenate([block_seg_box[:2].min(axis=2), block_seg_box[2:].max(axis=2)])
    ax, ay, ux, uy = np.concatenate([seg_a.T, seg_u.T])
    px, py = points.T.copy()
    scale = max(float(np.abs(points).max()), float(np.abs(polyline).max()))
    slack = 4 * np.finfo(float).eps * scale

    # Upper bound per point: its distance to one segment.  The distance to
    # any segment bounds the minimum from above, however loose; the visit
    # phase makes every minimum it uses exact.  Every s-th point is an
    # anchor, which takes the segment whose box is nearest within the block
    # whose box is nearest.  Consecutive points lie near consecutive
    # segments, so each other point takes the nearest box of four: its
    # anchor's segment, that segment's two neighbours and the next anchor's
    # segment.  With s = 1 every point is an anchor.
    s = max(1, n // m)
    anchor_seg = np.empty(-(-n // s), dtype=np.intp)
    chunk = max(1, _PAIR_CHUNK // max(nblocks, size))
    for lo in range(0, anchor_seg.size, chunk):
        qx = px[lo * s : (lo + chunk) * s : s, None]
        qy = py[lo * s : (lo + chunk) * s : s, None]
        block = _box_distance(qx, qy, *block_box).argmin(axis=1)
        nearest = _box_distance(qx, qy, *block_seg_box[:, block]).argmin(axis=1)
        anchor_seg[lo : lo + chunk] = block_segs[block, nearest]
    seg = np.empty(n, dtype=np.intp)
    seg[::s] = anchor_seg
    others = np.flatnonzero(np.arange(n) % s)
    chunk = max(1, _PAIR_CHUNK // 4)
    for lo in range(0, others.size, chunk):
        idx = others[lo : lo + chunk]
        anchor = idx // s
        here = anchor_seg[anchor]
        following = anchor_seg[np.minimum(anchor + 1, anchor_seg.size - 1)]
        cand = np.stack([here, np.maximum(here - 1, 0), np.minimum(here + 1, m - 1), following], axis=1)
        pick = _box_distance(px[idx, None], py[idx, None], *seg_box[:, cand]).argmin(axis=1)
        seg[idx] = np.take_along_axis(cand, pick[:, None], axis=1)[:, 0]
    upper = np.empty(n)
    for lo in range(0, n, _PAIR_CHUNK):
        sg = seg[lo : lo + _PAIR_CHUNK]
        upper[lo : lo + _PAIR_CHUNK] = _pair_distance(
            px[lo : lo + _PAIR_CHUNK], py[lo : lo + _PAIR_CHUNK], ax[sg], ay[sg], ux[sg], uy[sg]
        )

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
        qx, qy = px[idx, None], py[idx, None]
        near = _box_distance(qx, qy, *block_box) <= (upper[idx] + slack)[:, None]
        owner, blocks = np.nonzero(near)
        best = upper[idx].copy()
        # A point near many blocks can exceed the budget alone, so the
        # (point, block) pairs go in slices of at most _PAIR_CHUNK pairs.
        for lo in range(0, owner.size, step):
            sel = owner[lo : lo + step]
            segs = block_segs[blocks[lo : lo + step]]
            dist = _pair_distance(qx[sel], qy[sel], ax[segs], ay[segs], ux[segs], uy[segs])
            np.minimum.at(best, sel, dist.min(axis=1))
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
    other.  A segment whose coordinate difference overflows raises
    GeometryError.

    The search is exact, not approximate.  Segments are grouped into blocks
    of consecutive segments; the L1 distance from a vertex to a block's
    bounding box bounds its distance to every segment inside from below.
    Each vertex first gets an upper bound from one pair, its distance to
    one segment.  With N vertices against M segments, every s-th vertex,
    s = max(1, N // M), is an anchor and takes the segment whose own
    bounding box is nearest, within the block whose box is nearest.  Every
    other vertex takes the segment with the nearest box among four: its
    anchor's segment, that segment's two neighbours and the next anchor's
    segment.  Any segment gives a valid bound, so a loose one costs time,
    never exactness.  Vertices are then visited by descending upper
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
