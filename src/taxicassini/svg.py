"""Deterministic SVG rendering of Cassini curve instances.

Pure function of its inputs: fixed element order, fixed palette, and
6-decimal coordinate formatting, so identical calls produce identical
bytes.  Draws the analytic curves for one focus pair at one or more radius
values, the coordinate lines through the foci (dotted), the guide lines
through them (dashed), the foci themselves, and optionally the
marching-squares contour as an independent overlay.
"""

from __future__ import annotations

from typing import Sequence

from .cassini import build_curves, critical_radius, curve_polyline
from .core import CassiniSpec, GeometryError, Point, midpoint
from .oracle import extract_contour, grid_field

_CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_REGION_LINE = "#b8b8b8"
_GUIDE_LINE = "#8f8f8f"
_ORACLE_LINE = "#111111"
# Width and height of the image in pixels.
_SIZE = 640


def _fmt(value: float) -> str:
    # Six decimals, negative zero normalized, so equal values serialize identically.
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


class _Viewport:
    """World square centered at (cx, cy) mapped to the image's pixel box."""

    def __init__(self, cx: float, cy: float, half: float) -> None:
        self.cx = cx
        self.cy = cy
        self.half = half
        self.scale = _SIZE / (2.0 * half)

    def to_pixels(self, x: float, y: float) -> tuple[float, float]:
        px = (x - (self.cx - self.half)) * self.scale
        py = _SIZE - (y - (self.cy - self.half)) * self.scale
        return px, py


def _path_data(view: _Viewport, points: Sequence[tuple[float, float]], close: bool) -> str:
    parts = []
    for k, (x, y) in enumerate(points):
        px, py = view.to_pixels(x, y)
        parts.append(f"{'M' if k == 0 else 'L'} {_fmt(px)} {_fmt(py)}")
    if close:
        parts.append("Z")
    return " ".join(parts)


def _line(view: _Viewport, x0: float, y0: float, x1: float, y1: float, style: str) -> str:
    ax, ay = view.to_pixels(x0, y0)
    bx, by = view.to_pixels(x1, y1)
    return (
        f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" {style}/>'
    )


def render_svg(
    p: Point,
    q: Point,
    radii: Sequence[float],
    samples_per_piece: int = 64,
    overlay_oracle: bool = False,
    oracle_n: int = 256,
) -> bytes:
    """Render the curves K(p, q; r) for each r in radii into SVG bytes."""
    radii = list(radii)
    if not radii:
        raise GeometryError("need at least one radius value")
    if any(r <= 0 for r in radii):
        raise GeometryError("rendering needs positive radius values")

    # Validated before the viewport, so foci too large for the sums fail on
    # the spec's check, which names them, not on a midpoint that overflowed.
    specs = [CassiniSpec(p, q, float(r)) for r in radii]
    center = midpoint(p, q)
    cx, cy = center.x1, center.x2
    half = critical_radius(p, q) + max(radii) + 1.5
    view = _Viewport(cx, cy, half)
    west, east = cx - half, cx + half
    south, north = cy - half, cy + half

    lines: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
    ]

    region_style = f'stroke="{_REGION_LINE}" stroke-width="1" stroke-dasharray="2,4"'
    lines.append('<g id="region-lines">')
    for x0 in (p.x1, q.x1):
        lines.append(_line(view, x0, south, x0, north, region_style))
    for y0 in (p.x2, q.x2):
        lines.append(_line(view, west, y0, east, y0, region_style))
    lines.append("</g>")

    guide_style = f'stroke="{_GUIDE_LINE}" stroke-width="1" stroke-dasharray="8,4"'
    lines.append('<g id="guide-lines">')
    for focus in (p, q):
        # Slope +1 and slope -1 lines through the focus, spanning the box.
        lines.append(
            _line(view, west, focus.x2 + (west - focus.x1), east, focus.x2 + (east - focus.x1), guide_style)
        )
        lines.append(
            _line(view, west, focus.x2 - (west - focus.x1), east, focus.x2 - (east - focus.x1), guide_style)
        )
    lines.append("</g>")

    lines.append('<g id="curves" fill="none">')
    for idx, spec in enumerate(specs):
        color = _CURVE_COLORS[idx % len(_CURVE_COLORS)]
        for curve in build_curves(spec):
            ring = [(pt.x1, pt.x2) for pt in curve_polyline(curve, samples_per_piece)]
            data = _path_data(view, ring, close=True)
            lines.append(f'<path d="{data}" stroke="{color}" stroke-width="2"/>')
    lines.append("</g>")

    if overlay_oracle:
        lines.append('<g id="oracle" fill="none">')
        style = f'stroke="{_ORACLE_LINE}" stroke-width="1" stroke-dasharray="1,3"'
        for spec in specs:
            contour = extract_contour(grid_field(spec, n=oracle_n))
            for polyline in contour.polylines:
                data = _path_data(view, [(x, y) for x, y in polyline], close=False)
                lines.append(f'<path d="{data}" {style}/>')
        lines.append("</g>")

    lines.append('<g id="foci" fill="#000000">')
    for focus in (p, q):
        px, py = view.to_pixels(focus.x1, focus.x2)
        lines.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
