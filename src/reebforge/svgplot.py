"""Deterministic SVG rendering of arrangements and their Reeb graphs.

Pure string assembly with fixed six-decimal formatting, so identical inputs
produce identical bytes.  Removed circles draw solid, handle circles dashed,
tangency feet as dots, and the swept graph sits in an inset: vertices on a
circle at their exact angles (circle mode) or on a horizontal axis at their
abscissae (line mode), parallel edges fanned apart.
"""

from __future__ import annotations

import math
from typing import Optional

from .layout import CircleArrangement, tangency_events
from .sweep import ReebGraphResult

TAU = 2.0 * math.pi

_STYLE = {
    "region": "#888888",
    "ray": "#bbbbbb",
    "removed": "#1f5fbf",
    "handle": "#bf4f1f",
    "foot": "#222222",
    "graph_edge": "#333333",
    "graph_vertex": "#111111",
}


def _fmt(x: float) -> str:
    s = "%.6f" % x
    return "0.000000" if s == "-0.000000" else s


def _circle(cx: float, cy: float, r: float, stroke: str, dashed: bool = False,
            width: float = 1.5) -> str:
    dash = ' stroke-dasharray="4 3"' if dashed else ""
    return ('<circle cx="%s" cy="%s" r="%s" fill="none" stroke="%s" '
            'stroke-width="%s"%s/>'
            % (_fmt(cx), _fmt(cy), _fmt(r), stroke, _fmt(width), dash))


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str,
          width: float = 1.0) -> str:
    return ('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" '
            'stroke-width="%s"/>'
            % (_fmt(x1), _fmt(y1), _fmt(x2), _fmt(y2), stroke, _fmt(width)))


def _dot(cx: float, cy: float, r: float, fill: str) -> str:
    return ('<circle cx="%s" cy="%s" r="%s" fill="%s"/>'
            % (_fmt(cx), _fmt(cy), _fmt(r), fill))


def _text(x: float, y: float, content: str, size: float) -> str:
    return ('<text x="%s" y="%s" font-size="%s" font-family="monospace" '
            'fill="#444444">%s</text>'
            % (_fmt(x), _fmt(y), _fmt(size), content))


def _point(turn: float, radius: float) -> tuple[float, float]:
    # SVG y grows downward; negate to keep anticlockwise angles anticlockwise
    return radius * math.cos(TAU * turn), -radius * math.sin(TAU * turn)


def _graph_inset(result: ReebGraphResult, cx: float, cy: float,
                 radius: float) -> list[str]:
    parts = ['<g transform="translate(%s %s)">' % (_fmt(cx), _fmt(cy))]
    parts.append(_circle(0.0, 0.0, radius, "#dddddd", width=0.75))
    if result.mode == "circle":
        spots = [_point(float(v.angle.turns), radius) for v in result.vertices]
    else:
        xs = [float(v.abscissa) for v in result.vertices]
        lo, hi = min(xs), max(xs)
        span = (hi - lo) or 1.0
        spots = [(-radius + 2 * radius * (x - lo) / span, 0.0) for x in xs]
        parts[-1] = _line(-radius, 0.0, radius, 0.0, "#dddddd", 0.75)
    fan: dict[tuple[int, int], int] = {}
    for e in result.edges:
        fan[(e.source, e.target)] = fan.get((e.source, e.target), 0) + 1
    seen: dict[tuple[int, int], int] = {}
    for e in result.edges:
        key = (e.source, e.target)
        i = seen.get(key, 0)
        seen[key] = i + 1
        x1, y1 = spots[e.source]
        x2, y2 = spots[e.target]
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        nx, ny = -(y2 - y1), (x2 - x1)
        norm = math.hypot(nx, ny) or 1.0
        offset = (i - (fan[key] - 1) / 2) * radius * 0.28
        qx = mx + nx / norm * offset
        qy = my + ny / norm * offset
        parts.append('<path d="M %s %s Q %s %s %s %s" fill="none" '
                     'stroke="%s" stroke-width="1.0"/>'
                     % (_fmt(x1), _fmt(y1), _fmt(qx), _fmt(qy),
                        _fmt(x2), _fmt(y2), _STYLE["graph_edge"]))
    for i, (x, y) in enumerate(spots):
        parts.append(_dot(x, y, 2.5, _STYLE["graph_vertex"]))
        parts.append(_text(x + 4.0, y - 4.0,
                           result.vertices[i].position_label(), 8.0))
    parts.append("</g>")
    return parts


def arrangement_svg(arr: CircleArrangement,
                    result: Optional[ReebGraphResult] = None,
                    size: int = 640) -> str:
    """Render the arrangement, with the swept graph inset when given."""
    if arr.mode == "circle":
        return _circle_svg(arr, result, size)
    return _line_svg(arr, result, size)


def _circle_svg(arr, result, size) -> str:
    outer = float(arr.outer_radius)
    scale = size * 0.42 / outer
    half = size / 2.0
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
             'viewBox="0 0 %d %d">' % (size, size, size, size)]
    parts.append('<g transform="translate(%s %s)">' % (_fmt(half), _fmt(half)))
    parts.append(_circle(0.0, 0.0, outer * scale, _STYLE["region"]))
    parts.append(_circle(0.0, 0.0, float(arr.inner_radius) * scale,
                         _STYLE["region"]))
    for j in range(1, arr.k + 1):
        t = float(arr.vertex_turn(j))
        x1, y1 = _point(t, float(arr.inner_radius) * scale)
        x2, y2 = _point(t, outer * scale)
        parts.append(_line(x1, y1, x2, y2, _STYLE["ray"]))
        lx, ly = _point(t, (outer + 0.08) * scale)
        parts.append(_text(lx, ly, str(j), 10.0))
    for c in arr.circles:
        bis = float(arr.bisector_turn(c.sector))
        d = float(c.d)
        cx, cy = _point(bis, d * scale)
        r_lo, r_hi = arr.radius_bounds(c)
        r = (float(r_lo) + float(r_hi)) / 2 * scale
        parts.append(_circle(cx, cy, r, _STYLE[c.role.kind],
                             dashed=(c.role.kind == "handle"), width=1.2))
    for e in tangency_events(arr):
        foot = (float(e.foot_lo) + float(e.foot_hi)) / 2
        x, y = _point(float(e.turn.turns), foot * scale)
        parts.append(_dot(x, y, 1.8, _STYLE["foot"]))
    parts.append("</g>")
    if result is not None:
        parts.extend(_graph_inset(result, size * 0.85, size * 0.15,
                                  size * 0.10))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _line_svg(arr, result, size) -> str:
    ax, ay = float(arr.ellipse_axes[0]), float(arr.ellipse_axes[1])
    scale = size * 0.42 / max(ax, ay)
    half = size / 2.0
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
             'viewBox="0 0 %d %d">' % (size, size, size, size)]
    parts.append('<g transform="translate(%s %s)">' % (_fmt(half), _fmt(half)))
    parts.append('<ellipse cx="0.000000" cy="0.000000" rx="%s" ry="%s" '
                 'fill="none" stroke="%s" stroke-width="1.500000"/>'
                 % (_fmt(ax * scale), _fmt(ay * scale), _STYLE["region"]))
    for i, wall in enumerate(arr.abscissae):
        w = float(wall)
        reach = ay * math.sqrt(max(0.0, 1.0 - (w / ax) ** 2)) if abs(w) < ax else 0.0
        top = max(reach * scale, 6.0)
        parts.append(_line(w * scale, -top, w * scale, top, _STYLE["ray"]))
        parts.append(_text(w * scale + 2.0, top + 10.0, str(i + 1), 10.0))
    for c in arr.circles:
        cx, cy = float(c.center[0]), float(c.center[1])
        parts.append(_circle(cx * scale, -cy * scale, float(c.radius) * scale,
                             _STYLE[c.role.kind], width=1.2))
    for e in tangency_events(arr):
        c = arr.circles[e.circle_index]
        parts.append(_dot(float(e.foot_lo) * scale, -float(c.center[1]) * scale,
                          1.8, _STYLE["foot"]))
    parts.append("</g>")
    if result is not None:
        parts.extend(_graph_inset(result, size * 0.85, size * 0.12,
                                  size * 0.10))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
