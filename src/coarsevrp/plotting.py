"""Standalone SVG drawings of solution documents. No plotting deps."""

from __future__ import annotations

import math

from .instances import DocumentError

_CANVAS_W = 820
_CANVAS_H = 640
_MARGIN = 40.0
_LEGEND_W = 230


def _coords(doc):
    nodes = doc.get("nodes")
    if not isinstance(nodes, dict) or not nodes:
        raise DocumentError("document has no 'nodes' coordinate block to plot")
    try:
        coords = {int(k): (float(v["x"]), float(v["y"])) for k, v in nodes.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad node coordinates: {exc}") from exc
    for nid, xy in coords.items():
        if not all(map(math.isfinite, xy)):
            raise DocumentError(f"node {nid} has a non-finite coordinate")
    return coords


def _route_distance(stops, coords):
    d = 0.0
    for a, b in zip(stops, stops[1:]):
        (x1, y1), (x2, y2) = coords[a], coords[b]
        d += math.hypot(x2 - x1, y2 - y1)
    return d


def _xml_text(value) -> str:
    """`value` as character data: xml.sax.saxutils.escape's three
    replacements, without the urllib.request that importing it loads into
    every command."""
    return str(value).replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _color(k: int) -> str:
    return f"hsl({(k * 137.508) % 360:.1f}, 65%, 42%)"


def render_solution_svg(doc: dict) -> str:
    """Draw depot, customers, and one colored polyline per route.

    Instance coordinates are kept verbatim inside a single <g> whose
    transform (translate + y-flipping scale) maps them onto the canvas,
    so the markup preserves the raw geometry.
    """
    coords = _coords(doc)
    routes = [[int(s["node_id"]) for s in r["stops"]] for r in doc.get("routes", [])]
    for stops in routes:
        for s in stops:
            if s not in coords:
                raise DocumentError(f"route references node {s} with no coordinates")

    xs = [x for x, _ in coords.values()]
    ys = [y for _, y in coords.values()]
    min_x, max_x, min_y, max_y = min(xs), max(xs), min(ys), max(ys)
    span_x = max(max_x - min_x, 1e-9)
    span_y = max(max_y - min_y, 1e-9)
    draw_w = _CANVAS_W - 2 * _MARGIN
    draw_h = _CANVAS_H - 2 * _MARGIN - 20
    s = min(draw_w / span_x, draw_h / span_y)
    tx = _MARGIN - min_x * s
    ty = (_MARGIN + 20) + max_y * s

    height = max(_CANVAS_H, int(2 * _MARGIN + 20 + 16 * (len(routes) + 2)))
    width = _CANVAS_W + _LEGEND_W
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_MARGIN}" y="24" font-family="sans-serif" font-size="14">'
        f'{_xml_text(doc.get("instance", "instance"))} — {len(routes)} route(s)</text>',
        f'<g transform="translate({tx:.6f},{ty:.6f}) scale({s:.6f},{-s:.6f})" '
        f'stroke-linejoin="round" stroke-linecap="round">',
    ]
    for k, stops in enumerate(routes):
        pts = " ".join(f"{coords[n][0]},{coords[n][1]}" for n in stops)
        out.append(f'<polyline points="{pts}" fill="none" stroke="{_color(k)}" '
                   f'stroke-width="{1.6 / s:.6f}"/>')
    depot_id = 0
    r_pt = 2.2 / s
    for nid, (x, y) in sorted(coords.items()):
        if nid == depot_id:
            continue
        out.append(f'<circle cx="{x}" cy="{y}" r="{r_pt:.6f}" fill="#222"/>')
    if depot_id in coords:
        dx, dy = coords[depot_id]
        rd = 4.0 / s
        out.append(f'<rect x="{dx - rd}" y="{dy - rd}" width="{2 * rd}" height="{2 * rd}" '
                   f'fill="#d62728" stroke="black" stroke-width="{0.6 / s:.6f}"/>')
    out.append("</g>")

    out.append(f'<g font-family="sans-serif" font-size="12">')
    lx = _CANVAS_W + 10
    out.append(f'<text x="{lx}" y="{_MARGIN}" font-weight="bold">routes</text>')
    for k, stops in enumerate(routes):
        y = _MARGIN + 18 + k * 16
        dist = _route_distance(stops, coords)
        out.append(f'<line x1="{lx}" y1="{y - 4}" x2="{lx + 22}" y2="{y - 4}" '
                   f'stroke="{_color(k)}" stroke-width="3"/>')
        out.append(f'<text x="{lx + 30}" y="{y}">vehicle {k}: {dist:.1f}</text>')
    if not routes:
        out.append(f'<text x="{lx}" y="{_MARGIN + 18}">(no routes)</text>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
