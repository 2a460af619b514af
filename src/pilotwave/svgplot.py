"""Hand-rolled SVG polyline plots — inspection aid, no plotting dependency."""

from __future__ import annotations

WIDTH, HEIGHT = 720, 460
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def escape(text: str) -> str:
    """Escape &, < and > for XML character data, as xml.sax.saxutils.escape
    does; importing xml.sax would pull in urllib, http, email and ssl."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _bounds(series):
    xs_min = min(min(xs) for xs, _ in series)
    xs_max = max(max(xs) for xs, _ in series)
    ys_min = min(min(ys) for _, ys in series)
    ys_max = max(max(ys) for _, ys in series)
    if xs_max == xs_min:
        xs_max = xs_min + 1.0
    if ys_max == ys_min:
        ys_max = ys_min + 1.0
    pad = 0.05 * (ys_max - ys_min)
    return xs_min, xs_max, ys_min - pad, ys_max + pad


def line_plot(series, title="", xlabel="", ylabel="", labels=None) -> str:
    """An SVG document with one polyline per (xs, ys) pair in `series`."""
    series = [(list(map(float, xs)), list(map(float, ys))) for xs, ys in series]
    x0, x1, y0, y1 = _bounds(series)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * plot_w

    def sy(y):
        return MARGIN_T + (y1 - y) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="13">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="{MARGIN_T - 14}" text-anchor="middle" '
            f'font-size="16">{escape(title)}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle">'
            f"{xv:.4g}</text>"
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{sy(yv) + 4:.1f}" text-anchor="end">{yv:.4g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{WIDTH / 2}" y="{HEIGHT - 10}" text-anchor="middle">{escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {HEIGHT / 2})">{escape(ylabel)}</text>'
        )
    for idx, (xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        opacity = 1.0 if len(series) <= len(PALETTE) else 0.35
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.2" stroke-opacity="{opacity}"/>'
        )
    if labels:
        for idx, label in enumerate(labels[: len(series)]):
            color = PALETTE[idx % len(PALETTE)]
            y = MARGIN_T + 18 + 18 * idx
            x = WIDTH - MARGIN_R - 150
            parts.append(
                f'<line x1="{x}" y1="{y - 4}" x2="{x + 24}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(f'<text x="{x + 30}" y="{y}">{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
