"""Hand-rolled SVG scatter rendering.

The renderer emits markup directly instead of going through a plotting
library so that identical inputs produce byte-identical files: every
coordinate is pinned to six decimal places and no timestamps, ids, or
library version strings leak into the output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ValidationError

_SIZE = 640.0
_MARGIN = 48.0

_POINT_STYLE = 'class="pt" r="1.800000" fill="#1f77b4" fill-opacity="0.550000"'

#: One point's line; ``%.6f`` formats exactly as ``_fmt`` does.
_POINT_LINE = '<circle ' + _POINT_STYLE + ' cx="%.6f" cy="%.6f"/>\n'

#: Points per block of text, for the scatter's point elements and the rows
#: of a points CSV: a writer holds one block's text at a time, so its peak
#: memory does not grow with the text of the whole file.
_POINT_BLOCK = 4096


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _text_blocks(line: str, pairs: np.ndarray):
    """Yield ``line % (x, y)`` over the rows of an ``(N, 2)`` float array,
    joined per ``_POINT_BLOCK`` rows.  A block is one ``%`` operation on
    ``line`` repeated, which formats each value as ``%`` does alone."""
    for lo in range(0, len(pairs), _POINT_BLOCK):
        block = pairs[lo:lo + _POINT_BLOCK]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def _svg_chunks(points, overlay_unit_circle: bool):
    """Scatter plot of complex points on a square canvas with equal aspect,
    as an iterator of text chunks, one per ``_POINT_BLOCK`` points after
    the head.

    Axes cross at the origin, ticks sit at -1, 0, 1, and the unit circle can
    be overlaid (element class ``unit-circle``) since both limit laws live
    on or inside it.  The points are checked before this returns, so a
    caller can open its output after the call.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    if pts.size == 0:
        raise ValidationError("cannot render an empty point set")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points contain NaN or Inf")

    extent = max(float(np.abs(pts.real).max()),
                 float(np.abs(pts.imag).max()))
    half = max(1.1, 1.02 * extent)
    if not math.isfinite(2.0 * half):
        raise ValidationError(
            f"points too large to render: |re| or |im| reaches {extent:g}")
    span = _SIZE - 2.0 * _MARGIN

    def sx(x):
        return _MARGIN + (x + half) / (2.0 * half) * span

    def sy(y):
        return _MARGIN + (half - y) / (2.0 * half) * span

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_SIZE)}" '
        f'height="{_fmt(_SIZE)}" viewBox="0 0 {_fmt(_SIZE)} {_fmt(_SIZE)}">',
        f'<rect x="0.000000" y="0.000000" width="{_fmt(_SIZE)}" '
        f'height="{_fmt(_SIZE)}" fill="#ffffff"/>',
        # axes through the origin
        f'<line x1="{_fmt(sx(-half))}" y1="{_fmt(sy(0.0))}" '
        f'x2="{_fmt(sx(half))}" y2="{_fmt(sy(0.0))}" stroke="#bbbbbb" '
        f'stroke-width="1.000000"/>',
        f'<line x1="{_fmt(sx(0.0))}" y1="{_fmt(sy(-half))}" '
        f'x2="{_fmt(sx(0.0))}" y2="{_fmt(sy(half))}" stroke="#bbbbbb" '
        f'stroke-width="1.000000"/>',
    ]
    for t in (-1.0, 1.0):
        out.append(
            f'<line x1="{_fmt(sx(t))}" y1="{_fmt(sy(0.0) - 4.0)}" '
            f'x2="{_fmt(sx(t))}" y2="{_fmt(sy(0.0) + 4.0)}" '
            f'stroke="#888888" stroke-width="1.000000"/>')
        out.append(
            f'<text x="{_fmt(sx(t))}" y="{_fmt(sy(0.0) + 18.0)}" '
            f'font-size="12.000000" text-anchor="middle" '
            f'fill="#555555">{t:+.0f}</text>')
        out.append(
            f'<line x1="{_fmt(sx(0.0) - 4.0)}" y1="{_fmt(sy(t))}" '
            f'x2="{_fmt(sx(0.0) + 4.0)}" y2="{_fmt(sy(t))}" '
            f'stroke="#888888" stroke-width="1.000000"/>')
        out.append(
            f'<text x="{_fmt(sx(0.0) - 8.0)}" y="{_fmt(sy(t) + 4.0)}" '
            f'font-size="12.000000" text-anchor="end" '
            f'fill="#555555">{t:+.0f}i</text>')
    if overlay_unit_circle:
        out.append(
            f'<circle class="unit-circle" cx="{_fmt(sx(0.0))}" '
            f'cy="{_fmt(sy(0.0))}" r="{_fmt(span / (2.0 * half))}" '
            f'fill="none" stroke="#d62728" stroke-width="1.200000"/>')
    # Elementwise, sx and sy give every coordinate the bits they give it as
    # a scalar.
    xy = np.empty((pts.size, 2))
    xy[:, 0], xy[:, 1] = sx(pts.real), sy(pts.imag)
    return itertools.chain(["\n".join(out) + "\n"],
                           _text_blocks(_POINT_LINE, xy), ["</svg>\n"])
