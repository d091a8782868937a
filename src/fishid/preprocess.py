"""Noise removal, background unification, and rotation normalization.

Stages hand on a box's pixels and their squared distance to the background;
a pixel is background where that is 0, whatever its bytes, and only
:func:`_framed`, behind the public wrappers, paints that rule into a frame.
Rotation normalization computes every real-valued quantity in
bounding-box-local coordinates; translating the foreground by whole pixels
therefore translates the output exactly, which feature extraction relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import EmptyForeground, ImageTooSmall, InvalidConfig
from .imageio import RgbImage, _bands, differs_window, distance_window, filled, planes, sq_distance

# skip resampling when the measured orientation is below half a degree
_ROTATION_SKIP_RAD = math.radians(0.5)


@dataclass(frozen=True)
class PreprocessConfig:
    """The pipeline's constants for the noise filter and background
    unification; no field can be set."""

    background_tolerance: float = field(default=25.0, init=False)  # RGB distance
    median_radius: int = field(default=1, init=False)  # the paper's 3x3 window


def median_filter(img: RgbImage, radius: int) -> RgbImage:
    """Per-channel median over the 3x3 window, edges clamped, in a new
    array; radius 0 returns ``img`` itself. Unification never writes into
    it: its pixels count only where their background distance is above 0."""
    if radius not in (0, 1):
        raise InvalidConfig("radius must be 0 or 1")
    if radius == 0:
        return img
    h, w, _ = img.pixels.shape
    # interleaved rows, no size-3 axis: a pixel's row neighbours are 3 bytes away
    p = np.empty((h + 2, 3 * w + 6), dtype=np.uint8)
    p[1:-1, 3:-3] = img.pixels.reshape(h, 3 * w)
    p[:, :3], p[:, -3:] = p[:, 3:6], p[:, -6:-3]  # clamp the sides, then the whole end rows
    p[0], p[-1] = p[1], p[-2]
    out = np.empty_like(img.pixels)
    rows = out.reshape(h, 3 * w)
    mn, mx = np.minimum, np.maximum
    for band in _bands(h, p[0].nbytes):
        q = p[band.start : band.stop + 2]
        # Paeth's 19-exchange median-of-9 network on the window rows p0..p8.
        # Exchanges 1-9 sort each row, once for the three windows sharing it.
        a, b, c = q[:, :-6], q[:, 3:-3], q[:, 6:]
        b, c = mn(b, c), mx(b, c)
        a, b = mn(a, b), mx(a, b)
        b, c = mn(b, c), mx(b, c)
        p0, p1, p2 = a[:-2], b[:-2], c[:-2]
        p3, p4, p5 = a[1:-1], b[1:-1], c[1:-1]
        p6, p7, p8 = a[2:], b[2:], c[2:]
        # exchanges 10-19, keeping only the outputs later exchanges read
        p3, p5, p4, p7 = mx(p0, p3), mn(p5, p8), mn(p4, p7), mx(p4, p7)
        p6, p4, p2 = mx(p3, p6), mn(mx(p1, p4), p7), mn(p2, p5)
        mn(mx(p6, mn(p4, p2)), mx(p4, p2), out=rows[band])
    return RgbImage(out)


def filter_and_unify(img: RgbImage, radius: int, tolerance: float):
    """Median-filter, then detect the background color and mark everything
    near it as background: ``median_filter`` followed by
    ``unify_background``, with the median taken only where the raw frame
    differs from the background.

    The background is the most frequent color on the filtered 1-pixel border
    (ties broken by the lexicographically smallest (r, g, b)). Every filtered
    pixel within ``tolerance`` of it is background.

    Returns ``(window, background_color, box, dist)``: the output is the
    background outside ``box``, a pair of slices; ``window`` is the median's
    output in ``box``, not repainted, and ``dist`` its int32 squared distance
    to the background, 0 at every pixel within ``tolerance``. A window pixel
    is meaningful only where ``dist > 0``; :func:`_framed` paints the rest.
    All three are None when every pixel of ``img`` is the background.
    """
    if not tolerance >= 0:  # NaN fails too
        raise InvalidConfig("tolerance must be >= 0")
    if img.width < 3 or img.height < 3:
        raise ImageTooSmall("background unification needs at least 3x3 pixels")
    px, r, w = img.pixels, radius, img.width
    # one median pass over the edge rows and the rows inside them, then the edge columns
    # and theirs: lines 0 and 3 hold the border. The rows' last pixel is repeated to
    # clamp it; the columns' corners, whose windows cross into the rows, are cut
    rows, cols = px[[0, 1, -2, -1]], px[:, [0, 1, -2, -1]].transpose(1, 0, 2)
    f = median_filter(RgbImage(np.concatenate([rows, rows[:, -1:], cols], axis=1)), r).pixels
    # one uint32 key per color; ascending keys are lexicographic (r, g, b)
    border = np.concatenate([f[0, :w], f[3, :w], f[0, w + 2 : -1], f[3, w + 2 : -1]], dtype=np.uint32)
    keys = (border[:, 0] << 16) | (border[:, 1] << 8) | border[:, 2]
    colors, counts = np.unique(keys, return_counts=True)
    key = int(colors[int(np.argmax(counts))])
    color = (key >> 16, (key >> 8) & 255, key & 255)
    box = differs_window(px, color)
    if box is None:
        return None, color, None, None
    # outside the differing box grown by r, every clamped window holds only
    # the background, so the output there is the background. Each edge of the
    # grown box is the frame's edge or a background line, so clamping at the
    # box reads the colors that clamping at the frame reads.
    grown = tuple(slice(max(s.start - r, 0), s.stop + r) for s in box)
    win = median_filter(RgbImage(px[grown]), r).pixels
    dist = sq_distance(planes(win), color)
    dist[dist <= tolerance * tolerance] = 0
    return win, color, grown, dist


def _framed(shape, window, box, color, dist) -> RgbImage:
    """A new ``color`` frame of ``shape`` (h, w) holding ``window`` at ``box``
    (None: nowhere) where its ``dist > 0``, the only pixels of it that count."""
    out = filled(*shape, color)
    if box is not None:  # a per-byte mask copies about 3x faster than a broadcast one
        np.copyto(out[box], window, where=(dist > 0).repeat(3, axis=1).reshape(window.shape))
    return RgbImage(out)


def unify_background(img: RgbImage, cfg: PreprocessConfig):
    """Detect the background color and flatten everything near it:
    :func:`filter_and_unify` with radius 0, its window pixels at ``dist > 0``
    pasted into a new frame. Returns ``(image, background_color)``."""
    win, color, box, dist = filter_and_unify(img, 0, cfg.background_tolerance)
    return _framed(img.pixels.shape[:2], win, box, color, dist), color


def pixel_coords(bits):
    """``np.nonzero(bits)`` of a 2-D mask as float64 ``(ys, xs)``, gathered
    from broadcast row and column numbers: no int64 coordinates are made."""
    h, w = bits.shape
    ys = np.broadcast_to(np.arange(h, dtype=np.float64)[:, np.newaxis], bits.shape)
    xs = np.broadcast_to(np.arange(w, dtype=np.float64), bits.shape)
    return ys[bits], xs[bits]


def central_moments(ys, xs):
    """Centroid and central second moments of a pixel set, given in
    coordinates local to its bounding box (each minimum is 0), which keeps
    the result exact under whole-pixel shifts.

    Returns ``(cx, cy, s20, s02, s11)``: the centroid in those coordinates
    and the unnormalized sums of ``dx*dx``, ``dy*dy`` and ``dx*dy`` about it.
    Integer or float64 coordinates give the same bytes: every partial sum of
    whole numbers below 2**53 is exact either way.
    """
    cx = xs.sum() / xs.size
    cy = ys.sum() / ys.size
    lx = xs - cx
    ly = ys - cy
    return float(cx), float(cy), float(lx @ lx), float(ly @ ly), float(lx @ ly)


def normalize_rotation(img: RgbImage, background_color) -> RgbImage:
    """Rotate the image so the foreground's principal axis is horizontal.

    Nearest-neighbor resampling about the foreground centroid into a canvas
    of the same size; pixels mapping outside the source are filled with the
    background color. Inputs already within half a degree of horizontal are
    returned unchanged (``img`` itself).
    """
    shape = img.pixels.shape[:2]
    box, dist = distance_window(img.pixels, background_color)
    win, box, dist = _normalize_rotation(shape, box and img.pixels[box], box, dist)
    return img if np.may_share_memory(win, img.pixels) else _framed(shape, win, box, background_color, dist)


def _normalize_rotation(shape, px, box, dist):
    """:func:`normalize_rotation` of a frame of ``shape`` (h, w) that is
    background outside ``box`` (None: everywhere), given ``px`` and ``dist``,
    its pixels in ``box`` and their int32 squared distance to the background;
    the foreground, the only pixels that count, is where that is above 0.
    Returns ``(window, box, dist)`` of the output in the same terms: views of
    the tight foreground box when it is not resampled, else new arrays,
    clipped to the frame."""
    if box is None or not (fg := dist > 0).any():
        raise EmptyForeground("image has no non-background pixels")
    rows, cols = np.flatnonzero(fg.any(axis=1)), np.flatnonzero(fg.any(axis=0))
    tight = slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)
    fg, dist, px = fg[tight], dist[tight], px[tight]
    bh, bw = fg.shape
    y0, x0 = box[0].start + tight[0].start, box[1].start + tight[1].start
    ys, xs = pixel_coords(fg)
    cx, cy, s20, s02, s11 = central_moments(ys, xs)
    theta = 0.5 * math.atan2(2.0 * s11, s20 - s02)
    if abs(theta) < _ROTATION_SKIP_RAD:
        return px, (slice(y0, y0 + bh), slice(x0, x0 + bw)), dist
    h, w = shape
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    # output pixel p maps to source R(theta) (p - c) + c, all in local coords;
    # rounding in local coords keeps translation exact. Every source pixel
    # outside the foreground bbox is background, so only outputs near the
    # preimage R(theta)^T (s - c) + c of the bbox corners s are resampled;
    # rint moves a source by at most half a pixel, 2 px of padding covers it
    sx = np.array([0.0, bw - 1, 0.0, bw - 1]) - cx
    sy = np.array([0.0, 0.0, bh - 1, bh - 1]) - cy
    ox = cos_t * sx + sin_t * sy + cx + x0
    oy = cos_t * sy - sin_t * sx + cy + y0
    wx0, wx1 = max(math.floor(ox.min()) - 2, 0), min(math.ceil(ox.max()) + 3, w)
    wy0, wy1 = max(math.floor(oy.min()) - 2, 0), min(math.ceil(oy.max()) + 3, h)
    u = np.arange(wx0, wx1, dtype=np.float64) - x0 - cx
    v = (np.arange(wy0, wy1, dtype=np.float64) - y0 - cy)[:, np.newaxis]
    # a band sums these products as the frame-wide expression does: same bytes
    cos_u, sin_u, sin_v, cos_v = cos_t * u, sin_t * u, sin_t * v, cos_t * v
    # the fish bbox inside a one-pixel border at distance 0, so background: a
    # source clipped to [-1, bw] x [-1, bh] lands on the border when it is outside the bbox
    fish = np.pad(px, ((1, 1), (1, 1), (0, 0))).reshape(-1, 3)
    fish_dist = np.pad(dist, 1).ravel()
    # every band writes all of its rows
    win = np.empty((wy1 - wy0, wx1 - wx0, 3), dtype=np.uint8)
    win_dist = np.empty(win.shape[:2], dtype=np.int32)
    for band in _bands(wy1 - wy0, u.nbytes):
        src_x = cos_u - sin_v[band] + cx
        src_y = sin_u + cos_v[band] + cy
        np.clip(np.rint(src_x, out=src_x), -1, bw, out=src_x)
        np.clip(np.rint(src_y, out=src_y), -1, bh, out=src_y)
        flat = ((src_y + 1) * (bw + 2) + (src_x + 1)).astype(np.intp)  # exact in float64
        win[band] = np.take(fish, flat, axis=0)
        win_dist[band] = np.take(fish_dist, flat)
    return win, (slice(wy0, wy1), slice(wx0, wx1)), win_dist
