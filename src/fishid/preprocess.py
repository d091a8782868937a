"""Noise removal, background unification, and rotation normalization.

All three operations are pure functions over :class:`~fishid.imageio.RgbImage`
values. Rotation normalization is written so that every real-valued quantity
is computed in bounding-box-local coordinates; translating the foreground by
whole pixels therefore translates the output exactly, which downstream
feature extraction relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import EmptyForeground, ImageTooSmall, InvalidConfig
from .imageio import RgbImage, differs_window, filled, sq_distance

# skip resampling when the measured orientation is below half a degree
_ROTATION_SKIP_RAD = math.radians(0.5)
# the frame-sized passes run in bands of rows whose temporaries together
# stay in the L2 cache, instead of faulting in fresh frame-sized pages
_BAND_BYTES = 1 << 17


def _bands(height: int, row_bytes: int):
    """Row slices covering ``range(height)``, each about ``_BAND_BYTES``."""
    step = max(1, _BAND_BYTES // row_bytes)
    return [slice(r, min(r + step, height)) for r in range(0, height, step)]


@dataclass(frozen=True)
class PreprocessConfig:
    """The pipeline's constants for the noise filter and background
    unification; no field can be set."""

    background_tolerance: float = field(default=25.0, init=False)  # RGB distance
    median_radius: int = field(default=1, init=False)  # the paper's 3x3 window


def median_filter(img: RgbImage, radius: int) -> RgbImage:
    """Per-channel median over the 3x3 window, edges clamped; radius 0
    returns ``img`` itself."""
    if radius not in (0, 1):
        raise InvalidConfig("radius must be 0 or 1")
    if radius == 0:
        return img
    h, w, _ = img.pixels.shape
    # interleaved rows, no size-3 axis: a pixel's row neighbours are 3 bytes away
    p = np.pad(img.pixels, ((1, 1), (1, 1), (0, 0)), mode="edge").reshape(h + 2, 3 * w + 6)
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
    """Median-filter, then detect the background color and flatten
    everything near it: the bytes of ``median_filter`` followed by
    ``unify_background``, with the median taken only where the raw frame
    differs from the background.

    The background is the most frequent color on the filtered 1-pixel border
    (ties broken by the lexicographically smallest (r, g, b)). Every filtered
    pixel within ``tolerance`` of it is replaced by it exactly.

    Returns ``(image, background_color)``; the image is a new array.
    """
    if not tolerance >= 0:  # NaN fails too
        raise InvalidConfig("tolerance must be >= 0")
    if img.width < 3 or img.height < 3:
        raise ImageTooSmall("background unification needs at least 3x3 pixels")
    px, r = img.pixels, radius
    # a clamped window on an edge reads only the r + 1 rows (columns) nearest it
    rows = [median_filter(RgbImage(p), r).pixels for p in (px[: r + 1], px[-r - 1 :])]
    cols = [median_filter(RgbImage(p), r).pixels for p in (px[:, : r + 1], px[:, -r - 1 :])]
    border = np.concatenate([rows[0][0], rows[1][-1], cols[0][1:-1, 0], cols[1][1:-1, -1]])
    # one uint32 key per color; ascending keys are lexicographic (r, g, b)
    border = border.astype(np.uint32)
    keys = (border[:, 0] << 16) | (border[:, 1] << 8) | border[:, 2]
    colors, counts = np.unique(keys, return_counts=True)
    key = int(colors[int(np.argmax(counts))])
    color = (key >> 16, (key >> 8) & 255, key & 255)
    out = filled(img.height, img.width, color)
    box = differs_window(px, color)
    if box is not None:
        # outside the differing box grown by r, every clamped window holds
        # only the background, so the output there is the background. Each
        # edge of the grown box is the frame's edge or a background line, so
        # clamping at the box reads the colors that clamping at the frame reads.
        grown = tuple(slice(max(s.start - r, 0), s.stop + r) for s in box)
        win = out[grown]
        win[:] = median_filter(RgbImage(px[grown]), r).pixels
        bg = np.array(color, dtype=np.uint8)
        near = sq_distance(win, bg) <= tolerance * tolerance
        h, w = near.shape
        # one masked copy over the interleaved rows; indexing by pixel moves 3 bytes a step
        np.copyto(win.reshape(h, 3 * w), np.tile(bg, w),
                  where=np.stack((near, near, near), axis=-1).reshape(h, 3 * w))
    return RgbImage(out), color


def unify_background(img: RgbImage, cfg: PreprocessConfig):
    """Detect the background color and flatten everything near it:
    :func:`filter_and_unify` with radius 0. Returns ``(image, background_color)``."""
    return filter_and_unify(img, 0, cfg.background_tolerance)


def central_moments(ys, xs):
    """Centroid and central second moments of a pixel set, given in
    coordinates local to its bounding box (each minimum is 0), which keeps
    the result exact under whole-pixel shifts.

    Returns ``(cx, cy, s20, s02, s11)``: the centroid in those coordinates
    and the unnormalized sums of ``dx*dx``, ``dy*dy`` and ``dx*dy`` about it.
    """
    lx = xs.astype(np.float64)
    ly = ys.astype(np.float64)
    cx = lx.sum() / lx.size
    cy = ly.sum() / ly.size
    lx -= cx
    ly -= cy
    return float(cx), float(cy), float(lx @ lx), float(ly @ ly), float(lx @ ly)


def normalize_rotation(img: RgbImage, background_color) -> RgbImage:
    """Rotate the image so the foreground's principal axis is horizontal.

    Nearest-neighbor resampling about the foreground centroid into a canvas
    of the same size; pixels mapping outside the source are filled with the
    background color. Inputs already within half a degree of horizontal are
    returned unchanged.
    """
    box = differs_window(img.pixels, background_color)
    if box is None:
        raise EmptyForeground("image has no non-background pixels")
    box_px = img.pixels[box]
    bh, bw, _ = box_px.shape
    y0, x0 = box[0].start, box[1].start
    # compare interleaved rows, then OR each pixel's three channel columns
    fg = box_px.reshape(bh, 3 * bw) != np.tile(np.asarray(background_color, dtype=np.uint8), bw)
    ys, xs = np.nonzero(fg[:, 0::3] | fg[:, 1::3] | fg[:, 2::3])
    cx, cy, s20, s02, s11 = central_moments(ys, xs)
    theta = 0.5 * math.atan2(2.0 * s11, s20 - s02)
    if abs(theta) < _ROTATION_SKIP_RAD:
        return img
    h, w = img.height, img.width
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
    # the fish bbox inside a one-pixel background border: a source clipped to
    # [-1, bw] x [-1, bh] lands on the border when it is outside the bbox
    fish = filled(bh + 2, bw + 2, background_color)
    fish[1:-1, 1:-1] = box_px
    fish = fish.reshape(-1, 3)
    out = filled(h, w, background_color)
    win = out[wy0:wy1, wx0:wx1]
    for band in _bands(wy1 - wy0, u.nbytes):
        src_x = cos_u - sin_v[band] + cx
        src_y = sin_u + cos_v[band] + cy
        np.clip(np.rint(src_x, out=src_x), -1, bw, out=src_x)
        np.clip(np.rint(src_y, out=src_y), -1, bh, out=src_y)
        flat = ((src_y + 1) * (bw + 2) + (src_x + 1)).astype(np.intp)  # exact in float64
        win[band] = np.take(fish, flat, axis=0)
    return RgbImage(out)
