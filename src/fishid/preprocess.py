"""Noise removal, background unification, and rotation normalization.

All three operations are pure functions over :class:`~fishid.imageio.RgbImage`
values. Rotation normalization is written so that every real-valued quantity
is computed in bounding-box-local coordinates; translating the foreground by
whole pixels therefore translates the output exactly, which downstream
feature extraction relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import EmptyForeground, ImageTooSmall, InvalidConfig
from .imageio import RgbImage

# skip resampling when the measured orientation is below half a degree
_ROTATION_SKIP_RAD = math.radians(0.5)


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs for background unification and the noise filter."""

    background_tolerance: float = 25.0  # Euclidean RGB distance, 0..441
    median_radius: int = 1  # 0 disables, 1 -> 3x3 window, 2 -> 5x5

    def __post_init__(self):
        if not self.background_tolerance >= 0:  # NaN fails too
            raise InvalidConfig("background_tolerance must be >= 0")
        if self.median_radius not in (0, 1, 2):
            raise InvalidConfig("median_radius must be 0, 1 or 2")


def median_filter(img: RgbImage, radius: int) -> RgbImage:
    """Per-channel median over the (2r+1)^2 window, edges clamped."""
    if radius not in (0, 1, 2):
        raise ValueError("radius must be 0, 1 or 2")
    if radius == 0:
        return img
    h, w = img.height, img.width
    padded = np.pad(img.pixels, ((radius, radius), (radius, radius), (0, 0)), mode="edge")
    side = 2 * radius + 1
    stack = np.empty((side * side, h, w, 3), dtype=np.uint8)
    k = 0
    for dy in range(side):
        for dx in range(side):
            stack[k] = padded[dy : dy + h, dx : dx + w]
            k += 1
    # the window is odd-sized, so the median is the middle order statistic
    mid = (side * side) // 2
    return RgbImage(np.partition(stack, mid, axis=0)[mid])


def unify_background(img: RgbImage, cfg: PreprocessConfig):
    """Detect the background color and flatten everything near it.

    The background is the most frequent color on the 1-pixel border (ties
    broken by the lexicographically smallest (r, g, b)). Every pixel within
    ``cfg.background_tolerance`` of it is replaced by it exactly.

    Returns ``(image, background_color)``.
    """
    if img.width < 3 or img.height < 3:
        raise ImageTooSmall("background unification needs at least 3x3 pixels")
    px = img.pixels
    border = np.concatenate(
        [px[0, :], px[-1, :], px[1:-1, 0], px[1:-1, -1]], axis=0
    )
    colors, counts = np.unique(border, axis=0, return_counts=True)
    bg = colors[int(np.argmax(counts))]  # unique sorts lexicographically
    # compare squared distances; exact because the pixel deltas are integers
    diff = px.astype(np.int32) - bg
    d2 = np.sum(diff * diff, axis=2)
    out = px.copy()
    out[d2 <= cfg.background_tolerance**2] = bg
    return RgbImage(out), (int(bg[0]), int(bg[1]), int(bg[2]))


def _foreground_coords(img: RgbImage, background_color):
    bg = np.array(background_color, dtype=np.uint8)
    fg = np.any(img.pixels != bg, axis=2)
    if not fg.any():
        raise EmptyForeground("image has no non-background pixels")
    return np.nonzero(fg)


def _orientation(ys, xs) -> float:
    # bbox-local coordinates keep the math exact under whole-pixel shifts
    lx = (xs - xs.min()).astype(np.float64)
    ly = (ys - ys.min()).astype(np.float64)
    lx -= lx.sum() / lx.size
    ly -= ly.sum() / ly.size
    s20 = float(lx @ lx)
    s02 = float(ly @ ly)
    s11 = float(lx @ ly)
    return 0.5 * math.atan2(2.0 * s11, s20 - s02)


def foreground_orientation(img: RgbImage, background_color) -> float:
    """Principal-axis angle of the non-background pixel set, in radians."""
    ys, xs = _foreground_coords(img, background_color)
    return _orientation(ys, xs)


def normalize_rotation(img: RgbImage, background_color) -> RgbImage:
    """Rotate the image so the foreground's principal axis is horizontal.

    Nearest-neighbor resampling about the foreground centroid into a canvas
    of the same size; pixels mapping outside the source are filled with the
    background color. Inputs already within half a degree of horizontal are
    returned unchanged.
    """
    ys, xs = _foreground_coords(img, background_color)
    theta = _orientation(ys, xs)
    if abs(theta) < _ROTATION_SKIP_RAD:
        return img
    bg = np.array(background_color, dtype=np.uint8)
    x0, y0 = int(xs.min()), int(ys.min())
    cx = float((xs - x0).sum() / xs.size)
    cy = float((ys - y0).sum() / ys.size)
    h, w = img.height, img.width
    # output pixel p maps to source R(theta) (p - c) + c, all in local coords;
    # rounding before the integer offset is re-applied keeps translation exact
    gx = np.arange(w, dtype=np.float64) - x0
    gy = np.arange(h, dtype=np.float64) - y0
    u = gx[np.newaxis, :] - cx
    v = gy[:, np.newaxis] - cy
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    src_x = np.rint(cos_t * u - sin_t * v + cx).astype(np.int64) + x0
    src_y = np.rint(sin_t * u + cos_t * v + cy).astype(np.int64) + y0
    valid = (src_x >= 0) & (src_x < w) & (src_y >= 0) & (src_y < h)
    out = np.empty_like(img.pixels)
    out[:] = bg
    oy, ox = np.nonzero(valid)
    out[oy, ox] = img.pixels[src_y[oy, ox], src_x[oy, ox]]
    return RgbImage(out)
