"""Foreground isolation, contour tracing, band division, and color grouping.

Conventions: connected components use 4-connectivity, contour steps use
8-connectivity. Tie-breaks always favor the smallest row-major pixel index so
repeated runs are byte-for-byte reproducible; for the mask's size ties that
rule holds by construction, since :func:`_label_runs` roots each component at
its first row-major run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyForeground, InvalidConfig
from .imageio import RgbImage, differs_window, sq_distance

# Moore neighborhood in clockwise order (x right, y down):
# W, NW, N, NE, E, SE, S, SW
_MOORE = ((-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1))


def _moore_tables():
    """The Moore step as table lookups. A pixel's code has bit i set when its
    neighbor in direction i is foreground. Coming in with the backtrack
    pixel in direction k, the trace probes directions k+1, k+2, ... (mod 8)
    and steps in the first direction j that is foreground; ``step[k << 8 |
    code]`` is that j, or 8 when no neighbor is foreground. The new backtrack
    pixel is the one probed just before, at ``d[j-1] - d[j]`` from the new
    pixel: ``back[j]`` is its direction."""
    step = bytearray(8 * 256)
    for k in range(8):
        for code in range(256):
            dirs = [(k + i) % 8 for i in range(1, 9) if code >> ((k + i) % 8) & 1]
            step[k << 8 | code] = dirs[0] if dirs else 8
    back = []
    for j, (dx, dy) in enumerate(_MOORE):
        px, py = _MOORE[j - 1]
        back.append(_MOORE.index((px - dx, py - dy)))
    return bytes(step), tuple(back)


_STEP, _BACK = _moore_tables()


@dataclass(frozen=True, eq=False)
class FishMask:
    """Binary foreground of a single 4-connected component."""

    bits: np.ndarray  # (h, w) bool
    area: int
    bbox: tuple[int, int, int, int]  # x0, y0, w, h; holds every foreground pixel

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "FishMask":
        ys, xs = np.nonzero(bits)
        if ys.size == 0:
            raise EmptyForeground("mask has no foreground pixels")
        x0, y0 = int(xs.min()), int(ys.min())
        w = int(xs.max()) - x0 + 1
        h = int(ys.max()) - y0 + 1
        return cls(bits, int(ys.size), (x0, y0, w, h))

    def crop(self, raster: np.ndarray) -> np.ndarray:
        """View of a full-frame raster (``bits``, pixels, index) inside the bbox."""
        x0, y0, w, h = self.bbox
        return raster[y0 : y0 + h, x0 : x0 + w]


@dataclass(frozen=True, eq=False)
class Contour:
    """Closed boundary pixel sequence; perimeter sums 1/sqrt(2) step lengths."""

    points: np.ndarray  # (n, 2) int64, columns (x, y)
    perimeter: float


@dataclass(frozen=True, eq=False)
class ColorGroups:
    """Number of color-similarity groups over ``pixel_count`` foreground pixels."""

    group_count: int
    pixel_count: int


def extract_mask(img: RgbImage, background_color, fg_tolerance: float) -> FishMask:
    """Keep the largest 4-connected component farther than ``fg_tolerance``
    from the background color (ties: the component containing the smallest
    row-major pixel index)."""
    if not fg_tolerance > 0:
        raise InvalidConfig("fg_tolerance must be > 0")
    box = differs_window(img.pixels, background_color)
    if box is None:  # a pixel equal to the background is at distance 0
        raise EmptyForeground("no pixel exceeds the foreground tolerance")
    bg = np.asarray(background_color, dtype=np.int32)
    fg = sq_distance(img.pixels[box], bg) > fg_tolerance * fg_tolerance
    # label only that window; row-major order in it is full-frame row-major
    # order, so size ties break the same
    starts, ends, root = _label_runs(fg, fg[:, 1:] & fg[:, :-1], fg[1:] & fg[:-1])
    if starts.size == 0:
        raise EmptyForeground("no pixel exceeds the foreground tolerance")
    sizes = np.bincount(root, ends - starts + 1)
    # a root is its component's first row-major run, so the first largest
    # root holds the first row-major pixel of any largest component
    winner = int(np.argmax(sizes))
    mine = root == winner
    s, e = starts[mine], ends[mine]
    # the foreground pixels in row-major order are the runs' pixels, run by run
    fg[fg] = np.repeat(mine, ends - starts + 1)
    bits = np.zeros(img.pixels.shape[:2], dtype=bool)
    bits[box] = fg
    w = fg.shape[1]
    x0, y0 = int((s % w).min()), int(s[0] // w)
    bbox = (box[1].start + x0, box[0].start + y0,
            int((e % w).max()) - x0 + 1, int(e[-1] // w) - y0 + 1)
    return FishMask(bits, int(sizes[winner]), bbox)


def _label_runs(node, right, down):
    """4-connected components of a pixel graph, labeled by runs (He, Chao &
    Suzuki, IEEE TIP 2008). ``node`` (h, w) marks the graph's pixels;
    ``right`` (h, w-1) links a pixel to its right neighbor and ``down``
    (h-1, w) to the one below, between nodes only. A run is a maximal row
    segment joined by right links, numbered in row-major order.

    Returns ``(starts, ends, root)``: each run's first and last flat pixel
    index, and the smallest run number in its component, so a component's
    root is its first row-major run."""
    w = node.shape[1]
    start, end = node.copy(), node.copy()
    start[:, 1:] &= ~right
    end[:, :-1] &= ~right
    starts, ends = np.flatnonzero(start), np.flatnonzero(end)
    # a down link whose left neighbor links the same two runs adds nothing
    link = down.copy()
    link[:, 1:] &= ~(down[:, :-1] & right[:-1] & right[1:])
    link = np.flatnonzero(link)
    # a pixel's run number is the count of run starts up to it, less one
    upper = np.searchsorted(starts, link, "right") - 1
    lower = np.searchsorted(starts, link + w, "right") - 1
    parent = list(range(starts.size))
    for a, b in zip(upper.tolist(), lower.tolist()):
        while a != parent[a]:  # path halving: link a to its grandparent, go there
            parent[a] = a = parent[parent[a]]
        while b != parent[b]:
            parent[b] = b = parent[parent[b]]
        if a < b:  # the smaller root stays, so parent[i] <= i throughout
            parent[b] = a
        elif b < a:
            parent[a] = b
    for i, p in enumerate(parent):  # parent[p] is already p's root
        parent[i] = parent[p]
    return starts, ends, np.array(parent, dtype=np.intp)


def trace_contour(mask: FishMask) -> Contour:
    """Clockwise Moore boundary trace from the smallest row-major pixel."""
    x0, y0, w, h = mask.bbox
    crop = mask.crop(mask.bits)
    # the bbox crop padded by one background pixel, so every neighbor exists
    fg = np.zeros((h + 2, w + 2), dtype=np.uint8)
    fg[1:-1, 1:-1] = crop
    code = np.zeros((h, w), dtype=np.uint8)
    shifted = np.empty_like(code)
    for i, (dx, dy) in enumerate(_MOORE):
        code |= np.left_shift(fg[1 + dy : h + 1 + dy, 1 + dx : w + 1 + dx], i, out=shifted)
    codes = code.tobytes()
    # flat bbox indices; a step only reaches a foreground pixel, never a
    # neighbor outside the bbox, so an offset never wraps around a row
    offsets = [dy * w + dx for dx, dy in _MOORE]
    start = int(np.argmax(crop[0]))
    # a state is (pixel, backtrack direction); entry is from the west
    cur, k = start, 0
    seen = {start << 3}
    points = [start]
    while True:
        j = _STEP[k << 8 | codes[cur]]
        if j == 8:
            break  # isolated pixel
        cur += offsets[j]
        k = _BACK[j]
        state = cur << 3 | k
        if state in seen:
            break
        seen.add(state)
        points.append(cur)
    if len(points) >= 2 and points[-1] == points[0]:
        points.pop()
    flat = np.array(points, dtype=np.int64)
    pts = np.stack((flat % w + x0, flat // w + y0), axis=1)
    if len(pts) < 2:
        return Contour(pts, 0.0)
    diffs = pts - np.roll(pts, 1, axis=0)  # includes the closing step
    perim = float(np.hypot(diffs[:, 0], diffs[:, 1]).sum())
    return Contour(pts, perim)


def divide_segments(mask: FishMask, img: RgbImage, k: int):
    """Split the mask bbox into k vertical bands of equal width (the last
    band absorbs the remainder; when k exceeds the bbox width the extra
    trailing bands are zero-width). Returns a list of
    ``((x0, y0, w, h), mean_rgb, pixel_count)`` per band."""
    if k < 1:
        raise InvalidConfig("k must be >= 1")
    x0, y0, w, h = mask.bbox
    base = max(1, w // k)
    ys, xs = np.nonzero(mask.bits)
    colors = img.pixels[ys, xs].astype(np.float64)
    bands = []
    for i in range(k):
        lo = x0 + min(i * base, w)
        hi = x0 + w if i == k - 1 else x0 + min((i + 1) * base, w)
        hi = max(hi, lo)
        sel = (xs >= lo) & (xs < hi)
        n = int(sel.sum())
        if n:
            mean = tuple(float(v) for v in colors[sel].mean(axis=0))
        else:
            mean = (0.0, 0.0, 0.0)
        bands.append(((int(lo), y0, int(hi - lo), h), mean, n))
    return bands


def group_by_color(mask: FishMask, img: RgbImage, eps: float) -> ColorGroups:
    """Group 4-adjacent foreground pixels whose colors differ by at most
    ``eps`` (Euclidean RGB); groups are maximal under that relation."""
    if not eps >= 0:
        raise InvalidConfig("eps must be >= 0")
    bits = mask.crop(mask.bits)
    px = mask.crop(img.pixels)
    # 4-neighbors are linked when their colors are within eps; the groups are
    # the components of that graph, one per root
    tol = eps * eps
    right = (sq_distance(px[:, 1:], px[:, :-1]) <= tol) & bits[:, 1:] & bits[:, :-1]
    down = (sq_distance(px[1:], px[:-1]) <= tol) & bits[1:] & bits[:-1]
    _, _, root = _label_runs(bits, right, down)
    return ColorGroups(int(np.count_nonzero(root == np.arange(root.size))), mask.area)
