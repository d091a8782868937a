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
from .imageio import RgbImage, distance_window, planes, sq_distance

# Moore neighborhood in clockwise order (x right, y down):
# W, NW, N, NE, E, SE, S, SW
_MOORE = ((-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1))


# stepping in direction j, the new backtrack pixel is the one probed just
# before, at d[j-1] - d[j] from the new pixel: _BACK[j] is its direction
_BACK = tuple(_MOORE.index((px - dx, py - dy))
              for (px, py), (dx, dy) in zip(_MOORE[-1:] + _MOORE, _MOORE))


@dataclass(frozen=True, eq=False)
class FishMask:
    """Binary foreground of a single 4-connected component: its bbox crop."""

    box_bits: np.ndarray  # (h, w) bool, the bbox crop
    area: int
    bbox: tuple[int, int, int, int]  # x0, y0, w, h; holds every foreground pixel
    shape: tuple[int, int]  # the frame's (H, W)

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "FishMask":
        ys, xs = np.nonzero(bits)
        if ys.size == 0:
            raise EmptyForeground("mask has no foreground pixels")
        x0, y0, x1, y1 = int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1
        return cls(bits[y0:y1, x0:x1], int(ys.size), (x0, y0, x1 - x0, y1 - y0), bits.shape)

    @property
    def bits(self) -> np.ndarray:
        """The mask as a new (H, W) frame."""
        out = np.zeros(self.shape, dtype=bool)
        self.crop(out)[:] = self.box_bits
        return out

    def crop(self, raster: np.ndarray) -> np.ndarray:
        """View of a full-frame raster (pixels, index) inside the bbox."""
        x0, y0, w, h = self.bbox
        return raster[y0 : y0 + h, x0 : x0 + w]


@dataclass(frozen=True, eq=False)
class Contour:
    """Closed boundary pixel sequence; perimeter sums its steps' lengths, 1 or sqrt(2)."""

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
    row-major pixel index). The distances are taken here; ``analyze_image``
    hands rotation's to :func:`_largest_component` instead."""
    if not fg_tolerance > 0:
        raise InvalidConfig("fg_tolerance must be > 0")
    return _largest_component(img.pixels.shape[:2], fg_tolerance,
                              *distance_window(img.pixels, background_color))


def _largest_component(shape, fg_tolerance, box, dist) -> FishMask:
    """The :func:`extract_mask` of a frame of ``shape`` (h, w) that is
    background outside ``box`` (None: everywhere), given ``dist``, the int32
    squared distance of the frame's pixels in ``box`` to the background."""
    if box is None:  # a pixel equal to the background is at distance 0
        raise EmptyForeground("no pixel exceeds the foreground tolerance")
    fg = dist > fg_tolerance * fg_tolerance
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
    # clear the losing runs' flat pixels: each start, over its run, plus the steps into it
    n = (ends - starts + 1)[~mine]
    fg.ravel()[np.repeat(starts[~mine] - (np.cumsum(n) - n), n) + np.arange(n.sum())] = False
    w = fg.shape[1]
    x0, y0 = int((s % w).min()), int(s[0] // w)
    x1, y1 = int((e % w).max()) + 1, int(e[-1] // w) + 1
    bbox = (box[1].start + x0, box[0].start + y0, x1 - x0, y1 - y0)
    return FishMask(fg[y0:y1, x0:x1], int(sizes[winner]), bbox, shape)


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
    """Clockwise Moore boundary trace from the smallest row-major pixel,
    probing only the neighbors of the pixels it stands on."""
    x0, y0, w, h = mask.bbox
    # the bbox crop padded by one background pixel, so every neighbor exists;
    # its first foreground byte is the bbox's first row-major pixel
    fg = np.zeros((h + 2, w + 2), dtype=bool)
    fg[1:-1, 1:-1] = mask.box_bits
    fg = fg.tobytes()
    # coming in with the backtrack pixel in direction k, the trace probes
    # directions k+1, ..., k+8 (mod 8) and steps in the first foreground one:
    # probes[k] holds each probe's flat offset, the backtrack it leaves, and
    # that backtrack's bit
    moves = [(dy * (w + 2) + dx, b, 1 << b) for (dx, dy), b in zip(_MOORE, _BACK)]
    probes = [moves[k + 1 :] + moves[: k + 1] for k in range(8)]
    start = fg.index(1)
    # a state is (pixel, backtrack direction); entry is from the west
    cur, k = start, 0
    seen = bytearray(len(fg))  # bit k of a pixel's byte: the trace stood there with backtrack k
    seen[start] = 1
    points = [start]
    while True:
        for off, k, bit in probes[k]:
            if fg[cur + off]:
                break
        else:
            break  # isolated pixel
        cur += off
        s = seen[cur]
        if s & bit:
            break
        seen[cur] = s | bit
        points.append(cur)
    if len(points) >= 2 and points[-1] == points[0]:
        points.pop()
    flat = np.array(points, dtype=np.int64)
    pts = np.stack((flat % (w + 2) + (x0 - 1), flat // (w + 2) + (y0 - 1)), axis=1)
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
    ys, xs = np.nonzero(mask.box_bits)
    colors = mask.crop(img.pixels)[ys, xs].astype(np.float64)
    bands = []
    for i in range(k):
        lo = min(i * base, w)
        hi = w if i == k - 1 else min((i + 1) * base, w)
        hi = max(hi, lo)
        sel = (xs >= lo) & (xs < hi)
        n = int(sel.sum())
        if n:
            mean = tuple(float(v) for v in colors[sel].mean(axis=0))
        else:
            mean = (0.0, 0.0, 0.0)
        bands.append(((x0 + lo, y0, hi - lo, h), mean, n))
    return bands


def group_by_color(mask: FishMask, img: RgbImage, eps: float) -> ColorGroups:
    """Group 4-adjacent foreground pixels whose colors differ by at most
    ``eps`` (Euclidean RGB); groups are maximal under that relation. The
    channel planes of the mask's bbox crop are taken here; ``analyze_image``
    hands its own to :func:`_group_by_color`."""
    return _group_by_color(mask, planes(mask.crop(img.pixels)), eps)


def _group_by_color(mask: FishMask, p: np.ndarray, eps: float) -> ColorGroups:
    """:func:`group_by_color` given ``p``, the (3, h, w) planes of the bbox crop."""
    if not eps >= 0:
        raise InvalidConfig("eps must be >= 0")
    bits = mask.box_bits
    # 4-neighbors are linked when their colors are within eps; the groups are
    # the components of that graph, one per root
    tol = eps * eps
    right = (sq_distance(p[:, :, 1:], p[:, :, :-1]) <= tol) & bits[:, 1:] & bits[:, :-1]
    down = (sq_distance(p[:, 1:], p[:, :-1]) <= tol) & bits[1:] & bits[:-1]
    _, _, root = _label_runs(bits, right, down)
    return ColorGroups(int(np.count_nonzero(root == np.arange(root.size))), mask.area)
