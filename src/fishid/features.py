"""The 47-value descriptor computed from mask, contour, color groups, and
both rasters.

Layout (frozen contract, ``FEATURE_LAYOUT_VERSION``):

====== =======================================================================
index  definition (bbox = (x0, y0, w, h); A = mask area; P = perimeter;
       W, H = image size; all values clipped to [0, 1])
====== =======================================================================
0      A / (W*H)
1      w / W
2      h / H
3      P / (2*(W+H))
4      w / (w + h)
5      compactness 4*pi*A / P^2 (1.0 when P == 0)
6-13   radial signature: max centroid-to-contour distance per 45-degree
       sector starting at 0, divided by the global max (empty sector -> 0)
14     solidity A / convex hull area of the contour (degenerate hull -> 1)
15     extent A / (w*h)
16     eccentricity from central second moments
17     tail convexity: foreground fraction of the rightmost 20% of columns
       (the rear of a left-facing fish)
18     edge density: boundary pixel count / A
19-22  intensity std per bbox quadrant (TL, TR, BL, BR), / 128
23     orientation (theta + pi/2) / pi
24-26  dorsum mean R, G, B / 255 (rows above the centroid)
27-29  ventral mean R, G, B / 255 (rows at or below the centroid)
30-32  per-channel contrast (dorsum - ventral + 1) / 2
33     foreground mean intensity / 255
34     foreground intensity std / 128
35     min(color group count, 32) / 32
36-37  topmost contour point relative to bbox
38     upper triangle area / (w*h)  [x-extremes + topmost point]
39-40  bottommost contour point relative to bbox
41     lower triangle area / (w*h)  [x-extremes + bottommost point]
42     triangle similarity min(area)/max(area) (both zero -> 1)
43-44  eye estimate: centroid of the darkest decile of the head band
       (leftmost 25% of columns), relative to bbox
45     mouth size: foreground vertical extent in the leftmost 5% of
       columns, / h
46     apex angle of the upper triangle at the topmost point, / pi
====== =======================================================================

The head is taken to be on the left: ``pipeline.analyze_image`` mirrors every
fish whose :func:`find_head_side` is ``'right'`` before it calls
:func:`extract_features`.

Every quantity is computed in bbox-local coordinates, so shifting the fish by
whole pixels leaves the vector bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .errors import InconsistentInputs, IoFailure
from .imageio import RgbImage
from .preprocess import central_moments
from .segment import ColorGroups, Contour, FishMask

FEATURE_COUNT = 47
FEATURE_LAYOUT_VERSION = 1

# group boundaries of the layout above
SIZE_SLICE = slice(0, 6)
SHAPE_SLICE = slice(6, 24)
COLOR_SLICE = slice(24, 36)
GEOMETRY_SLICE = slice(36, 47)


@dataclass(frozen=True)
class TrianglePair:
    """Extreme contour points and the two triangles they span."""

    p_xmin: tuple[int, int]
    p_xmax: tuple[int, int]
    p_ymin: tuple[int, int]
    p_ymax: tuple[int, int]
    area_up: float
    area_down: float


def triangle_area(a, b, c) -> float:
    """Shoelace area; exact for integer vertices."""
    return abs(
        (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
    ) / 2.0


def _extreme(pts: np.ndarray, axis: int, take_max: bool):
    """Extreme point along an axis; ties take the smallest other coordinate."""
    other = 1 - axis
    key = -pts[:, axis] if take_max else pts[:, axis]
    i = np.lexsort((pts[:, other], key))[0]
    return (int(pts[i, 0]), int(pts[i, 1]))


def find_head_side(mask: FishMask) -> str:
    """'left' or 'right': the bbox half holding more foreground (tie: left).

    Fish bodies are bulkier at the head than at the tail, which makes the
    denser half a reliable head indicator for side-view silhouettes.
    """
    w = mask.bbox[2]
    left = int(np.count_nonzero(mask.crop(mask.bits)[:, : (w + 1) // 2]))
    return "left" if left >= mask.area - left else "right"


def extract_features(
    img: RgbImage,
    idx: np.ndarray,
    mask: FishMask,
    contour: Contour,
    groups: ColorGroups,
) -> np.ndarray:
    """Compute the 47-value descriptor of a left-facing fish; ``idx`` is a
    full-frame array that holds ``to_indexed(img)`` at the mask's pixels (it
    is read nowhere else). See the module docstring for layout."""
    if not img.pixels.shape[:2] == idx.shape == mask.bits.shape:
        raise InconsistentInputs("image, index and mask dimensions differ")
    if groups.pixel_count != mask.area:
        raise InconsistentInputs("color groups do not match the mask")

    W, H = img.width, img.height
    x0, y0, w, h = mask.bbox
    A = mask.area
    P = contour.perimeter

    bits = mask.crop(mask.bits)
    cxl, cyl, s20, s02, s11 = central_moments(*np.nonzero(bits))  # bbox-local
    ib = mask.crop(idx)
    cpts = contour.points - np.array([x0, y0], dtype=np.int64)

    f = np.zeros(FEATURE_COUNT, dtype=np.float64)

    # size
    f[0] = A / (W * H)
    f[1] = w / W
    f[2] = h / H
    f[3] = P / (2.0 * (W + H))
    f[4] = w / (w + h)
    f[5] = 1.0 if P == 0 else min(1.0, 4.0 * math.pi * A / (P * P))

    # radial signature over 8 sectors of 45 degrees
    dxc = cpts[:, 0] - cxl
    dyc = cpts[:, 1] - cyl
    radii = np.hypot(dxc, dyc)
    rmax = float(radii.max()) if radii.size else 0.0
    if rmax > 0:
        ang = np.mod(np.arctan2(dyc, dxc) + 2.0 * math.pi, 2.0 * math.pi)
        sector = np.minimum((ang // (math.pi / 4.0)).astype(np.int64), 7)
        np.maximum.at(f[6:14], sector, radii)  # an empty sector stays 0
        f[6:14] /= rmax

    # solidity and extent
    hull_area = _hull_area(cpts)
    f[14] = 1.0 if hull_area <= 0.0 else min(1.0, A / hull_area)
    f[15] = A / (w * h)

    # eccentricity and orientation from central second moments
    s20, s02, s11 = s20 / A, s02 / A, s11 / A
    half_tr = 0.5 * (s20 + s02)
    root = math.hypot(0.5 * (s20 - s02), s11)
    lam1 = half_tr + root
    lam2 = max(half_tr - root, 0.0)
    f[16] = math.sqrt(max(0.0, 1.0 - lam2 / lam1)) if lam1 > 0 else 0.0
    theta = 0.5 * math.atan2(2.0 * s11, s20 - s02)
    f[23] = (theta + math.pi / 2.0) / math.pi

    rear_cols = max(1, (2 * w + 5) // 10)  # round(w / 5)
    f[17] = float(np.count_nonzero(bits[:, w - rear_cols :])) / (rear_cols * h)

    f[18] = _boundary_count(bits) / A

    # per-quadrant intensity spread; row y is in the top half exactly when
    # y < h / 2, column x in the left half exactly when x < w / 2
    r, c = (h + 1) // 2, (w + 1) // 2
    quads = itertools.product((slice(r), slice(r, h)), (slice(c), slice(c, w)))
    for qi, quad in enumerate(quads):  # TL, TR, BL, BR
        q = ib[quad][bits[quad]]
        if q.size:
            f[19 + qi] = min(1.0, float(q.std()) / 128.0)

    # color signature
    dmean, vmean = _dorsum_ventral_means(mask.crop(img.pixels), bits, cyl)
    f[24:27] = dmean
    f[27:30] = vmean
    f[30:33] = (dmean - vmean + 1.0) / 2.0
    iv = ib[bits]
    f[33] = float(iv.sum() / A) / 255.0
    f[34] = min(1.0, float(iv.std()) / 128.0)
    f[35] = min(groups.group_count, 32) / 32.0

    # geometric parameters from the extreme-point triangles
    tri = extreme_triangles(cpts)
    f[36] = tri.p_ymin[0] / w
    f[37] = tri.p_ymin[1] / h
    f[38] = tri.area_up / (w * h)
    f[39] = tri.p_ymax[0] / w
    f[40] = tri.p_ymax[1] / h
    f[41] = tri.area_down / (w * h)
    big = max(tri.area_up, tri.area_down)
    f[42] = 1.0 if big == 0.0 else min(tri.area_up, tri.area_down) / big

    head_cols = max(1, (w + 2) // 4)  # round(w / 4)
    # the bbox's first column holds foreground, so both head bands are non-empty
    hy, hx = np.nonzero(bits[:, :head_cols])
    n_dark = max(1, hy.size // 10)
    order = np.argsort(ib[hy, hx], kind="stable")[:n_dark]
    f[43] = float(hx[order].sum() / n_dark) / w
    f[44] = float(hy[order].sum() / n_dark) / h

    mouth_cols = max(1, (w + 10) // 20)  # round(w / 20)
    my = np.flatnonzero(bits[:, :mouth_cols].any(axis=1))
    f[45] = float(my[-1] - my[0] + 1) / h

    v1 = np.array(tri.p_xmin, dtype=np.float64) - tri.p_ymin
    v2 = np.array(tri.p_xmax, dtype=np.float64) - tri.p_ymin
    n1, n2 = np.hypot(*v1), np.hypot(*v2)
    if n1 > 0 and n2 > 0:
        cos_a = min(1.0, max(-1.0, float(v1 @ v2) / (n1 * n2)))
        f[46] = math.acos(cos_a) / math.pi

    out = np.clip(f, 0.0, 1.0)
    if not np.all(np.isfinite(out)):
        raise InconsistentInputs("feature vector contains non-finite values")
    return out


def extreme_triangles(cpts: np.ndarray) -> TrianglePair:
    """Extreme points of (n, 2) integer ``(x, y)`` contour points, and the
    areas the two x-extremes span with the topmost and the bottommost point."""
    p_xmin = _extreme(cpts, 0, False)
    p_xmax = _extreme(cpts, 0, True)
    p_ymin = _extreme(cpts, 1, False)
    p_ymax = _extreme(cpts, 1, True)
    return TrianglePair(
        p_xmin,
        p_xmax,
        p_ymin,
        p_ymax,
        triangle_area(p_xmin, p_xmax, p_ymin),
        triangle_area(p_xmin, p_xmax, p_ymax),
    )


def _dorsum_ventral_means(px: np.ndarray, bits: np.ndarray, cy: float):
    """Per-channel means / 255 of the masked pixels in the rows above ``cy``
    and in the rest (zeros for an empty part). Row y is above ``cy`` exactly
    when y < ceil(cy). The int64 sums are below 2^53, so each quotient is
    the correctly rounded mean, as a float64 gather-and-mean gives."""
    k = math.ceil(cy)
    means = []
    for p, b in ((px[:k], bits[:k]), (px[k:], bits[k:])):
        n = np.count_nonzero(b)
        sums = [np.add.reduce(p[..., c], None, np.int64, where=b, initial=0) for c in range(3)]
        means.append(np.array(sums) / n / 255.0 if n else np.zeros(3))
    return means


def _boundary_count(bits: np.ndarray) -> int:
    """Pixels with a false 4-neighbor or on the raster edge; on the bbox crop
    the count equals the full frame's, whose mask ends at the bbox."""
    inner = bits[1:-1, 1:-1] & bits[:-2, 1:-1] & bits[2:, 1:-1] & bits[1:-1, :-2] & bits[1:-1, 2:]
    return int(np.count_nonzero(bits)) - int(np.count_nonzero(inner))


def _hull_area(pts: np.ndarray) -> float:
    """Convex hull area of (n, 2) integer points: Andrew's monotone chain
    (1979) over each column's top and bottom point, then an exact integer
    shoelace. Fewer than three points or a collinear set have no 2-D hull;
    their area is 0."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    x, y = pts[order, 0], pts[order, 1]
    # every other point of a column lies between its top and its bottom
    top = np.flatnonzero(np.diff(x, prepend=x[0] - 1))
    bottom = np.append(top[1:], x.size) - 1
    hull = []
    for cut in (top, bottom[::-1]):  # tops left to right, then bottoms back
        cx, cy = x[cut], y[cut]
        for _ in range(2):
            # throw away (after Akl & Toussaint 1978) each point on or inside
            # the chord of its chain neighbors: it lies in the hull of them
            # and its column's other end
            turn = (cx[1:-1] - cx[:-2]) * (cy[2:] - cy[:-2]) - (cy[1:-1] - cy[:-2]) * (cx[2:] - cx[:-2])
            keep = np.ones(cx.size, dtype=bool)
            keep[1:-1] = turn > 0
            cx, cy = cx[keep], cy[keep]
        chain = []
        for p in zip(cx.tolist(), cy.tolist()):
            while len(chain) > 1 and (
                (chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                <= (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])
            ):
                chain.pop()
            chain.append(p)
        hull += chain
    twice = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]))
    return abs(twice) / 2.0


def write_features_csv(path, rows) -> None:
    """Write a feature table; ``rows`` yields
    ``(values, family, poison, cluster, split)`` tuples."""
    header = ",".join(f"f{i}" for i in range(FEATURE_COUNT))
    lines = [header + ",family,poison,cluster,split"]
    for values, family, poison, cluster, split in rows:
        nums = ",".join(format(float(v), ".9g") for v in values)
        lines.append(f"{nums},{family},{int(poison)},{cluster},{split}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"writing features to {path}: {exc}") from exc
