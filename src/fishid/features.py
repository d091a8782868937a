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
14     solidity A / convex hull area of the mask (degenerate hull -> 1)
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
36-37  topmost mask point relative to bbox
38     upper triangle area / (w*h)  [x-extremes + topmost point]
39-40  bottommost mask point relative to bbox
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

import itertools
import math

import numpy as np

from .errors import InconsistentInputs
from .imageio import RgbImage, planes, write_file
from .preprocess import central_moments, pixel_coords
from .segment import ColorGroups, Contour, FishMask

FEATURE_COUNT = 47
FEATURE_LAYOUT_VERSION = 1


def triangle_area(a, b, c) -> float:
    """Shoelace area; exact for integer vertices."""
    return abs(
        (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
    ) / 2.0


def find_head_side(mask: FishMask) -> str:
    """'left' or 'right': the bbox half holding more foreground (tie: left).

    Fish bodies are bulkier at the head than at the tail, which makes the
    denser half a reliable head indicator for side-view silhouettes.
    """
    w = mask.bbox[2]
    left = int(np.count_nonzero(mask.box_bits[:, : (w + 1) // 2]))
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
    is read nowhere else). See the module docstring for layout. ``mask`` must
    be one 4-connected component, as ``FishMask`` documents: the extreme
    points are read off its bbox crop. The bbox crops of the channel planes
    and of ``idx`` are taken here; ``analyze_image`` hands its own to
    :func:`_extract_features`."""
    if not img.pixels.shape[:2] == idx.shape == mask.shape:
        raise InconsistentInputs("image, index and mask dimensions differ")
    return _extract_features(planes(mask.crop(img.pixels)), mask.crop(idx), mask, contour, groups)


def _extract_features(p, ib, mask, contour, groups) -> np.ndarray:
    """:func:`extract_features` given ``p`` and ``ib``, the (3, h, w) planes
    and the (h, w) intensity index of the mask's bbox crop of the image."""
    if groups.pixel_count != mask.area:
        raise InconsistentInputs("color groups do not match the mask")

    H, W = mask.shape
    x0, y0, w, h = mask.bbox
    A = mask.area
    P = contour.perimeter

    bits = mask.box_bits
    ys, xs = pixel_coords(bits)  # bbox-local, row-major
    cxl, cyl, s20, s02, s11 = central_moments(ys, xs)
    iv = ib[bits]  # in the same order
    cpts = contour.points - np.array([x0, y0], dtype=np.int64)

    f = np.zeros(FEATURE_COUNT, dtype=np.float64)

    # size
    f[0] = A / (W * H)
    f[1] = w / W
    f[2] = h / H
    f[3] = P / (2.0 * (W + H))
    f[4] = w / (w + h)
    f[5] = 1.0 if P == 0 else 4.0 * math.pi * A / (P * P)

    # radial signature over 8 sectors of 45 degrees
    dxc = cpts[:, 0] - cxl
    dyc = cpts[:, 1] - cyl
    radii = np.hypot(dxc, dyc)
    rmax = float(radii.max())  # a contour holds at least its start pixel
    if rmax > 0:
        ang = np.mod(np.arctan2(dyc, dxc) + 2.0 * math.pi, 2.0 * math.pi)
        sector = np.minimum((ang // (math.pi / 4.0)).astype(np.int64), 7)
        np.maximum.at(f[6:14], sector, radii)  # an empty sector stays 0
        f[6:14] /= rmax

    # solidity and extent
    hull_area = _hull_area(bits)
    f[14] = 1.0 if hull_area <= 0.0 else A / hull_area
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

    f[18] = (A - _interior_count(bits)) / A

    # per-quadrant intensity spread; row y is in the top half exactly when
    # y < h / 2, column x in the left half exactly when x < w / 2
    r, c = (h + 1) // 2, (w + 1) // 2
    quads = itertools.product((slice(r), slice(r, h)), (slice(c), slice(c, w)))
    for qi, quad in enumerate(quads):  # TL, TR, BL, BR
        q = ib[quad][bits[quad]]
        if q.size:
            f[19 + qi] = float(q.std()) / 128.0

    # color signature
    dmean, vmean = _dorsum_ventral_means(p, bits, cyl)
    f[24:27] = dmean
    f[27:30] = vmean
    f[30:33] = (dmean - vmean + 1.0) / 2.0
    f[33] = float(iv.sum() / A) / 255.0
    f[34] = float(iv.std()) / 128.0
    f[35] = min(groups.group_count, 32) / 32.0

    # the extreme-point triangles; an extreme is the first foreground pixel along its bbox edge
    p_xmin, p_xmax = (0, int(np.argmax(bits[:, 0]))), (w - 1, int(np.argmax(bits[:, -1])))
    p_ymin, p_ymax = (int(np.argmax(bits[0])), 0), (int(np.argmax(bits[-1])), h - 1)
    area_up, area_down = triangle_area(p_xmin, p_xmax, p_ymin), triangle_area(p_xmin, p_xmax, p_ymax)
    f[36], f[37], f[38] = p_ymin[0] / w, p_ymin[1] / h, area_up / (w * h)
    f[39], f[40], f[41] = p_ymax[0] / w, p_ymax[1] / h, area_down / (w * h)
    big = max(area_up, area_down)
    f[42] = 1.0 if big == 0.0 else min(area_up, area_down) / big

    head_cols = max(1, (w + 2) // 4)  # round(w / 4)
    # the head band's pixels in row-major order, as np.nonzero of its columns gives
    # them; the bbox's first column holds foreground, so the band is non-empty
    head = xs < head_cols
    hy, hx = ys[head], xs[head]
    n_dark = max(1, hy.size // 10)
    order = np.argsort(iv[head], kind="stable")[:n_dark]
    f[43] = float(hx[order].sum() / n_dark) / w
    f[44] = float(hy[order].sum() / n_dark) / h

    mouth_cols = max(1, (w + 10) // 20)  # round(w / 20)
    my = np.flatnonzero(bits[:, :mouth_cols].any(axis=1))
    f[45] = float(my[-1] - my[0] + 1) / h

    v1 = np.array(p_xmin, dtype=np.float64) - p_ymin
    v2 = np.array(p_xmax, dtype=np.float64) - p_ymin
    n1, n2 = np.hypot(*v1), np.hypot(*v2)
    if n1 > 0 and n2 > 0:
        cos_a = min(1.0, max(-1.0, float(v1 @ v2) / (n1 * n2)))
        f[46] = math.acos(cos_a) / math.pi

    out = np.clip(f, 0.0, 1.0)
    if not np.all(np.isfinite(out)):
        raise InconsistentInputs("feature vector contains non-finite values")
    return out


def _dorsum_ventral_means(p: np.ndarray, bits: np.ndarray, cy: float):
    """Per-channel means / 255 of the masked pixels of planes ``p`` in the rows
    above ``cy`` and in the rest (zeros for an empty part). Row y is above ``cy``
    exactly when y < ceil(cy). The int64 sums are below 2^53, so each quotient
    is the correctly rounded mean, as a float64 gather-and-mean gives."""
    k = math.ceil(cy)
    means = []
    for part, b in ((p[:, :k], bits[:k]), (p[:, k:], bits[k:])):
        n = np.count_nonzero(b)
        sums = [np.add.reduce(c, None, np.int64, where=b, initial=0) for c in part]
        means.append(np.array(sums) / n / 255.0 if n else np.zeros(3))
    return means


def _interior_count(bits: np.ndarray) -> int:
    """Foreground pixels whose four 4-neighbors are all foreground (a pixel on
    the raster edge lacks some). The mask's other pixels are its boundary
    (f18); on the bbox crop they are the full frame's, whose mask ends at the
    bbox."""
    inner = bits[1:-1, 1:-1] & bits[:-2, 1:-1] & bits[2:, 1:-1] & bits[1:-1, :-2] & bits[1:-1, 2:]
    return int(np.count_nonzero(inner))


def _hull_area(bits: np.ndarray) -> float:
    """Convex hull area of the foreground pixels of a 2-D mask, in pixel
    coordinates: Andrew's monotone chain (1979) over each row's first and
    last pixel, with the row number as the chain's x, then an exact integer
    shoelace (swapping the axes keeps the area). Rows without foreground are
    left out. Fewer than three pixels or a collinear set have no 2-D hull;
    their area is 0."""
    y = np.arange(bits.shape[0])
    # every other pixel of a row lies between its ends; argmax along a row reads it contiguously
    first, last = np.argmax(bits, axis=1), bits.shape[1] - 1 - np.argmax(bits[:, ::-1], axis=1)
    some = bits[y, first]  # an empty row's argmax points at a background pixel
    y, first, last = y[some], first[some], last[some]
    hull = []
    for cx, cy in ((y, first), (y[::-1], last[::-1])):  # first ends down, then last ends back up
        for _ in range(2):
            # throw away (after Akl & Toussaint 1978) each point on or inside
            # the chord of its chain neighbors: it lies in the hull of them
            # and its row's other end
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
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"), "features")
