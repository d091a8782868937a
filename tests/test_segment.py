import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from fishid import synthgen
from fishid.errors import EmptyForeground, InvalidConfig
from fishid.imageio import RgbImage, sq_distance
from fishid.segment import (
    Contour,
    FishMask,
    divide_segments,
    extract_mask,
    group_by_color,
    trace_contour,
)


def canvas(w, h, color=(0, 0, 255)):
    px = np.empty((h, w, 3), dtype=np.uint8)
    px[:] = color
    return px


def bfs_components(bits):
    """Independent 4-connected labeling oracle."""
    h, w = bits.shape
    seen = np.zeros_like(bits, dtype=bool)
    comps = []
    for y in range(h):
        for x in range(w):
            if bits[y, x] and not seen[y, x]:
                stack = [(x, y)]
                seen[y, x] = True
                comp = []
                while stack:
                    cx, cy = stack.pop()
                    comp.append((cx, cy))
                    for nx, ny in ((cx-1, cy), (cx+1, cy), (cx, cy-1), (cx, cy+1)):
                        if 0 <= nx < w and 0 <= ny < h and bits[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((nx, ny))
                comps.append(comp)
    return comps


def color_flood_fill(bits, px, eps):
    """Independent oracle: 4-connected groups of foreground pixels whose
    neighbors' colors lie within ``eps``."""
    colors = px.astype(int).tolist()

    def near(a, b):
        pa, pb = colors[a[0]][a[1]], colors[b[0]][b[1]]
        return sum((u - v) ** 2 for u, v in zip(pa, pb)) <= eps * eps

    h, w = bits.shape
    seen = np.zeros_like(bits)
    groups = []
    for y in range(h):
        for x in range(w):
            if bits[y, x] and not seen[y, x]:
                seen[y, x] = True
                stack, group = [(y, x)], []
                while stack:
                    cy, cx = stack.pop()
                    group.append((cy, cx))
                    for ny, nx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
                        if (
                            0 <= ny < h and 0 <= nx < w and bits[ny, nx]
                            and not seen[ny, nx] and near((cy, cx), (ny, nx))
                        ):
                            seen[ny, nx] = True
                            stack.append((ny, nx))
                groups.append(group)
    return groups


# Moore neighborhood in clockwise order (x right, y down): W, NW, N, NE, E, SE, S, SW
MOORE = ((-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1))
MOORE_INDEX = {d: i for i, d in enumerate(MOORE)}


def reference_trace(mask):
    """The per-step Moore trace: probe the neighbors one by one, clockwise
    from the backtrack pixel, and stop when a (pixel, backtrack) state
    repeats."""
    bits = mask.bits
    h, w = bits.shape
    y0 = mask.bbox[1]
    start = (int(np.argmax(bits[y0])), y0)

    def fg(x, y):
        return 0 <= x < w and 0 <= y < h and bits[y, x]

    back0 = (start[0] - 1, start[1])  # virtual entry from the west
    points = [start]
    state0 = (start, back0)
    seen = {state0}
    cur, back = start, back0
    while True:
        cx, cy = cur
        k = MOORE_INDEX[(back[0] - cx, back[1] - cy)]
        step = None
        for i in range(1, 9):
            dx, dy = MOORE[(k + i) % 8]
            if fg(cx + dx, cy + dy):
                pdx, pdy = MOORE[(k + i - 1) % 8]
                step = ((cx + dx, cy + dy), (cx + pdx, cy + pdy))
                break
        if step is None:
            break  # isolated pixel
        if step == state0 or step in seen:
            break
        seen.add(step)
        points.append(step[0])
        cur, back = step
    if len(points) >= 2 and points[-1] == points[0]:
        points.pop()
    pts = np.array(points, dtype=np.int64)
    if len(pts) < 2:
        return Contour(pts, 0.0)
    diffs = pts - np.roll(pts, 1, axis=0)  # includes the closing step
    perim = float(np.hypot(diffs[:, 0], diffs[:, 1]).sum())
    return Contour(pts, perim)


def contour_test_mask(kind, h, w, seed, pads):
    """An (h, w) foreground of the given kind, framed by ``pads`` (top,
    bottom, left, right) rows and columns of background; a pad of 0 puts
    the bbox on that frame edge."""
    rng = np.random.default_rng(seed)
    core = np.zeros((h, w), dtype=bool)
    if kind == "blob":
        core = rng.random((h, w)) < rng.uniform(0.2, 0.9)
    elif kind == "pixel":
        core[rng.integers(h), rng.integers(w)] = True
    elif kind == "line":
        if rng.random() < 0.5:
            core[rng.integers(h), :] = True
        else:
            core[:, rng.integers(w)] = True
    elif kind == "diagonal":  # one pixel per row, each row one column off the last
        x = int(rng.integers(w))
        for y in range(h if w > 1 else 1):
            core[y, x] = True
            step = 1 if rng.random() < 0.5 else -1
            x += step if 0 <= x + step < w else -step
    elif kind == "holes":
        core[:] = True
        core[1:-1, 1:-1] = rng.random((max(h - 2, 0), max(w - 2, 0))) >= 0.3
    if not core.any():
        core[rng.integers(h), rng.integers(w)] = True
    top, bottom, left, right = pads
    bits = np.zeros((h + top + bottom, w + left + right), dtype=bool)
    bits[top : top + h, left : left + w] = core
    return FishMask.from_bits(bits)


def disk_mask(r=50, pad=10):
    side = 2 * (r + pad)
    yy, xx = np.mgrid[0:side, 0:side]
    bits = (xx - side // 2) ** 2 + (yy - side // 2) ** 2 <= r * r
    return FishMask.from_bits(bits)


def full_frame_mask(px, background, tol):
    """Reference: ndimage.label over the whole frame; the largest component
    holding the first row-major pixel wins."""
    d = px.astype(np.int64) - np.asarray(background, dtype=np.int64)
    labels, count = ndimage.label((d * d).sum(axis=2) > tol * tol)  # 4-connected
    if count == 0:
        return labels > 0
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    first = next(i for i, lab in enumerate(labels.ravel()) if sizes[lab] == sizes.max())
    return labels == labels.ravel()[first]


def first_largest(bits):
    """Flood-fill oracle for the mask: the largest component; among equal
    sizes, the one holding the first row-major pixel (``bfs_components``
    lists components in that order)."""
    comps = bfs_components(bits)
    best = max(comps, key=len)  # max keeps the first of equal keys
    out = np.zeros_like(bits, dtype=bool)
    xs, ys = zip(*best)
    out[list(ys), list(xs)] = True
    return out


def lattice_group_count(mask, img, eps):
    """The former ``group_by_color``: pixel (i, j) at lattice cell (2i, 2j),
    the cell between two 4-neighbors set when their colors are within eps,
    and ``ndimage.label`` counting the lattice's 4-connected components."""
    bits = mask.crop(mask.bits)
    px = mask.crop(img.pixels)
    h, w = bits.shape
    lat = np.zeros((2 * h - 1, 2 * w - 1), dtype=bool)
    lat[::2, ::2] = bits
    tol = eps * eps
    lat[::2, 1::2] = (sq_distance(px[:, 1:], px[:, :-1]) <= tol) & bits[:, 1:] & bits[:, :-1]
    lat[1::2, ::2] = (sq_distance(px[1:], px[:-1]) <= tol) & bits[1:] & bits[:-1]
    return ndimage.label(lat)[1]  # 4-connected


@st.composite
def random_masks(draw):
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((h, w)) < draw(st.floats(0.05, 0.95))


@st.composite
def tied_layouts(draw):
    """2-4 copies of one random shape, each shifted at random inside its own
    cell of a row of cells, below a row of single-pixel specks: size ties
    whose first row-major pixel can fall in any copy, after smaller (or,
    for a one-pixel shape, equal) components."""
    sh, sw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = rng.random((sh, sw)) < 0.7
    shape[rng.integers(sh), rng.integers(sw)] = True
    shape = first_largest(shape)  # one component
    copies = draw(st.integers(2, 4))
    cell_h, cell_w = sh + draw(st.integers(0, 3)), sw + draw(st.integers(0, 3))
    bits = np.zeros((cell_h + 2, copies * (cell_w + 1)), dtype=bool)
    bits[0, ::2] = rng.random(bits[0, ::2].shape) < 0.3  # row 1 stays background
    for k in range(copies):
        y = 2 + rng.integers(cell_h - sh + 1)
        x = k * (cell_w + 1) + rng.integers(cell_w - sw + 1)
        bits[y : y + sh, x : x + sw] |= shape
    return bits


class TestSqDistance:
    @settings(max_examples=60)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_int64_reference(self, h, w, seed):
        rng = np.random.default_rng(seed)
        extremes = np.array([0, 1, 254, 255], dtype=np.uint8)
        a, b = (rng.choice(extremes, (h, w, 3)) if rng.random() < 0.5
                else rng.integers(0, 256, (h, w, 3), dtype=np.uint8) for _ in range(2))
        ref = ((a.astype(np.int64) - b) ** 2).sum(axis=2)
        assert np.array_equal(sq_distance(a, b), ref)
        for color in (b[0, 0], b[0, 0].astype(np.int32)):
            ref = ((a.astype(np.int64) - color.astype(np.int64)) ** 2).sum(axis=2)
            assert np.array_equal(sq_distance(a, color), ref)

    def test_extreme_channels(self):
        white = np.full((1, 2, 3), 255, dtype=np.uint8)
        assert sq_distance(white, np.zeros(3, dtype=np.uint8)).tolist() == [[3 * 255**2] * 2]
        assert sq_distance(white, white).tolist() == [[0, 0]]


class TestExtractMask:
    def test_single_square(self):
        px = canvas(40, 30)
        px[5:15, 8:18] = (255, 0, 0)
        mask = extract_mask(RgbImage(px), (0, 0, 255), 50.0)
        assert mask.area == 100
        assert mask.bbox == (8, 5, 10, 10)

    def test_largest_component_kept(self):
        px = canvas(40, 30)
        px[5:15, 5:15] = (255, 0, 0)  # 100 px
        px[20:23, 20:23] = (255, 0, 0)  # 9 px
        mask = extract_mask(RgbImage(px), (0, 0, 255), 50.0)
        assert mask.area == 100
        assert not mask.bits[21, 21]

    @pytest.mark.parametrize("layout", [
        """
        .......
        .WW....
        .WW....
        .......
        ....xx.
        ....xx.
        """,
        """
        W..............W
        W.xxxxxxxxxxxx.W
        W.xxxxxxxxxxxx.W
        W..............W
        WWWWWWWWWWWWWWWW
        """,
        """
        ..WWWWWWWWWWW...
        x.WWWWWWWWWWW..x
        x..............x
        x..............x
        xxxxxxxxxxxxxxxx
        """,
        """
        ....WW..
        x...WW..
        x.......
        x.....xx
        x.....xx
        """,
    ], ids=["two-squares", "U-then-bar", "bar-then-U", "three-ties"])
    def test_size_tie_takes_first_row_major(self, layout):
        """Components of one size: the one holding the first row-major
        foreground pixel (W) wins over the others (x)."""
        grid = np.array([list(row) for row in layout.split()])
        fg = grid != "."
        assert len({len(comp) for comp in bfs_components(fg)}) == 1
        assert grid[fg][0] == "W"
        px = canvas(grid.shape[1], grid.shape[0])
        px[fg] = (255, 0, 0)
        mask = extract_mask(RgbImage(px), (0, 0, 255), 50.0)
        assert np.array_equal(mask.bits, grid == "W")

    def test_all_background(self):
        with pytest.raises(EmptyForeground):
            extract_mask(RgbImage(canvas(10, 10)), (0, 0, 255), 50.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_bad_tolerance(self, tol):
        px = canvas(40, 30)
        px[5:15, 8:18] = (255, 0, 0)
        with pytest.raises(InvalidConfig):
            extract_mask(RgbImage(px), (0, 0, 255), tol)

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.floats(0.05, 0.7),
        st.sampled_from([None, "top", "bottom", "left", "right"]),
        st.sampled_from([30.0, 60.0, 100.0]) | st.floats(1.0, 300.0),
    )
    def test_matches_full_frame_labeling(self, h, w, seed, density, edge, tol):
        """Random multi-component canvases; a strip can pin a component to
        one frame edge. Colors on a 60-step grid put distances exactly at tol."""
        rng = np.random.default_rng(seed)
        background = tuple(int(v) for v in rng.integers(0, 5, 3) * 60)
        px = (rng.integers(0, 5, (h, w, 3)) * 60).astype(np.uint8)
        px[rng.random((h, w)) >= density] = background
        strip = {"top": (0, slice(None)), "bottom": (-1, slice(None)),
                 "left": (slice(None), 0), "right": (slice(None), -1)}.get(edge)
        if strip is not None:
            px[strip] = [255 - v for v in background]
        expected = full_frame_mask(px, background, tol)
        if not expected.any():
            with pytest.raises(EmptyForeground):
                extract_mask(RgbImage(px), background, tol)
            return
        mask = extract_mask(RgbImage(px), background, tol)
        assert np.array_equal(mask.bits, expected)
        assert mask.area == int(expected.sum())
        assert mask.bbox == FishMask.from_bits(expected).bbox
        rescanned = FishMask.from_bits(mask.bits)  # the full-frame scan extract_mask skips
        assert (mask.area, mask.bbox) == (rescanned.area, rescanned.bbox)

    @settings(deadline=None, max_examples=300)
    @given(random_masks() | tied_layouts())
    def test_matches_flood_fill(self, fg):
        """Random masks and tied copies of one shape: bits, area and bbox of
        the first largest flood-fill component."""
        px = canvas(fg.shape[1], fg.shape[0])
        px[fg] = (255, 0, 0)
        if not fg.any():
            with pytest.raises(EmptyForeground):
                extract_mask(RgbImage(px), (0, 0, 255), 50.0)
            return
        expected = first_largest(fg)
        mask = extract_mask(RgbImage(px), (0, 0, 255), 50.0)
        assert np.array_equal(mask.bits, expected)
        assert mask.area == int(expected.sum())
        assert mask.bbox == FishMask.from_bits(expected).bbox

    def test_binary_noise_frame_is_fast(self):
        """The run graph's worst case: a 1600x820 frame of binary noise, about
        650k runs for the color groups of the whole frame."""
        rng = np.random.default_rng(0)
        px = canvas(1600, 820)
        px[rng.random((820, 1600)) < 0.5] = (255, 0, 0)
        img = RgbImage(px)
        whole = FishMask(np.ones((820, 1600), dtype=bool), 820 * 1600, (0, 0, 1600, 820))
        start = time.perf_counter()
        extract_mask(img, (0, 0, 255), 50.0)
        groups = group_by_color(whole, img, 10.0)
        assert time.perf_counter() - start < 2.0
        assert groups.group_count == lattice_group_count(whole, img, 10.0)

    @pytest.mark.parametrize("y, x", [(0, 0), (0, -1), (-1, 0), (-1, -1)])
    def test_single_pixel_in_a_corner(self, y, x):
        px = canvas(7, 5)
        px[y, x] = (255, 0, 0)
        mask = extract_mask(RgbImage(px), (0, 0, 255), 50.0)
        expected = np.zeros((5, 7), dtype=bool)
        expected[y, x] = True
        assert np.array_equal(mask.bits, expected)
        assert mask.area == 1

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_output_is_single_component(self, seed):
        cfg = synthgen.SynthConfig()
        spec = synthgen.default_families()[seed % 7]
        img = synthgen.render_fish(spec, seed, cfg)
        mask = extract_mask(img, cfg.background, 40.0)
        comps = bfs_components(mask.bits)
        assert len(comps) == 1
        assert len(comps[0]) == mask.area


class TestTraceContour:
    def test_single_pixel(self):
        bits = np.zeros((3, 3), dtype=bool)
        bits[1, 1] = True
        c = trace_contour(FishMask.from_bits(bits))
        assert c.points.tolist() == [[1, 1]]
        assert c.perimeter == 0.0

    def test_filled_3x3_square(self):
        bits = np.zeros((5, 5), dtype=bool)
        bits[1:4, 1:4] = True
        c = trace_contour(FishMask.from_bits(bits))
        assert len(c.points) == 8
        assert c.perimeter == 8.0

    def test_disk_perimeter_close_to_circumference(self):
        c = trace_contour(disk_mask(50))
        lo, hi = 2 * math.pi * 50, 2 * math.pi * 50 * 1.15
        assert lo <= c.perimeter <= hi

    def test_points_are_boundary_pixels_and_8_connected(self):
        mask = disk_mask(12, pad=4)
        c = trace_contour(mask)
        bits = mask.bits
        h, w = bits.shape
        for x, y in c.points:
            assert bits[y, x]
            on_edge = x in (0, w - 1) or y in (0, h - 1)
            has_bg_4n = any(
                not (0 <= nx < w and 0 <= ny < h and bits[ny, nx])
                for nx, ny in ((x-1, y), (x+1, y), (x, y-1), (x, y+1))
            )
            assert on_edge or has_bg_4n
        rolled = np.roll(c.points, -1, axis=0)
        steps = np.abs(rolled - c.points)
        assert (steps.max(axis=1) == 1).all()

    @pytest.mark.parametrize("shape", ["disk", "rectangle"])
    def test_digitization_sandwich_for_convex_shapes(self, shape):
        if shape == "disk":
            mask = disk_mask(20, pad=5)
        else:
            bits = np.zeros((30, 40), dtype=bool)
            bits[5:25, 10:34] = True
            mask = FishMask.from_bits(bits)
        c = trace_contour(mask)
        x, y = c.points[:, 0], c.points[:, 1]
        shoelace = abs(float(x @ np.roll(y, -1) - np.roll(x, -1) @ y)) / 2.0
        assert shoelace <= mask.area <= shoelace + c.perimeter

    @settings(deadline=None, max_examples=400)
    @given(
        st.sampled_from(["blob", "pixel", "line", "diagonal", "holes"]),
        st.integers(1, 14),
        st.integers(1, 14),
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.integers(0, 2)] * 4),
    )
    def test_matches_reference_trace(self, kind, h, w, seed, pads):
        mask = contour_test_mask(kind, h, w, seed, pads)
        got, want = trace_contour(mask), reference_trace(mask)
        assert got.points.dtype == want.points.dtype
        assert got.points.shape == want.points.shape
        assert got.points.tobytes() == want.points.tobytes()
        assert got.perimeter == want.perimeter


class TestDivideSegments:
    def fish(self):
        px = canvas(50, 40)
        px[10:30, 5:45] = (255, 0, 0)
        return RgbImage(px), extract_mask(RgbImage(px), (0, 0, 255), 50.0)

    def test_k1_band_is_bbox(self):
        img, mask = self.fish()
        bands = divide_segments(mask, img, 1)
        assert len(bands) == 1
        bbox, mean, count = bands[0]
        assert bbox == mask.bbox
        assert count == mask.area
        assert mean == (255.0, 0.0, 0.0)

    def test_uniform_color_k4(self):
        img, mask = self.fish()
        for bbox, mean, count in divide_segments(mask, img, 4):
            assert mean == (255.0, 0.0, 0.0)
            assert count > 0

    def test_k_larger_than_width_gives_trailing_empty_bands(self):
        px = canvas(20, 10)
        px[2:8, 5:8] = (255, 0, 0)  # bbox width 3
        img = RgbImage(px)
        mask = extract_mask(img, (0, 0, 255), 50.0)
        bands = divide_segments(mask, img, 5)
        assert len(bands) == 5
        widths = [b[0][2] for b in bands]
        assert widths == [1, 1, 1, 0, 0]
        assert [b[2] for b in bands[3:]] == [0, 0]
        assert all(b[1] == (0.0, 0.0, 0.0) for b in bands[3:])

    def test_counts_sum_to_area_for_all_k(self):
        img, mask = self.fish()
        for k in range(1, mask.bbox[2] + 1):
            bands = divide_segments(mask, img, k)
            assert sum(b[2] for b in bands) == mask.area


class TestGroupByColor:
    def test_uniform_fish_single_group(self):
        px = canvas(30, 20)
        px[5:15, 5:25] = (200, 10, 10)
        img = RgbImage(px)
        mask = extract_mask(img, (0, 0, 255), 50.0)
        assert group_by_color(mask, img, 0.0).group_count == 1

    def test_two_halves_two_groups(self):
        px = canvas(30, 20)
        px[5:15, 5:15] = (200, 10, 10)
        px[5:15, 15:25] = (80, 10, 10)  # 120 apart on the red channel
        img = RgbImage(px)
        mask = extract_mask(img, (0, 0, 255), 50.0)
        assert group_by_color(mask, img, 10.0).group_count == 2

    @pytest.mark.parametrize("eps", [-1.0, float("nan")])
    def test_bad_tolerance(self, eps):
        px = canvas(30, 20)
        px[5:15, 5:25] = (200, 10, 10)
        img = RgbImage(px)
        mask = extract_mask(img, (0, 0, 255), 50.0)
        with pytest.raises(InvalidConfig):
            group_by_color(mask, img, eps)

    def test_max_tolerance_saturates_to_one_group(self):
        rng = np.random.default_rng(5)
        px = canvas(20, 20)
        px[4:16, 4:16] = rng.integers(0, 256, (12, 12, 3))
        img = RgbImage(px)
        mask = extract_mask(img, (0, 0, 255), 200.0)
        if mask.area > 1:
            assert group_by_color(mask, img, 441.68).group_count == 1

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_group_count_monotone_in_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        px = canvas(16, 12)
        px[2:10, 2:14] = rng.integers(0, 256, (8, 12, 3))
        img = RgbImage(px)
        try:
            mask = extract_mask(img, (0, 0, 255), 30.0)
        except EmptyForeground:
            return
        counts = [group_by_color(mask, img, eps).group_count for eps in (5.0, 40.0, 120.0, 441.7)]
        assert counts == sorted(counts, reverse=True)

    @settings(deadline=None, max_examples=150)
    @given(
        st.integers(1, 9),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 0.95),
        st.integers(1, 3),
        st.sampled_from([0.0, 60.0, 120.0, 180.0]) | st.floats(0.0, 450.0),
    )
    def test_group_count_matches_flood_fill(self, h, w, seed, density, colors, eps):
        """Random masks, holes and several components included, set in a
        frame whose off-mask pixels carry palette colors too. A small
        palette on a 60-step grid puts many neighbor pairs exactly at eps."""
        rng = np.random.default_rng(seed)
        bits = np.zeros((h + 4, w + 4), dtype=bool)
        bits[2 : 2 + h, 2 : 2 + w] = rng.random((h, w)) < density
        if not bits.any():
            bits[2 + h // 2, 2 + w // 2] = True
        palette = (rng.integers(0, 4, (colors, 3)) * 60).astype(np.uint8)
        px = palette[rng.integers(0, colors, bits.shape)]
        mask = FishMask.from_bits(bits)
        groups = group_by_color(mask, RgbImage(px), eps)
        assert groups.pixel_count == mask.area
        assert groups.group_count == len(color_flood_fill(bits, px, eps))

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(1, 16),
        st.integers(1, 16),
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 1.0),
        st.integers(1, 4),
        st.sampled_from([0.0, 60.0, 120.0]) | st.floats(0.0, 450.0),
    )
    def test_group_count_matches_lattice_labeling(self, h, w, seed, density, colors, eps):
        rng = np.random.default_rng(seed)
        bits = rng.random((h, w)) < density
        if not bits.any():
            bits[h // 2, w // 2] = True
        palette = (rng.integers(0, 4, (colors, 3)) * 60).astype(np.uint8)
        img = RgbImage(palette[rng.integers(0, colors, bits.shape)])
        mask = FishMask.from_bits(bits)
        assert group_by_color(mask, img, eps).group_count == lattice_group_count(mask, img, eps)
