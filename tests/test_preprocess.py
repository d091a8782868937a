import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fishid import imageio, synthgen
from fishid.errors import EmptyForeground, ImageTooSmall
from fishid.imageio import RgbImage
from fishid.preprocess import (
    PreprocessConfig,
    central_moments,
    filter_and_unify,
    median_filter,
    normalize_rotation,
    pixel_coords,
    unify_background,
)


def rotated_ellipse(angle_deg, a=70, b=30, size=(200, 260)):
    h, w = size
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    t = math.radians(angle_deg)
    dx, dy = xx - w / 2, yy - h / 2
    u = dx * math.cos(t) + dy * math.sin(t)
    v = -dx * math.sin(t) + dy * math.cos(t)
    inside = (u / a) ** 2 + (v / b) ** 2 <= 1
    px = np.full((h, w, 3), 255, dtype=np.uint8)
    px[inside] = (180, 40, 40)
    return RgbImage(px)



def full_frame_rotation(img, background_color):
    """Reference resampler: maps every pixel of the frame, where
    ``normalize_rotation`` maps only the window the foreground can reach."""
    bg = np.array(background_color, dtype=np.uint8)
    ys, xs = np.nonzero(np.any(img.pixels != bg, axis=2))
    if ys.size == 0:
        raise EmptyForeground("image has no non-background pixels")
    cx, cy, s20, s02, s11 = central_moments(ys - ys.min(), xs - xs.min())
    theta = 0.5 * math.atan2(2.0 * s11, s20 - s02)
    if abs(theta) < math.radians(0.5):
        return img
    x0, y0 = int(xs.min()), int(ys.min())
    h, w = img.height, img.width
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


def small_bands(band_bytes):
    """Cut the band budget to ``band_bytes``, so that small frames span
    several bands, down to 1-row bands and a short last band."""
    return mock.patch.object(imageio, "_BAND_BYTES", band_bytes)


MEDIAN_CASES = (st.integers(0, 2**32 - 1), st.sampled_from([0, 1]), st.sampled_from([2, 3, 256]))
FILTER_CASES = (
    st.integers(3, 10),
    st.integers(3, 10),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1]),
    st.sampled_from([0.0, 10.0, 25.0, 120.0, 441.0, 1000.0]),
    st.sampled_from(["empty", "blob", "top", "bottom", "left", "right", "noise", "tie", "ring"]),
)
ROTATION_CASES = (
    st.integers(3, 48),
    st.integers(3, 64),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.5, -0.5, 45.0, -45.0, 90.0, -90.0]),
    st.floats(-1.0, 1.0),
    st.sampled_from([None, "blob", "top", "bottom", "left", "right"]),
)


class TestMedianFilter:
    def test_radius_zero_is_identity(self):
        rng = np.random.default_rng(1)
        img = RgbImage(rng.integers(0, 256, (6, 9, 3), dtype=np.uint8))
        assert median_filter(img, 0) is img

    def test_center_outlier_removed(self):
        px = np.full((3, 3, 3), 100, dtype=np.uint8)
        px[1, 1] = (255, 255, 255)
        out = median_filter(RgbImage(px), 1)
        assert out.pixels[1, 1].tolist() == [100, 100, 100]

    def test_constant_field_unchanged(self):
        img = RgbImage(np.full((5, 4, 3), 7, dtype=np.uint8))
        assert np.array_equal(median_filter(img, 1).pixels, img.pixels)

    @given(st.integers(0, 255), st.sampled_from([0, 1]))
    def test_idempotent_on_constant_images(self, v, radius):
        img = RgbImage(np.full((6, 6, 3), v, dtype=np.uint8))
        once = median_filter(img, radius)
        twice = median_filter(once, radius)
        assert np.array_equal(twice.pixels, once.pixels)

    def test_bad_radius(self):
        img = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            median_filter(img, 3)

    @settings(deadline=None, max_examples=40)
    @given(*MEDIAN_CASES)
    def test_matches_np_median_of_padded_windows(self, seed, radius, levels):
        """Oracle: np.median over each edge-padded (2r+1)^2 window, per channel,
        for every shape from 1x1 to 8x8. Few levels (0/255 included) put many
        equal values in one window."""
        rng = np.random.default_rng(seed)
        side = 2 * radius + 1
        for h in range(1, 9):
            for w in range(1, 9):
                px = (rng.integers(0, levels, (h, w, 3)) * (255 // (levels - 1))).astype(np.uint8)
                padded = np.pad(px, ((radius, radius), (radius, radius), (0, 0)), mode="edge")
                windows = np.lib.stride_tricks.sliding_window_view(padded, (side, side), (0, 1))
                expected = np.median(windows, axis=(-2, -1))
                out = median_filter(RgbImage(px), radius).pixels
                assert out.dtype == np.uint8
                assert np.array_equal(out, expected), (h, w)

    @settings(deadline=None, max_examples=40)
    @given(*MEDIAN_CASES)
    def test_matches_np_median_in_small_bands(self, seed, radius, levels):
        """Padded rows of 9..30 bytes: bands of 5..1 rows."""
        with small_bands(48):
            self.test_matches_np_median_of_padded_windows.hypothesis.inner_test(
                self, seed, radius, levels)


def framed(shape, window, bg, box, dist):
    """The frame of ``shape`` (h, w) that a stage's ``(window, box, dist)``
    stands for: a pixel is background where its distance is 0, so ``bg``
    outside ``box`` and wherever ``dist`` is 0, and ``window``, of the box's
    size, elsewhere in it."""
    frame = np.empty(shape + (3,), dtype=np.uint8)
    frame[:] = bg
    if box is None:
        assert window is None and dist is None
    else:
        assert window.shape == frame[box].shape and dist.shape == window.shape[:2]
        inside = frame[box]
        inside[:] = window
        inside[dist == 0] = bg
    return frame


def unified_frame(img, radius, tolerance):
    """``filter_and_unify`` as a frame: ``(frame, background_color)``."""
    window, bg, box, dist = filter_and_unify(img, radius, tolerance)
    return framed(img.pixels.shape[:2], window, bg, box, dist), bg


class TestUnifyBackground:
    def test_near_background_pixel_absorbed(self):
        px = np.full((5, 5, 3), 255, dtype=np.uint8)
        px[2, 2] = (250, 250, 250)
        out, bg = unified_frame(RgbImage(px), 0, 10)
        assert bg == (255, 255, 255)
        assert out[2, 2].tolist() == [255, 255, 255]

    def test_zero_tolerance_keeps_distinct_pixels(self):
        px = np.full((5, 5, 3), 255, dtype=np.uint8)
        px[2, 2] = (250, 250, 250)
        out, bg = unified_frame(RgbImage(px), 0, 0)
        assert out[2, 2].tolist() == [250, 250, 250]

    def test_leaves_its_input_unchanged(self):
        """Unification leaves its input's bytes as they were and hands back a
        frame that shares no memory with it."""
        px = np.full((5, 5, 3), 255, dtype=np.uint8)
        px[1:4, 1:4] = (250, 250, 250)
        px[2, 2] = (0, 0, 0)
        before = px.copy()
        out, _ = unify_background(RgbImage(px), PreprocessConfig())
        assert np.array_equal(px, before)
        assert not np.shares_memory(out.pixels, px)
        assert (out.pixels != 255).sum() == 3

    def test_synthetic_fish_on_blue(self):
        cfg = synthgen.SynthConfig()
        img = synthgen.render_fish(synthgen.default_families()[0], 4, cfg)
        img.pixels[np.all(img.pixels == cfg.background, axis=2)] = (0, 0, 255)
        out, bg = unify_background(RgbImage(img.pixels), PreprocessConfig())
        assert bg == (0, 0, 255)
        fish_before = np.any(img.pixels != (0, 0, 255), axis=2)
        fish_after = np.any(out.pixels != (0, 0, 255), axis=2)
        assert np.array_equal(fish_before, fish_after)
        assert np.array_equal(out.pixels[fish_after], img.pixels[fish_before])

    def test_border_mode_tie_breaks_lexicographically(self):
        # two border colors with equal counts; smallest (r, g, b) must win
        px = np.zeros((4, 4, 3), dtype=np.uint8)
        px[:2, :] = (10, 0, 0)
        px[2:, :] = (0, 10, 0)
        _, bg, _, _ = filter_and_unify(RgbImage(px), 0, 0)
        assert bg == (0, 10, 0)

    def test_border_tie_orders_red_then_green_then_blue(self):
        # four border pixels of each color; (0, 0, 200) is lexicographically
        # smallest although its blue value is the largest channel value here
        px = np.zeros((4, 4, 3), dtype=np.uint8)
        px[0, :] = (1, 0, 0)
        px[-1, :] = (0, 1, 0)
        px[1:-1, 0] = px[1:-1, -1] = (0, 0, 200)
        _, bg, _, _ = filter_and_unify(RgbImage(px), 0, 0)
        assert bg == (0, 0, 200)

    def test_too_small(self):
        with pytest.raises(ImageTooSmall):
            unify_background(RgbImage(np.zeros((2, 5, 3), dtype=np.uint8)), PreprocessConfig())

    def test_never_touches_far_pixels(self):
        rng = np.random.default_rng(9)
        px = rng.integers(0, 256, (12, 12, 3), dtype=np.uint8)
        tolerance = 60.0
        out, bg = unified_frame(RgbImage(px.copy()), 0, tolerance)
        d = np.sqrt(np.sum((px.astype(float) - bg) ** 2, axis=2))
        far = d > tolerance
        assert np.array_equal(out[far], px[far])


def full_frame_filter_and_unify(px, radius, tolerance):
    """Reference for ``filter_and_unify``: filter the whole frame, take the
    filtered border's most frequent color (ties: the smallest (r, g, b) row),
    then set every pixel within ``tolerance`` of it to it."""
    f = median_filter(RgbImage(px), radius).pixels
    border = np.concatenate([f[0], f[-1], f[1:-1, 0], f[1:-1, -1]])
    colors, counts = np.unique(border, axis=0, return_counts=True)
    bg = colors[np.argmax(counts)]
    out = f.copy()
    out[((f.astype(np.int64) - bg) ** 2).sum(axis=2) <= tolerance**2] = bg
    return out, tuple(int(v) for v in bg)


class TestFilterAndUnify:
    @settings(deadline=None, max_examples=400)
    @given(*FILTER_CASES)
    def test_matches_full_frame_path(self, h, w, seed, radius, tolerance, scene):
        """Pixels from a four-color palette (the background, a color at
        exactly the tolerance where the deltas allow, and two random ones): a
        random blob, a box touching one frame edge, noise over the whole
        frame or only over its 2-pixel border band, two halves that tie the
        border vote when h is even, or nothing but background."""
        rng = np.random.default_rng(seed)
        bg = rng.integers(0, 256, 3)
        delta = {10.0: (6, 8, 0), 25.0: (12, 9, 20), 120.0: (0, 72, 96)}.get(tolerance, (3, 0, 4))
        near = np.where(bg < 128, bg + delta, bg - delta)
        palette = np.array([bg, near, rng.integers(0, 256, 3), rng.integers(0, 256, 3)], np.uint8)
        px = np.empty((h, w, 3), dtype=np.uint8)
        px[:] = palette[0]
        sel = np.zeros((h, w), dtype=bool)
        y0, x0 = rng.integers(0, h), rng.integers(0, w)
        y1, x1 = rng.integers(y0, h) + 1, rng.integers(x0, w) + 1
        edge = {"top": (slice(0, y1), slice(x0, x1)), "bottom": (slice(y0, h), slice(x0, x1)),
                "left": (slice(y0, y1), slice(0, x1)), "right": (slice(y0, y1), slice(x0, w))}
        if scene in edge:
            sel[edge[scene]] = True
        elif scene == "blob":
            sel[y0:y1, x0:x1] = rng.random((y1 - y0, x1 - x0)) < 0.6
        elif scene == "noise":
            sel[:] = True
        elif scene == "ring":  # only the border band, so strip junctions decide the vote
            sel[:] = True
            sel[2:-2, 2:-2] = False
        elif scene == "tie":
            px[h // 2 :] = palette[2]
            sel[1:-1, 1:-1] = rng.random((h - 2, w - 2)) < 0.2
        px[sel] = palette[rng.integers(0, 4, int(sel.sum()))]
        before = px.copy()
        expected, expected_bg = full_frame_filter_and_unify(px, radius, tolerance)
        window, out_bg, box, dist = filter_and_unify(RgbImage(px), radius, tolerance)
        assert out_bg == expected_bg
        assert framed((h, w), window, out_bg, box, dist).tobytes() == expected.tobytes()
        assert np.array_equal(px, before)
        if window is not None:  # the median's own output, with its distance field
            assert window.tobytes() == median_filter(RgbImage(px[box]), radius).pixels.tobytes()
            d = imageio.sq_distance(imageio.planes(window), out_bg)
            d[d <= tolerance * tolerance] = 0
            assert dist.dtype == np.int32 and np.array_equal(dist, d)

    @settings(deadline=None, max_examples=200)
    @given(*FILTER_CASES)
    def test_matches_full_frame_path_in_small_bands(self, h, w, seed, radius, tolerance, scene):
        """Median crops of 1..10 pixels a row: bands of 5..1 rows."""
        with small_bands(48):
            self.test_matches_full_frame_path.hypothesis.inner_test(
                self, h, w, seed, radius, tolerance, scene)

    @pytest.mark.parametrize("radius", [0, 1])
    def test_tolerance_past_float_square_flattens_everything(self, radius):
        """A tolerance whose square overflows to inf holds every color, so
        every pixel is flattened."""
        px = np.zeros((6, 7, 3), dtype=np.uint8)
        px[2:4, 2:5] = (255, 255, 255)
        out, bg = unified_frame(RgbImage(px), radius, 1e200)
        assert bg == (0, 0, 0)
        assert not out.any()

    @pytest.mark.parametrize("scene", ["patches", "fish"])
    def test_near_background_pixels_keep_the_medians_bytes(self, scene):
        """Pixels within the tolerance of the background but unequal to it are
        not repainted: the window is the median's output, and their distance
        of 0 alone marks them as background."""
        if scene == "fish":  # a fish, and a patch of background in a slightly darker light
            cfg = synthgen.SynthConfig()
            img = synthgen.render_fish(synthgen.default_families()[0], 4, cfg)
            patch = img.pixels[20:60, 20:120]
            patch[np.all(patch == cfg.background, axis=2)] -= np.uint8([12, 9, 8])
        else:
            px = np.full((12, 14, 3), 255, dtype=np.uint8)
            px[1:5, 2:6] = (250, 245, 240)  # within 25 of white
            px[6:10, 7:12] = (20, 90, 160)
            img = RgbImage(px)
        window, bg, box, dist = filter_and_unify(img, 1, 25.0)
        expected = median_filter(RgbImage(img.pixels[box]), 1).pixels
        d = imageio.sq_distance(imageio.planes(expected), bg)
        assert ((d > 0) & (d <= 25 * 25)).any()
        assert window.tobytes() == expected.tobytes()

    def test_synthetic_fish_matches_full_frame_path(self):
        img = synthgen.render_fish(synthgen.default_families()[2], 3, synthgen.SynthConfig())
        expected, expected_bg = full_frame_filter_and_unify(img.pixels, 1, 25.0)
        out, bg = unified_frame(img, 1, 25.0)
        assert bg == expected_bg
        assert out.tobytes() == expected.tobytes()


def reference_moments(ys, xs):
    """``central_moments`` as it was before it took float coordinates: float64
    copies of the coordinates, centred in place."""
    lx = xs.astype(np.float64)
    ly = ys.astype(np.float64)
    cx = lx.sum() / lx.size
    cy = ly.sum() / ly.size
    lx -= cx
    ly -= cy
    return float(cx), float(cy), float(lx @ lx), float(ly @ ly), float(lx @ ly)


@st.composite
def mask_views(draw):
    """Masks holding at least one foreground pixel, empty rows and columns
    allowed: up to 40x40, one row or one column (one pixel when both), as an
    array, a strided view of a larger one, or a mirrored or flipped view."""
    h = draw(st.sampled_from([1, draw(st.integers(1, 40))]))
    w = draw(st.sampled_from([1, draw(st.integers(1, 40))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    bits[rng.integers(h), rng.integers(w)] = True
    wide = rng.random((2 * h, 3 * w)) < 0.5
    wide[::2, ::3] = bits
    views = {"array": bits, "strided": wide[::2, ::3],
             "mirrored": bits[:, ::-1], "flipped": bits[::-1, ::-1]}
    return views[draw(st.sampled_from(sorted(views)))]


class TestPixelCoords:
    @given(mask_views())
    @example(np.ones((1, 1), dtype=bool))
    @example(np.ones((1, 9), dtype=bool))
    @example(np.ones((9, 1), dtype=bool))
    @example(np.eye(5, dtype=bool)[:, ::-1])
    @settings(max_examples=300, deadline=None)
    def test_equals_nonzero_and_gives_the_same_moments(self, bits):
        ys, xs = pixel_coords(bits)
        want_y, want_x = np.nonzero(bits)
        assert ys.dtype == xs.dtype == np.float64
        assert np.array_equal(ys, want_y) and np.array_equal(xs, want_x)
        got = [v.hex() for v in central_moments(ys, xs)]
        assert got == [v.hex() for v in central_moments(want_y, want_x)]
        assert got == [v.hex() for v in reference_moments(want_y, want_x)]


class TestNormalizeRotation:
    def test_axis_aligned_unchanged(self):
        img = rotated_ellipse(0)
        assert normalize_rotation(img, (255, 255, 255)) is img

    def test_thirty_degree_ellipse_straightened(self):
        img = rotated_ellipse(30)
        out = normalize_rotation(img, (255, 255, 255))
        ys, xs = np.nonzero(np.any(out.pixels != 255, axis=2))
        _, _, s20, s02, s11 = central_moments(ys - ys.min(), xs - xs.min())
        residual = math.degrees(0.5 * math.atan2(2.0 * s11, s20 - s02))
        assert abs(residual) < 2.0

    def test_all_background_raises(self):
        img = RgbImage(np.full((10, 10, 3), 255, dtype=np.uint8))
        with pytest.raises(EmptyForeground):
            normalize_rotation(img, (255, 255, 255))

    @pytest.mark.parametrize("angle", [12, 30, 47])
    def test_foreground_count_preserved_within_5_percent(self, angle):
        img = rotated_ellipse(angle)
        before = int(np.any(img.pixels != (255, 255, 255), axis=2).sum())
        out = normalize_rotation(img, (255, 255, 255))
        after = int(np.any(out.pixels != (255, 255, 255), axis=2).sum())
        assert abs(after - before) <= 0.05 * before


    @settings(deadline=None, max_examples=400)
    @given(*ROTATION_CASES)
    def test_window_matches_full_frame(self, h, w, seed, near, delta, extra):
        """Ellipses drawn near the skip threshold and near +-45 and +-90
        degrees, centered anywhere (so rotation can carry them partly off the
        canvas), plus random blobs or a strip on one frame edge; every pixel
        of the foreground has its own random color."""
        rng = np.random.default_rng(seed)
        background = tuple(int(v) for v in rng.integers(0, 256, 3))
        px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        yy, xx = np.mgrid[0:h, 0:w].astype(float)
        t = math.radians(near + delta)
        dx = xx - rng.uniform(-0.25, 1.25) * w
        dy = yy - rng.uniform(-0.25, 1.25) * h
        a = rng.uniform(1.0, max(w, h))
        b = rng.uniform(0.5, a)
        u = dx * math.cos(t) + dy * math.sin(t)
        v = -dx * math.sin(t) + dy * math.cos(t)
        keep = (u / a) ** 2 + (v / b) ** 2 <= 1
        if extra == "blob":
            keep |= rng.random((h, w)) < rng.uniform(0.02, 0.3)
        px[~keep] = background
        strip = {"top": (0, slice(None)), "bottom": (-1, slice(None)),
                 "left": (slice(None), 0), "right": (slice(None), -1)}.get(extra)
        if strip is not None:
            px[strip] = [255 - c for c in background]
        img = RgbImage(px)
        if not np.any(px != background):
            with pytest.raises(EmptyForeground):
                normalize_rotation(img, background)
            return
        expected = full_frame_rotation(img, background)
        out = normalize_rotation(img, background)
        if expected is img:
            assert out is img
        else:
            assert out.pixels.tobytes() == expected.pixels.tobytes()

    @settings(deadline=None, max_examples=200)
    @given(*ROTATION_CASES)
    def test_window_matches_full_frame_in_small_bands(self, h, w, seed, near, delta, extra):
        """Output windows of 3..64 float64 a row: bands of 10..1 rows."""
        with small_bands(256):
            self.test_window_matches_full_frame.hypothesis.inner_test(
                self, h, w, seed, near, delta, extra)

    @pytest.mark.parametrize("channels", [[0], [1], [2], [0, 1, 2]])
    def test_foreground_differing_in_one_channel(self, channels):
        """A fish whose every pixel differs from the background in exactly
        one channel: R only, G only, B only, or one of the three at random."""
        rng = np.random.default_rng(sum(channels))
        img = rotated_ellipse(23, a=40, b=15, size=(90, 120))
        background = (255, 255, 255)
        fish = np.any(img.pixels != background, axis=2)
        px = np.full_like(img.pixels, 255)
        ys, xs = np.nonzero(fish)
        px[ys, xs, rng.choice(channels, ys.size)] = rng.integers(0, 255, ys.size)
        img = RgbImage(px)
        out = normalize_rotation(img, background)
        assert out.pixels.tobytes() == full_frame_rotation(img, background).pixels.tobytes()
