"""Deterministic procedural generator of labeled fish-like images.

Each fish is an ellipse body with a snout wedge at the head, a tail triangle
at the rear, one dorsal and one ventral fin, a dark eye, and optional spots
(the poison marker). The four cardinal extremes of the silhouette are fin or
wedge apexes, which keeps the geometric descriptors stable under scaling.
Rendering is a pure function of (spec, seed, config, scale).

The default seven classes carry pairwise-separated aspect ratios and body
colors so a trained classifier can be validated against a corpus whose labels
are correct by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import os

import numpy as np

from .errors import CanvasTooSmall, InvalidConfig, IoFailure
from .imageio import ManifestEntry, RgbImage, encode_ppm, filled, write_manifest

_MARGIN = 8.0  # minimum distance from the fish to every canvas border

@dataclass(frozen=True)
class FamilySpec:
    """Parameter ranges for one terminal class (colors are (low, high) RGB)
    and its default image counts; poison classes are drawn with spots."""

    name: str
    cluster: str
    poison: bool
    aspect: tuple[float, float]  # body height / body length
    dorsum_color: tuple[tuple[int, int, int], tuple[int, int, int]]
    ventral_color: tuple[tuple[int, int, int], tuple[int, int, int]]
    tail_fraction: tuple[float, float]  # tail length / body length
    fin_fraction: tuple[float, float]  # dorsal fin height / body height
    counts: tuple[int, int]  # default (train, test) images


@dataclass(frozen=True)
class SynthConfig:
    width: int = 320
    height: int = 240
    background: tuple[int, int, int] = field(default=(210, 232, 248), init=False)
    seed: int = 0
    # per-family overrides of FamilySpec.counts
    train_counts: dict = field(default_factory=dict)
    test_counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.width < 64 or self.height < 64:
            raise InvalidConfig("canvas must be at least 64x64")
        if self.seed < 0:
            raise InvalidConfig("seed must be non-negative")
        names = {spec.name for spec in default_families()}
        for name, count in (*self.train_counts.items(), *self.test_counts.items()):
            if name not in names:
                raise InvalidConfig(f"unknown family {name!r} in the counts")
            if count < 0:
                raise InvalidConfig(f"negative count {count} for family {name!r}")


def default_families() -> list[FamilySpec]:
    """Seven classes: six families plus the spotted poison class."""
    return [
        FamilySpec(
            "Istiophoridae", "elongate", False,
            aspect=(0.24, 0.28),
            dorsum_color=((52, 62, 100), (68, 78, 118)),
            ventral_color=((140, 150, 172), (158, 168, 190)),
            tail_fraction=(0.30, 0.36),
            fin_fraction=(0.30, 0.36),
            counts=(15, 10),
        ),
        FamilySpec(
            "leiognathidae", "deep-bodied", False,
            aspect=(0.60, 0.66),
            dorsum_color=((92, 102, 70), (108, 118, 86)),
            ventral_color=((178, 184, 156), (194, 200, 172)),
            tail_fraction=(0.16, 0.20),
            fin_fraction=(0.44, 0.50),
            counts=(10, 10),
        ),
        FamilySpec(
            "Acropomaatidae", "compact", False,
            aspect=(0.38, 0.42),
            dorsum_color=((112, 52, 52), (128, 68, 68)),
            ventral_color=((188, 148, 138), (204, 164, 154)),
            tail_fraction=(0.22, 0.26),
            fin_fraction=(0.22, 0.26),
            counts=(15, 10),
        ),
        FamilySpec(
            "Scombridae", "elongate", False,
            aspect=(0.30, 0.34),
            dorsum_color=((32, 82, 86), (48, 98, 102)),
            ventral_color=((158, 178, 178), (174, 194, 194)),
            tail_fraction=(0.26, 0.30),
            fin_fraction=(0.16, 0.20),
            counts=(10, 10),
        ),
        FamilySpec(
            "Stromateidae", "deep-bodied", False,
            aspect=(0.50, 0.55),
            dorsum_color=((82, 86, 112), (98, 102, 128)),
            ventral_color=((168, 168, 190), (184, 184, 202)),
            tail_fraction=(0.20, 0.24),
            fin_fraction=(0.32, 0.38),
            counts=(15, 10),
        ),
        FamilySpec(
            "Triacanthidae", "compact", False,
            aspect=(0.44, 0.48),
            dorsum_color=((142, 112, 52), (158, 128, 68)),
            ventral_color=((198, 184, 142), (210, 196, 158)),
            tail_fraction=(0.18, 0.22),
            fin_fraction=(0.54, 0.60),
            counts=(10, 10),
        ),
        FamilySpec(
            "Poison fish", "poison", True,
            aspect=(0.34, 0.38),
            dorsum_color=((88, 48, 88), (104, 64, 104)),
            ventral_color=((162, 132, 162), (178, 148, 178)),
            tail_fraction=(0.24, 0.28),
            fin_fraction=(0.38, 0.44),
            counts=(25, 25),
        ),
    ]


def _triangle(xg, yg, a, b, c):
    """Boolean raster of the closed triangle a-b-c over coordinate grids."""
    def side(p, q):
        return (q[0] - p[0]) * (yg - p[1]) - (q[1] - p[1]) * (xg - p[0])

    s1, s2, s3 = side(a, b), side(b, c), side(c, a)
    return ((s1 >= 0) & (s2 >= 0) & (s3 >= 0)) | ((s1 <= 0) & (s2 <= 0) & (s3 <= 0))


@dataclass(frozen=True)
class RenderParams:
    """Values sampled for one fish; exposed so tests can check against the
    drawn ground truth (for example the head side)."""

    body_frac: float
    aspect: float
    head_left: bool
    dorsum: tuple[int, int, int]
    ventral: tuple[int, int, int]
    tail_frac: float
    fin_frac: float
    jitter: tuple[float, float]
    spots: tuple  # (ux, uy, ur) triples, empty unless the class is poison

    @property
    def head_side(self) -> str:
        return "left" if self.head_left else "right"


def _color(rng, bounds) -> tuple[int, int, int]:
    low, high = bounds
    return tuple(int(v) for v in rng.integers(np.array(low), np.array(high) + 1))


def render_params(spec: FamilySpec, seed: int) -> RenderParams:
    """Sample the drawing parameters; the draw order (the argument order
    below) is part of the determinism contract."""
    rng = np.random.default_rng(seed)
    return RenderParams(
        body_frac=float(rng.uniform(0.36, 0.42)),
        aspect=float(rng.uniform(*spec.aspect)),
        head_left=bool(rng.integers(0, 2) == 0),
        dorsum=_color(rng, spec.dorsum_color),
        ventral=_color(rng, spec.ventral_color),
        tail_frac=float(rng.uniform(*spec.tail_fraction)),
        fin_frac=float(rng.uniform(*spec.fin_fraction)),
        jitter=(float(rng.uniform()), float(rng.uniform())),
        spots=(
            tuple(map(tuple, rng.uniform(size=(int(rng.integers(5, 9)), 3))))
            if spec.poison else ()
        ),
    )


def render_fish(spec: FamilySpec, seed: int, cfg: SynthConfig, scale: float = 1.0) -> RgbImage:
    """Draw one fish; bit-identical for identical (spec, seed, cfg, scale)."""
    p = render_params(spec, seed)
    jx, jy = p.jitter

    unit_len = p.body_frac * cfg.width  # geometry in scale-1 pixel units
    a_u = unit_len / 2.0  # semi-major
    b_u = p.aspect * unit_len / 2.0  # semi-minor

    def _even(v):
        # extreme-point offsets snap to even unit values so that halving or
        # doubling the scale keeps them on exact pixel centers
        return 2.0 * round(v / 2.0)

    snout_off = _even(a_u + 0.10 * unit_len) * scale
    tail_off = _even(a_u + p.tail_frac * unit_len) * scale
    up_h = _even(b_u + p.fin_frac * 2.0 * b_u) * scale
    dn_h = _even(b_u + 0.45 * p.fin_frac * 2.0 * b_u) * scale
    apex_dx = _even(0.05 * a_u) * scale
    a = a_u * scale
    b = b_u * scale
    eye_r = 3.0 * scale

    total_w = snout_off + tail_off
    total_h = up_h + dn_h
    free_x = cfg.width - total_w - 2.0 * _MARGIN
    free_y = cfg.height - total_h - 2.0 * _MARGIN
    if free_x < 0 or free_y < 0:
        raise CanvasTooSmall(
            f"fish {total_w:.0f}x{total_h:.0f} exceeds canvas "
            f"{cfg.width}x{cfg.height} with margin {_MARGIN:.0f}"
        )
    hdir = -1.0 if p.head_left else 1.0  # head direction along x
    left_edge = _MARGIN + jx * free_x
    # body center sits on a pixel center; combined with the even-unit offsets
    # above, the silhouette's four extreme points land exactly on pixel
    # centers and digitize deterministically
    cx = float(round(left_edge + (snout_off if p.head_left else tail_off)))
    cy = float(round(_MARGIN + jy * free_y + up_h))

    # rasterize only a window around the fish; coordinates stay absolute so
    # membership tests match a full-canvas evaluation exactly
    x_lo = max(0, int(cx - max(snout_off, tail_off)) - 2)
    x_hi = min(cfg.width, int(cx + max(snout_off, tail_off)) + 3)
    y_lo = max(0, int(cy - up_h) - 2)
    y_hi = min(cfg.height, int(cy + dn_h) + 3)
    yg, xg = np.mgrid[y_lo:y_hi, x_lo:x_hi].astype(np.float64)
    body = ((xg - cx) / a) ** 2 + ((yg - cy) / b) ** 2 <= 1.0

    # blunt apexes digitize stably across scales
    snout_tip = (cx + hdir * snout_off, cy)
    snout_base = cx + hdir * 0.78 * a
    snout = _triangle(
        xg, yg, snout_tip, (snout_base, cy - 0.45 * b), (snout_base, cy + 0.45 * b)
    )
    tail_tip = (cx - hdir * tail_off, cy)
    tail_base = cx - hdir * 0.78 * a
    tail = _triangle(
        xg, yg, tail_tip, (tail_base, cy - 0.58 * b), (tail_base, cy + 0.58 * b)
    )
    dfin = _triangle(
        xg, yg,
        (cx + hdir * 0.32 * a, cy),
        (cx - hdir * 0.22 * a, cy),
        (cx + hdir * apex_dx, cy - up_h),
    )
    vfin = _triangle(
        xg, yg,
        (cx + hdir * 0.28 * a, cy),
        (cx - hdir * 0.18 * a, cy),
        (cx - hdir * apex_dx, cy + dn_h),
    )
    fish = body | snout | tail | dfin | vfin

    px = filled(cfg.height, cfg.width, cfg.background)
    window = px[y_lo:y_hi, x_lo:x_hi]
    window[fish & (yg < cy)] = p.dorsum
    window[fish & (yg >= cy)] = p.ventral

    for ux, uy, ur in p.spots:
        sx = cx + (2.0 * ux - 1.0) * 0.65 * a
        sy = cy + (2.0 * uy - 1.0) * 0.45 * b
        sr = (1.6 + 1.4 * ur) * scale
        spot = (xg - sx) ** 2 + (yg - sy) ** 2 <= sr * sr
        window[spot & fish] = (70, 52, 40)

    ex = cx + hdir * 0.62 * a
    ey = cy - 0.30 * b
    eye = (xg - ex) ** 2 + (yg - ey) ** 2 <= eye_r * eye_r
    window[eye & fish] = (25, 25, 28)

    return RgbImage(px)


def _image_seed(base_seed: int, family_index: int, split_code: int, k: int) -> int:
    ss = np.random.SeedSequence([base_seed, family_index, split_code, k])
    return int(ss.generate_state(1, np.uint64)[0])


def generate_corpus(out_dir, cfg: SynthConfig):
    """Write PPM images of the :func:`default_families` plus a manifest into
    ``out_dir``.

    Files are named ``<family>_<split>_<k>.ppm``; regenerating with the same
    config yields byte-identical output. Returns
    ``(manifest_path, image_paths)``.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
        entries = []
        paths = []
        for fi, spec in enumerate(default_families()):
            for split_code, split in ((0, "train"), (1, "test")):
                overrides = cfg.train_counts if split == "train" else cfg.test_counts
                count = overrides.get(spec.name, spec.counts[split_code])
                for k in range(count):
                    img = render_fish(spec, _image_seed(cfg.seed, fi, split_code, k), cfg)
                    fname = f"{spec.name}_{split}_{k}.ppm"
                    fpath = os.path.join(out_dir, fname)
                    with open(fpath, "wb") as fh:
                        fh.write(encode_ppm(img))
                    paths.append(fpath)
                    entries.append(
                        ManifestEntry(fname, spec.name, spec.poison, spec.cluster, split)
                    )
        manifest_path = os.path.join(out_dir, "manifest.csv")
        write_manifest(manifest_path, entries)
    except OSError as exc:
        raise IoFailure(f"writing corpus to {out_dir}: {exc}") from exc
    return manifest_path, paths
