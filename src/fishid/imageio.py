"""Raster decoding/encoding, intensity indexing, and manifest loading.

Two uncompressed interchange formats are supported:

* binary PPM (magic ``P6``): ASCII width/height/maxval separated by
  whitespace, ``#`` comments allowed in the header, maxval must be 255,
  a single whitespace byte, then packed RGB triples.
* 24-bit uncompressed BMP (magic ``BM``): BITMAPINFOHEADER (40 bytes),
  bottom-up rows padded to 4-byte multiples, BGR byte order. Rows are
  reordered top-down on decode; padding bytes are ignored on read and
  written as zeros.

Manifests are plain CSV with the fixed header
``path,family,poison,cluster,split`` (LF line endings, no quoting, so paths
must not contain commas).
"""

from __future__ import annotations

from dataclasses import dataclass
import io
import os
import re
import stat
import struct

import numpy as np

from .errors import (
    EmptyManifest,
    InconsistentHierarchy,
    InvalidConfig,
    IoFailure,
    MalformedRow,
    TruncatedData,
    UnsupportedFormat,
)

MANIFEST_HEADER = "path,family,poison,cluster,split"

# intensity index weights (ITU luminance); round-half-up keeps equal-channel
# grays at their own value for every v in 0..255
_LUMA = np.array([0.299, 0.587, 0.114])

# P6, then width, height and maxval: each number follows whitespace or '#'
# comments and ends at one whitespace byte, the maxval's being the last byte
# before the payload. A comment runs to a newline or the end of the data, so
# a header matches in one way only and a failed match is linear in its length
_PPM_SEP = rb"(?:\s|#[^\n]*(?:\n|\Z))*"
_PPM_HEADER = re.compile(rb"P6" + (_PPM_SEP + rb"(\d+)\s") * 3)


@dataclass(frozen=True, eq=False)
class RgbImage:
    """Decoded 8-bit-per-channel raster, pixels shaped (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = self.pixels
        if px.ndim != 3 or px.shape[2] != 3 or px.dtype != np.uint8:
            raise InvalidConfig("pixels must be a (h, w, 3) uint8 array")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise InvalidConfig("image dimensions must be positive")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    family: str
    poison: bool
    cluster: str
    split: str  # "train" or "test"


def read_file(path, what) -> bytes:
    """The bytes of a regular file or a pipe; ``what`` names it in errors. The
    open never waits: a FIFO with no writer reads as empty. An empty pipe, a
    directory, a device (``/dev/zero`` never ends) or a socket is an IoFailure."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
        with open(fd, "rb") as fh:
            mode = os.fstat(fd).st_mode
            if stat.S_ISFIFO(mode):
                os.set_blocking(fd, True)  # a pipe with a writer is read to its end
            data = fh.read() if stat.S_ISREG(mode) or stat.S_ISFIFO(mode) else b""
    except OSError as exc:
        raise IoFailure(f"reading {what} {path}: {exc}") from exc
    if not (data or stat.S_ISREG(mode)):
        raise IoFailure(f"reading {what} {path}: not a regular file or a pipe that gives bytes")
    return data


def decode_image(data: bytes) -> RgbImage:
    """Decode PPM (P6) or 24-bit BMP bytes into an :class:`RgbImage`."""
    if data[:2] == b"P6":
        return _decode_ppm(data)
    if data[:2] == b"BM":
        return _decode_bmp(data)
    raise UnsupportedFormat(f"unknown magic {data[:2]!r}")


def _decode_ppm(data: bytes) -> RgbImage:
    m = _PPM_HEADER.match(data)
    if m is None:
        raise UnsupportedFormat("malformed PPM header")
    try:
        width, height, maxval = map(int, m.groups())
    except ValueError:  # more digits than Python parses
        raise UnsupportedFormat("PPM header number past the integer digit limit") from None
    if width == 0 or height == 0:
        raise UnsupportedFormat("zero PPM dimension")
    if maxval != 255:
        raise UnsupportedFormat(f"unsupported PPM maxval {maxval}")
    need = width * height * 3
    if len(data) - m.end() < need:
        raise TruncatedData(f"PPM payload {len(data) - m.end()} bytes, need {need}")
    px = np.frombuffer(data, np.uint8, need, m.end()).reshape(height, width, 3)
    return RgbImage(px.copy())


def _decode_bmp(data: bytes) -> RgbImage:
    if len(data) < 54:
        raise TruncatedData("BMP shorter than its fixed headers")
    pixel_offset = struct.unpack_from("<I", data, 10)[0]
    header_size = struct.unpack_from("<I", data, 14)[0]
    if header_size != 40:
        raise UnsupportedFormat(f"unsupported BMP header size {header_size}")
    width, height = struct.unpack_from("<ii", data, 18)
    bits = struct.unpack_from("<H", data, 28)[0]
    compression = struct.unpack_from("<I", data, 30)[0]
    if width <= 0 or height <= 0:
        raise UnsupportedFormat("BMP must be bottom-up with positive size")
    if bits != 24:
        raise UnsupportedFormat(f"unsupported BMP bit depth {bits}")
    if compression != 0:
        raise UnsupportedFormat("compressed BMP is not supported")
    row_bytes = (width * 3 + 3) // 4 * 4
    need = pixel_offset + row_bytes * height
    if len(data) < need:
        raise TruncatedData(f"BMP payload {len(data)} bytes, need {need}")
    rows = np.frombuffer(
        data[pixel_offset : pixel_offset + row_bytes * height], dtype=np.uint8
    ).reshape(height, row_bytes)
    bgr = rows[:, : width * 3].reshape(height, width, 3)
    rgb = bgr[::-1, :, ::-1]  # bottom-up to top-down, BGR to RGB
    return RgbImage(np.ascontiguousarray(rgb))


def encode_ppm(img: RgbImage) -> bytes:
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def encode_bmp(img: RgbImage) -> bytes:
    w, h = img.width, img.height
    row_bytes = (w * 3 + 3) // 4 * 4
    image_size = row_bytes * h
    header = struct.pack("<2sIHHI", b"BM", 54 + image_size, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, image_size, 2835, 2835, 0, 0)
    rows = np.zeros((h, row_bytes), dtype=np.uint8)
    rows[:, : w * 3] = img.pixels[::-1, :, ::-1].reshape(h, w * 3)
    return header + info + rows.tobytes()


def to_indexed(img: RgbImage) -> np.ndarray:
    """Map each pixel to its 0..255 intensity index (black .. white); returns
    an (h, w) uint8 array."""
    lum = img.pixels.astype(np.float64) @ _LUMA
    return np.floor(lum + 0.5).astype(np.uint8)  # in [0, 255] for uint8 channels


def filled(h: int, w: int, color) -> np.ndarray:
    """An (h, w, 3) uint8 frame of one color; copying one tiled row is about
    50x faster than broadcasting the 3-vector over the frame."""
    out = np.empty((h, w, 3), dtype=np.uint8)
    out[:] = np.tile(np.asarray(color, dtype=np.uint8), (w, 1))
    return out


def sq_distance(a, b) -> np.ndarray:
    """Exact int32 squared RGB distance, summed per channel (a size-3 axis sum is slower)."""
    return sum((a[..., c].astype(np.int32) - b[..., c]) ** 2 for c in range(3))


def differs_window(pixels: np.ndarray, color):
    """The (row, column) slice pair bounding the pixels unequal to ``color``
    in some channel, or ``None`` when every pixel equals it."""
    h, w, _ = pixels.shape
    # one contiguous uint8 compare over the interleaved rows is the fastest scan
    differs = pixels.reshape(h, 3 * w) != np.tile(np.asarray(color, dtype=np.uint8), w)
    rows = np.flatnonzero(differs.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(differs.any(axis=0).reshape(w, 3).any(axis=1))
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


def load_manifest(path) -> list[ManifestEntry]:
    """Read a dataset manifest, validating rows and the label hierarchy."""
    try:  # UTF-8 with universal newlines, as open(path) reads it
        text = io.TextIOWrapper(io.BytesIO(read_file(path, "manifest")), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"manifest {path} is not UTF-8: {exc}") from exc
    lines = text.split("\n")
    if not lines or lines[0].strip() != MANIFEST_HEADER:
        raise MalformedRow(f"manifest must start with header {MANIFEST_HEADER!r}")
    entries = []
    hierarchy: dict[str, tuple[bool, str]] = {}
    for ln, raw in enumerate(lines[1:], start=2):
        if raw == "":
            continue
        parts = raw.split(",")
        if len(parts) != 5:
            raise MalformedRow(f"line {ln}: expected 5 columns, got {len(parts)}")
        p, family, poison_s, cluster, split = parts
        if not p:
            raise MalformedRow(f"line {ln}: empty path")
        if not family:
            raise MalformedRow(f"line {ln}: empty family")
        if poison_s not in ("0", "1"):
            raise MalformedRow(f"line {ln}: poison must be 0 or 1, got {poison_s!r}")
        if split not in ("train", "test"):
            raise MalformedRow(f"line {ln}: split must be train or test, got {split!r}")
        poison = poison_s == "1"
        prev = hierarchy.get(family)
        if prev is None:
            hierarchy[family] = (poison, cluster)
        elif prev != (poison, cluster):
            raise InconsistentHierarchy(
                f"family {family!r} maps to both {prev} and {(poison, cluster)}"
            )
        entries.append(ManifestEntry(p, family, poison, cluster, split))
    if not entries:
        raise EmptyManifest("manifest has no data rows")
    return entries


def write_manifest(path, entries) -> None:
    lines = [MANIFEST_HEADER]
    for e in entries:
        lines.append(f"{e.path},{e.family},{int(e.poison)},{e.cluster},{e.split}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
