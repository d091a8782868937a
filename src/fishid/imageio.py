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
``path,family,poison,cluster,split`` (written with LF line endings, read with
universal newlines; no quoting, so paths must not contain commas).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
import io
import os
import re
import shutil
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
# the window- and crop-sized passes (the median, the rotation, the intensity
# index) run in bands of rows whose temporaries together stay in the L2 cache,
# instead of faulting in fresh pages for the whole window
_BAND_BYTES = 1 << 17

# P6, then width, height and maxval: each number follows whitespace or '#'
# comments and ends at one whitespace byte, the maxval's being the last byte
# before the payload. A comment runs to a newline or the end of the data, so
# a header matches in one way only and a failed match is linear in its length
_PPM_SEP = rb"(?:\s|#[^\n]*(?:\n|\Z))*"
_PPM_HEADER = re.compile(rb"P6" + (_PPM_SEP + rb"(\d+)\s") * 3)


def _bands(height: int, row_bytes: int):
    """Row slices covering ``range(height)``, each about ``_BAND_BYTES``."""
    step = max(1, _BAND_BYTES // row_bytes)
    return [slice(r, min(r + step, height)) for r in range(0, height, step)]


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
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IoFailure(f"reading {what} {path}: {exc}") from exc
    if not (data or stat.S_ISREG(mode)):
        raise IoFailure(f"reading {what} {path}: not a regular file or a pipe that gives bytes")
    return data


def read_text(path, what) -> str:
    """``read_file`` decoded as UTF-8 with universal newlines, as ``open(path)``
    reads it; bytes that are not UTF-8 are a MalformedRow."""
    try:
        return io.TextIOWrapper(io.BytesIO(read_file(path, what)), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{what} {path} is not UTF-8: {exc}") from exc


def write_file(path, data: bytes, what) -> None:
    """Write ``data`` to ``path``; ``what`` names it in errors. A regular file,
    or a path not there yet, is replaced whole: ``data`` goes to a ``.tmp``
    sibling of the symlink-resolved path, which is then renamed over it. Anything
    else (a pipe, a device) is written in place, and the open never waits: a
    FIFO with no reader, like a directory, is an IoFailure."""
    tmp = stdout = None
    try:
        if os.path.isfile(path) or not os.path.exists(path):
            real = os.path.realpath(path)
            tmp = real + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(data)
            if os.path.isfile(real):  # the new file keeps the old one's permissions
                shutil.copymode(real, tmp)
            os.replace(tmp, real)
        else:
            with open(os.open(path, os.O_WRONLY | getattr(os, "O_NONBLOCK", 0)), "wb") as fh:
                os.set_blocking(fh.fileno(), True)  # a reader that is there takes every byte
                with contextlib.suppress(OSError):  # fd 1 may be closed
                    stdout = os.path.sameopenfile(fh.fileno(), 1)
                fh.write(data)
    except (OSError, ValueError) as exc:
        if stdout and isinstance(exc, BrokenPipeError):
            raise  # the reader of this process's stdout left: cli.main exits quietly
        if tmp:
            with contextlib.suppress(OSError):  # never created, or not a file
                os.remove(tmp)
        raise IoFailure(f"writing {what} {path}: {exc}") from exc


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
    if pixel_offset < 54:
        raise UnsupportedFormat(f"BMP pixel offset {pixel_offset} points into its headers")
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
    an (h, w) uint8 array, the bytes of ``floor(pixels.astype(float64) @ _LUMA
    + 0.5)``. That product is one BLAS matrix-vector product per image row,
    whose result does not depend on where the row sits in memory, so it runs
    over the ``_bands`` of its float64 rows: no temporary grows with the image.
    A one-pixel row numpy takes by a scalar dot instead, which rounds some
    ties otherwise, so a one-column image is indexed as its pixels repeated to
    two columns: every pixel then has the index it has in any wider row."""
    px = img.pixels
    h, w, _ = px.shape
    if w == 1:
        return to_indexed(RgbImage(np.repeat(px, 2, axis=1)))[:, :1].copy()
    out = np.empty((h, w), dtype=np.uint8)
    for band in _bands(h, 8 * w):
        lum = px[band].astype(np.float64) @ _LUMA
        lum += 0.5
        out[band] = np.floor(lum, out=lum)  # in [0, 255] for uint8 channels
    return out


def filled(h: int, w: int, color) -> np.ndarray:
    """An (h, w, 3) uint8 frame of one color; copying one tiled row is about
    50x faster than broadcasting the 3-vector over the frame."""
    out = np.empty((h, w, 3), dtype=np.uint8)
    out[:] = np.tile(np.asarray(color, dtype=np.uint8), (w, 1))
    return out


def planes(px) -> np.ndarray:
    """(h, w, 3) pixels as contiguous (3, h, w) uint8 channel planes."""
    return np.ascontiguousarray(np.moveaxis(px, -1, 0))


def sq_distance(a, b) -> np.ndarray:
    """Exact int32 squared RGB distance between (3, h, w) uint8 planes ``a`` and
    planes or a color ``b``, one contiguous channel at a time."""
    out = np.zeros(a.shape[1:], dtype=np.int32)
    for x, y in zip(a, b):
        d = np.subtract(x, y, dtype=np.int16).view(np.uint16)  # d*d mod 2**16 == (x-y)**2
        out += np.multiply(d, d, out=d)
    return out


def differs_window(pixels: np.ndarray, color):
    """The (row, column) slice pair of the frame bounding the pixels unequal to
    ``color`` in some channel, or ``None`` if none is."""
    h, w, _ = pixels.shape
    # one contiguous uint8 compare over the interleaved rows beats deinterleaving
    differs = pixels.reshape(h, 3 * w) != np.tile(np.asarray(color, dtype=np.uint8), w)
    rows = np.flatnonzero(differs.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(differs.any(axis=0).reshape(w, 3).any(axis=1))
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


def distance_window(pixels: np.ndarray, color):
    """``(box, dist)``: the :func:`differs_window` box and the int32 squared
    distance of the pixels in it to ``color``, or ``(None, None)``."""
    box = differs_window(pixels, color)
    return box, box and sq_distance(planes(pixels[box]), color)


def load_manifest(path) -> list[ManifestEntry]:
    """Read a dataset manifest, validating rows and the label hierarchy."""
    lines = read_text(path, "manifest").split("\n")
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
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"), "manifest")
