import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fishid.errors import (
    EmptyManifest,
    InconsistentHierarchy,
    MalformedRow,
    TruncatedData,
    UnsupportedFormat,
)
from fishid.imageio import (
    ManifestEntry,
    RgbImage,
    decode_image,
    encode_bmp,
    encode_ppm,
    load_manifest,
    to_indexed,
    write_manifest,
)


def reference_decode_ppm(data: bytes) -> RgbImage:
    """Reference PPM decoder that tokenizes the header one byte at a time."""
    pos = 2
    fields = []
    while len(fields) < 3:
        # skip whitespace and '#' comments
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        tok = bytearray()
        while pos < len(data) and not data[pos : pos + 1].isspace():
            tok += data[pos : pos + 1]
            pos += 1
        if not tok:
            raise UnsupportedFormat("PPM header ended early")
        if not tok.isdigit():
            raise UnsupportedFormat(f"bad PPM header token {bytes(tok)!r}")
        try:
            fields.append(int(tok))
        except ValueError:  # more digits than Python parses
            raise UnsupportedFormat(f"PPM header number of {len(tok)} digits") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise UnsupportedFormat("zero or negative PPM dimension")
    if maxval != 255:
        raise UnsupportedFormat(f"unsupported PPM maxval {maxval}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise UnsupportedFormat("missing whitespace after PPM maxval")
    pos += 1  # exactly one whitespace byte before the payload
    need = width * height * 3
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise TruncatedData(f"PPM payload {len(payload)} bytes, need {need}")
    px = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return RgbImage(px.copy())


def decode_outcome(decode, data):
    """The decoded shape and bytes, or the class of the exception raised."""
    try:
        img = decode(data)
    except Exception as exc:
        return type(exc)
    return img.pixels.shape, img.pixels.tobytes()


# every byte bytes.isspace accepts, and bytes that str.isspace accepts but
# bytes.isspace does not
WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
NOT_WHITESPACE = [b"\x1c", b"\x85", b"\xa0"]
DIGITS = st.sampled_from([b"1", b"2", b"3", b"4", b"01", b"0002"])  # with leading zeros
ODD_TOKENS = st.sampled_from([
    b"0", b"00", b"256",  # zero, a bad maxval
    *(c.encode() for c in ("\u00b2", "\u0663", "\uff11", "2\u0663")),  # non-ASCII digits
    b"1#", b"2#5", b"#", b"-1",  # '#' inside a token, a sign
])
COMMENT_BODIES = st.lists(st.sampled_from([b" ", b"#", b"1", b"a", b"\r", b"\x0c"]), max_size=4)
LINE_COMMENTS = COMMENT_BODIES.map(lambda body: b"#" + b"".join(body) + b"\n")
OPEN_COMMENTS = COMMENT_BODIES.map(lambda body: b"#" + b"".join(body))  # no final newline


def ppm_headers(number, maxval, lead, separator, tail):
    """``P6``, then width, height and maxval, each after up to three
    separators; ``lead`` is the byte that ends the width and the height."""
    seps = st.lists(separator, max_size=3).map(b"".join)
    gap = st.builds(bytes.__add__, lead, seps)
    fields = st.tuples(seps, number, gap, number, gap, maxval, tail)
    return fields.map(lambda parts: b"P6" + b"".join(parts))


PPM_HEADERS = st.one_of(
    # headers that decode when the payload is long enough
    ppm_headers(DIGITS, st.sampled_from([b"255", b"0255"]), st.sampled_from(WHITESPACE),
                st.sampled_from(WHITESPACE) | LINE_COMMENTS, st.sampled_from(WHITESPACE)),
    # the same pieces mixed with odd tokens, bytes that are not whitespace,
    # comments without a final newline, and a missing or extra byte before the payload
    ppm_headers(DIGITS | ODD_TOKENS, DIGITS | ODD_TOKENS | st.just(b"255"),
                st.sampled_from([b"", *WHITESPACE]),
                st.sampled_from(WHITESPACE + NOT_WHITESPACE) | LINE_COMMENTS | OPEN_COMMENTS,
                st.sampled_from([b"", *WHITESPACE, b"  ", b"\n\n", b" #c\n"])),
)


def random_image(rng, max_side=20):
    w = int(rng.integers(1, max_side + 1))
    h = int(rng.integers(1, max_side + 1))
    return RgbImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))


class TestDecode:
    def test_ppm_literal(self):
        img = decode_image(b"P6 2 1 255 " + bytes([255, 0, 0, 0, 0, 255]))
        assert (img.width, img.height) == (2, 1)
        assert img.pixels[0, 0].tolist() == [255, 0, 0]
        assert img.pixels[0, 1].tolist() == [0, 0, 255]

    def test_ppm_comments(self):
        data = b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6)
        img = decode_image(data)
        assert (img.width, img.height) == (2, 1)

    def test_large_white_bmp(self):
        white = RgbImage(np.full((804, 856, 3), 255, dtype=np.uint8))
        img = decode_image(encode_bmp(white))
        assert (img.width, img.height) == (856, 804)
        assert np.array_equal(img.pixels, white.pixels)

    def test_zero_dimension_rejected(self):
        with pytest.raises(UnsupportedFormat):
            decode_image(b"P6 0 0 255 ")

    def test_header_number_past_int_digit_limit(self):
        with pytest.raises(UnsupportedFormat):
            decode_image(b"P6 " + b"9" * 5000 + b" 2 255\n" + bytes(12))

    @settings(max_examples=1000)
    @given(PPM_HEADERS, st.binary(min_size=40, max_size=60) | st.binary(max_size=60))
    def test_ppm_header_matches_reference_tokenizer(self, header, payload):
        data = header + payload
        assert decode_outcome(decode_image, data) == decode_outcome(reference_decode_ppm, data)

    @pytest.mark.parametrize("prefix", [b"P6", b"P6 1 ", b"P6 1 1 "])
    def test_long_comment_runs_fail_fast(self, prefix):
        data = prefix + b" #" * 50_000  # 100 KB of alternating ' #'
        start = time.perf_counter()
        with pytest.raises(UnsupportedFormat):
            decode_image(data)
        assert time.perf_counter() - start < 0.1

    def test_unknown_magic(self):
        with pytest.raises(UnsupportedFormat):
            decode_image(b"GIF89a....")

    def test_bad_maxval(self):
        with pytest.raises(UnsupportedFormat):
            decode_image(b"P6 1 1 65535 " + bytes(6))

    def test_truncated_ppm(self):
        with pytest.raises(TruncatedData, match="PPM payload 50 bytes, need 300"):
            decode_image(b"P6 10 10 255 " + bytes(50))

    def test_truncated_bmp(self):
        data = encode_bmp(RgbImage(np.zeros((4, 4, 3), dtype=np.uint8)))
        with pytest.raises(TruncatedData):
            decode_image(data[:-8])

    def test_compressed_bmp_rejected(self):
        data = bytearray(encode_bmp(RgbImage(np.zeros((4, 4, 3), dtype=np.uint8))))
        data[30] = 1  # BI_RLE8
        with pytest.raises(UnsupportedFormat):
            decode_image(bytes(data))

    def test_wrong_bit_depth_rejected(self):
        data = bytearray(encode_bmp(RgbImage(np.zeros((4, 4, 3), dtype=np.uint8))))
        data[28] = 8
        with pytest.raises(UnsupportedFormat):
            decode_image(bytes(data))


class TestRoundTrip:
    def test_ppm_bit_exact_100_random_images(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            img = random_image(rng)
            assert np.array_equal(decode_image(encode_ppm(img)).pixels, img.pixels)

    @pytest.mark.parametrize("w,h", [(1, 1), (3, 2), (5, 7), (8, 3)])
    def test_bmp_bit_exact_with_row_padding(self, w, h):
        rng = np.random.default_rng(w * 100 + h)
        img = RgbImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
        assert np.array_equal(decode_image(encode_bmp(img)).pixels, img.pixels)


class TestIndexed:
    def test_black_and_white_anchors(self):
        img = RgbImage(np.array([[[0, 0, 0], [255, 255, 255]]], dtype=np.uint8))
        assert to_indexed(img)[0].tolist() == [0, 255]

    def test_pure_red(self):
        img = RgbImage(np.array([[[255, 0, 0]]], dtype=np.uint8))
        assert to_indexed(img)[0, 0] == 76

    def test_midgray_fixed_point(self):
        img = RgbImage(np.array([[[128, 128, 128]]], dtype=np.uint8))
        assert to_indexed(img)[0, 0] == 128

    @given(st.integers(0, 255))
    def test_every_gray_maps_to_itself(self, v):
        img = RgbImage(np.full((1, 1, 3), v, dtype=np.uint8))
        assert to_indexed(img)[0, 0] == v

    def test_dimensions_preserved(self):
        rng = np.random.default_rng(0)
        img = random_image(rng)
        idx = to_indexed(img)
        assert idx.shape == (img.height, img.width)
        assert idx.dtype == np.uint8

    def test_crops_and_mirrored_views_index_like_the_full_frame(self):
        # the colors with 299r + 587g + 114b on a rounding tie are the only
        # ones whose index depends on how the weighted sum is computed: an
        # elementwise float formula changes 2529 of them
        r, g = np.divmod(np.arange(256 * 256), 256)
        b_of = np.full(1000, -1)
        b_of[114 * np.arange(256) % 1000] = np.arange(256)  # 256 distinct residues
        b = b_of[(500 - 299 * r - 587 * g) % 1000]
        colors = np.stack((r, g, b), axis=1)[b >= 0].astype(np.uint8)
        assert len(colors) == 16782
        rng = np.random.default_rng(0)
        inner = rng.integers(0, 256, (127 * 133, 3), dtype=np.uint8)
        inner[: len(colors)] = colors
        frame = rng.integers(0, 256, (131, 140, 3), dtype=np.uint8)
        frame[2:129, 3:136] = inner.reshape(127, 133, 3)
        full = to_indexed(RgbImage(frame))
        mirrored = frame[:, ::-1]
        for view, want in (
            (frame[2:129, 3:136], full[2:129, 3:136]),
            (mirrored, full[:, ::-1]),
            (mirrored[2:129, 4:137], full[:, ::-1][2:129, 4:137]),
        ):
            assert to_indexed(RgbImage(view)).tobytes() == want.tobytes()


class TestManifest:
    def test_single_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            "path,family,poison,cluster,split\n"
            "imgs/a.ppm,Istiophoridae,0,billfish,train\n"
        )
        entries = load_manifest(p)
        assert entries == [
            ManifestEntry("imgs/a.ppm", "Istiophoridae", False, "billfish", "train")
        ]

    def test_inconsistent_hierarchy(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            "path,family,poison,cluster,split\n"
            "a.ppm,X,0,c1,train\n"
            "b.ppm,X,1,c1,test\n"
        )
        with pytest.raises(InconsistentHierarchy):
            load_manifest(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,family,poison,cluster,split\n")
        with pytest.raises(EmptyManifest):
            load_manifest(p)

    @pytest.mark.parametrize(
        "row",
        [
            "a.ppm,X,2,c,train",  # bad poison flag
            "a.ppm,X,0,c,validation",  # bad split
            "a.ppm,X,0,c",  # wrong column count
            "a.ppm,,0,c,train",  # empty family
            ",X,0,c,train",  # empty path
        ],
    )
    def test_malformed_rows(self, tmp_path, row):
        p = tmp_path / "m.csv"
        p.write_text(f"path,family,poison,cluster,split\n{row}\n")
        with pytest.raises(MalformedRow):
            load_manifest(p)

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("file,family,poison,cluster,split\n")
        with pytest.raises(MalformedRow):
            load_manifest(p)

    def test_round_trip(self, tmp_path):
        entries = [
            ManifestEntry("a.ppm", "X", False, "c1", "train"),
            ManifestEntry("b.ppm", "Y", True, "c2", "test"),
        ]
        p = tmp_path / "m.csv"
        write_manifest(p, entries)
        assert load_manifest(p) == entries

    def test_accepts_default_corpus_layout(self, tmp_path):
        # 7 families whose train rows sum to 100
        counts = {
            "Istiophoridae": 15, "leiognathidae": 10, "Acropomaatidae": 15,
            "Scombridae": 10, "Stromateidae": 15, "Triacanthidae": 10,
            "Poison fish": 25,
        }
        rows = ["path,family,poison,cluster,split"]
        for fam, n in counts.items():
            poison = int(fam == "Poison fish")
            for k in range(n):
                rows.append(f"{fam}_{k}.ppm,{fam},{poison},c,train")
        p = tmp_path / "m.csv"
        p.write_text("\n".join(rows) + "\n")
        entries = load_manifest(p)
        assert len({e.family for e in entries}) == 7
        assert sum(e.split == "train" for e in entries) == 100
