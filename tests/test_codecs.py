"""Round-trip + selection tests for the chunk codec registry."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from fsst_ray import codecs
from fsst_ray.codecs import decode_payload, encode_chunk, select_codec
from fsst_ray.codecs.fsst_codec import train_with_ratio
from fsst_ray.codecs.simple import pack_bits, unpack_bits

RNG = np.random.default_rng(42)

CASES = {
    "empty": np.empty(0, dtype=np.int32),
    "single": np.array([7], dtype=np.int32),
    "constant": np.full(1000, 7, dtype=np.int32),
    "zeros": np.zeros(500, dtype=np.int32),
    "smallrange": RNG.integers(1000, 1064, size=2000).astype(np.int32),
    "zipf": (RNG.zipf(1.3, size=5000) % 50000).astype(np.int32),
    "highbyte": RNG.integers(1 << 24, 1 << 31, size=3000).astype(np.int32),
    "runs": np.repeat(RNG.integers(0, 50, size=100), RNG.integers(1, 40, size=100)).astype(np.int32),
    "negative": RNG.integers(-1000, 1000, size=2000).astype(np.int32),
    "cyclic": np.tile(RNG.integers(0, 1000, size=64).astype(np.int32), 200),
    "sorted_ids": np.sort(RNG.integers(0, 1 << 30, size=3000)).astype(np.int32),
    "timestampish": (np.arange(2000) * 1000 + RNG.integers(0, 50, size=2000)).astype(np.int32),
}


@pytest.fixture(scope="module")
def fsst_state():
    lines = [CASES["zipf"][i : i + 256].astype("<i4").tobytes() for i in range(0, 5000, 256)]
    return train_with_ratio(lines)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", ["plain", "bitpack", "for", "rle", "dict", "fsst", "zigzag", "delta", "vbyte"])
def test_roundtrip(name, case, fsst_state):
    values = CASES[case]
    codec = codecs.CODEC_BY_NAME[name]
    if name == "bitpack" and case == "negative":
        pytest.skip("bitpack requires non-negative values")
    state = fsst_state if name == "fsst" else None
    payload = codec.encode(values, state)
    decoded = decode_payload(payload)
    assert decoded.dtype == np.int32
    assert np.array_equal(decoded, values), f"{name} round-trip failed on {case}"


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", ["plain", "bitpack", "for", "rle", "dict", "fsst", "zigzag", "delta", "vbyte"])
def test_roundtrip_into(name, case, fsst_state):
    """decode_payload_into must produce the same values as
    decode_payload when writing into a slice of a larger buffer, and
    never write outside its slice: every int32 after it keeps its
    sentinel."""
    from fsst_ray.codecs import decode_payload_into

    values = CASES[case]
    codec = codecs.CODEC_BY_NAME[name]
    if name == "bitpack" and case == "negative":
        pytest.skip("bitpack requires non-negative values")
    state = fsst_state if name == "fsst" else None
    payload = codec.encode(values, state)
    buf = np.full(len(values) + 16, -12345, dtype=np.int32)
    decode_payload_into(payload, buf[: len(values)])
    assert np.array_equal(buf[: len(values)], values), f"{name} into-decode on {case}"
    assert np.all(buf[len(values) :] == -12345), "write beyond the output slice"


def test_decode_payload_into_length_mismatch():
    payload = codecs.CODEC_BY_NAME["plain"].encode(np.arange(10, dtype=np.int32), None)
    from fsst_ray.codecs import decode_payload_into

    with pytest.raises(ValueError, match="declares 10 values"):
        decode_payload_into(payload, np.empty(11, dtype=np.int32))


def test_pack_bits_roundtrip():
    for width in range(0, 33):
        n = 100
        vals = RNG.integers(0, 2**width if width else 1, size=n).astype(np.int64)
        assert np.array_equal(unpack_bits(pack_bits(vals, width), n, width).astype(np.int64), vals)



def _wide_width_payload(codec: str, width: int, n: int = 64) -> bytes:
    """A framed payload whose bit-width header byte is `width`, with an
    all-0xff body long enough to pass the body-length check."""
    body = b"\xff" * ((n * width + 7) // 8)
    header = {
        "bitpack": struct.pack("<B", width),
        "for": struct.pack("<qB", 0, width),
        "pfor": struct.pack("<qBqBB", 0, width, 0, 0, 0),
    }[codec]
    codec_id = codecs.CODEC_BY_NAME[codec].codec_id
    return struct.pack("<BBq", codec_id, 1, n) + header + body


@pytest.mark.parametrize("width", [58, 64])
@pytest.mark.parametrize("codec", ["bitpack", "for", "pfor"])
def test_width_beyond_kernel_is_corrupt(codec, width):
    """Widths come from the payload; one the C bit-unpacker cannot hold
    must raise, not decode to wrapped int32 garbage."""
    with pytest.raises(ValueError, match="corrupt chunk"):
        decode_payload(_wide_width_payload(codec, width))


def test_pack_bits_rejects_width_beyond_kernel():
    with pytest.raises(ValueError):
        pack_bits(np.ones(4, dtype=np.int64), 58)

def test_selection_preferences(fsst_state):
    # constant -> for with width 0 (9 bytes beats rle's run headers)
    name, _ = select_codec(CASES["constant"])
    assert name == "for"
    name, _ = select_codec(CASES["runs"])
    assert name == "rle"
    name, _ = select_codec(CASES["smallrange"])
    assert name in ("for", "bitpack", "dict")
    # escape-heavy fsst shouldn't win big: the estimate prices a chunk
    # at its source's training ratio, so train on highbyte bytes as
    # pass 1 would for a highbyte source
    raw = CASES["highbyte"].astype("<i4").tobytes()
    highbyte_state = train_with_ratio([raw[i : i + 512] for i in range(0, len(raw), 512)])
    name, est = select_codec(CASES["highbyte"], highbyte_state)
    assert est["plain"] <= est["fsst"] * 1.2

    # zipf token text: fsst should beat plain
    name, est = select_codec(CASES["zipf"], fsst_state)
    assert est["fsst"] < est["plain"]

    # sorted ids: delta must win by a wide margin
    name, est = select_codec(CASES["sorted_ids"])
    assert name == "delta", est
    assert est["delta"] < est["bitpack"]
    name, est = select_codec(CASES["timestampish"])
    assert name == "delta", est
    # negatives: zigzag applicable where bitpack is not
    _, est = select_codec(CASES["negative"])
    assert est["zigzag"] < float("inf") and est["bitpack"] == float("inf")


def test_encode_chunk_never_larger_than_plain(fsst_state):
    """A chunk unlike its source's training sample is mispriced by the
    FSST estimate (here select picks fsst for highbyte values under the
    zipf-trained table); the encoded chunk falls back to plain."""
    values = CASES["highbyte"]
    name, _ = select_codec(values, fsst_state)
    assert name == "fsst"
    assert len(codecs.CODEC_BY_NAME["fsst"].encode(values, fsst_state)) > 10 + 4 * len(values)
    payload, meta = encode_chunk(values, fsst_state)
    assert meta["codec"] == "plain"
    assert len(payload) == meta["bytes_out"] == 10 + 4 * len(values)
    assert np.array_equal(decode_payload(payload), values)


def test_encode_chunk_meta(fsst_state):
    payload, meta = encode_chunk(CASES["runs"], fsst_state)
    assert meta["codec"] == "rle"
    assert meta["bytes_out"] == len(payload)
    assert meta["bytes_out"] < meta["bytes_in"]
    assert np.array_equal(decode_payload(payload), CASES["runs"])


def test_selected_sizes_compress():
    # every fixture family should compress (or at worst stay ~plain)
    for case, values in CASES.items():
        payload, meta = encode_chunk(values)
        assert meta["bytes_out"] <= 4 * len(values) + 64, case
        assert np.array_equal(decode_payload(payload), values), case


@pytest.mark.parametrize("name", ["bitpack", "for", "rle", "dict", "zigzag", "delta", "vbyte"])
def test_truncated_body_raises(name):
    """Corrupt/truncated chunk bodies must error, never decode garbage
    (the C bitunpack kernel would otherwise read out of bounds)."""
    codec = codecs.CODEC_BY_NAME[name]
    values = CASES["smallrange"]
    body = codec.encode_values(values, None)
    for cut in (len(body) // 2, len(body) - 3):
        with pytest.raises((ValueError, struct.error)):
            codec.decode_values(body[:cut], len(values))


def test_fsst_decode_big_table_via_signed_memoryview():
    """Regression: decode_payload_into receives memoryview(pa.Buffer)
    whose format is SIGNED 'b'. A symbol table whose count's low byte
    is >= 0x80 (e.g. the full 255) once parsed as a negative count; the
    kernel must read the blob's bytes unsigned."""
    import pyarrow as pa

    from fsst_ray.codecs.base import decode_payload_into
    from fsst_ray.codecs.fsst_codec import FsstCodec

    rng = np.random.default_rng(5)
    # diverse natural-ish lines train a full 255-symbol table
    words = [
        bytes(rng.integers(97, 123, size=rng.integers(2, 9)).tolist())
        for _ in range(500)
    ]
    lines = [
        b" ".join(words[i] for i in rng.integers(0, len(words), size=40))
        for _ in range(64)
    ]
    state = train_with_ratio(lines)
    n_syms = state["fsst"][1] | (state["fsst"][2] << 8)
    assert n_syms >= 128, f"table too small to exercise the bug ({n_syms})"

    values = rng.integers(0, 1 << 20, size=4096).astype(np.int32)
    codec = FsstCodec()
    payload = codec.encode(values, state)
    buf = pa.py_buffer(payload)  # memoryview(pa.Buffer) => signed format
    out = np.empty(len(values), dtype=np.int32)
    decode_payload_into(memoryview(buf), out)
    assert (out == values).all()


def _corrupt_fsst_header(payload: bytes, how: str) -> bytes:
    """`payload` (a framed fsst chunk) with one field of its state header
    broken. Body: u32 state_len | segmented flag, then the state blob
    [version, n lo, n hi, has_suffix_code, n u64 symbols, n u8 lengths]."""
    b = bytearray(payload)
    state_len_at, state_at = 10, 14
    (word,) = struct.unpack_from("<I", b, state_len_at)
    n = b[state_at + 1] | (b[state_at + 2] << 8)
    lengths_at = state_at + 4 + 8 * n
    if how == "version":
        b[state_at] = 2
    elif how in ("n+1", "n-1"):
        struct.pack_into("<H", b, state_at + 1, n + (1 if how == "n+1" else -1))
    elif how in ("state_len+1", "state_len-1"):
        struct.pack_into("<I", b, state_len_at, word + (1 if how == "state_len+1" else -1))
    elif how in ("length=0", "length=9"):
        b[lengths_at] = int(how[-1])
    elif how == "suffix>n":
        b[state_at + 3] = n + 1
    return bytes(b)


@pytest.mark.parametrize(
    "how",
    ["version", "n+1", "n-1", "state_len+1", "state_len-1", "length=0", "length=9", "suffix>n"],
)
def test_corrupt_fsst_state_header_raises(how, fsst_state):
    """A broken state header is a corrupt chunk on both decode paths,
    never a decode with a wrong or misread table."""
    from fsst_ray.codecs import decode_payload_into

    values = CASES["zipf"]
    payload = codecs.CODEC_BY_NAME["fsst"].encode(values, fsst_state)
    n = fsst_state["fsst"][1] | (fsst_state["fsst"][2] << 8)
    assert 0 < n < 255  # room for has_suffix_code = n + 1
    assert np.array_equal(decode_payload(payload), values)
    bad = _corrupt_fsst_header(payload, how)
    assert bad != payload
    with pytest.raises(ValueError, match="corrupt chunk"):
        decode_payload(bad)
    with pytest.raises(ValueError, match="corrupt chunk"):
        decode_payload_into(bad, np.empty(len(values), dtype=np.int32))


def test_pfor_exact_estimate_and_family_win():
    """pfor: estimate == actual on exactly-profiled chunks; beats vbyte
    on the compact-cluster-plus-outliers family vbyte cannot win (vbyte
    pays a 1.25 B/value floor); exceptions round-trip bit-exactly."""
    import numpy as np

    from fsst_ray.codecs import decode_payload, encode_chunk
    from fsst_ray.codecs.simple import PforCodec
    from fsst_ray.codecs.select import chunk_stats, select_codec

    rng = np.random.default_rng(99)
    v = np.where(
        rng.random(50000) < 0.02,
        rng.integers(0, 1 << 20, 50000),
        rng.integers(0, 100, 50000),
    ).astype(np.int32)
    p = PforCodec()
    body = p.encode_values(v, None)
    assert np.array_equal(p.decode_values(body, len(v)), v)
    st = chunk_stats(v)
    assert p.estimate(st, None) == len(body) + 0  # exact on exact stats
    best, ests = select_codec(v)
    assert best == "pfor"
    assert ests["pfor"] < ests["vbyte"] < ests["bitpack"]
    payload, meta = encode_chunk(v)
    assert meta["codec"] == "pfor"
    assert np.array_equal(decode_payload(payload).astype(np.int32), v)


@pytest.mark.parametrize("case", sorted(CASES))
def test_rle_estimate_is_exact(case):
    """rle: on an exactly-profiled chunk the estimate is the size
    encode_values writes (run lengths packed at the longest run's
    width, not 32 bits each)."""
    from fsst_ray.codecs.select import _EXACT_LIMIT, chunk_stats

    values = CASES[case]
    assert len(values) <= _EXACT_LIMIT
    rle = codecs.CODEC_BY_NAME["rle"]
    assert rle.estimate(chunk_stats(values), None) == len(rle.encode_values(values, None))


def test_pfor_windowed_estimate_picks_exact_width():
    """On a windowed chunk (> 2^17 values, stats sampled) the estimate
    prices exceptions at the full n: its width is the one _best_width
    picks from the exact histogram, so estimate == actual here. Priced
    at the sampling fraction, 30% exceptions look cheap and width 4
    wins over the exact 8."""
    import numpy as np

    from fsst_ray.codecs.select import _EXACT_LIMIT, chunk_stats
    from fsst_ray.codecs.simple import PforCodec, bit_width

    n = (1 << 18) + 1000
    i = np.arange(n)
    # 3 in 10 deltas need 8 bits, the rest at most 4
    v = np.where(np.isin(i % 10, [0, 3, 7]), 128 + i % 128, i % 16).astype(np.int32)
    st = chunk_stats(v)
    assert n > _EXACT_LIMIT and st["bl_hist"].sum() < n
    exact = np.bincount(
        [int(d).bit_length() for d in v - v.min()], minlength=33
    )
    w, nexc = PforCodec._best_width(n, exact)
    assert (w, nexc) == (8, 0)
    p = PforCodec()
    est = p.estimate(st, None)
    assert est == PforCodec._size(n, w, nexc, bit_width(n - 1), 8)
    assert est == len(p.encode_values(v, None))


def test_pfor_edge_cases_and_corruption():
    import numpy as np
    import pytest

    from fsst_ray.codecs.simple import PforCodec

    p = PforCodec()
    for v in (
        np.empty(0, np.int32),
        np.array([-(2**31), 2**31 - 1, 0, 5], np.int32),  # max-range deltas
        np.full(777, -3, np.int32),  # constant -> w=0, no exceptions
        np.array([7], np.int32),
    ):
        body = p.encode_values(v, None)
        assert np.array_equal(p.decode_values(body, len(v)), v)
    # truncated main lane raises via the unpack_bits length guard
    v = np.where(
        np.arange(1000) % 50 == 0, 1 << 20, np.arange(1000) % 90
    ).astype(np.int32)
    body = p.encode_values(v, None)
    with pytest.raises(ValueError):
        p.decode_values(body[: len(body) // 3], len(v))
