"""Hypothesis property tests for the codec layer: every generated
int32 chunk must round-trip exactly through (a) each forced codec that
accepts it and (b) auto-selection, and bit packing must round-trip for
every legal width. Complements the seeded-random tests in
test_codecs.py with shrinkable adversarial cases (the reference's
cargo-fuzz analogue for the codec layer; its fuzz targets are
tests/../fuzz_targets/fuzz_compress.rs and fuzz_train.rs)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsst_ray.codecs import decode_payload, encode_chunk
from fsst_ray.codecs.fsst_codec import train_with_ratio
from fsst_ray.codecs.simple import pack_bits, unpack_bits

I32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)

chunks = st.lists(I32, min_size=0, max_size=300).map(
    lambda xs: np.array(xs, dtype=np.int32)
)
# value families the selector routes differently
skewed = st.one_of(
    st.lists(st.integers(0, 7), min_size=1, max_size=300),
    st.lists(st.sampled_from([0, 1, 1 << 20, -5]), min_size=1, max_size=300),
    st.lists(st.just(42), min_size=1, max_size=300),
).map(lambda xs: np.array(xs, dtype=np.int32))


@settings(max_examples=60, deadline=None)
@given(values=st.one_of(chunks, skewed))
def test_auto_select_roundtrip(values):
    payload, meta = encode_chunk(values)
    out = decode_payload(payload)
    assert np.array_equal(out.astype(np.int32), values), meta


@settings(max_examples=30, deadline=None)
@given(values=st.one_of(chunks, skewed))
def test_each_codec_roundtrip(values):
    for name in ("plain", "bitpack", "for", "rle", "dict", "zigzag", "delta", "vbyte", "pfor"):
        if name == "bitpack" and len(values) and int(values.min()) < 0:
            continue  # precondition: selector never picks bitpack for negatives
        payload, meta = encode_chunk(values, forced_codec=name)
        out = decode_payload(payload)
        assert np.array_equal(out.astype(np.int32), values), (name, meta)


@settings(max_examples=30, deadline=None)
@given(values=st.one_of(chunks, skewed))
def test_fsst_codec_roundtrip(values):
    state = train_with_ratio([values.astype("<i4").tobytes()[:512] or b"x"])
    payload, meta = encode_chunk(values, state=state, forced_codec="fsst")
    out = decode_payload(payload)
    assert np.array_equal(out.astype(np.int32), values), meta


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    width=st.integers(min_value=1, max_value=57),
    n=st.integers(min_value=0, max_value=200),
)
def test_pack_bits_roundtrip(data, width, n):
    hi = (1 << width) - 1
    vals = np.array(
        data.draw(st.lists(st.integers(0, hi), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    packed = pack_bits(vals, width)
    assert len(packed) >= (n * width + 7) // 8 or n == 0
    out = unpack_bits(packed, n, width)
    assert np.array_equal(out, vals)


def test_truncated_payload_rejected():
    payload, _ = encode_chunk(np.arange(100, dtype=np.int32), forced_codec="bitpack")
    with pytest.raises(Exception):
        decode_payload(payload[: len(payload) // 2])
