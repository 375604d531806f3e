"""ctypes loader for the C FSST kernel, with compile-on-first-use.

The shared library is built from fsst_native.c with the system C
compiler into a content-addressed path under /tmp, so every Ray worker
process on a node shares one cached build. The C kernel is the engine's
only implementation of symbol-table training, bulk compress/decompress,
bit-packing, vbyte and row checksums: a failed build or load raises
RuntimeError (with the compiler's stderr).

An FSST symbol table travels as the state blob `train` returns. The
compress and decompress wrappers pass it to the kernel as it is; the
kernel validates it and builds its own tables on every call, and a
malformed blob raises ValueError("corrupt chunk: ...").
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import subprocess
import threading

import numpy as np

_SRC = pathlib.Path(__file__).parent / "fsst_native.c"
_LOCK = threading.Lock()
_LIB = None


def _build_and_load():
    # test hook: tools/sanitize_check.py points this at an
    # ASan/UBSan-instrumented build (with libasan LD_PRELOADed) so the
    # whole parity/property suite runs under the sanitizers
    override = os.environ.get("FSST_NATIVE_SO")
    if override:
        return _bind(_load(override))
    src = _SRC.read_bytes()
    digest = hashlib.sha256(src).hexdigest()[:16]
    so_path = pathlib.Path(f"/tmp/fsst_ray_native_{digest}.so")
    if not so_path.exists():
        tmp = so_path.with_suffix(f".{os.getpid()}.tmp")
        cmd = ["cc", "-O3", "-march=native", "-funroll-loops", "-shared", "-fPIC",
               "-o", str(tmp), str(_SRC)]
        try:
            res = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as e:
            raise RuntimeError(f"C kernel build failed: cannot run cc: {e}") from e
        if res.returncode != 0:
            raise RuntimeError(
                f"C kernel build failed (exit {res.returncode}): {' '.join(cmd)}\n"
                f"{res.stderr}"
            )
        os.replace(tmp, so_path)  # atomic: concurrent workers race safely
    return _bind(_load(str(so_path)))


def _load(path: str):
    try:
        return ctypes.CDLL(path)
    except OSError as e:
        raise RuntimeError(f"C kernel load failed: {path}: {e}") from e


def _bind(lib):
    i64 = ctypes.c_int64
    u8p = ctypes.POINTER(ctypes.c_uint8)
    i64p = ctypes.POINTER(ctypes.c_int64)
    lib.fsst_compress_bulk.restype = i64
    lib.fsst_compress_bulk.argtypes = [u8p, i64p, i64, u8p, i64, u8p, i64p]
    lib.fsst_decompress_bulk.restype = i64
    lib.fsst_decompress_bulk.argtypes = [u8p, i64p, i64, u8p, i64, u8p, i64, i64p]
    lib.fsst_decompress_bulk_at.restype = i64
    lib.fsst_decompress_bulk_at.argtypes = [u8p, i64p, i64, u8p, i64, u8p, i64p]
    lib.bitpack.restype = i64
    lib.bitpack.argtypes = [i64p, i64, ctypes.c_int32, u8p]
    lib.bitunpack.restype = None
    lib.bitunpack.argtypes = [u8p, i64, ctypes.c_int32, i64p]
    i32p = ctypes.POINTER(ctypes.c_int32)
    lib.vbyte_encode.restype = i64
    lib.vbyte_encode.argtypes = [i32p, i64, u8p]
    lib.vbyte_decode.restype = i64
    lib.vbyte_decode.argtypes = [u8p, i64, i64, i32p]
    lib.row_checksums.restype = None
    lib.row_checksums.argtypes = [
        ctypes.POINTER(ctypes.c_int32), i64p, i64, ctypes.POINTER(ctypes.c_uint64),
    ]
    lib.fsst_train.restype = i64
    lib.fsst_train.argtypes = [u8p, i64p, i64, u8p]
    lib.doc_hash64.restype = None
    lib.doc_hash64.argtypes = [u8p, i64p, i64, ctypes.POINTER(ctypes.c_uint64)]
    return lib


def get_lib():
    """Return the loaded C library, building it on first use.

    Raises RuntimeError if it cannot be built or loaded; a failure is not
    cached, so the next call tries again."""
    global _LIB
    if _LIB is None:
        with _LOCK:
            if _LIB is None:
                _LIB = _build_and_load()
    return _LIB


def _ptr(arr: np.ndarray, ctype):
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


# widest bit-pack lane: a lane plus the <8 bits still buffered must fit
# the kernel's 64-bit accumulator. Engine widths stay <= 34.
MAX_BIT_WIDTH = 57


def bitpack(values: np.ndarray, width: int) -> bytes:
    """Pack non-negative values into `width`-bit little-endian lanes."""
    if not 0 < width <= MAX_BIT_WIDTH:
        raise ValueError(f"bit width {width} outside 1..{MAX_BIT_WIDTH}")
    v = np.ascontiguousarray(values, dtype=np.int64)
    out = np.empty((len(v) * width + 7) // 8, dtype=np.uint8)
    written = get_lib().bitpack(
        _ptr(v, ctypes.c_int64), len(v), width, _ptr(out, ctypes.c_uint8)
    )
    return out[:written].tobytes()


def bitunpack(data: bytes, n: int, width: int) -> np.ndarray:
    """Inverse of bitpack. `width` and `n` come from a payload header, so
    a value the kernel cannot unpack is a corrupt chunk."""
    if width > MAX_BIT_WIDTH:
        raise ValueError(f"corrupt chunk: bit width {width} exceeds {MAX_BIT_WIDTH}")
    if len(data) * 8 < n * width:
        raise ValueError(
            f"bit-packed body too short: {len(data)} bytes cannot hold "
            f"{n} values of width {width} (corrupt or truncated chunk)"
        )
    raw = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(n, dtype=np.int64)
    get_lib().bitunpack(_ptr(raw, ctypes.c_uint8), n, width, _ptr(out, ctypes.c_int64))
    return out


def vbyte_encode(values: np.ndarray) -> bytes:
    """Stream-vbyte encode of zigzagged int32 values."""
    n = len(values)
    v = np.ascontiguousarray(values, dtype=np.int32)
    # worst case: ctrl + 4 B/value, +4 slack for the 4-byte store
    out = np.empty((n + 3) // 4 + 4 * n + 4, dtype=np.uint8)
    written = get_lib().vbyte_encode(_ptr(v, ctypes.c_int32), n, _ptr(out, ctypes.c_uint8))
    return out[:written].tobytes()


def vbyte_decode(data: bytes, n: int) -> np.ndarray:
    """Inverse of vbyte_encode; raises on a body shorter than its
    control bytes imply."""
    raw = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(n, dtype=np.int32)
    consumed = get_lib().vbyte_decode(
        _ptr(raw, ctypes.c_uint8), len(raw), n, _ptr(out, ctypes.c_int32)
    )
    if consumed < 0:
        raise ValueError("corrupt chunk: vbyte body shorter than control bytes imply")
    return out


def row_checksums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-row u64 sum of (v + 0x9E3779B97F4A7C15) * (position in row + 1),
    wrapping; `offsets` (n_rows+1) delimits rows of int32 `values`."""
    v32 = np.ascontiguousarray(values, dtype=np.int32)
    off = np.ascontiguousarray(offsets, dtype=np.int64)
    out = np.empty(len(off) - 1, dtype=np.uint64)
    get_lib().row_checksums(
        _ptr(v32, ctypes.c_int32), _ptr(off, ctypes.c_int64), len(out),
        _ptr(out, ctypes.c_uint64),
    )
    return out


def doc_hash64(doc_ids) -> np.ndarray:
    """The corpus's u64 hash of each doc_id (a string Arrow array or
    chunked array; other types hash their string cast). It depends only
    on each id's bytes, not on chunking or slicing. A null id raises."""
    import pyarrow as pa

    if isinstance(doc_ids, pa.ChunkedArray):
        parts = [doc_hash64(c) for c in doc_ids.chunks]
        return np.concatenate(parts) if parts else np.zeros(0, np.uint64)
    if not (pa.types.is_string(doc_ids.type) or pa.types.is_large_string(doc_ids.type)):
        doc_ids = doc_ids.cast(pa.string())
    if doc_ids.null_count:
        raise ValueError("doc_id holds nulls (input precondition: doc_id is unique per row)")
    n = len(doc_ids)
    if n == 0:
        return np.zeros(0, np.uint64)
    _, off_buf, data_buf = doc_ids.buffers()
    width = np.int64 if pa.types.is_large_string(doc_ids.type) else np.int32
    offsets = np.frombuffer(off_buf, width, n + 1, doc_ids.offset * np.dtype(width).itemsize)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    data = np.frombuffer(data_buf, np.uint8) if data_buf is not None and data_buf.size else np.zeros(1, np.uint8)
    out = np.empty(n, dtype=np.uint64)
    get_lib().doc_hash64(
        _ptr(data, ctypes.c_uint8), _ptr(offsets, ctypes.c_int64), n, _ptr(out, ctypes.c_uint64)
    )
    return out


# largest state blob: 4 header bytes + 255 symbols x (8 + 1) bytes
STATE_MAX = 4 + 9 * 255


def train(lines: list[bytes]) -> bytes:
    """Train a symbol table on `lines` (sample, 5 generations,
    finalize); returns its state blob, byte-identical to the reference
    crate's table."""
    offsets = np.zeros(len(lines) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, lines), np.int64, len(lines)), out=offsets[1:])
    data = np.frombuffer(b"".join(lines), dtype=np.uint8)
    out = np.empty(STATE_MAX, dtype=np.uint8)
    written = get_lib().fsst_train(
        _ptr(data, ctypes.c_uint8), _ptr(offsets, ctypes.c_int64), len(lines),
        _ptr(out, ctypes.c_uint8),
    )
    if written < 0:
        raise MemoryError("fsst_train could not allocate its working memory")
    return out[:written].tobytes()


def _zero_based(data: np.ndarray, offsets: np.ndarray):
    """(data, offsets) as contiguous arrays, a sliced view rebased so
    offsets[0] == 0."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if len(offsets) > 1 and int(offsets[0]) != 0:
        data = data[int(offsets[0]) : int(offsets[-1])]
        offsets = offsets - offsets[0]
    return data, offsets


# fsst_native.c's STATE_CORRUPT and NO_MEMORY returns
_STATE_CORRUPT = -2
_NO_MEMORY = -3


def _fsst_call(fn, data, offsets, state, *rest) -> int:
    """Run an FSST bulk entry point on rows of `data` with the state
    blob; raises on the kernel's malformed-state and no-memory codes."""
    blob = np.frombuffer(state, dtype=np.uint8)
    written = fn(
        _ptr(data, ctypes.c_uint8), _ptr(offsets, ctypes.c_int64), len(offsets) - 1,
        _ptr(blob, ctypes.c_uint8), len(blob), *rest,
    )
    if written == _STATE_CORRUPT:
        raise ValueError("corrupt chunk: malformed fsst symbol table")
    if written == _NO_MEMORY:
        raise MemoryError("fsst_compress_bulk could not allocate its encoder")
    return written


def compress_bulk(data: np.ndarray, offsets: np.ndarray, state: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Compress rows of `data` (uint8, concatenated; `offsets` int64
    n_rows+1) with the symbol table of a state blob. Returns (codes,
    out_offsets)."""
    data, offsets = _zero_based(data, offsets)
    n_rows = len(offsets) - 1
    # lane-slotted worst-case layout: 2 bytes/input byte + 8 per row
    out = np.empty(2 * int(offsets[-1]) + 8 * n_rows + 8, dtype=np.uint8)
    out_offsets = np.empty(n_rows + 1, dtype=np.int64)
    written = _fsst_call(
        get_lib().fsst_compress_bulk, data, offsets, state,
        _ptr(out, ctypes.c_uint8), _ptr(out_offsets, ctypes.c_int64),
    )
    return out[:written].copy(), out_offsets


def decompress_bulk_at(
    codes: np.ndarray,
    offsets: np.ndarray,
    state: bytes,
    out: np.ndarray,
    out_offsets: np.ndarray,
) -> int:
    """Decompress rows into KNOWN disjoint regions of `out`: row r
    decodes into out[out_offsets[r]:out_offsets[r+1]].

    Unlike decompress_bulk, out_offsets is an INPUT — the caller knows
    every row's decoded size up front (fsst_codec compresses fixed-raw-
    size segments), which lets the C kernel run N_LANES rows in
    lockstep with a branchless body. No byte is ever written outside a
    row's region, so `out` needs NO slack bytes. Returns total decoded
    bytes; raises if any row does not decode to exactly its region
    (corrupt stream)."""
    codes, offsets = _zero_based(codes, offsets)
    out_offsets = np.ascontiguousarray(out_offsets, dtype=np.int64)
    assert out.dtype == np.uint8 and out.flags["C_CONTIGUOUS"]
    written = _fsst_call(
        get_lib().fsst_decompress_bulk_at, codes, offsets, state,
        _ptr(out, ctypes.c_uint8), _ptr(out_offsets, ctypes.c_int64),
    )
    if written < 0:
        raise ValueError("corrupt chunk: fsst segment decoded to unexpected size")
    return int(written)


def decompress_bulk(
    codes: np.ndarray, offsets: np.ndarray, state: bytes,
    decoded_size_hint: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decompress rows of `codes` back to plaintext bytes. Returns
    (decoded, out_offsets).

    decoded_size_hint, when known exactly (tokens: 4*sum(n_tok)), sizes
    the output buffer tightly; otherwise worst case 8x is used.
    """
    codes, offsets = _zero_based(codes, offsets)
    total = int(offsets[-1])
    # +8: the kernel's symbol writes are full 8-byte stores
    cap = (decoded_size_hint if decoded_size_hint is not None else 8 * total) + 8
    dest = np.empty(cap, dtype=np.uint8)
    out_offsets = np.empty(len(offsets), dtype=np.int64)
    written = _fsst_call(
        get_lib().fsst_decompress_bulk, codes, offsets, state,
        _ptr(dest, ctypes.c_uint8), cap, _ptr(out_offsets, ctypes.c_int64),
    )
    if written < 0:
        raise ValueError("fsst decode exceeded output capacity (bad size hint or corrupt stream)")
    # exact size hint: hand back a view (8-byte slack retained);
    # worst-case sizing: copy out so the 8x buffer can be freed
    if decoded_size_hint is not None and written >= cap - 8:
        return dest[:written], out_offsets
    return dest[:written].copy(), out_offsets
