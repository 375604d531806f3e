"""Per-chunk codec auto-selection by estimated encoded size.

Mirrors the reference's gain accounting idea (spiraldb/fsst
src/builder.rs:680: training maximizes bytes-covered gain) generalized
to a codec registry: compute a cheap size estimate for every applicable
codec on the chunk's stats, encode with the argmin, and record both the
estimate and the actual size in chunk metadata.
"""

from __future__ import annotations

import numpy as np

from .base import CODEC_BY_NAME

# stats sampling bounds: stats are exact below this, windowed above
_EXACT_LIMIT = 1 << 17
_WINDOW = 1 << 14
_N_WINDOWS = 4

DEFAULT_CODECS = (
    "plain",
    "bitpack",
    "for",
    "rle",
    "dict",
    "fsst",
    "zigzag",
    "delta",
    "vbyte",
    "pfor",
)


def chunk_stats(values: np.ndarray) -> dict:
    """Cheap chunk statistics driving the codec size estimates.

    Exact for small chunks; for large chunks cardinality/run counts are
    extrapolated from evenly spaced contiguous windows (deterministic).
    """
    n = len(values)
    if n == 0:
        return {
            "n": 0, "min": 0, "max": 0, "card": 0, "n_runs": 0, "max_run": 0,
        }
    vmin = int(values.min())
    vmax = int(values.max())

    def _vbyte_count(v: np.ndarray) -> int:
        z = (v.astype(np.int64) << 1) ^ (v.astype(np.int64) >> 63)
        return int(
            len(z)
            + np.count_nonzero(z >= (1 << 8))
            + np.count_nonzero(z >= (1 << 16))
            + np.count_nonzero(z >= (1 << 24))
        )

    _BL_THRESH = np.left_shift(np.int64(1), np.arange(0, 33, dtype=np.int64))

    def _bl_hist(v: np.ndarray) -> np.ndarray:
        # bit-length histogram of (v - vmin): drives the pfor width
        # choice (bit_length(x) = #powers-of-two <= x, vectorized)
        d = v.astype(np.int64) - vmin
        bl = np.searchsorted(_BL_THRESH, d, side="right")
        return np.bincount(bl, minlength=33)[:33]

    if n <= _EXACT_LIMIT:
        card = len(np.unique(values))
        diffs = np.diff(values.astype(np.int64))
        run_starts = np.flatnonzero(diffs) + 1
        n_runs = len(run_starts) + 1
        max_run = int(np.diff(run_starts, prepend=0, append=n).max())
        dmax = int(np.abs(diffs).max()) if len(diffs) else 0
        delta_zz_width = max(int(dmax * 2).bit_length(), 1)
        vbyte_bytes = _vbyte_count(values)
        bl_hist = _bl_hist(values)
    else:
        starts = np.linspace(0, n - _WINDOW, _N_WINDOWS).astype(np.int64)
        windows = [values[s : s + _WINDOW] for s in starts]
        sampled = np.concatenate(windows)
        frac = len(sampled) / n
        card = min(int(len(np.unique(sampled)) / max(frac, 1e-9)), n, vmax - vmin + 1)
        n_runs = max(int((sum(np.count_nonzero(np.diff(w)) + 1 for w in windows)) / frac / 1), 1)
        max_run = n  # upper bound: a run may span the unsampled gaps
        dmax = max(
            (int(np.abs(np.diff(w.astype(np.int64))).max()) for w in windows if len(w) > 1),
            default=0,
        )
        delta_zz_width = max(int(dmax * 2).bit_length(), 1)
        vbyte_bytes = int(_vbyte_count(sampled) / max(frac, 1e-9))
        # proportions drive the width choice; PforCodec.estimate scales
        # the histogram to n
        bl_hist = _bl_hist(sampled)
    return {
        "n": n,
        "min": vmin,
        "max": vmax,
        "card": card,
        "n_runs": n_runs,
        "max_run": max_run,
        "delta_zz_width": delta_zz_width,
        "vbyte_bytes": vbyte_bytes,
        "bl_hist": bl_hist,
    }


def select_codec(
    values: np.ndarray,
    state: dict | None = None,
    codecs: tuple[str, ...] = DEFAULT_CODECS,
    stats: dict | None = None,
) -> tuple[str, dict]:
    """Pick the codec with the minimum estimated encoded size."""
    if stats is None:
        stats = chunk_stats(values)
    estimates = {}
    for name in codecs:
        codec = CODEC_BY_NAME[name]
        estimates[name] = codec.estimate(stats, state if name == "fsst" else None)
    best = min(estimates, key=lambda k: (estimates[k], k))
    return best, estimates


def encode_chunk(
    values: np.ndarray,
    state: dict | None = None,
    codecs: tuple[str, ...] = DEFAULT_CODECS,
    forced_codec: str | None = None,
) -> tuple[bytes, dict]:
    """Auto-select and encode one chunk. Returns (payload, meta).

    An auto-selected payload longer than plain's (10 + 4n bytes) is
    replaced by the plain one: an estimate can misprice a chunk (FSST
    prices it at its source's pass-1 ratio), never by more than that."""
    values = np.ascontiguousarray(values, dtype=np.int32)
    stats = chunk_stats(values)
    if forced_codec is not None:
        name, estimates = forced_codec, {forced_codec: float("nan")}
    else:
        name, estimates = select_codec(values, state, codecs, stats)
    codec = CODEC_BY_NAME[name]
    payload = codec.encode(values, state if name == "fsst" else None)
    if forced_codec is None and len(payload) > 10 + 4 * len(values):
        name = "plain"
        estimates.setdefault(name, 4 * len(values))
        payload = CODEC_BY_NAME[name].encode(values)
    meta = {
        "codec": name,
        "n_values": len(values),
        "bytes_in": 4 * len(values),
        "bytes_out": len(payload),
        "est_bytes": float(estimates[name]),
    }
    return payload, meta
