"""Exact-semantics FSST (Fast Static Symbol Table) codec in pure
Python/numpy: the test oracle of the C kernel (fsst_ray/kernel/fsst_native.c).

FSST is the string-compression scheme of Boncz, Neumann & Leis,
"FSST: Fast Random Access String Compression", VLDB vol 13 p2649.
This module re-implements the algorithm from scratch with the same
observable semantics as the reference implementation (spiraldb/fsst
v0.4.3): identical symbol tables, identical compressed bytes, identical
round-trips.  Reference behaviors replicated (cited by file:line of the
reference repo for parity checking, no code copied):

* 255-symbol cap, code 255 = escape       (src/lib.rs:159, src/builder.rs:314)
* symbol = up to 8 bytes packed LE in a u64; length from trailing
  non-zero extent with the all-zero == 1-byte-0x00 special case
  (src/lib.rs:56-69)
* greedy longest-match compression with a 65,536-entry two-byte index
  and a 2,048-slot lossy perfect hash table keyed on
  fsst_hash(first-3-bytes), first-insert-wins collisions
  (src/lib.rs:366-413, src/lossy_pht.rs:81-93)
* zero-padded tail handling: the last <8 bytes of a buffer are parsed
  against a zero-padded word (src/lib.rs:489-501)
* 5-generation training on a <=16 KiB sample with sample fractions
  [8,38,68,98,128]/128, count cutoff 5*frac/128, the x8 single-byte
  gain boost, no merges in the final round (src/builder.rs:519-526,
  604-628, 754-813)
* deterministic sampling PRNG: fsst_hash chain seeded 4637947
  (src/builder.rs:535-584)
* candidate max-heap ordered by (gain, symbol_len) with Rust
  std::collections::BinaryHeap sift semantics so tie-breaking matches
  bit-for-bit (src/builder.rs:845-852)
* finalize renumbering by length order 2(no-suffix)|2(suffix)|3..8|1,
  including the quirk that the suffix scan looks at all 255 upper table
  slots (stale entries from earlier generations included)
  (src/builder.rs:390-496)

The engine never imports this module: it trains, encodes and decodes
with the C kernel, which the golden and fuzz tests hold bit-equal to
the trainer (`train_oracle`) and encode loop here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fsst_ray.kernel.fsst import (
    CODE_UNUSED,
    ESCAPE_CODE,
    FSST_CODE_BASE,
    FSST_CODE_MASK,
    FSST_LEN_BITS,
    FSST_SAMPLE_SEED,
    FSST_SAMPLELINE,
    FSST_SAMPLETARGET,
    GENERATIONS,
    HASH_TABLE_SIZE,
    PHT_MASK,
    U64,
    fsst_hash,
)


def sym_len(u: int) -> int:
    """Length in bytes (1-8) of a symbol packed LE into a u64.

    Trailing zero bytes (high bytes of the u64) do not count; the
    all-zero value is the 1-byte symbol 0x00.
    """
    if u == 0:
        return 1
    return (u.bit_length() + 7) >> 3


def sym_concat(a: int, b: int) -> int:
    """Concatenate two symbols (b follows a); lengths must sum <= 8."""
    la = sym_len(a)
    assert la + sym_len(b) <= 8, "cannot build symbol with length > 8"
    return ((b << (8 * la)) | a) & U64


def _code_new_symbol(code: int, length: int) -> int:
    return code + (length << FSST_LEN_BITS)


def _code_new_symbol_building(code: int, length: int) -> int:
    return code + 256 + (length << FSST_LEN_BITS)


def _code_new_escape(byte: int) -> int:
    return byte + (1 << FSST_LEN_BITS)


def _code_code(c: int) -> int:
    return c & 0xFF


def _code_extended(c: int) -> int:
    return c & 0x1FF


def _code_len(c: int) -> int:
    return c >> FSST_LEN_BITS


class _RustBinaryHeap:
    """Max-heap replicating Rust std::collections::BinaryHeap sift order.

    Elements are (gain, length, symbol) tuples but comparisons use only
    (gain, length) — matching the reference Candidate Ord impl — so that
    ties pop in exactly the same order as the reference's heap.
    """

    __slots__ = ("data",)

    def __init__(self):
        self.data: list[tuple[int, int, int]] = []

    def __len__(self):
        return len(self.data)

    @staticmethod
    def _le(a, b):
        return (a[0], a[1]) <= (b[0], b[1])

    def push(self, item):
        d = self.data
        d.append(item)
        self._sift_up(0, len(d) - 1)

    def _sift_up(self, start, pos):
        d = self.data
        element = d[pos]
        while pos > start:
            parent = (pos - 1) >> 1
            if self._le(element, d[parent]):
                break
            d[pos] = d[parent]
            pos = parent
        d[pos] = element
        return pos

    def pop(self):
        d = self.data
        item = d.pop()
        if d:
            item, d[0] = d[0], item
            self._sift_down_to_bottom(0)
        return item

    def _sift_down_to_bottom(self, pos):
        d = self.data
        end = len(d)
        start = pos
        element = d[pos]
        child = 2 * pos + 1
        while child <= end - 2:
            child += self._le(d[child], d[child + 1])
            d[pos] = d[child]
            pos = child
            child = 2 * pos + 1
        if child == end - 1:
            d[pos] = d[child]
            pos = child
        d[pos] = element
        self._sift_up(start, pos)


class _Counter:
    """Per-generation code / code-pair frequency counters.

    The reference uses bitmap-indexed lazy counters so clear() is cheap
    (src/builder.rs:110-223); dense numpy arrays zeroed per generation
    are observably identical (a count is "seen" iff non-zero).
    """

    __slots__ = ("c1", "c2")

    def __init__(self):
        self.c1 = np.zeros(FSST_CODE_MASK + 1, dtype=np.int64)
        self.c2 = np.zeros((FSST_CODE_MASK + 1, FSST_CODE_MASK + 1), dtype=np.int64)

    def clear(self):
        self.c1[:] = 0
        self.c2[:] = 0

    def first_codes(self):
        return np.nonzero(self.c1[:FSST_CODE_MASK])[0]

    def second_codes(self, code1):
        return np.nonzero(self.c2[code1][:FSST_CODE_MASK])[0]


@dataclass
class Compressor:
    """A trained FSST symbol table plus the lookup indexes for encoding."""

    symbols: np.ndarray  # uint64[n_symbols] — final code -> symbol
    lengths: np.ndarray  # uint8[n_symbols]  — final code -> length
    n_symbols: int
    has_suffix_code: int
    codes_two_byte: np.ndarray  # uint16[65536] packed Code values
    pht_symbol: np.ndarray  # uint64[2048]
    pht_code: np.ndarray  # uint16[2048] packed Code values
    pht_ignored: np.ndarray  # uint16[2048]

    # ---- encoding (greedy parse; mirror of src/lib.rs:366-515) ----

    def compress(self, data: bytes) -> bytes:
        if len(data) == 0:
            return b""
        n = len(data)
        buf = data + b"\x00" * 8  # zero-padded tail == reference's shifted last_word
        out = bytearray()
        two_byte = self.codes_two_byte
        pht_sym = self.pht_symbol
        pht_code = self.pht_code
        pht_ign = self.pht_ignored
        suffix_lim = self.has_suffix_code
        pos = 0
        while pos < n:
            word = int.from_bytes(buf[pos : pos + 8], "little")
            code_twobyte = int(two_byte[word & 0xFFFF])
            if (code_twobyte & 0xFF) < suffix_lim:
                out.append(code_twobyte & 0xFF)
                pos += 2
                continue
            slot = fsst_hash(word & 0xFFFFFF) & PHT_MASK
            pcode = int(pht_code[slot])
            if pcode != CODE_UNUSED:
                ign = int(pht_ign[slot])
                mask = U64 >> ign if ign < 64 else 0
                if (word & mask) == int(pht_sym[slot]):
                    out.append(pcode & 0xFF)
                    pos += _code_len(pcode)
                    continue
            # fallback: 1-byte code or escape from the merged two-byte index
            out.append(code_twobyte & 0xFF)
            if _code_extended(code_twobyte) >= 256:
                out.append(word & 0xFF)  # escape: raw byte follows
            pos += _code_len(code_twobyte)
        return bytes(out)

    def decompressor(self) -> "Decompressor":
        return Decompressor(self.symbols, self.lengths)

    def symbol_table_bytes(self) -> bytes:
        """Serialized codec state (<= ~2.3 KB): the state blob the
        engine's C kernel trains, loads and encodes with."""
        n = self.n_symbols
        return (
            bytes([1, n & 0xFF, n >> 8, self.has_suffix_code])
            + self.symbols[:n].astype("<u8").tobytes()
            + self.lengths[:n].astype("u1").tobytes()
        )


@dataclass
class Decompressor:
    symbols: np.ndarray  # uint64
    lengths: np.ndarray  # uint8

    def decompress(self, compressed: bytes) -> bytes:
        """Vectorized decode: escape parse + cumsum + per-byte scatters."""
        if len(compressed) == 0:
            return b""
        codes = np.frombuffer(compressed, dtype=np.uint8)
        return decompress_vector(codes, self.symbols, self.lengths).tobytes()


def decompress_vector(codes: np.ndarray, symbols: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Decode a uint8 code stream into a uint8 plaintext array.

    Escape semantics mirror src/lib.rs:255-303: code 255 is followed by
    one raw byte.  Runs of literal 255 bytes alternate escape/data, so
    data-byte positions are computed from run parity (vectorized).
    """
    n = codes.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    is_ff = codes == ESCAPE_CODE
    # run-start flags for maximal runs of 0xFF
    prev_ff = np.empty(n, dtype=bool)
    prev_ff[0] = False
    prev_ff[1:] = is_ff[:-1]
    run_start = is_ff & ~prev_ff
    # A maximal run of literal 0xFF bytes always begins at a code
    # position, so inside the run escapes sit at even offsets and their
    # raw data bytes at odd offsets; a byte just after an odd-length
    # run is the final escape's data byte.
    idx = np.arange(n, dtype=np.int64)
    run_begin = np.maximum.accumulate(np.where(run_start, idx, -(2**62)))
    is_escape_marker = is_ff & ((idx - run_begin) % 2 == 0)
    is_data = np.zeros(n, dtype=bool)
    is_data[1:] = is_escape_marker[:-1]
    is_code = ~is_data & ~is_escape_marker
    out_len = np.zeros(n, dtype=np.int64)
    code_vals = codes[is_code].astype(np.int64)
    out_len[is_code] = lengths[code_vals] if len(lengths) else 0
    out_len[is_data] = 1
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_len, out=offsets[1:])
    total = int(offsets[-1])
    out = np.empty(total, dtype=np.uint8)
    # scatter escaped raw bytes
    data_pos = offsets[:-1][is_data]
    out[data_pos] = codes[is_data]
    # scatter symbol bytes, one byte-lane at a time (max 8 lanes)
    code_pos = offsets[:-1][is_code]
    code_lens = out_len[is_code]
    syms = symbols[code_vals] if len(symbols) else np.empty(0, dtype=np.uint64)
    for k in range(8):
        lane = (syms >> np.uint64(8 * k)).astype(np.uint8)
        m = code_lens > k
        out[code_pos[m] + k] = lane[m]
    return out


class CompressorBuilder:
    """Mutable training state; mirror of the reference CompressorBuilder."""

    def __init__(self):
        self.symbols = [0] * 511
        for byte in range(256):
            self.symbols[byte] = byte  # escape byte symbols
        self.n_symbols = 0
        self.len_histogram = [0] * 8
        self.codes_one_byte = [_code_new_escape(b) for b in range(256)]
        # init order is byte1-major (src/builder.rs:285-291); only the
        # "extended < 256" property of these pseudocodes is ever read.
        self.codes_two_byte = [_code_new_escape(i >> 8) for i in range(65536)]
        self.pht_symbol = [0] * HASH_TABLE_SIZE
        self.pht_code = [CODE_UNUSED] * HASH_TABLE_SIZE
        self.pht_ignored = [64] * HASH_TABLE_SIZE

    # ---- table mutation ----

    def insert(self, symbol: int, length: int) -> bool:
        assert self.n_symbols < 255, "cannot insert into full symbol table"
        assert length == sym_len(symbol), "provided len must equal symbol.len()"
        if length == 2:
            self.codes_two_byte[symbol & 0xFFFF] = _code_new_symbol_building(self.n_symbols, 2)
        elif length == 1:
            self.codes_one_byte[symbol & 0xFF] = _code_new_symbol_building(self.n_symbols, 1)
        else:
            if not self._pht_insert(symbol, length, self.n_symbols):
                return False
        self.len_histogram[length - 1] += 1
        self.symbols[256 + self.n_symbols] = symbol
        self.n_symbols += 1
        return True

    def _pht_insert(self, symbol: int, length: int, code: int) -> bool:
        slot = fsst_hash(symbol & 0xFFFFFF) & PHT_MASK
        if self.pht_code[slot] != CODE_UNUSED:
            return False
        self.pht_symbol[slot] = symbol
        self.pht_code[slot] = _code_new_symbol_building(code, length)
        self.pht_ignored[slot] = 64 - 8 * sym_len(symbol)
        return True

    def clear(self):
        for code in range(256 + self.n_symbols):
            symbol = self.symbols[code]
            length = sym_len(symbol)
            if length == 1:
                self.codes_one_byte[symbol & 0xFF] = _code_new_escape(symbol & 0xFF)
            elif length == 2:
                self.codes_two_byte[symbol & 0xFFFF] = _code_new_escape(symbol & 0xFF)
            else:
                slot = fsst_hash(symbol & 0xFFFFFF) & PHT_MASK
                self.pht_code[slot] = CODE_UNUSED
        self.len_histogram = [0] * 8
        self.n_symbols = 0

    # ---- training-time lookup (PHT -> 2-byte -> 1-byte) ----

    def find_longest_symbol(self, word: int) -> int:
        slot = fsst_hash(word & 0xFFFFFF) & PHT_MASK
        pcode = self.pht_code[slot]
        if pcode != CODE_UNUSED:
            ign = self.pht_ignored[slot]
            mask = U64 >> ign if ign < 64 else 0
            if (word & mask) == self.pht_symbol[slot]:
                return pcode
        twobyte = self.codes_two_byte[word & 0xFFFF]
        if _code_extended(twobyte) >= FSST_CODE_BASE:
            return twobyte
        return self.codes_one_byte[word & 0xFF]

    def compress_count(self, sample: bytes, counter: _Counter) -> int:
        """One greedy counting pass (src/builder.rs:658-750).

        Note the main loop runs strictly while more than 8 bytes remain
        (`<` vs compress's `<=`), then a zero-padded tail loop.
        """
        gain = 0
        n = len(sample)
        if n == 0:
            return gain
        # The reference's main loop reads in-bounds words while >8 bytes
        # remain, then a tail loop shifts a zero-padded word; reading
        # from a zero-padded copy produces identical words at every
        # parse position, so one uniform loop suffices.
        buf = sample + b"\x00" * 8
        c1 = counter.c1
        c2 = counter.c2
        symbols = self.symbols
        prev_code = FSST_CODE_MASK
        pos = 0
        while pos < n:
            word = int.from_bytes(buf[pos : pos + 8], "little")
            code = self.find_longest_symbol(word)
            code_u16 = _code_extended(code)
            length = _code_len(code)
            gain += length - (code_u16 < 256)
            c1[code_u16] += 1
            c2[prev_code, code_u16] += 1
            if length > 1:
                first_byte = symbols[code_u16] & 0xFF
                c1[first_byte] += 1
                c2[prev_code, first_byte] += 1
            pos += length
            prev_code = code_u16
        return gain

    # ---- candidate generation (src/builder.rs:754-813) ----

    def optimize(self, counter: _Counter, sample_frac: int):
        pq = _RustBinaryHeap()
        c1 = counter.c1
        c2 = counter.c2
        cutoff = (5 * sample_frac) // 128
        for code1 in counter.first_codes():
            code1 = int(code1)
            symbol1 = self.symbols[code1]
            symbol1_len = sym_len(symbol1)
            count = int(c1[code1])
            if count < cutoff:
                continue
            gain = count * symbol1_len
            if code1 < 256:
                gain *= 8  # single-byte boost reduces escape counts
            pq.push((gain, symbol1_len, symbol1))
            if sample_frac >= 128 or symbol1_len == 8:
                continue
            row = c2[code1]
            for code2 in counter.second_codes(code1):
                code2 = int(code2)
                symbol2 = self.symbols[code2]
                if symbol1_len + sym_len(symbol2) > 8:
                    continue
                new_symbol = sym_concat(symbol1, symbol2)
                gain2 = int(row[code2]) * sym_len(new_symbol)
                pq.push((gain2, sym_len(new_symbol), new_symbol))
        self.clear()
        n_inserted = 0
        while len(pq) and n_inserted < 255:
            _, _, symbol = pq.pop()
            if self.insert(symbol, sym_len(symbol)):
                n_inserted += 1

    # ---- finalize (src/builder.rs:390-496) ----

    def _finalize(self):
        byte_lim = self.n_symbols - self.len_histogram[0]
        codes_by_length = [0] * 8
        codes_by_length[0] = byte_lim
        codes_by_length[1] = 0
        for i in range(1, 7):
            codes_by_length[i + 1] = codes_by_length[i] + self.len_histogram[i]
        no_suffix_code = 0
        has_suffix_code = codes_by_length[2]
        new_codes = [0] * FSST_CODE_BASE
        final_symbols = [0] * max(self.n_symbols, 0)
        final_lengths = [0] * max(self.n_symbols, 0)
        # note: the suffix scan covers all 255 upper slots, including
        # stale symbols left over from earlier generations — replicated
        # deliberately for bit-parity with the reference.
        upper = self.symbols[256:511]
        for i in range(self.n_symbols):
            symbol = self.symbols[256 + i]
            length = sym_len(symbol)
            if length == 2:
                first2 = symbol & 0xFFFF
                has_suffix = any(
                    i != k and first2 == (other & 0xFFFF) for k, other in enumerate(upper)
                )
                if has_suffix:
                    has_suffix_code -= 1
                    new_codes[i] = has_suffix_code
                else:
                    new_codes[i] = no_suffix_code
                    no_suffix_code += 1
            else:
                new_codes[i] = codes_by_length[length - 1]
                codes_by_length[length - 1] += 1
            final_symbols[new_codes[i]] = symbol
            final_lengths[new_codes[i]] = length
        # merge 1-byte codes into the two-byte index; escapes become UNUSED
        for byte in range(256):
            one_byte = self.codes_one_byte[byte]
            if _code_extended(one_byte) >= FSST_CODE_BASE:
                self.codes_one_byte[byte] = _code_new_symbol(new_codes[one_byte & 0xFF], 1)
            else:
                self.codes_one_byte[byte] = CODE_UNUSED
        for two in range(65536):
            entry = self.codes_two_byte[two]
            if _code_extended(entry) >= FSST_CODE_BASE:
                self.codes_two_byte[two] = _code_new_symbol(new_codes[entry & 0xFF], 2)
            else:
                self.codes_two_byte[two] = self.codes_one_byte[two & 0xFF]
        for slot in range(HASH_TABLE_SIZE):
            if self.pht_code[slot] != CODE_UNUSED:
                old = self.pht_code[slot]
                self.pht_code[slot] = _code_new_symbol(new_codes[old & 0xFF], _code_len(old))
        return has_suffix_code, final_symbols, final_lengths

    def build(self) -> Compressor:
        has_suffix_code, final_symbols, final_lengths = self._finalize()
        return Compressor(
            symbols=np.array(final_symbols, dtype=np.uint64),
            lengths=np.array(final_lengths, dtype=np.uint8),
            n_symbols=self.n_symbols,
            has_suffix_code=has_suffix_code,
            codes_two_byte=np.array(self.codes_two_byte, dtype=np.uint16),
            pht_symbol=np.array(self.pht_symbol, dtype=np.uint64),
            pht_code=np.array(self.pht_code, dtype=np.uint16),
            pht_ignored=np.array(self.pht_ignored, dtype=np.uint16),
        )


def make_sample(lines: list[bytes]) -> list[bytes]:
    """Deterministic pseudo-random 16 KiB sample (src/builder.rs:535-584)."""
    tot = sum(len(ln) for ln in lines)
    if tot < FSST_SAMPLETARGET:
        return list(lines)
    sample = []
    sample_rnd = fsst_hash(FSST_SAMPLE_SEED)
    offset = 0
    n_lines = len(lines)
    while offset < FSST_SAMPLETARGET:
        sample_rnd = fsst_hash(sample_rnd)
        # the first non-empty line at or after the pick, wrapping around
        j = sample_rnd % n_lines
        while len(lines[j]) == 0:
            j = (j + 1) % n_lines  # tot > 0: some line is non-empty
        line = lines[j]
        chunks = 1 + (len(line) - 1) // FSST_SAMPLELINE
        sample_rnd = fsst_hash(sample_rnd)
        chunk = FSST_SAMPLELINE * (sample_rnd % chunks)
        length = min(FSST_SAMPLELINE, len(line) - chunk)
        sample.append(line[chunk : chunk + length])
        offset += length
    return sample


def train_oracle(lines: list[bytes]) -> Compressor:
    """Generational training (src/builder.rs:604-628): 5 rounds of
    compress-count + optimize over a bounded sample. The test oracle of
    the C trainer behind `fsst.train`."""
    builder = CompressorBuilder()
    if not lines:
        return builder.build()
    counters = _Counter()
    sample = make_sample(lines)
    for sample_frac in GENERATIONS:
        for i, line in enumerate(sample):
            if sample_frac < 128 and (fsst_hash(i) & 127) > sample_frac:
                continue
            builder.compress_count(line, counters)
        builder.optimize(counters, sample_frac)
        counters.clear()
    return builder.build()
