/* FSST kernel: symbol-table training and bulk encode/decode.
 *
 * Same observable semantics as the reference spiraldb/fsst crate (and
 * its Python mirror, the test oracle tests/fsst_oracle.py). The state
 * blob that fsst_train writes is the codec's only handle: every
 * encode and decode entry point takes it and derives its own tables
 * (load_state), so Python never reads the blob's contents.
 *
 * Compiled at first use by fsst_ray/kernel/native.py with the system C
 * compiler; loaded via ctypes. No external dependencies.
 *
 * Layout notes:
 *  - rows are passed as one concatenated byte buffer + int64 offsets
 *    (exactly an Arrow large_binary / list<int32> values-buffer view)
 *  - the output buffer must have capacity 2*input_len + 8*n_rows + 8
 *    for compress (worst case all-escapes, +8 slack per row for the
 *    speculative escape-byte write in the lane-slotted layout) and
 *    decoded_len + 8 for fsst_decompress_bulk (8-byte symbol writes);
 *    fsst_decompress_bulk_at writes only inside its rows' regions
 *  - a malformed state blob returns STATE_CORRUPT from every entry point
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define CODE_UNUSED 0x11FF /* 511 + (1<<12) */
#define PHT_MASK 2047
#define ESCAPE 255

static inline uint64_t load_word(const uint8_t *p) {
    uint64_t w;
    memcpy(&w, p, 8);
    return w;
}

/* multiply-xor-shift hash: the sampling PRNG and, over a word's first
 * 3 bytes, the PHT hash */
static inline uint64_t fsst_hash(uint64_t v) {
    return (v * 2971215073ULL) ^ (v >> 15);
}

static inline uint64_t fsst_hash3(uint64_t word) {
    return fsst_hash(word & 0xFFFFFF);
}

/* ---- the state blob ----
 * [1, n lo, n hi, has_suffix_code], n LE u64 symbols, n u8 lengths
 * (finalize writes it). Codes n..254 decode as empty symbols. */

#define STATE_CORRUPT (-2)
#define NO_MEMORY (-3)

/* Encoder indexes derived from a blob: the two-byte index (packed
 * codes: low 9 bits the extended code, bits 12-15 the length; a
 * 1-byte symbol or an escape fills the slots a 2-byte symbol does
 * not), and the lossy perfect hash table of the 3..8 byte symbols,
 * keyed on fsst_hash3. pht_sm packs [2*slot]=symbol,
 * [2*slot+1]=compare mask (one cache line per probe). */
typedef struct {
    uint16_t two_byte[1 << 16];
    uint64_t pht_sm[2 * (PHT_MASK + 1)];
    uint16_t pht_code[PHT_MASK + 1];
    uint8_t suffix_lim; /* 2-byte codes below it start no longer symbol:
                         * the encoder takes them without a PHT probe */
} Encoder;

/* Validate a blob and fill the 256-entry decode tables, plus `enc`
 * when it is not NULL. The final table's 3+ byte symbols never collide
 * in the PHT (training rejected colliding inserts), so inserting them
 * in code order rebuilds the trained encoder exactly. Returns 0, or
 * STATE_CORRUPT. */
static int load_state(const uint8_t *state, int64_t state_len,
                      uint64_t symbols[256], uint8_t lengths[256],
                      Encoder *enc) {
    if (state_len < 4 || state[0] != 1)
        return STATE_CORRUPT;
    uint32_t n = state[1] | (uint32_t)state[2] << 8;
    if (n > 255 || state_len != 4 + 9 * (int64_t)n || state[3] > n)
        return STATE_CORRUPT;
    memset(symbols, 0, 256 * sizeof *symbols);
    memset(lengths, 0, 256);
    memcpy(symbols, state + 4, 8 * (size_t)n);
    for (uint32_t i = 0; i < n; i++) {
        lengths[i] = state[4 + 8 * n + i];
        if (lengths[i] < 1 || lengths[i] > 8)
            return STATE_CORRUPT;
    }
    if (!enc)
        return 0;
    uint16_t one_byte[256];
    for (int b = 0; b < 256; b++)
        one_byte[b] = CODE_UNUSED;
    for (uint32_t s = 0; s <= PHT_MASK; s++) {
        enc->pht_sm[2 * s] = enc->pht_sm[2 * s + 1] = 0;
        enc->pht_code[s] = CODE_UNUSED;
    }
    for (uint32_t code = 0; code < n; code++) {
        uint32_t len = lengths[code];
        uint64_t s = symbols[code];
        if (len == 1) {
            one_byte[s & 0xFF] = (uint16_t)(code + (1 << 12));
        } else if (len > 2) {
            uint32_t slot = (uint32_t)(fsst_hash3(s) & PHT_MASK);
            enc->pht_sm[2 * slot] = s;
            enc->pht_sm[2 * slot + 1] = ~0ULL >> (64 - 8 * len);
            enc->pht_code[slot] = (uint16_t)(code + (len << 12));
        }
    }
    for (uint32_t i = 0; i < (1 << 16); i++)
        enc->two_byte[i] = one_byte[i & 0xFF];
    for (uint32_t code = 0; code < n; code++)
        if (lengths[code] == 2)
            enc->two_byte[symbols[code] & 0xFFFF] = (uint16_t)(code + (2 << 12));
    enc->suffix_lim = state[3];
    return 0;
}

/* Branchless greedy step against the packed probe tables: identical
 * decisions to compress_word, expressed as selects so mixed-path data
 * does not stall on branch mispredicts. pht_sm packs [2*slot]=symbol,
 * [2*slot+1]=precomputed compare mask (one cache line per probe).
 * Returns (adv_in << 8) | adv_out packed, so callers keep lane state
 * in registers (no address-taken out-params). */
static inline int64_t step_word(uint64_t word, const uint16_t *two_byte,
                                const uint64_t *pht_sm,
                                const uint16_t *pht_code, uint8_t suffix_lim,
                                uint8_t *op) {
    uint16_t ct = two_byte[(uint16_t)word];
    op[1] = (uint8_t)word; /* speculative escape byte */
    if ((uint8_t)ct < suffix_lim) {
        /* two-byte fast path: short-circuits the PHT probe entirely
         * (the reference keeps this branch too, lib.rs:377) */
        op[0] = (uint8_t)ct;
        return (2 << 8) | 1;
    }
    uint32_t slot = (uint32_t)(fsst_hash3(word) & PHT_MASK);
    uint64_t sym = pht_sm[2 * slot];
    uint64_t msk = pht_sm[2 * slot + 1];
    uint16_t pc = pht_code[slot];
    /* hit-vs-escape select in pure mask arithmetic: gcc compiles the
     * ternary form to branches that mispredict on mixed data, stalling
     * every lane of the interleaved bulk loop */
    uint64_t hit_m = -(uint64_t)((pc != CODE_UNUSED) & ((word & msk) == sym));
    op[0] = (uint8_t)((hit_m & (uint8_t)pc) | (~hit_m & (uint8_t)ct));
    uint64_t adv_out = 1 + (~hit_m & ((ct >> 8) & 1));
    uint64_t adv_in =
        (hit_m & ((uint64_t)pc >> 12)) | (~hit_m & ((uint64_t)ct >> 12));
    return (int64_t)((adv_in << 8) | adv_out);
}

/* Branchy twin of step_word: identical decisions with real branches.
 * On highly-predictable data (uniform corpora: one symbol repeating, or
 * all escapes) the predictor makes branches free while the branchless
 * select pays its ALU+merge cost every step (measured: the reference's
 * branchy loop is ~2x ours on cf=1 and escape-only micro cases, while
 * ours is ~2x theirs on mixed realistic data). A cheap pre-scan picks
 * per call which loop body runs — same outputs either way. */
static inline int64_t step_word_br(uint64_t word, const uint16_t *two_byte,
                                   const uint64_t *pht_sm,
                                   const uint16_t *pht_code,
                                   uint8_t suffix_lim, uint8_t *op) {
    uint16_t ct = two_byte[(uint16_t)word];
    op[1] = (uint8_t)word; /* speculative escape byte */
    if ((uint8_t)ct < suffix_lim) {
        op[0] = (uint8_t)ct;
        return (2 << 8) | 1;
    }
    uint32_t slot = (uint32_t)(fsst_hash3(word) & PHT_MASK);
    uint64_t sym = pht_sm[2 * slot];
    uint64_t msk = pht_sm[2 * slot + 1];
    uint16_t pc = pht_code[slot];
    if (pc != CODE_UNUSED && (word & msk) == sym) {
        op[0] = (uint8_t)pc;
        return ((int64_t)(pc >> 12) << 8) | 1;
    }
    op[0] = (uint8_t)ct;
    return ((int64_t)(ct >> 12) << 8) | (1 + ((ct >> 8) & 1));
}

#ifndef N_LANES
#define N_LANES 4
#endif

typedef struct {
    const uint8_t *in; /* row start */
    int64_t len;
    int64_t pos;
    uint8_t *op;      /* current write cursor */
    uint8_t *op_base; /* row output start (worst-case slot) */
    int64_t row;      /* row index, -1 when idle (rows exhausted) */
} Lane;

/* worst-case output start of row r (relative offsets): 2 bytes per
 * input byte plus 8 slack per preceding row */
static inline int64_t wc_start(const int64_t *offsets, int64_t r) {
    return 2 * (offsets[r] - offsets[0]) + 8 * r;
}

/* finish the (< 8 byte) tail of a lane's current row with the shifted
 * zero-padded word loop, record its compressed size */
static void finish_tail(Lane *ln, const uint16_t *two_byte,
                        const uint64_t *pht_sm, const uint16_t *pht_code,
                        uint8_t suffix_lim, int64_t *out_offsets) {
    int64_t remaining = ln->len - ln->pos;
    uint64_t last_word = 0;
    memcpy(&last_word, ln->in + ln->pos, (size_t)remaining);
    while (remaining > 0) {
        int64_t s = step_word(last_word, two_byte, pht_sm, pht_code,
                              suffix_lim, ln->op);
        int64_t adv = s >> 8;
        ln->op += s & 0xFF;
        remaining -= adv;
        last_word = (adv >= 8) ? 0 : (last_word >> (8 * adv));
    }
    out_offsets[ln->row + 1] = ln->op - ln->op_base; /* size, for now */
}

static void refill(Lane *ln, const uint8_t *data, const int64_t *offsets,
                   int64_t n_rows, int64_t *next_row, uint8_t *out) {
    if (*next_row < n_rows) {
        int64_t r = (*next_row)++;
        ln->row = r;
        ln->in = data + offsets[r];
        ln->len = offsets[r + 1] - offsets[r];
        ln->op_base = ln->op = out + wc_start(offsets, r);
        ln->pos = 0;
    } else {
        ln->row = -1;
    }
}

/* Interleaved bulk compress: N_LANES rows advance in lockstep so their
 * independent load->lookup->advance dependency chains overlap in the
 * out-of-order window (the original FSST implementation's concurrent-
 * strings trick). Rows are written into per-row worst-case slots and
 * compacted in order afterwards; `out` must hold
 * 2*total + 8*n_rows + 8 bytes. Output is bit-identical to the
 * single-cursor loop: each row's greedy parse is independent of lane
 * scheduling. */
static int64_t compress_rows(const uint8_t *data, const int64_t *offsets,
                             int64_t n_rows, const Encoder *enc,
                             uint8_t *out, int64_t *out_offsets) {
    const uint16_t *two_byte = enc->two_byte;
    const uint64_t *pht_sm = enc->pht_sm;
    const uint16_t *pht_code = enc->pht_code;
    uint8_t suffix_lim = enc->suffix_lim;
    out_offsets[0] = 0;

    /* pre-scan ~512 words spread across the input: when the PHT-hit
     * branch outcome is near-constant (uniform corpora), the branchy
     * step is ~2x the branchless one (prediction makes the branch
     * free); on mixed data branchless wins by the same margin. The
     * sampled positions are not the greedy parse's positions — close
     * enough for a loop-body heuristic, and both bodies produce
     * identical output. */
    int branchy = 0;
    int64_t total = n_rows ? offsets[n_rows] - offsets[0] : 0;
    if (total >= (1 << 20)) {
        /* only large calls amortize the scan; production 32 KiB chunk
         * segments skip it and keep the branchless body. Branchy only
         * wins when the PHT branch mostly FALLS THROUGH (escape /
         * 1-byte-fallback corpora); hit-dominated data measured faster
         * branchless in the lane structure, so it stays there. */
        int64_t probes = 128, pht_miss = 0, reached = 0;
        for (int64_t k = 0; k < probes; k++) {
            int64_t i = (total - 8) * k / probes;
            uint64_t w = load_word(data + i);
            uint16_t ct = two_byte[(uint16_t)w];
            if ((uint8_t)ct < suffix_lim)
                continue;
            uint32_t slot = (uint32_t)(fsst_hash3(w) & PHT_MASK);
            reached++;
            if (!(pht_code[slot] != CODE_UNUSED &&
                  (w & pht_sm[2 * slot + 1]) == pht_sm[2 * slot]))
                pht_miss++;
        }
        branchy = reached >= 64 && pht_miss * 100 >= reached * 97;
    }

    Lane lanes[N_LANES];
    int64_t next_row = 0;
    for (int l = 0; l < N_LANES; l++)
        refill(&lanes[l], data, offsets, n_rows, &next_row, out);

    for (;;) {
        /* top up: finish tails / short rows until every lane is either
         * runnable (>= 8 readable bytes) or idle */
        for (int l = 0; l < N_LANES; l++) {
            while (lanes[l].row >= 0 && lanes[l].pos + 8 > lanes[l].len) {
                finish_tail(&lanes[l], two_byte, pht_sm, pht_code, suffix_lim,
                            out_offsets);
                refill(&lanes[l], data, offsets, n_rows, &next_row, out);
            }
        }
        int any_idle = 0;
        for (int l = 0; l < N_LANES; l++)
            any_idle |= (lanes[l].row < 0);
        if (any_idle)
            break; /* fewer than N_LANES rows remain: drain below */
        /* hoist lane state into locals: uint8_t* stores may alias the
         * Lane structs, so in-struct cursors would reload every step.
         * Fixed-size local arrays + full unroll keep these in registers. */
        const uint8_t *in_[N_LANES];
        int64_t pos_[N_LANES], end_[N_LANES];
        uint8_t *op_[N_LANES];
        for (int l = 0; l < N_LANES; l++) {
            in_[l] = lanes[l].in;
            pos_[l] = lanes[l].pos;
            end_[l] = lanes[l].len - 8;
            op_[l] = lanes[l].op;
        }
#define LOCKSTEP_LOOP(STEP)                                                   \
    {                                                                         \
        int run = 1;                                                          \
        do {                                                                  \
            _Pragma("GCC unroll 8") for (int l = 0; l < N_LANES; l++) {       \
                uint64_t w = load_word(in_[l] + pos_[l]);                     \
                int64_t s = STEP(w, two_byte, pht_sm, pht_code, suffix_lim,   \
                                 op_[l]);                                     \
                pos_[l] += s >> 8;                                            \
                op_[l] += s & 0xFF;                                           \
            }                                                                 \
            run = 1;                                                          \
            _Pragma("GCC unroll 8") for (int l = 0; l < N_LANES; l++)         \
                run &= (pos_[l] <= end_[l]);                                  \
        } while (run);                                                        \
    }
        if (branchy)
            LOCKSTEP_LOOP(step_word_br)
        else
            LOCKSTEP_LOOP(step_word)
#undef LOCKSTEP_LOOP
        for (int l = 0; l < N_LANES; l++) {
            lanes[l].pos = pos_[l];
            lanes[l].op = op_[l];
        }
    }

    /* drain the (<= N_LANES-1) still-active lanes one at a time; rows
     * are exhausted, so no refills happen. Single-row inputs spend
     * their whole life here, so the branchy/branchless choice applies
     * too (hoist cursors into locals like the lockstep loop). */
    for (int l = 0; l < N_LANES; l++) {
        Lane *ln = &lanes[l];
        if (ln->row < 0)
            continue;
        if (branchy) {
            const uint8_t *in = ln->in;
            int64_t pos = ln->pos, end = ln->len - 8;
            uint8_t *op = ln->op;
            while (pos <= end) {
                int64_t s = step_word_br(load_word(in + pos), two_byte,
                                         pht_sm, pht_code, suffix_lim, op);
                pos += s >> 8;
                op += s & 0xFF;
            }
            ln->pos = pos;
            ln->op = op;
        } else {
            while (ln->pos + 8 <= ln->len) {
                int64_t s = step_word(load_word(ln->in + ln->pos), two_byte,
                                      pht_sm, pht_code, suffix_lim, ln->op);
                ln->pos += s >> 8;
                ln->op += s & 0xFF;
            }
        }
        finish_tail(ln, two_byte, pht_sm, pht_code, suffix_lim, out_offsets);
    }

    /* compact rows (at worst-case starts, sizes in out_offsets[r+1])
     * into contiguous order; every final start <= its worst-case start,
     * so a forward memmove pass is safe */
    int64_t pos = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t size = out_offsets[r + 1];
        int64_t src = wc_start(offsets, r);
        if (src != pos)
            memmove(out + pos, out + src, (size_t)size);
        pos += size;
        out_offsets[r + 1] = pos;
    }
    return pos;
}

/* Compress n_rows rows with the encoder of `state` (built per call:
 * tens of microseconds against milliseconds of data). Returns the
 * total compressed size, STATE_CORRUPT or NO_MEMORY. */
int64_t fsst_compress_bulk(const uint8_t *data, const int64_t *offsets,
                           int64_t n_rows, const uint8_t *state,
                           int64_t state_len, uint8_t *out,
                           int64_t *out_offsets) {
    uint64_t symbols[256];
    uint8_t lengths[256];
    Encoder *enc = malloc(sizeof *enc);
    if (!enc)
        return NO_MEMORY;
    int64_t r = load_state(state, state_len, symbols, lengths, enc);
    if (r == 0)
        r = compress_rows(data, offsets, n_rows, enc, out, out_offsets);
    free(enc);
    return r;
}

/* ---- fixed-width bit packing (used by bitpack/FOR/RLE/dict codecs) ----
 * Little-endian bit order: value i occupies bits [i*width, (i+1)*width).
 * width must be <= 57 so the accumulator never overflows (carry < 8 bits).
 * Returns bytes written. */
int64_t bitpack(const int64_t *vals, int64_t n, int32_t width, uint8_t *out) {
    uint64_t acc = 0;
    int nbits = 0;
    int64_t opos = 0;
    for (int64_t i = 0; i < n; i++) {
        acc |= ((uint64_t)vals[i]) << nbits;
        nbits += width;
        while (nbits >= 8) {
            out[opos++] = (uint8_t)acc;
            acc >>= 8;
            nbits -= 8;
        }
    }
    if (nbits > 0)
        out[opos++] = (uint8_t)acc;
    return opos;
}

void bitunpack(const uint8_t *data, int64_t n, int32_t width, int64_t *out) {
    uint64_t acc = 0;
    int nbits = 0;
    int64_t ipos = 0;
    uint64_t mask = (width >= 64) ? ~0ULL : ((1ULL << width) - 1);
    for (int64_t i = 0; i < n; i++) {
        while (nbits < width) {
            acc |= ((uint64_t)data[ipos++]) << nbits;
            nbits += 8;
        }
        out[i] = (int64_t)(acc & mask);
        acc >>= width;
        nbits -= width;
    }
}

/* ---- stream-vbyte (vbyte codec) ----
 * Layout per Lemire & Boytsov's published stream-vbyte: control bytes
 * first ((n+3)/4 bytes, 2-bit length codes, value i's code at bits
 * (i%4)*2 of ctrl[i/4]), then the little-endian low bytes of each
 * zigzagged uint32 value. Encode writes 4 data bytes per value and
 * advances by the true length, so `out` needs 3 bytes of slack past
 * the worst-case size (the Python wrapper allocates it). Returns total
 * bytes written (ctrl + data). */
int64_t vbyte_encode(const int32_t *vals, int64_t n, uint8_t *out) {
    int64_t n_ctrl = (n + 3) / 4;
    uint8_t *data = out + n_ctrl;
    int64_t dpos = 0;
    memset(out, 0, (size_t)n_ctrl);
    for (int64_t i = 0; i < n; i++) {
        int32_t v = vals[i];
        /* canonical 32-bit zigzag: unsigned left shift (UB-free), the
         * arithmetic right shift of the sign is implementation-defined
         * but universal on the targets we build for */
        uint32_t z = ((uint32_t)v << 1) ^ (uint32_t)(v >> 31);
        int len = 1 + (z >= (1u << 8)) + (z >= (1u << 16)) + (z >= (1u << 24));
        out[i >> 2] |= (uint8_t)((len - 1) << ((i & 3) * 2));
        memcpy(data + dpos, &z, 4); /* overshoot covered by slack */
        dpos += len;
    }
    return n_ctrl + dpos;
}

/* Decode n values from body (ctrl + data). Returns bytes consumed, or
 * -1 if the data region is shorter than the control bytes imply
 * (corrupt/truncated chunk). Reads at most 4 bytes per value via the
 * tail-guarded unaligned load, never past body_len. */
int64_t vbyte_decode(const uint8_t *body, int64_t body_len, int64_t n,
                     int32_t *out) {
    int64_t n_ctrl = (n + 3) / 4;
    if (body_len < n_ctrl)
        return -1; /* control region truncated: no byte of body is read */
    const uint8_t *data = body + n_ctrl;
    int64_t avail = body_len - n_ctrl;
    int64_t dpos = 0;
    int64_t i = 0;
    /* fast loop: full 4-byte loads while 4 bytes remain */
    for (; i < n && dpos + 4 <= avail; i++) {
        int len = ((body[i >> 2] >> ((i & 3) * 2)) & 3) + 1;
        uint32_t z;
        memcpy(&z, data + dpos, 4);
        z &= (len == 4) ? 0xFFFFFFFFu : ((1u << (len * 8)) - 1);
        dpos += len;
        out[i] = (int32_t)((z >> 1) ^ (0u - (z & 1)));
    }
    /* tail: byte loads with explicit bounds */
    for (; i < n; i++) {
        int len = ((body[i >> 2] >> ((i & 3) * 2)) & 3) + 1;
        if (dpos + len > avail)
            return -1;
        uint32_t z = data[dpos];
        if (len > 1) z |= (uint32_t)data[dpos + 1] << 8;
        if (len > 2) z |= (uint32_t)data[dpos + 2] << 16;
        if (len > 3) z |= (uint32_t)data[dpos + 3] << 24;
        dpos += len;
        out[i] = (int32_t)((z >> 1) ^ (0u - (z & 1)));
    }
    return n_ctrl + dpos;
}

/* Order-sensitive per-row checksum of int32 token values:
 * sum over the row of (v + GOLDEN) * (local_pos + 1), wrapping u64.
 * Mirrors the numpy implementation in stages/decoder.py. */
void row_checksums(const int32_t *values, const int64_t *offsets,
                   int64_t n_rows, uint64_t *out) {
    const uint64_t golden = 0x9E3779B97F4A7C15ULL;
    for (int64_t r = 0; r < n_rows; r++) {
        uint64_t acc = 0;
        uint64_t pos = 1;
        for (int64_t i = offsets[r]; i < offsets[r + 1]; i++, pos++) {
            acc += ((uint64_t)(int64_t)values[i] + golden) * pos;
        }
        out[r] = acc;
    }
}

/* murmur3's 64-bit finalizer: each input bit flips each output bit
 * with probability close to 1/2, top bits included. */
static inline uint64_t fmix64(uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    return k ^ (k >> 33);
}

/* The corpus's doc-id hash, the identity bucket routing is cut by
 * (stored plans name it "h64-mulshift-v1", so it must never change):
 * per row of a string column's data + int64 offsets, seed with the
 * byte length, fold each 8-byte little-endian word (the tail
 * zero-padded, always folded) through fmix64. Multiply-shift bucketing
 * reads the top bits, which fmix64 leaves well mixed. */
void doc_hash64(const uint8_t *data, const int64_t *offsets, int64_t n_rows,
                uint64_t *out) {
    for (int64_t r = 0; r < n_rows; r++) {
        const uint8_t *p = data + offsets[r];
        int64_t len = offsets[r + 1] - offsets[r];
        uint64_t h = 0x9E3779B97F4A7C15ULL ^ (uint64_t)len;
        for (; len >= 8; len -= 8, p += 8) {
            h = fmix64(h ^ load_word(p));
        }
        uint64_t tail = 0;
        memcpy(&tail, p, (size_t)len);
        out[r] = fmix64(h ^ tail);
    }
}

/* ---- interleaved decompress into KNOWN output regions ----
 *
 * Here `out_offsets` is an INPUT: row r decodes into
 * out[out_offsets[r] .. out_offsets[r+1]). The encoder produces such
 * rows by compressing fixed-raw-size segments (fsst_codec.py
 * SEGMENT_BYTES), so decoded positions are known before decoding and
 * N_LANES rows advance in lockstep — the same concurrent-streams trick
 * as fsst_compress_bulk, which the reference's single-stream
 * decompressor (spiraldb/fsst src/lib.rs:255-303) cannot use. The
 * lockstep body is branchless (escape-vs-symbol via mask selects): the
 * escape branch is the classic decode mispredict, and one mispredict
 * would stall all four lanes.
 *
 * Stores within 8 bytes of a row's end switch to exact-length copies so
 * nothing crosses into a neighbouring row's region (another lane may
 * already have filled it); consequently this kernel NEVER writes
 * outside [out+out_offsets[0], out+out_offsets[n_rows]) — no slack
 * bytes needed. Returns total decoded bytes, or -1 if any row fails to
 * decode to exactly its declared size (corrupt stream). */

typedef struct {
    const uint8_t *in;
    int64_t len;
    int64_t pos;
    uint8_t *op;
    uint8_t *lim;
    int64_t row; /* -1 when idle (rows exhausted) */
} DLane;

static inline int dstep_careful(DLane *ln, const uint64_t *symbols,
                                const uint8_t *lengths) {
    uint8_t code = ln->in[ln->pos];
    if (code == ESCAPE) {
        if (ln->op >= ln->lim)
            return -1;
        /* a valid stream never ends in a dangling escape */
        *ln->op++ = (ln->pos + 1 < ln->len) ? ln->in[ln->pos + 1] : 0;
        ln->pos += 2;
    } else {
        uint8_t L = lengths[code];
        if (ln->op + L > ln->lim)
            return -1;
        uint64_t sym = symbols[code];
        if (ln->op + 8 <= ln->lim)
            memcpy(ln->op, &sym, 8);
        else
            memcpy(ln->op, &sym, (size_t)L); /* exact tail write */
        ln->op += L;
        ln->pos += 1;
    }
    return 0;
}

static void drefill(DLane *ln, const uint8_t *codes, const int64_t *offsets,
                    const int64_t *out_offsets, int64_t n_rows,
                    int64_t *next_row, uint8_t *out) {
    if (*next_row < n_rows) {
        int64_t r = (*next_row)++;
        ln->row = r;
        ln->in = codes + offsets[r];
        ln->len = offsets[r + 1] - offsets[r];
        ln->pos = 0;
        ln->op = out + out_offsets[r];
        ln->lim = out + out_offsets[r + 1];
    } else {
        ln->row = -1;
    }
}

int64_t fsst_decompress_bulk_at(const uint8_t *codes, const int64_t *offsets,
                                int64_t n_rows, const uint8_t *state,
                                int64_t state_len, uint8_t *out,
                                const int64_t *out_offsets) {
    uint64_t symbols[256];
    uint8_t lengths[256];
    if (load_state(state, state_len, symbols, lengths, NULL))
        return STATE_CORRUPT;
    if (n_rows <= 0)
        return 0;
    /* pre-scan: the sampled escape rate picks the lockstep body.
     * Near-constant branch outcomes (rate ~0 or ~1) run faster branchy
     * — prediction makes the branch free while mask selects pay ALU
     * cost every step; mixed rates stall the predictor and run
     * branchless. (A sampled byte can be an escaped literal rather
     * than a code — close enough for a loop-body heuristic; both
     * bodies produce identical output.) */
    int branchy = 1;
    int64_t total = offsets[n_rows] - offsets[0];
    if (total >= 4096) {
        int64_t esc = 0, probes = 256;
        for (int64_t k = 0; k < probes; k++)
            esc += (codes[offsets[0] + (total - 1) * k / probes] == ESCAPE);
        branchy = (esc * 100 <= probes * 15) || (esc * 100 >= probes * 90);
    }
    DLane lanes[N_LANES];
    int64_t next_row = 0;
    for (int l = 0; l < N_LANES; l++)
        drefill(&lanes[l], codes, offsets, out_offsets, n_rows, &next_row,
                out);

    for (;;) {
        /* top up: careful-step each lane to a runnable state (>= 2
         * readable input bytes, >= 8 writable output bytes), verifying
         * and refilling rows that end */
        for (int l = 0; l < N_LANES; l++) {
            DLane *ln = &lanes[l];
            while (ln->row >= 0 &&
                   (ln->pos + 2 > ln->len || ln->op + 8 > ln->lim)) {
                if (ln->pos >= ln->len) {
                    if (ln->op != ln->lim)
                        return -1; /* row decoded to the wrong size */
                    drefill(ln, codes, offsets, out_offsets, n_rows,
                            &next_row, out);
                } else if (dstep_careful(ln, symbols, lengths)) {
                    return -1;
                }
            }
        }
        int any_idle = 0;
        for (int l = 0; l < N_LANES; l++)
            any_idle |= (lanes[l].row < 0);
        if (any_idle)
            break; /* fewer than N_LANES rows remain: drain below */

        const uint8_t *in_[N_LANES];
        int64_t pos_[N_LANES], end_[N_LANES];
        uint8_t *op_[N_LANES], *lim_[N_LANES];
        for (int l = 0; l < N_LANES; l++) {
            in_[l] = lanes[l].in;
            pos_[l] = lanes[l].pos;
            end_[l] = lanes[l].len - 2;
            op_[l] = lanes[l].op;
            lim_[l] = lanes[l].lim - 8;
        }
        /* do-while is safe: the FIRST round is guarded by the top-up
         * loop above, every later round by the run recomputation */
        int run = 1;
#define DLOCKSTEP(BODY)                                                       \
    do {                                                                      \
        _Pragma("GCC unroll 8") for (int l = 0; l < N_LANES; l++) { BODY }    \
        run = 1;                                                              \
        _Pragma("GCC unroll 8") for (int l = 0; l < N_LANES; l++)             \
            run &= (pos_[l] <= end_[l]) & (op_[l] <= lim_[l]);                \
    } while (run)
        if (branchy) {
            /* predictable escape branch (rate near 0 or 1): branches
             * are free while the mask selects pay ALU cost every step */
            DLOCKSTEP({
                uint8_t code = in_[l][pos_[l]];
                if (code == ESCAPE) {
                    op_[l][0] = in_[l][pos_[l] + 1];
                    op_[l] += 1;
                    pos_[l] += 2;
                } else {
                    uint64_t sym = symbols[code];
                    memcpy(op_[l], &sym, 8);
                    op_[l] += lengths[code];
                    pos_[l] += 1;
                }
            });
        } else {
            /* mixed data: one mispredict would stall all four lanes,
             * so select escape-vs-symbol with mask arithmetic */
            DLOCKSTEP({
                uint8_t code = in_[l][pos_[l]];
                uint64_t esc_m = -(uint64_t)(code == ESCAPE);
                uint64_t w = (esc_m & in_[l][pos_[l] + 1]) |
                             (~esc_m & symbols[code]);
                memcpy(op_[l], &w, 8);
                op_[l] += (esc_m & 1) | (~esc_m & lengths[code]);
                pos_[l] += 1 + (int64_t)(esc_m & 1);
            });
        }
#undef DLOCKSTEP
        for (int l = 0; l < N_LANES; l++) {
            lanes[l].pos = pos_[l];
            lanes[l].op = op_[l];
        }
    }

    /* drain the (<= N_LANES-1) still-active lanes one at a time */
    for (int l = 0; l < N_LANES; l++) {
        DLane *ln = &lanes[l];
        if (ln->row < 0)
            continue;
        for (;;) {
            const uint8_t *in = ln->in;
            int64_t pos = ln->pos, end = ln->len - 2;
            uint8_t *op = ln->op, *lim = ln->lim - 8;
            while (pos <= end && op <= lim) {
                uint8_t code = in[pos];
                uint64_t esc_m = -(uint64_t)(code == ESCAPE);
                uint64_t w = (esc_m & in[pos + 1]) | (~esc_m & symbols[code]);
                memcpy(op, &w, 8);
                op += (esc_m & 1) | (~esc_m & lengths[code]);
                pos += 1 + (int64_t)(esc_m & 1);
            }
            ln->pos = pos;
            ln->op = op;
            if (ln->pos >= ln->len)
                break;
            if (dstep_careful(ln, symbols, lengths))
                return -1;
        }
        if (ln->op != ln->lim)
            return -1;
    }
    return out_offsets[n_rows] - out_offsets[0];
}

/* Single-cursor decompress of rows whose decoded sizes are not known.
 * Returns total decoded bytes, -1 if `out_cap` would be exceeded
 * (callers size out_cap as exact_decoded_size + 8 when known), or
 * STATE_CORRUPT. */
int64_t fsst_decompress_bulk(const uint8_t *codes, const int64_t *offsets,
                             int64_t n_rows, const uint8_t *state,
                             int64_t state_len, uint8_t *out,
                             int64_t out_cap, int64_t *out_offsets) {
    uint64_t symbols[256];
    uint8_t lengths[256];
    if (load_state(state, state_len, symbols, lengths, NULL))
        return STATE_CORRUPT;
    int64_t out_pos = 0;
    out_offsets[0] = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        const uint8_t *in = codes + offsets[r];
        int64_t len = offsets[r + 1] - offsets[r];
        int64_t pos = 0;
        while (pos < len) {
            if (out_pos + 8 > out_cap)
                return -1;
            uint8_t code = in[pos];
            if (code == ESCAPE) {
                /* a valid stream never ends in a dangling escape */
                out[out_pos++] = (pos + 1 < len) ? in[pos + 1] : 0;
                pos += 2;
            } else {
                /* full-symbol write; overrun is masked by the next
                 * write or the +8 slack guaranteed by the cap check */
                memcpy(out + out_pos, &symbols[code], 8);
                out_pos += lengths[code];
                pos += 1;
            }
        }
        out_offsets[r + 1] = out_pos;
    }
    return out_pos;
}

/* ---- symbol-table training ----
 *
 * One entry point, fsst_train: make_sample, 5 generations of
 * compress_count + optimize, then finalize, writing the state blob.
 * Every step mirrors the Python oracle (tests/fsst_oracle.py
 * train_oracle) operation for operation, so the tables are
 * bit-identical to it and to the reference crate
 * (src/builder.rs:390-496, 535-628, 658-813). */

#define CODE_BASE 256
#define CODE_MASK 511
#define LEN_BITS 12
#define N_SLOTS 255 /* learned-symbol slots: codes 256..510 */
#define SAMPLE_TARGET (1 << 14)
#define SAMPLE_LINE 512
#define SAMPLE_SEED 4637947ULL

/* bytes of a symbol packed LE in a u64; all-zero is the 1-byte 0x00 */
static inline uint32_t sym_len(uint64_t s) {
    return s == 0 ? 1 : (uint32_t)((64 - __builtin_clzll(s) + 7) >> 3);
}

static inline uint16_t code_escape(uint32_t byte) {
    return (uint16_t)(byte + (1 << LEN_BITS));
}

static inline uint16_t code_building(uint32_t code, uint32_t len) {
    return (uint16_t)(code + CODE_BASE + (len << LEN_BITS));
}

/* Mutable training state (the oracle's CompressorBuilder) plus the
 * per-generation counters. Counts are u32: a sample holds at most
 * SAMPLE_TARGET + SAMPLE_LINE bytes and a byte adds at most 2 to any
 * counter, so no count can wrap. */
typedef struct {
    uint64_t symbols[CODE_BASE + N_SLOTS];
    uint32_t n_symbols;
    uint32_t len_histogram[8];
    uint16_t codes_one_byte[256];
    uint16_t codes_two_byte[65536];
    uint64_t pht_symbol[PHT_MASK + 1];
    uint16_t pht_code[PHT_MASK + 1];
    uint16_t pht_ignored[PHT_MASK + 1];
    uint32_t c1[CODE_MASK + 1];
    uint32_t c2[(CODE_MASK + 1) * (CODE_MASK + 1)];
} Builder;

static void builder_init(Builder *b) {
    for (uint32_t i = 0; i < CODE_BASE + N_SLOTS; i++)
        b->symbols[i] = i < 256 ? i : 0;
    b->n_symbols = 0;
    memset(b->len_histogram, 0, sizeof b->len_histogram);
    for (uint32_t i = 0; i < 256; i++)
        b->codes_one_byte[i] = code_escape(i);
    for (uint32_t i = 0; i < 65536; i++)
        b->codes_two_byte[i] = code_escape(i >> 8);
    for (uint32_t s = 0; s <= PHT_MASK; s++) {
        b->pht_symbol[s] = 0;
        b->pht_code[s] = CODE_UNUSED;
        b->pht_ignored[s] = 64;
    }
    memset(b->c1, 0, sizeof b->c1);
    memset(b->c2, 0, sizeof b->c2);
}

/* 1 if inserted, 0 if a 3+ byte symbol collides in the PHT */
static int builder_insert(Builder *b, uint64_t s, uint32_t len) {
    if (len == 2) {
        b->codes_two_byte[s & 0xFFFF] = code_building(b->n_symbols, 2);
    } else if (len == 1) {
        b->codes_one_byte[s & 0xFF] = code_building(b->n_symbols, 1);
    } else {
        uint32_t slot = (uint32_t)(fsst_hash3(s) & PHT_MASK);
        if (b->pht_code[slot] != CODE_UNUSED)
            return 0;
        b->pht_symbol[slot] = s;
        b->pht_code[slot] = code_building(b->n_symbols, len);
        b->pht_ignored[slot] = (uint16_t)(64 - 8 * len);
    }
    b->len_histogram[len - 1]++;
    b->symbols[CODE_BASE + b->n_symbols] = s;
    b->n_symbols++;
    return 1;
}

/* resets the index entries of the current table; symbols[256..] and
 * the PHT's symbol/ignored slots keep their stale values, as in the
 * reference (finalize's suffix scan reads the stale symbols) */
static void builder_clear(Builder *b) {
    for (uint32_t code = 0; code < CODE_BASE + b->n_symbols; code++) {
        uint64_t s = b->symbols[code];
        uint32_t len = sym_len(s);
        if (len == 1)
            b->codes_one_byte[s & 0xFF] = code_escape(s & 0xFF);
        else if (len == 2)
            b->codes_two_byte[s & 0xFFFF] = code_escape(s & 0xFF);
        else
            b->pht_code[fsst_hash3(s) & PHT_MASK] = CODE_UNUSED;
    }
    memset(b->len_histogram, 0, sizeof b->len_histogram);
    b->n_symbols = 0;
}

/* training-time lookup: PHT, then the two-byte index, then one byte */
static inline uint16_t find_longest_symbol(const Builder *b, uint64_t word) {
    uint32_t slot = (uint32_t)(fsst_hash3(word) & PHT_MASK);
    uint16_t pc = b->pht_code[slot];
    if (pc != CODE_UNUSED) {
        uint16_t ign = b->pht_ignored[slot];
        uint64_t mask = ign < 64 ? ~0ULL >> ign : 0;
        if ((word & mask) == b->pht_symbol[slot])
            return pc;
    }
    uint16_t two = b->codes_two_byte[word & 0xFFFF];
    if ((two & CODE_MASK) >= CODE_BASE)
        return two;
    return b->codes_one_byte[word & 0xFF];
}

/* one greedy counting pass over a line, its tail read as a
 * zero-padded word */
static void compress_count(Builder *b, const uint8_t *line, int64_t n) {
    uint32_t prev = CODE_MASK;
    int64_t pos = 0;
    while (pos < n) {
        uint64_t word = 0;
        if (n - pos >= 8)
            word = load_word(line + pos);
        else
            memcpy(&word, line + pos, (size_t)(n - pos));
        uint16_t code = find_longest_symbol(b, word);
        uint32_t ext = code & CODE_MASK;
        uint32_t len = code >> LEN_BITS;
        b->c1[ext]++;
        b->c2[prev * (CODE_MASK + 1) + ext]++;
        if (len > 1) {
            uint32_t first = (uint32_t)(b->symbols[ext] & 0xFF);
            b->c1[first]++;
            b->c2[prev * (CODE_MASK + 1) + first]++;
        }
        pos += len;
        prev = ext;
    }
}

/* Candidate max-heap with Rust std BinaryHeap's push, pop and
 * sift_down_to_bottom order, compared on (gain, len) only, so equal
 * keys pop in the reference's order. */
typedef struct {
    uint64_t gain;
    uint64_t symbol;
    uint32_t len;
} Cand;

static inline int cand_le(const Cand *a, const Cand *b) {
    return a->gain < b->gain || (a->gain == b->gain && a->len <= b->len);
}

static void heap_sift_up(Cand *d, int64_t start, int64_t pos) {
    Cand element = d[pos];
    while (pos > start) {
        int64_t parent = (pos - 1) >> 1;
        if (cand_le(&element, &d[parent]))
            break;
        d[pos] = d[parent];
        pos = parent;
    }
    d[pos] = element;
}

static void heap_push(Cand *d, int64_t *n, Cand c) {
    d[*n] = c;
    heap_sift_up(d, 0, (*n)++);
}

static Cand heap_pop(Cand *d, int64_t *n) {
    Cand last = d[--(*n)];
    int64_t end = *n;
    if (end == 0)
        return last;
    Cand top = d[0];
    /* sift_down_to_bottom: walk the root's hole down to a leaf, always
     * to the larger child, then sift the old last element up from it */
    int64_t pos = 0, child = 1;
    while (child <= end - 2) {
        child += cand_le(&d[child], &d[child + 1]);
        d[pos] = d[child];
        pos = child;
        child = 2 * pos + 1;
    }
    if (child == end - 1) {
        d[pos] = d[child];
        pos = child;
    }
    d[pos] = last;
    heap_sift_up(d, 0, pos);
    return top;
}

/* candidate generation and the rebuild of the table from the best
 * 255 candidates; `heap` holds every push of one generation */
static void optimize(Builder *b, Cand *heap, uint32_t frac) {
    uint64_t cutoff = (5 * (uint64_t)frac) / 128;
    int64_t n = 0;
    for (uint32_t code1 = 0; code1 < CODE_MASK; code1++) {
        uint64_t count = b->c1[code1];
        if (count == 0 || count < cutoff)
            continue;
        uint64_t sym1 = b->symbols[code1];
        uint32_t len1 = sym_len(sym1);
        uint64_t gain = count * len1;
        if (code1 < CODE_BASE)
            gain *= 8; /* single-byte boost reduces escape counts */
        heap_push(heap, &n, (Cand){gain, sym1, len1});
        if (frac >= 128 || len1 == 8)
            continue;
        const uint32_t *row = b->c2 + (uint64_t)code1 * (CODE_MASK + 1);
        for (uint32_t code2 = 0; code2 < CODE_MASK; code2++) {
            if (row[code2] == 0)
                continue;
            uint64_t sym2 = b->symbols[code2];
            if (len1 + sym_len(sym2) > 8)
                continue;
            uint64_t sym = (sym2 << (8 * len1)) | sym1;
            uint32_t len = sym_len(sym);
            heap_push(heap, &n, (Cand){(uint64_t)row[code2] * len, sym, len});
        }
    }
    builder_clear(b);
    uint32_t inserted = 0;
    while (n > 0 && inserted < N_SLOTS) {
        Cand c = heap_pop(heap, &n);
        inserted += (uint32_t)builder_insert(b, c.symbol, sym_len(c.symbol));
    }
}

/* Deterministic pseudo-random sample of an input of at least
 * SAMPLE_TARGET bytes: SAMPLE_LINE-byte chunks of lines picked by the
 * fsst_hash chain, an empty pick moving forward (with wrap-around) to
 * the next non-empty line. Writes each chunk's [start, end) positions
 * (at most SAMPLE_TARGET of them: a chunk holds at least one byte) and
 * returns their count. */
static int64_t make_sample(const int64_t *offsets, int64_t n_lines,
                           int64_t *s_start, int64_t *s_end) {
    int64_t n = 0, taken = 0;
    uint64_t rnd = fsst_hash(SAMPLE_SEED);
    while (taken < SAMPLE_TARGET) {
        rnd = fsst_hash(rnd);
        int64_t j = (int64_t)(rnd % (uint64_t)n_lines);
        while (offsets[j + 1] == offsets[j])
            j = j + 1 == n_lines ? 0 : j + 1; /* some line is non-empty */
        int64_t len = offsets[j + 1] - offsets[j];
        uint64_t chunks = 1 + (uint64_t)(len - 1) / SAMPLE_LINE;
        rnd = fsst_hash(rnd);
        int64_t chunk = SAMPLE_LINE * (int64_t)(rnd % chunks);
        s_start[n] = offsets[j] + chunk;
        s_end[n] = offsets[j] + (len - chunk < SAMPLE_LINE ? len : chunk + SAMPLE_LINE);
        taken += s_end[n] - s_start[n];
        n++;
    }
    return n;
}

/* renumber by length order 2(no suffix) | 2(suffix) | 3..8 | 1 and
 * write the state blob: [1, n lo, n hi, has_suffix_code], n LE u64
 * symbols, n u8 lengths. The suffix scan reads all 255 upper slots,
 * stale ones included, as the reference does. Returns the blob size. */
static int64_t finalize(const Builder *b, uint8_t *out) {
    uint32_t n = b->n_symbols;
    uint32_t by_len[8];
    by_len[0] = n - b->len_histogram[0];
    by_len[1] = 0;
    for (int i = 1; i < 7; i++)
        by_len[i + 1] = by_len[i] + b->len_histogram[i];
    uint32_t no_suffix = 0, has_suffix = by_len[2];
    uint64_t symbols[N_SLOTS] = {0};
    uint8_t lengths[N_SLOTS] = {0};
    for (uint32_t i = 0; i < n; i++) {
        uint64_t s = b->symbols[CODE_BASE + i];
        uint32_t len = sym_len(s), code;
        if (len == 2) {
            int suffixed = 0;
            for (uint32_t k = 0; k < N_SLOTS && !suffixed; k++)
                suffixed = k != i && (s & 0xFFFF) == (b->symbols[CODE_BASE + k] & 0xFFFF);
            code = suffixed ? --has_suffix : no_suffix++;
        } else {
            code = by_len[len - 1]++;
        }
        symbols[code] = s;
        lengths[code] = (uint8_t)len;
    }
    out[0] = 1;
    out[1] = (uint8_t)(n & 0xFF);
    out[2] = (uint8_t)(n >> 8);
    out[3] = (uint8_t)has_suffix;
    memcpy(out + 4, symbols, 8 * (size_t)n);
    memcpy(out + 4 + 8 * (size_t)n, lengths, n);
    return 4 + 9 * (int64_t)n;
}

/* Train a symbol table on n_lines rows of `data` (offsets: n_lines+1
 * int64 positions in `data`). Writes the state blob to out_state
 * (capacity 4 + 9 * 255 bytes) and returns its length, or -1 when
 * the working memory cannot be allocated. */
int64_t fsst_train(const uint8_t *data, const int64_t *offsets,
                   int64_t n_lines, uint8_t *out_state) {
    static const uint32_t generations[5] = {8, 38, 68, 98, 128};
    Builder *b = malloc(sizeof *b);
    /* every push is a non-zero c1 cell (< 511) or a non-zero c2 cell
     * (at most 2 per parsed byte of the sample) */
    Cand *heap = malloc((CODE_MASK + 2 * (size_t)(SAMPLE_TARGET + SAMPLE_LINE)) * sizeof(Cand));
    int64_t *chunks = malloc(2 * (size_t)SAMPLE_TARGET * sizeof(int64_t));
    if (!b || !heap || !chunks) {
        free(b);
        free(heap);
        free(chunks);
        return -1;
    }
    builder_init(b);
    /* an input under SAMPLE_TARGET bytes is its own sample */
    const int64_t *s_start = offsets, *s_end = offsets + 1;
    int64_t n_sample = n_lines;
    if (offsets[n_lines] - offsets[0] >= SAMPLE_TARGET) {
        n_sample = make_sample(offsets, n_lines, chunks, chunks + SAMPLE_TARGET);
        s_start = chunks;
        s_end = chunks + SAMPLE_TARGET;
    }
    for (int g = 0; g < 5; g++) {
        uint32_t frac = generations[g];
        for (int64_t i = 0; i < n_sample; i++) {
            if (frac < 128 && (fsst_hash((uint64_t)i) & 127) > frac)
                continue;
            compress_count(b, data + s_start[i], s_end[i] - s_start[i]);
        }
        optimize(b, heap, frac);
        memset(b->c1, 0, sizeof b->c1);
        memset(b->c2, 0, sizeof b->c2);
    }
    int64_t len = finalize(b, out_state);
    free(chunks);
    free(heap);
    free(b);
    return len;
}
