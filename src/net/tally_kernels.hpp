// Word-packed tally kernels + the intra-trial shard seam.
//
// The scalar RoundTally build walks the round's uint8_t state plane and
// Message[] once per round — a byte-granular sweep whose throughput is
// bounded by issue width, not memory bandwidth. This header packs the
// binary per-sender attributes of a round (presence-in-bucket, val bit,
// decided flag, coin sign) into uint64_t bit planes so that every
// histogram / coin-sum query collapses to popcount-over-words: 64 senders
// per instruction, streaming through (n/8)-byte planes instead of
// 16-byte Messages. The engine packs a round exactly when its beats shard
// or its plane is sparse, where the planes are read word-wise; a serial
// flat round keeps the scalar byte-plane code in round_buffer.cpp, which
// measured as fast or faster there on most shapes and is the reference
// oracle (`intra_threads=1`). The
// equivalence tests pin the two bit-identical — every count here is an
// exact integer, so "vectorized" never means "approximate".
//
// Three pieces live here:
//
//  * IntraDispatcher — the engine-side seam for intra-trial parallelism.
//    An implementation (sim::ShardPool) runs fn(shard, lo, hi) over
//    word-aligned node ranges covering [0, n). Ranges depend only on
//    (n, shards()), NEVER on how many OS threads execute them, so results
//    are invariant to the worker count — the same bit-exactness discipline
//    the cross-trial executor enforces. Word alignment makes concurrent
//    packed-plane writes race-free: two shards never touch the same word.
//
//  * kern::* — the packing pass (shardable: each shard packs its own word
//    span and discovers its own (kind, phase) buckets; RoundTally merges
//    shard-local buckets in shard order, which preserves the serial
//    ascending-first-occurrence bucket order) and the popcount reduction
//    kernels RoundTally and ReceiveView call.
//
//  * kern::lane_counts — the fused trial plane's one counting kernel: K
//    columns of 64 per-lane counts (bit j of a word belongs to trial j) in
//    one pass, with digits kept bit-sliced until kern::lane_digits_to_counts
//    turns them into integers. It has two forms with the same counts and
//    the same words() contract: lane_counts_portable, a carry-save adder
//    tree over groups of 8 words, and lane_counts_avx512, the same tree
//    run vertically over 8-word vectors, 64 words per block. The AVX-512F
//    form takes ranges of at least kWideLaneCountsFrom (64) words on a CPU
//    that has the feature; shorter ranges, such as committee ranges, and
//    other CPUs take the carry-save form. Like the sparse probe kernel,
//    every AVX-512F path here is chosen once at load time from the CPU
//    (has_avx512f): the digit conversion (masked adds, else a portable
//    loop) and kern::lanes_greater, the fused receive beats' one compare
//    kernel, which turns 64 such counts back into a lane mask. Beside them
//    sits kern::first_flips, a committee member's first coin in all 64
//    lanes, with an AVX-512F/DQ form (eight splitmix chains per vector)
//    chosen the same way (has_avx512dq), and kern::fisher_yates_targets,
//    a static adversary's set draws in all 64 lanes at a block's start,
//    with an AVX-512F form (eight generators per vector).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "rand/rng.hpp"
#include "support/types.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace adba::net {

class RoundBuffer;

/// Runs a beat callback over word-aligned node ranges. The engine uses one
/// dispatcher per trial for the send beat, the tally pack and the receive
/// beat (EngineConfig::intra); a null dispatcher means serial beats.
///
/// Contract: run_shards(n, fn) invokes fn(s, lo, hi) exactly once for each
/// shard s in [0, shards()) with the ranges of kern::shard_node_range, and
/// returns only after every invocation completed (barrier per beat). The
/// callback must confine its writes to [lo, hi) state (node ranges are
/// 64-aligned, so per-word packed writes are disjoint too).
class IntraDispatcher {
public:
    virtual ~IntraDispatcher() = default;

    /// Logical shard count per dispatch. Results must not depend on it
    /// (tests pin shard-count invariance); only wall-clock should.
    virtual unsigned shards() const = 0;
    virtual void run_shards(
        NodeId n, const std::function<void(unsigned, NodeId, NodeId)>& fn) = 0;
};

namespace kern {

inline constexpr NodeId kWordBits = 64;

/// Number of uint64_t words covering n one-bit-per-sender lanes.
inline std::size_t word_count(NodeId n) {
    return (static_cast<std::size_t>(n) + kWordBits - 1) / kWordBits;
}

/// Node range [lo, hi) of shard s of `shards` over n nodes. Ranges tile
/// [0, n), are 64-aligned at every interior boundary, and depend only on
/// (n, s, shards) — the determinism contract of IntraDispatcher.
inline std::pair<NodeId, NodeId> shard_node_range(NodeId n, unsigned s,
                                                  unsigned shards) {
    const std::size_t words = word_count(n);
    const std::size_t w_lo = words * s / shards;
    const std::size_t w_hi = words * (s + 1) / shards;
    const auto clamp = [n](std::size_t w) {
        const std::size_t v = w * kWordBits;
        return v < n ? static_cast<NodeId>(v) : n;
    };
    return {clamp(w_lo), clamp(w_hi)};
}

/// Runs fn(shard, lo, hi) through `intra` when present, else serially as
/// one full-range shard — the single-call form every sharded beat uses.
template <typename Fn>
void run_sharded(IntraDispatcher* intra, NodeId n, Fn&& fn) {
    if (intra != nullptr) {
        intra->run_shards(n, fn);
    } else {
        fn(0u, NodeId{0}, n);
    }
}

/// Round-wide packed attribute planes over senders (bit v of word v/64).
/// The attribute planes are UNMASKED: pack_shard fills them branchlessly
/// for every sender slot, including absent/Byzantine ones, so they carry
/// garbage bits from stale cells. Only a bucket's match plane encodes
/// presence — every consumer must AND an attribute plane with a match
/// plane before popcounting; never popcount an attribute plane alone.
/// Storage is recycled across rounds.
struct PackedPlanes {
    std::vector<std::uint64_t> val;       ///< broadcast present and (val & 1)
    std::vector<std::uint64_t> flag;      ///< present and flag != 0
    std::vector<std::uint64_t> coin_pos;  ///< present and coin > 0
    std::vector<std::uint64_t> coin_neg;  ///< present and coin < 0
    /// Honesty membership: bit set iff the sender is Byzantine. Unlike the
    /// attribute planes above this one is EXACT (state-derived, not payload-
    /// derived) — the sparse probe kernels read it alone, with no match
    /// gating, to split sampled edges into honest vs Byzantine at one bit
    /// per sender (8x denser than the uint8_t state plane).
    std::vector<std::uint64_t> byz;

    void ensure(std::size_t words) {
        if (val.size() < words) {
            val.resize(words);
            flag.resize(words);
            coin_pos.resize(words);
            coin_neg.resize(words);
            byz.resize(words);
        }
    }
};

/// One shard's locally-discovered (kind, phase) bucket: match bits over the
/// shard's own word span only (offset by PackShard::word_lo).
struct PackShardBucket {
    MsgKind kind{};
    Phase phase = 0;
    std::vector<std::uint64_t> match;
};

/// Recycled per-shard pack scratch; filled by pack_shard, merged serially
/// by RoundTally::rebuild in shard-index order.
struct PackShard {
    std::size_t word_lo = 0;
    std::size_t word_hi = 0;
    std::vector<PackShardBucket> buckets;
    std::size_t buckets_in_use = 0;
};

/// Packs senders [lo, hi) of `buf` into the global attribute planes (this
/// shard's word span only — disjoint from every other shard's writes) and
/// the shard-local bucket match planes. [lo, hi) must come from
/// shard_node_range.
void pack_shard(const RoundBuffer& buf, NodeId lo, NodeId hi,
                PackedPlanes& planes, PackShard& shard);

// ---- popcount reduction kernels -----------------------------------------

inline Count popcount_words(const std::uint64_t* a, std::size_t words) {
    Count c = 0;
    for (std::size_t w = 0; w < words; ++w) c += static_cast<Count>(std::popcount(a[w]));
    return c;
}

inline Count popcount_and(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t words) {
    Count c = 0;
    for (std::size_t w = 0; w < words; ++w)
        c += static_cast<Count>(std::popcount(a[w] & b[w]));
    return c;
}

inline Count popcount_and3(const std::uint64_t* a, const std::uint64_t* b,
                           const std::uint64_t* c3, std::size_t words) {
    Count c = 0;
    for (std::size_t w = 0; w < words; ++w)
        c += static_cast<Count>(std::popcount(a[w] & b[w] & c3[w]));
    return c;
}

/// Sanitized ±1 coin sum over bucket-matching senders in [first, last):
/// masked popcounts over the (coin_pos, coin_neg) planes — the packed
/// equivalent of TallyBucket::coin_prefix[last] - coin_prefix[first].
inline std::int64_t coin_sum_range(const std::uint64_t* pos,
                                   const std::uint64_t* neg,
                                   const std::uint64_t* match, NodeId first,
                                   NodeId last) {
    if (first >= last) return 0;
    const std::size_t w0 = first / kWordBits;
    const std::size_t w1 = (static_cast<std::size_t>(last) - 1) / kWordBits;
    std::int64_t sum = 0;
    for (std::size_t w = w0; w <= w1; ++w) {
        std::uint64_t m = match[w];
        if (w == w0) m &= ~std::uint64_t{0} << (first % kWordBits);
        if (w == w1) {
            const unsigned r = last - static_cast<NodeId>(w * kWordBits);
            if (r < kWordBits) m &= (std::uint64_t{1} << r) - 1;
        }
        sum += std::popcount(pos[w] & m);
        sum -= std::popcount(neg[w] & m);
    }
    return sum;
}

// ---- per-lane counts: the fused trial plane's counting kernel ------------
//
// The popcount kernels above count bits ACROSS a word (64 senders of ONE
// trial); the fused plane (net/fused_plane.hpp) needs the transpose: 64
// independent counts, where bit j of every word belongs to trial j. Counts
// are kept bit-sliced while they grow — digit word i holds bit i of all 64
// counts — and turned into integers once at the end.

/// Digit words of any per-lane count (a Count).
inline constexpr unsigned kMaxLaneDigits = std::numeric_limits<Count>::digits;

/// Turns k bit-sliced digit words (bit j of digits[i] is bit i of lane j's
/// count) into the 64 counts out[0..63], k <= kMaxLaneDigits. The path is
/// chosen once at load time from the CPU: with AVX-512F, four masked 16-lane
/// adds of 2^i per digit; otherwise lane_digits_to_counts_portable.
void lane_digits_to_counts(const std::uint64_t* digits, unsigned k, Count* out);

/// The portable form of lane_digits_to_counts: the same integers, from a
/// walk over each digit's set bits. The fallback on CPUs without AVX-512F,
/// and the tests' reference.
void lane_digits_to_counts_portable(const std::uint64_t* digits, unsigned k, Count* out);

/// Lane masks from 64-lane int32 vectors: bit j is x[j] > c, or a[j] > b[j].
/// The path is chosen once at load time from the CPU, as for
/// lane_digits_to_counts: with AVX-512F, four 16-lane compares into mask
/// registers; otherwise lanes_greater_portable.
std::uint64_t lanes_greater(const std::int32_t* x, std::int32_t c);
std::uint64_t lanes_greater(const std::int32_t* a, const std::int32_t* b);

/// The portable forms of lanes_greater: one compare per lane. The fallback
/// on CPUs without AVX-512F, and the tests' reference.
std::uint64_t lanes_greater_portable(const std::int32_t* x, std::int32_t c);
std::uint64_t lanes_greater_portable(const std::int32_t* a, const std::int32_t* b);

/// A committee member's first-visit flips in all 64 lanes: bit j is the top
/// bit of Xoshiro256::first_output(SeedTree::child_seed(purpose[j], v)), the
/// first fair bit of stream v under lane j's purpose hash (a set bit is a
/// +1 sign()). The path is chosen once at load time from the CPU: with
/// AVX-512F and AVX-512DQ, eight lanes per 64-bit vector multiply
/// (first_flips_avx512); otherwise first_flips_portable.
std::uint64_t first_flips(const std::uint64_t* purpose, NodeId v);

/// The portable form of first_flips: one splitmix chain per lane. The
/// fallback on CPUs without AVX-512DQ, and the tests' reference.
std::uint64_t first_flips_portable(const std::uint64_t* purpose, NodeId v);

/// The swap targets of a partial Fisher-Yates draw of q[j] of n ids (a
/// static adversary's set) in every lane j of `lanes` at once:
/// targets[kWordBits * i + j] = i + gens[j].below(n - i) for i < q[j], in
/// ascending i, exactly the draws of that many below() calls, which leave
/// gens[j] where they leave it. Other entries of targets and the other
/// lanes' generators are left as they were. Requires q[j] <= n. The path
/// is chosen once at load time from the CPU: with AVX-512F, eight lanes per
/// vector (fisher_yates_targets_avx512); otherwise
/// fisher_yates_targets_portable.
void fisher_yates_targets(Xoshiro256* gens, const Count* q, std::uint64_t lanes, NodeId n,
                          NodeId* targets);

/// The portable form of fisher_yates_targets: below() lane by lane. The
/// fallback on CPUs without AVX-512F, and the tests' reference.
void fisher_yates_targets_portable(Xoshiro256* gens, const Count* q, std::uint64_t lanes,
                                   NodeId n, NodeId* targets);

/// Carry-save adder: a + b + c == 2 * carry + sum in every bit position,
/// with no carry chain between positions.
inline void csa(std::uint64_t& carry, std::uint64_t& sum, std::uint64_t a,
                std::uint64_t b, std::uint64_t c) {
    const std::uint64_t u = a ^ b;
    carry = (a & b) | (u & c);
    sum = u ^ c;
}

/// K columns of 64 per-lane counts in one pass over v in [lo, hi):
/// words(v, w) is called exactly once per v, in ascending order, and fills
/// w[0..K-1]; out[k][j] becomes the number of v whose word k has bit j set.
///
/// The carry-save form. Each group of 8 consecutive words goes through a
/// carry-save tree that keeps every column's weight-1/2/4 digits apart from
/// the digit array, so one carry word per group and column enters the high
/// digits; the words after the last full group ripple in one by one. Every
/// carry walks all the digits the range can need (bit_width(hi - lo)), so
/// no branch depends on the data. The fallback of lane_counts on CPUs
/// without AVX-512F and below kWideLaneCountsFrom, and the tests' reference.
template <unsigned K, typename Words>
void lane_counts_portable(NodeId lo, NodeId hi, Words&& words, Count (*out)[kWordBits]) {
    static_assert(K >= 1);
    const NodeId len = hi > lo ? hi - lo : 0;
    const unsigned digits = std::max(3u, static_cast<unsigned>(std::bit_width(len)));
    std::uint64_t ones[K] = {}, twos[K] = {}, fours[K] = {};
    std::uint64_t d[K][kMaxLaneDigits] = {};  // d[k][i]: digit i of column k
    const auto carry_up = [&](unsigned k, std::uint64_t c) {
        for (unsigned i = 3; i < digits; ++i) {
            const std::uint64_t next = d[k][i] & c;
            d[k][i] ^= c;
            c = next;
        }
    };

    NodeId v = lo;
    for (const NodeId end = lo + (len & ~NodeId{7}); v != end; v += 8) {
        std::uint64_t x[8][K];
        for (unsigned i = 0; i < 8; ++i) words(v + i, x[i]);
        for (unsigned k = 0; k < K; ++k) {
            std::uint64_t twos_a, twos_b, fours_a, fours_b, eights;
            csa(twos_a, ones[k], ones[k], x[0][k], x[1][k]);
            csa(twos_b, ones[k], ones[k], x[2][k], x[3][k]);
            csa(fours_a, twos[k], twos[k], twos_a, twos_b);
            csa(twos_a, ones[k], ones[k], x[4][k], x[5][k]);
            csa(twos_b, ones[k], ones[k], x[6][k], x[7][k]);
            csa(fours_b, twos[k], twos[k], twos_a, twos_b);
            csa(eights, fours[k], fours[k], fours_a, fours_b);
            carry_up(k, eights);
        }
    }
    for (; v != lo + len; ++v) {
        std::uint64_t x[K];
        words(v, x);
        for (unsigned k = 0; k < K; ++k) {
            const std::uint64_t c1 = ones[k] & x[k];
            ones[k] ^= x[k];
            const std::uint64_t c2 = twos[k] & c1;
            twos[k] ^= c1;
            const std::uint64_t c3 = fours[k] & c2;
            fours[k] ^= c2;
            carry_up(k, c3);
        }
    }

    for (unsigned k = 0; k < K; ++k) {
        d[k][0] = ones[k];
        d[k][1] = twos[k];
        d[k][2] = fours[k];
        lane_digits_to_counts(d[k], digits, out[k]);
    }
}

#if defined(__x86_64__)
/// True when the host CPU has AVX-512F: the load-time check behind every
/// dispatched kernel of this header.
bool has_avx512f();

/// True when the host CPU has AVX-512F and AVX-512DQ: the load-time check
/// behind first_flips.
bool has_avx512dq();

/// The AVX-512F/DQ form of first_flips: each splitmix finalizer and the
/// xoshiro256** scrambler run over eight lanes per vector (vpmullq), and
/// the top bits leave through vpmovq2m. Only on a host with has_avx512dq().
__attribute__((target("avx512f,avx512dq"))) std::uint64_t first_flips_avx512(
    const std::uint64_t* purpose, NodeId v);

/// The AVX-512F form of fisher_yates_targets: the generators of eight
/// lanes step together, and each x % (n - i) is a multiply by the
/// reciprocal of n - i (Granlund-Montgomery), computed once per i for all
/// lanes; a draw that below() would test for rejection leaves the vector
/// and finishes in below()'s own loop. Only on a host with has_avx512f().
__attribute__((target("avx512f"))) void fisher_yates_targets_avx512(
    Xoshiro256* gens, const Count* q, std::uint64_t lanes, NodeId n, NodeId* targets);

namespace wide {

/// csa over 8-word vectors, each output one vpternlogq (majority, xor3).
__attribute__((target("avx512f"), always_inline)) inline void csa(__m512i& carry, __m512i& sum,
                                                                   __m512i a, __m512i b, __m512i c) {
    carry = _mm512_ternarylogic_epi64(a, b, c, 0xE8);
    sum = _mm512_ternarylogic_epi64(a, b, c, 0x96);
}

/// Adds one block of 64 words x[0..63] to the 8 bit-sliced counts whose
/// digits are d[0..digits-1]: element e of every vector counts the words
/// x[i] with i % 8 == e.
__attribute__((target("avx512f"), always_inline)) inline void add_block(const std::uint64_t* x,
                                                                         __m512i* d,
                                                                         unsigned digits) {
    __m512i twos_a, twos_b, fours_a, fours_b, eights;
    csa(twos_a, d[0], d[0], _mm512_load_si512(x), _mm512_load_si512(x + 8));
    csa(twos_b, d[0], d[0], _mm512_load_si512(x + 16), _mm512_load_si512(x + 24));
    csa(fours_a, d[1], d[1], twos_a, twos_b);
    csa(twos_a, d[0], d[0], _mm512_load_si512(x + 32), _mm512_load_si512(x + 40));
    csa(twos_b, d[0], d[0], _mm512_load_si512(x + 48), _mm512_load_si512(x + 56));
    csa(fours_b, d[1], d[1], twos_a, twos_b);
    csa(eights, d[2], d[2], fours_a, fours_b);
    for (unsigned i = 3; i < digits; ++i) {
        const __m512i next = _mm512_and_si512(d[i], eights);
        d[i] = _mm512_xor_si512(d[i], eights);
        eights = next;
    }
}

/// Sums each column's 8 bit-sliced counts, d[k][0..digits-1], into
/// sum[k][0..top-1], the digits of one count of at most `top` digits:
/// three butterfly steps add element e ^ 4, then e ^ 2, then e ^ 1 to every
/// element e, each a bit-sliced ripple add one digit longer (capped at
/// `top`, which no partial sum outgrows), after which every element holds
/// the total. The K columns' carry chains interleave.
template <unsigned K>
__attribute__((target("avx512f"), always_inline)) inline void fold(
    __m512i (*d)[kMaxLaneDigits], unsigned digits, unsigned top,
    std::uint64_t (*sum)[kMaxLaneDigits]) {
    for (const int step : {4, 2, 1}) {
        const __m512i partner = _mm512_set_epi64(7 ^ step, 6 ^ step, 5 ^ step, 4 ^ step,
                                                 3 ^ step, 2 ^ step, 1 ^ step, 0 ^ step);
        __m512i carry[K];
        for (unsigned k = 0; k < K; ++k) carry[k] = _mm512_setzero_si512();
        for (unsigned i = 0; i < digits; ++i)
            for (unsigned k = 0; k < K; ++k) {
                const __m512i a = d[k][i];
                const __m512i b = _mm512_permutex2var_epi64(a, partner, a);
                d[k][i] = _mm512_ternarylogic_epi64(a, b, carry[k], 0x96);
                carry[k] = _mm512_ternarylogic_epi64(a, b, carry[k], 0xE8);
            }
        if (digits < top) {
            for (unsigned k = 0; k < K; ++k) d[k][digits] = carry[k];
            ++digits;
        }
    }
    alignas(64) std::uint64_t total[8];
    for (unsigned k = 0; k < K; ++k)
        for (unsigned i = 0; i < top; ++i) {
            _mm512_store_si512(total, d[k][i]);
            sum[k][i] = total[0];
        }
}

/// Fills x[k][i] with column k of words(v + i) for i < m <= 64, in
/// ascending order, and x[k][m..63] with zeros; v + m must not pass the
/// NodeId range. The call index is taken from a base whose bound shows
/// v + i cannot wrap (v never exceeds it), so the loop of a full block
/// vectorizes wherever words() does.
template <unsigned K, typename Words>
__attribute__((target("avx512f"), always_inline)) inline void gather(Words& words, NodeId v,
                                                                      NodeId m,
                                                                      std::uint64_t (*x)[kWordBits]) {
    const NodeId base = std::min(v, std::numeric_limits<NodeId>::max() - m);
    for (NodeId i = 0; i < m; ++i) {
        std::uint64_t w[K];
        words(base + i, w);
        for (unsigned k = 0; k < K; ++k) x[k][i] = w[k];
    }
    for (unsigned k = 0; k < K; ++k) std::fill(x[k] + m, x[k] + kWordBits, std::uint64_t{0});
}

}  // namespace wide

/// The AVX-512F form of lane_counts: the same counts and the same words()
/// contract, from a vertical carry-save tree over 8-word vectors. Words
/// are gathered 64 at a time, column by column; element e of a vector
/// counts the nodes lo + e, lo + e + 8, ..., and a last partial block is
/// padded with zero words (words() never sees a v outside [lo, hi)). The
/// eight per-element digit sets fold into one only at the end.
template <unsigned K, typename Words>
__attribute__((target("avx512f"))) void lane_counts_avx512(NodeId lo, NodeId hi, Words&& words,
                                                            Count (*out)[kWordBits]) {
    static_assert(K >= 1);
    const NodeId len = hi > lo ? hi - lo : 0;
    const unsigned top = std::max(3u, static_cast<unsigned>(std::bit_width(len)));
    const NodeId per_element = len / 8 + (len % 8 != 0 ? 1 : 0);
    const unsigned digits = std::max(3u, static_cast<unsigned>(std::bit_width(per_element)));
    __m512i d[K][kMaxLaneDigits];  // d[k][i]: digit i of column k's 8 counts
    for (unsigned k = 0; k < K; ++k)
        for (unsigned i = 0; i < digits; ++i) d[k][i] = _mm512_setzero_si512();
    alignas(64) std::uint64_t x[K][kWordBits];

    NodeId v = lo;
    for (const NodeId end = lo + (len & ~(kWordBits - 1)); v != end; v += kWordBits) {
        wide::gather<K>(words, v, kWordBits, x);
        for (unsigned k = 0; k < K; ++k) wide::add_block(x[k], d[k], digits);
    }
    if (v != lo + len) {
        wide::gather<K>(words, v, lo + len - v, x);
        for (unsigned k = 0; k < K; ++k) wide::add_block(x[k], d[k], digits);
    }

    std::uint64_t sum[K][kMaxLaneDigits];
    wide::fold<K>(d, digits, top, sum);
    for (unsigned k = 0; k < K; ++k) lane_digits_to_counts(sum[k], top, out[k]);
}
#endif  // __x86_64__

/// Ranges of at least this many words take the AVX-512F form when the host
/// has it. Below one full block the wide form runs only its padded tail:
/// there the carry-save form is faster at K = 1 and K = 4, and at most
/// ~1.2x slower at K = 2 and 3 (from 48 words), so one crossover serves
/// every K. Small-n committee ranges stay on the carry-save form.
inline constexpr NodeId kWideLaneCountsFrom = 64;

/// The fused trial plane's one counting kernel: lane_counts_portable's
/// counts and words() contract, through lane_counts_avx512 when the host
/// has AVX-512F (checked once at load time) and the range holds at least
/// kWideLaneCountsFrom words.
template <unsigned K, typename Words>
void lane_counts(NodeId lo, NodeId hi, Words&& words, Count (*out)[kWordBits]) {
#if defined(__x86_64__)
    if (hi > lo && hi - lo >= kWideLaneCountsFrom && has_avx512f()) {
        lane_counts_avx512<K>(lo, hi, words, out);
        return;
    }
#endif
    lane_counts_portable<K>(lo, hi, words, out);
}

}  // namespace kern
}  // namespace adba::net
