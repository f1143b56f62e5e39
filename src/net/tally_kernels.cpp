#include "net/tally_kernels.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "net/round_buffer.hpp"
#include "rand/rng.hpp"
#include "rand/seed_tree.hpp"
#include "support/contracts.hpp"

namespace adba::net::kern {

void pack_shard(const RoundBuffer& buf, NodeId lo, NodeId hi,
                PackedPlanes& planes, PackShard& shard) {
    ADBA_EXPECTS(lo % kWordBits == 0);
    shard.word_lo = lo / kWordBits;
    shard.word_hi = (static_cast<std::size_t>(hi) + kWordBits - 1) / kWordBits;
    shard.buckets_in_use = 0;
    const std::size_t span = shard.word_hi - shard.word_lo;
    const std::uint8_t* state = buf.state_plane();
    const Message* honest = buf.honest_plane();
    PackShardBucket* last = nullptr;
    // Word-at-a-time: each 64-sender block accumulates its attribute bits
    // in registers and stores each plane word exactly once — no per-sender
    // read-modify-write traffic and no plane pre-zeroing. The attribute
    // planes are filled branchlessly and unconditionally: every consumer
    // ANDs them against a bucket's exact `match` plane, so bits packed from
    // stale cells of silent/Byzantine senders are never observed, and the
    // loop carries no data-dependent branches on payload bits (which the
    // mispredictor chokes on for random votes/coins).
    for (std::size_t w = shard.word_lo; w < shard.word_hi; ++w) {
        const auto v0 = static_cast<NodeId>(w * kWordBits);
        const NodeId v1 = std::min<NodeId>(hi, v0 + static_cast<NodeId>(kWordBits));
        std::uint64_t val = 0;
        std::uint64_t flag = 0;
        std::uint64_t pos = 0;
        std::uint64_t neg = 0;
        std::uint64_t byz = 0;
        for (NodeId v = v0; v < v1; ++v) {
            const Message& m = honest[v];
            const std::uint64_t bit = std::uint64_t{1} << (v - v0);
            val |= bit & (0 - std::uint64_t{m.val & 1u});
            flag |= bit & (0 - std::uint64_t{m.flag != 0});
            pos |= bit & (0 - std::uint64_t{m.coin > 0});
            neg |= bit & (0 - std::uint64_t{m.coin < 0});
            byz |= bit & (0 - std::uint64_t{
                              (state[v] & RoundBuffer::kByzantine) != 0});
            if (state[v] != RoundBuffer::kPresent) continue;
            // Exact membership plane. Lockstep protocols have 1-2 live
            // (kind, phase) signatures per round, so runs of senders land
            // in the same bucket and the linear scan is flat.
            PackShardBucket* b = last;
            if (b == nullptr || b->kind != m.kind || b->phase != m.phase) {
                b = nullptr;
                for (std::size_t i = 0; i < shard.buckets_in_use; ++i) {
                    if (shard.buckets[i].kind == m.kind &&
                        shard.buckets[i].phase == m.phase) {
                        b = &shard.buckets[i];
                        break;
                    }
                }
                if (b == nullptr) {
                    if (shard.buckets.size() <= shard.buckets_in_use)
                        shard.buckets.resize(shard.buckets_in_use + 1);
                    b = &shard.buckets[shard.buckets_in_use++];
                    b->kind = m.kind;
                    b->phase = m.phase;
                    b->match.assign(span, 0);  // recycled; zeroed per round
                }
                last = b;
            }
            b->match[w - shard.word_lo] |= bit;
        }
        planes.val[w] = val;
        planes.flag[w] = flag;
        planes.coin_pos[w] = pos;
        planes.coin_neg[w] = neg;
        planes.byz[w] = byz;
    }
}

void lane_digits_to_counts_portable(const std::uint64_t* digits, unsigned k, Count* out) {
    ADBA_EXPECTS(k <= kMaxLaneDigits);
    std::fill(out, out + kWordBits, Count{0});
    for (unsigned i = 0; i < k; ++i)
        for (std::uint64_t bits = digits[i]; bits != 0; bits &= bits - 1)
            out[std::countr_zero(bits)] |= Count{1} << i;
}

std::uint64_t lanes_greater_portable(const std::int32_t* x, std::int32_t c) {
    std::uint64_t m = 0;
    for (unsigned j = 0; j < kWordBits; ++j) m |= std::uint64_t{x[j] > c} << j;
    return m;
}

std::uint64_t lanes_greater_portable(const std::int32_t* a, const std::int32_t* b) {
    std::uint64_t m = 0;
    for (unsigned j = 0; j < kWordBits; ++j) m |= std::uint64_t{a[j] > b[j]} << j;
    return m;
}

std::uint64_t first_flips_portable(const std::uint64_t* purpose, NodeId v) {
    std::uint64_t ones = 0;
    for (unsigned j = 0; j < kWordBits; ++j)
        ones |= (Xoshiro256::first_output(SeedTree::child_seed(purpose[j], v)) >> 63) << j;
    return ones;
}

void fisher_yates_targets_portable(Xoshiro256* gens, const Count* q, std::uint64_t lanes,
                                   NodeId n, NodeId* targets) {
    for (; lanes != 0; lanes &= lanes - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
        ADBA_EXPECTS(q[j] <= n);
        Xoshiro256 g = gens[j];
        for (Count i = 0; i < q[j]; ++i)
            targets[std::size_t{kWordBits} * i + j] = i + static_cast<NodeId>(g.below(n - i));
        gens[j] = g;
    }
}

#if defined(__x86_64__)
namespace {

/// Eight 64-bit lanes as a GCC vector: inside an AVX-512DQ function its
/// shifts, multiplies and rotates are single zmm instructions.
using U64x8 = std::uint64_t __attribute__((vector_size(64)));

__attribute__((target("avx512f"), always_inline)) inline __m512i as_m512(U64x8 v) {
    return reinterpret_cast<__m512i>(v);
}

/// The lanes of k from b, the others from a.
__attribute__((target("avx512f"), always_inline)) inline U64x8 blend(__mmask8 k, U64x8 a,
                                                                      U64x8 b) {
    return reinterpret_cast<U64x8>(_mm512_mask_mov_epi64(as_m512(a), k, as_m512(b)));
}

/// The products of the low 32 bits of a's and b's lanes (vpmuludq).
__attribute__((target("avx512f"), always_inline)) inline U64x8 mul32(U64x8 a, U64x8 b) {
    return reinterpret_cast<U64x8>(_mm512_maskz_mul_epu32(0xff, as_m512(a), as_m512(b)));
}

/// splitmix64_next's output from an already advanced state, eight lanes.
__attribute__((target("avx512f,avx512dq"), always_inline)) inline U64x8 splitmix_finalize(
    U64x8 z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace

__attribute__((target("avx512f,avx512dq"))) std::uint64_t first_flips_avx512(
    const std::uint64_t* purpose, NodeId v) {
    // child_seed = mix64(purpose ^ v * K); first_output reads the second
    // splitmix word of that seed, s1 = finalize(seed + 2 * golden), and
    // scrambles it as rotl(s1 * 5, 7) * 9.
    constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
    const std::uint64_t index = v * 0xaf251af3b0f025b5ULL;
    std::uint64_t ones = 0;
    for (unsigned q = 0; q < kWordBits / 8; ++q) {
        U64x8 p;
        std::memcpy(&p, purpose + 8 * q, sizeof p);
        const U64x8 seed = splitmix_finalize((p ^ index) + kGolden);
        U64x8 x = splitmix_finalize(seed + 2 * kGolden) * 5;
        x = ((x << 7) | (x >> 57)) * 9;
        ones |= std::uint64_t{_mm512_movepi64_mask(reinterpret_cast<__m512i>(x))} << (8 * q);
    }
    return ones;
}
__attribute__((target("avx512f"))) void fisher_yates_targets_avx512(
    Xoshiro256* gens, const Count* q, std::uint64_t lanes, NodeId n, NodeId* targets) {
    // Each lane's state, word-major, and its number of draws (0 outside
    // `lanes`).
    alignas(64) std::uint64_t s[4][kWordBits] = {};
    alignas(64) std::uint64_t draws[kWordBits] = {};
    Count most = 0;
    for (std::uint64_t l = lanes; l != 0; l &= l - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(l));
        ADBA_EXPECTS(q[j] <= n);
        draws[j] = q[j];
        most = std::max(most, q[j]);
        for (unsigned w = 0; w < 4; ++w) s[w][j] = gens[j].state()[w];
    }

    // Per bound d = n - i, below()'s rejection threshold (none for a power
    // of two) and the Granlund-Montgomery reciprocal (Division by Invariant
    // Integers using Multiplication, fig. 4.1): with l = ceil(log2 d) and
    // m = floor(2^64 (2^l - d) / d) + 1, x / d = (t + ((x - t) >> sh1)) >> sh2
    // for t = mulhi(x, m), sh1 = min(l, 1), sh2 = max(l, 1) - 1, every x.
    constexpr Count kChunk = 32;
    struct Bound {
        std::uint64_t reject_above, m;
        unsigned sh1, sh2;
    };
    Bound bound[kChunk];
    for (Count first = 0; first < most; first += kChunk) {
        const Count count = std::min(kChunk, most - first);
        for (Count c = 0; c < count; ++c) {
            const std::uint64_t d = n - (first + c);  // in [1, 2^32)
            const unsigned l = static_cast<unsigned>(std::bit_width(d - 1));
            const std::uint64_t a = (std::uint64_t{1} << l) - d;  // < d: two 32-bit digits
            const std::uint64_t hi = (a << 32) / d;
            const std::uint64_t lo = (((a << 32) % d) << 32) / d;
            bound[c] = {(d & (d - 1)) == 0 ? ~0ULL : ~0ULL - d, (hi << 32 | lo) + 1,
                        std::min(l, 1u), std::max(l, 1u) - 1};
        }
        for (unsigned g = 0; g < kWordBits / 8; ++g) {
            const __m512i qv = _mm512_load_si512(draws + 8 * g);
            if (_mm512_cmpgt_epu64_mask(qv, _mm512_set1_epi64(first)) == 0) continue;
            U64x8 s0, s1, s2, s3;
            std::memcpy(&s0, s[0] + 8 * g, sizeof s0);
            std::memcpy(&s1, s[1] + 8 * g, sizeof s1);
            std::memcpy(&s2, s[2] + 8 * g, sizeof s2);
            std::memcpy(&s3, s[3] + 8 * g, sizeof s3);
            for (Count c = 0; c < count; ++c) {
                const Count i = first + c;
                const Bound& b = bound[c];
                const __mmask8 k = _mm512_cmpgt_epu64_mask(qv, _mm512_set1_epi64(i));
                // Xoshiro256::operator() in the lanes of k.
                const U64x8 y = s1 * 5;
                const U64x8 x = ((y << 7) | (y >> 57)) * 9;
                const U64x8 n2 = s2 ^ s0;
                const U64x8 n3 = s3 ^ s1;
                s2 = blend(k, s2, n2 ^ (s1 << 17));
                s1 = blend(k, s1, s1 ^ n2);
                s0 = blend(k, s0, s0 ^ n3);
                s3 = blend(k, s3, (n3 << 45) | (n3 >> 19));
                // x % d by the reciprocal. x - (x / d) * d < 2^32, so its low
                // 32 bits, all the target needs, come from those of x / d.
                const U64x8 mlo = U64x8{} + (b.m & 0xffffffff);
                const U64x8 mhi = U64x8{} + (b.m >> 32);
                const U64x8 xh = x >> 32;
                const U64x8 hl = mul32(xh, mlo);
                const U64x8 mid = mul32(x, mhi) + (mul32(x, mlo) >> 32) + (hl & 0xffffffff);
                const U64x8 t = mul32(xh, mhi) + (hl >> 32) + (mid >> 32);
                const U64x8 quotient = (t + ((x - t) >> b.sh1)) >> b.sh2;
                const U64x8 target = x - mul32(quotient, U64x8{} + (n - i)) + i;
                const __mmask8 slow = _mm512_mask_cmpgt_epu64_mask(
                    k, as_m512(x), _mm512_set1_epi64(static_cast<long long>(b.reject_above)));
                NodeId* const row = targets + std::size_t{kWordBits} * i + 8 * g;
                _mm512_mask_cvtepi64_storeu_epi32(row, k & ~slow, as_m512(target));
                if (slow == 0) continue;
                // below()'s rejection loop, lane by lane, from the stepped
                // states.
                std::uint64_t xs[8], st[4][8];
                std::memcpy(xs, &x, sizeof xs);
                std::memcpy(st[0], &s0, sizeof st[0]);
                std::memcpy(st[1], &s1, sizeof st[1]);
                std::memcpy(st[2], &s2, sizeof st[2]);
                std::memcpy(st[3], &s3, sizeof st[3]);
                const std::uint64_t d = n - i;
                const std::uint64_t limit = (~0ULL / d) * d;
                for (unsigned e = 0; e < 8; ++e) {
                    if ((slow >> e & 1) == 0) continue;
                    Xoshiro256 gen = Xoshiro256::from_state({st[0][e], st[1][e], st[2][e], st[3][e]});
                    std::uint64_t v = xs[e];
                    while (v >= limit) v = gen();
                    row[e] = i + static_cast<NodeId>(v % d);
                    for (unsigned w = 0; w < 4; ++w) st[w][e] = gen.state()[w];
                }
                std::memcpy(&s0, st[0], sizeof s0);
                std::memcpy(&s1, st[1], sizeof s1);
                std::memcpy(&s2, st[2], sizeof s2);
                std::memcpy(&s3, st[3], sizeof s3);
            }
            std::memcpy(s[0] + 8 * g, &s0, sizeof s0);
            std::memcpy(s[1] + 8 * g, &s1, sizeof s1);
            std::memcpy(s[2] + 8 * g, &s2, sizeof s2);
            std::memcpy(s[3] + 8 * g, &s3, sizeof s3);
        }
    }
    for (std::uint64_t l = lanes; l != 0; l &= l - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(l));
        gens[j] = Xoshiro256::from_state({s[0][j], s[1][j], s[2][j], s[3][j]});
    }
}
#endif  // __x86_64__

namespace {

#if defined(__x86_64__)
/// 16 lanes per compare, each into its own 16 bits of the mask.
__attribute__((target("avx512f")))
std::uint64_t lanes_greater_avx512(const std::int32_t* a, const std::int32_t* b) {
    std::uint64_t m = 0;
    for (unsigned q = 0; q < 4; ++q)
        m |= std::uint64_t{_mm512_cmpgt_epi32_mask(_mm512_loadu_si512(a + 16 * q),
                                                   _mm512_loadu_si512(b + 16 * q))}
             << (16 * q);
    return m;
}

__attribute__((target("avx512f")))
std::uint64_t lanes_greater_avx512(const std::int32_t* x, std::int32_t c) {
    const __m512i cv = _mm512_set1_epi32(c);
    std::uint64_t m = 0;
    for (unsigned q = 0; q < 4; ++q)
        m |= std::uint64_t{_mm512_cmpgt_epi32_mask(_mm512_loadu_si512(x + 16 * q), cv)}
             << (16 * q);
    return m;
}

/// Four 16-lane accumulators hold the 64 counts; digit i adds 2^i to the
/// lanes its word marks, 16 mask bits per accumulator, with no transpose.
__attribute__((target("avx512f")))
void lane_digits_to_counts_avx512(const std::uint64_t* digits, unsigned k, Count* out) {
    static_assert(sizeof(Count) == 4);
    __m512i c0 = _mm512_setzero_si512();
    __m512i c1 = _mm512_setzero_si512();
    __m512i c2 = _mm512_setzero_si512();
    __m512i c3 = _mm512_setzero_si512();
    for (unsigned i = 0; i < k; ++i) {
        const std::uint64_t d = digits[i];
        const __m512i w = _mm512_set1_epi32(static_cast<int>(1u << i));
        c0 = _mm512_mask_add_epi32(c0, static_cast<__mmask16>(d), c0, w);
        c1 = _mm512_mask_add_epi32(c1, static_cast<__mmask16>(d >> 16), c1, w);
        c2 = _mm512_mask_add_epi32(c2, static_cast<__mmask16>(d >> 32), c2, w);
        c3 = _mm512_mask_add_epi32(c3, static_cast<__mmask16>(d >> 48), c3, w);
    }
    _mm512_storeu_si512(out, c0);
    _mm512_storeu_si512(out + 16, c1);
    _mm512_storeu_si512(out + 32, c2);
    _mm512_storeu_si512(out + 48, c3);
}
#endif  // __x86_64__

using DigitsToCountsFn = void (*)(const std::uint64_t*, unsigned, Count*);
using GreaterConstFn = std::uint64_t (*)(const std::int32_t*, std::int32_t);
using GreaterFn = std::uint64_t (*)(const std::int32_t*, const std::int32_t*);
using FirstFlipsFn = std::uint64_t (*)(const std::uint64_t*, NodeId);
using TargetsFn = void (*)(Xoshiro256*, const Count*, std::uint64_t, NodeId, NodeId*);

// Resolved once at load: the build carries no -march, so the AVX-512 forms
// are compiled behind a target attribute and chosen only when the host CPU
// reports the feature.
#if defined(__x86_64__)
const bool g_avx512f = __builtin_cpu_supports("avx512f") != 0;

template <typename Fn>
Fn resolve(Fn avx512, Fn portable) {
    return g_avx512f ? avx512 : portable;
}
const DigitsToCountsFn g_digits_to_counts =
    resolve<DigitsToCountsFn>(&lane_digits_to_counts_avx512, &lane_digits_to_counts_portable);
const GreaterConstFn g_greater_const =
    resolve<GreaterConstFn>(&lanes_greater_avx512, &lanes_greater_portable);
const GreaterFn g_greater = resolve<GreaterFn>(&lanes_greater_avx512, &lanes_greater_portable);
const bool g_avx512dq = g_avx512f && __builtin_cpu_supports("avx512dq") != 0;
const FirstFlipsFn g_first_flips = g_avx512dq ? &first_flips_avx512 : &first_flips_portable;
const TargetsFn g_targets =
    resolve<TargetsFn>(&fisher_yates_targets_avx512, &fisher_yates_targets_portable);
#else
const DigitsToCountsFn g_digits_to_counts = &lane_digits_to_counts_portable;
const GreaterConstFn g_greater_const = &lanes_greater_portable;
const GreaterFn g_greater = &lanes_greater_portable;
const FirstFlipsFn g_first_flips = &first_flips_portable;
const TargetsFn g_targets = &fisher_yates_targets_portable;
#endif

}  // namespace

#if defined(__x86_64__)
bool has_avx512f() { return g_avx512f; }
bool has_avx512dq() { return g_avx512dq; }
#endif

void lane_digits_to_counts(const std::uint64_t* digits, unsigned k, Count* out) {
    g_digits_to_counts(digits, k, out);
}

std::uint64_t lanes_greater(const std::int32_t* x, std::int32_t c) {
    return g_greater_const(x, c);
}

std::uint64_t lanes_greater(const std::int32_t* a, const std::int32_t* b) {
    return g_greater(a, b);
}

std::uint64_t first_flips(const std::uint64_t* purpose, NodeId v) {
    return g_first_flips(purpose, v);
}

void fisher_yates_targets(Xoshiro256* gens, const Count* q, std::uint64_t lanes, NodeId n,
                          NodeId* targets) {
    g_targets(gens, q, lanes, n, targets);
}

}  // namespace adba::net::kern
