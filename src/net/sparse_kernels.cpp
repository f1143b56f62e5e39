#include "net/sparse_kernels.hpp"

#if defined(__x86_64__)
// GCC 12's avx512 headers trip -Wmaybe-uninitialized on their own
// _mm512_undefined_* helpers; the kernel below never reads uninitialized
// lanes (every gather is masked with a zero source).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#endif

namespace adba::net::kern {
namespace {

/// Spreads the low 32 bits of x onto the even bit positions of a 64-bit
/// word (the standard Morton expansion, 5 mask-shift rounds).
inline std::uint64_t spread_even(std::uint64_t x) {
    x &= 0xFFFFFFFFULL;
    x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
    x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
    x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
    x = (x | (x << 2)) & 0x3333333333333333ULL;
    x = (x | (x << 1)) & 0x5555555555555555ULL;
    return x;
}

/// Interleaves two 32-sender bit halves into one code word: sender j's
/// code is lo bit at position 2j, hi bit at 2j+1.
inline std::uint64_t interleave(std::uint64_t lo, std::uint64_t hi) {
    return spread_even(lo) | (spread_even(hi) << 1);
}

/// Counts one derived block against the code plane: one gathered 2-bit
/// read per lane. b0/b1 are the code's two bits — val-0 lanes carry b0
/// alone, val-1 lanes b1 alone, Byzantine lanes both — so the block sums
/// Sigma b0 / Sigma b1 and subtracts the Byzantine lane count from each
/// (cheaper than per-lane andn), returning the Byzantine mask for the
/// caller's exact walk.
std::uint64_t code_count_block(const std::uint64_t* code, const NodeId* idx,
                               NodeId k, std::array<Count, 2>& c) {
    std::uint64_t s0 = 0;
    std::uint64_t s1 = 0;
    std::uint64_t byz_mask = 0;
    for (NodeId j = 0; j < k; ++j) {
        const NodeId u = idx[j];
        const std::uint64_t cw = code[u / 32] >> (u % 32 * 2);
        const std::uint64_t b0 = cw & 1u;
        const std::uint64_t b1 = cw >> 1 & 1u;
        s0 += b0;
        s1 += b1;
        byz_mask |= (b0 & b1) << j;
    }
    const Count nb = static_cast<Count>(__builtin_popcountll(byz_mask));
    c[0] += static_cast<Count>(s0) - nb;
    c[1] += static_cast<Count>(s1) - nb;
    return byz_mask;
}

/// Portable counter-stream block: the derivation of sparse_fill_indices
/// fused with code_count_block (with a prefetch between derive and count).
std::uint64_t counter_block_scalar(std::uint64_t h, NodeId n, NodeId i0,
                                   NodeId k, const std::uint64_t* code,
                                   NodeId* idx, std::array<Count, 2>& c) {
    for (NodeId j = 0; j < k; ++j) {
        const NodeId u = sparse_reduce(sparse_mix(h ^ (i0 + j)), n);
        idx[j] = u;
        __builtin_prefetch(&code[u / 32]);
    }
    return code_count_block(code, idx, k, c);
}

#if defined(__x86_64__)
/// AVX-512 counter-stream block in three passes over the <=64 lanes:
/// (1) derive — 8 independent splitmix64 lanes per iteration (vpmullq
/// does the finalizer's two multiplies 8-wide) and the Lemire reduction
/// as 32x32->64 half products (u = (x_hi*n + (x_lo*n >> 32)) >> 32 —
/// exactly (x*n) >> 64 for 32-bit n), stored to idx; (2) prefetch every
/// sampled code line, so the L2 latency of a large-n plane overlaps the
/// remaining derivation instead of serializing the gathers (this is what
/// keeps ns/probe flat from L1-resident n to 2^20); (3) count — ONE
/// masked vpgatherqq per 8 probes into the 2-bit code plane. Produces
/// bit-identical integers to counter_block_scalar — dispatch is never a
/// stream change.
__attribute__((target("avx512f,avx512dq,avx512vl")))
std::uint64_t counter_block_avx512(std::uint64_t h, NodeId n, NodeId i0,
                                   NodeId k, const std::uint64_t* code,
                                   NodeId* idx, std::array<Count, 2>& c) {
    const __m512i hv = _mm512_set1_epi64(static_cast<long long>(h));
    const __m512i nv = _mm512_set1_epi64(static_cast<long long>(n));
    const __m512i add = _mm512_set1_epi64(
        static_cast<long long>(0x9e3779b97f4a7c15ULL));
    const __m512i mul1 = _mm512_set1_epi64(
        static_cast<long long>(0xbf58476d1ce4e5b9ULL));
    const __m512i mul2 = _mm512_set1_epi64(
        static_cast<long long>(0x94d049bb133111ebULL));
    const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    for (NodeId j = 0; j < k; j += 8) {
        const NodeId rem = k - j;
        const __mmask8 m =
            rem >= 8 ? static_cast<__mmask8>(0xFF)
                     : static_cast<__mmask8>((1u << rem) - 1u);
        // x = sparse_mix(h ^ (i0 + j + lane))
        __m512i x = _mm512_add_epi64(
            _mm512_set1_epi64(static_cast<long long>(
                static_cast<std::uint64_t>(i0 + j))),
            lane);
        x = _mm512_xor_si512(hv, x);
        x = _mm512_add_epi64(x, add);
        x = _mm512_mullo_epi64(
            _mm512_xor_si512(x, _mm512_srli_epi64(x, 30)), mul1);
        x = _mm512_mullo_epi64(
            _mm512_xor_si512(x, _mm512_srli_epi64(x, 27)), mul2);
        x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
        // u = sparse_reduce(x, n)
        const __m512i lo = _mm512_mul_epu32(x, nv);
        const __m512i hi = _mm512_mul_epu32(_mm512_srli_epi64(x, 32), nv);
        const __m512i u = _mm512_srli_epi64(
            _mm512_add_epi64(hi, _mm512_srli_epi64(lo, 32)), 32);
        _mm512_mask_cvtepi64_storeu_epi32(idx + j, m, u);
    }
    for (NodeId j = 0; j < k; ++j) __builtin_prefetch(&code[idx[j] / 32]);
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i three = _mm512_set1_epi64(3);
    const __m512i thirty_one = _mm512_set1_epi64(31);
    __m512i s0 = _mm512_setzero_si512();
    __m512i s1 = _mm512_setzero_si512();
    std::uint64_t byz_mask = 0;
    for (NodeId j = 0; j < k; j += 8) {
        const NodeId rem = k - j;
        const __mmask8 m =
            rem >= 8 ? static_cast<__mmask8>(0xFF)
                     : static_cast<__mmask8>((1u << rem) - 1u);
        const __m512i u = _mm512_cvtepu32_epi64(
            _mm256_maskz_loadu_epi32(m, idx + j));
        // cw = code[u / 32] >> (u % 32 * 2); inactive lanes gather 0 (skip)
        __m512i cw = _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), m, _mm512_srli_epi64(u, 5), code, 8);
        cw = _mm512_srlv_epi64(
            cw, _mm512_slli_epi64(_mm512_and_si512(u, thirty_one), 1));
        s0 = _mm512_add_epi64(s0, _mm512_and_si512(cw, one));
        s1 = _mm512_add_epi64(
            s1, _mm512_and_si512(_mm512_srli_epi64(cw, 1), one));
        const __mmask8 bm = _mm512_cmpeq_epi64_mask(
            _mm512_and_si512(cw, three), three);
        byz_mask |= static_cast<std::uint64_t>(bm) << j;
    }
    const Count nb = static_cast<Count>(__builtin_popcountll(byz_mask));
    c[0] += static_cast<Count>(_mm512_reduce_add_epi64(s0)) - nb;
    c[1] += static_cast<Count>(_mm512_reduce_add_epi64(s1)) - nb;
    return byz_mask;
}
#endif  // __x86_64__

using CounterBlockFn = std::uint64_t (*)(std::uint64_t, NodeId, NodeId,
                                         NodeId, const std::uint64_t*,
                                         NodeId*, std::array<Count, 2>&);

CounterBlockFn resolve_counter_block() {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx512f") != 0 &&
        __builtin_cpu_supports("avx512dq") != 0 &&
        __builtin_cpu_supports("avx512vl") != 0)
        return &counter_block_avx512;
#endif
    return &counter_block_scalar;
}

/// Resolved once at load: the build carries no -march, so the AVX-512
/// kernel is compiled behind a target attribute and chosen only when the
/// host CPU reports the features.
const CounterBlockFn g_counter_block = resolve_counter_block();

}  // namespace

std::uint64_t sparse_probe_block(std::uint64_t h, NodeId n, NodeId i0, NodeId k,
                                 const std::uint64_t* code, NodeId* idx,
                                 std::array<Count, 2>& c) {
    return g_counter_block(h, n, i0, k, code, idx, c);
}

void sparse_build_code_plane(const SparseProbeCtx& ctx, std::size_t words,
                             std::uint64_t* code) {
    // Per 64-sender source word: classify every sender once, then Morton-
    // interleave the two classification bits into two 32-sender code
    // words. Codes: 1 = count val 0, 2 = count val 1, 3 = Byzantine,
    // 0 = skip — so lo = val0 | byz, hi = val1 | byz. The attribute
    // planes are unmasked (tally_kernels.hpp): the match bit gates them
    // here, and the byz bits (which the pack loop sets regardless of
    // bucket) override via code 3, so stale val/flag bits of silent or
    // corrupted senders never reach a count.
    for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t byz = ctx.byz[w];
        std::uint64_t ok = 0;
        std::uint64_t val = 0;
        if (ctx.match != nullptr) {
            ok = ctx.match[w] & ~byz;
            if (ctx.require_flag) ok &= ctx.flag[w];
            val = ctx.val[w];
        }
        const std::uint64_t lo = (ok & ~val) | byz;
        const std::uint64_t hi = (ok & val) | byz;
        code[2 * w] = interleave(lo & 0xFFFFFFFFULL, hi & 0xFFFFFFFFULL);
        code[2 * w + 1] = interleave(lo >> 32, hi >> 32);
    }
}

void sparse_fill_indices(std::uint64_t h, NodeId n, NodeId i0, NodeId k, NodeId* out) {
    // Counter mode (FROZEN). Lanes are independent — mix(h ^ i) has no
    // loop-carried dependency, so the block's ~3-multiply mix latencies
    // overlap — and the Lemire mulhi replaces the division. h is the MIXED
    // per-receiver base (sparse_receiver_base): XORing the counter into the
    // raw base would let a low-bit seed/receiver change merely permute the
    // lane set instead of redrawing it. The counter enters the mix whole;
    // splitmix64's finalizer avalanches adjacent counters into decorrelated
    // full-width hashes (it is exactly the splitmix64 generator's shape:
    // counter in, hash out).
    for (NodeId j = 0; j < k; ++j) out[j] = sparse_reduce(sparse_mix(h ^ (i0 + j)), n);
}

}  // namespace adba::net::kern

#if defined(__x86_64__)
#pragma GCC diagnostic pop
#endif
