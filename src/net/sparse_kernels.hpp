// Batched sparse probe kernels — the sixth data-plane layer (README.md).
//
// SparsePlane's job is answering "how many of receiver v's sampled senders
// broadcast (kind, phase, val)" n times per round. A scalar per-probe loop
// pays a dependent hash per draw, a 64-bit `% n` division, and a random
// byte load from the n-byte state plane per probe. This header is the
// sparse analogue of tally_kernels.hpp: the same counts, derived and
// counted in independent 64-probe blocks at memory bandwidth.
//
//  * Counter-based derivation (SparseStream::Counter, the one stream). Draw
//    i of receiver v in round r is mix(base ^ i) with
//    base = mix(seed ^ ((r << 32) | v)) — every lane is independent, so the
//    64 mixes of a block pipeline instead of serializing. The inner mix of
//    base is load-bearing: without it a low-bit seed or receiver change
//    would merely permute the counter lanes (seed^1 ^ i = seed ^ (i^1))
//    instead of redrawing them. The modulo becomes a Lemire multiply-shift
//    reduction (one mulhi), which is uniform enough for sampling
//    (bias <= n / 2^64) and is pinned by a chi-square test at
//    non-power-of-two n. The derivation is frozen: recorded sparse
//    experiments replay only under it (tests pin its integers).
//  * One load per probe: the per-query CODE PLANE. A receiver's probe of
//    sender u needs exactly four facts — Byzantine? in the bucket? flag
//    ok? which val? — which collapse to 2 bits per sender once the query
//    is fixed: 0 = not counted, 1 = count val 0, 2 = count val 1,
//    3 = Byzantine (take the exact pattern-row walk). query() folds the
//    packed honesty word plane (PackedPlanes::byz, 8x denser than the
//    uint8_t state plane) and the bucket match/val/flag planes into one
//    interleaved 2-bit plane, O(n/64) word ops once per beat; the
//    per-probe hot loop then makes a SINGLE gathered load (n=2^20 keeps
//    the whole plane in 256 KiB of L2) with software prefetch across the
//    block, and only the (rare) Byzantine lanes leave it, via a caller
//    callback.
//
// Determinism: counts depend only on (seed, round, receiver, i) and the
// round's planes — never on block size, threads, or shards.
#pragma once

#include <array>
#include <cstdint>

#include "support/types.hpp"

namespace adba::net {

/// The one sample stream (file comment). Written only by perfbench
/// (EngineConfig::sparse_stream, Scenario::sparse_stream); src/ reads none.
enum class SparseStream : std::uint8_t {
    Counter,  ///< independent mix(base ^ i) lanes, Lemire reduction
};

namespace kern {

/// splitmix64 finalizer. FROZEN: the sample stream is built from it.
inline std::uint64_t sparse_mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Mixed per-(seed, round, receiver) stream base. Round and receiver pack
/// into one 64-bit lane, so every pair owns a distinct stream regardless of
/// execution order; the mix decouples low seed/receiver bits from the
/// counter lanes.
inline std::uint64_t sparse_receiver_base(std::uint64_t seed, Round round,
                                          NodeId receiver) {
    return sparse_mix(seed ^ ((static_cast<std::uint64_t>(round) << 32) | receiver));
}

/// Lemire multiply-shift reduction of a full-width hash onto [0, n):
/// high 64 bits of h * n. One mulhi instead of a 64-bit division.
inline NodeId sparse_reduce(std::uint64_t h, NodeId n) {
    return static_cast<NodeId>(
        (static_cast<unsigned __int128>(h) * n) >> 64);
}

/// Probes per derivation/count block. One block's Byzantine lanes fit a
/// uint64 mask, and 64 indices of stack buffer keep the kernel itself
/// allocation-free (the plane's only heap is the O(n/4)-byte code plane).
inline constexpr NodeId kSparseBlock = 64;

/// Fills out[0..k) with draws i0..i0+k-1 of the receiver's round stream,
/// `h` = sparse_receiver_base(). The portable derivation the probe
/// kernels are pinned against. k <= kSparseBlock.
void sparse_fill_indices(std::uint64_t h, NodeId n, NodeId i0, NodeId k, NodeId* out);

/// Per-sender probe codes, 2 bits each, 32 senders per word (LSB-first:
/// sender u occupies bits [2*(u%32), 2*(u%32)+1] of word u/32).
enum : std::uint64_t {
    kSparseCodeSkip = 0,   ///< silent, out-of-bucket, or flag-filtered
    kSparseCodeVal0 = 1,   ///< honest, in bucket, val == 0
    kSparseCodeVal1 = 2,   ///< honest, in bucket, val == 1
    kSparseCodeByz = 3,    ///< Byzantine sender: exact pattern-row walk
};

/// One query's resolved plane inputs, hoisted once per beat
/// (SparsePlane::query): the build inputs of the 2-bit code plane.
struct SparseProbeCtx {
    const std::uint64_t* byz = nullptr;    ///< honesty word plane (required)
    const std::uint64_t* match = nullptr;  ///< bucket membership (null = none)
    const std::uint64_t* val = nullptr;    ///< packed val bits (unmasked)
    const std::uint64_t* flag = nullptr;   ///< packed flag bits (unmasked)
    bool require_flag = false;
};

/// Folds the query's bit planes into the interleaved 2-bit code plane:
/// reads `words` source words (64 senders each), writes 2*words code
/// words. O(n/64) word ops once per beat — amortized to nothing against
/// the n*degree probes that read it.
void sparse_build_code_plane(const SparseProbeCtx& ctx, std::size_t words,
                             std::uint64_t* code);

/// One <= kSparseBlock-probe block of the per-receiver walk: derives draws
/// i0..i0+k-1 into idx[0..k), counts honest lanes from the code plane into
/// c, and returns the Byzantine lane mask (bit j set => idx[j] sampled a
/// Byzantine sender; the caller walks those exactly); `h` is the
/// receiver's base. It dispatches once at load time to an AVX-512 kernel
/// when the CPU has one (8 splitmix64 lanes per vpmullq pair, Lemire via
/// 32x32 halves, one vpgatherqq per 8 probes); the scalar fallback
/// computes the identical integers — dispatch is a speed choice, never a
/// stream change.
std::uint64_t sparse_probe_block(std::uint64_t h, NodeId n, NodeId i0, NodeId k,
                                 const std::uint64_t* code, NodeId* idx,
                                 std::array<Count, 2>& c);

/// Batched sampled counts by val for one receiver: derives `degree` indices
/// in kSparseBlock chunks, counts lanes branchlessly with one gathered
/// 2-bit code read per probe (sparse_probe_block), and hands each
/// Byzantine-sampled sender to `byz_probe(sender)` (the exact pattern-row
/// walk; it must bump the caller's counters itself — almost always empty:
/// Byzantine sample density q/n is tiny in the regimes the plane targets).
/// Count increments commute, so the result is a pure function of the probe
/// multiset: a per-probe loop over the same draws gives the same counts.
template <typename ByzProbe>
void sparse_count_receiver(std::uint64_t seed, Round round, NodeId receiver, NodeId n,
                           NodeId degree, const std::uint64_t* code,
                           std::array<Count, 2>& c, ByzProbe&& byz_probe) {
    const std::uint64_t h = sparse_receiver_base(seed, round, receiver);
    NodeId idx[kSparseBlock];
    for (NodeId i0 = 0; i0 < degree; i0 += kSparseBlock) {
        const NodeId k = degree - i0 < kSparseBlock ? degree - i0 : kSparseBlock;
        std::uint64_t byz_mask = sparse_probe_block(h, n, i0, k, code, idx, c);
        while (byz_mask != 0) {
            const unsigned j = static_cast<unsigned>(__builtin_ctzll(byz_mask));
            byz_probe(idx[j]);
            byz_mask &= byz_mask - 1;
        }
    }
}

}  // namespace kern
}  // namespace adba::net
