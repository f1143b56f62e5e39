// Sparse delivery plane: sampled per-receiver sender subsets over the
// round's bit-packed planes — the fifth data-plane layer (see README.md).
//
// The flat receive path answers every receiver's tally query exactly, from
// the full sender population. King-Saia (arXiv:1002.4561) shows Õ(√n) bits
// per processor suffice against an adaptive adversary, and the paper's own
// committees are polylog(n)-sized: a receiver does not need to hear all n
// senders to estimate a quorum. SparsePlane makes that physical. In sparse
// mode (EngineConfig::plane == PlaneMode::Sparse, scenario key
// `plane=sparse`) each live receiver v probes only `degree` sampled sender
// edges per round and scales the sampled counts to population estimates;
// the committee coin and the Phase-King king probe stay exact (those
// senders are few enough to hear in full — the King-Saia shape).
//
// What a sampled edge (u -> v) reads:
//  * honest present u — the round's word-packed tally planes: the
//    (kind, phase) bucket match bit, the val bit, the flag bit. Three bit
//    planes of n/8 bytes each instead of 16-byte Message cells, so the
//    whole read set of a million-node round is a few hundred kilobytes.
//    The engine therefore builds the packed tally for every sparse round.
//  * Byzantine u — RoundBuffer::from(v, u): the O(1) pattern-row probe, so
//    adversarial equivocation (split_as / broadcast_as) gates sampled
//    edges exactly as it gates flat ones. Membership itself is a single
//    bit of the packed honesty plane (PackedPlanes::byz).
//
// Sampling is index-derived and replayable: draw i of receiver v in round
// r depends only on (sparse_seed, r, v, i) — never on threads, shards, or
// visit order — so sparse runs obey the repository's bit-exactness
// discipline (any thread/shard count, same integers). The derivation is
// frozen (net/sparse_kernels.hpp): recorded experiments replay only under
// it.
//
// The probe loop itself is batched (sparse_kernels.hpp): query() folds the
// round's honesty/match/val/flag planes into a per-query 2-bit code plane,
// indices derive in 64-lane blocks, honest lanes count branchlessly from
// ONE gathered code read each, and only Byzantine-sampled lanes take the
// exact pattern-row walk.
//
// Oracle relationship: with degree >= n the plane switches to a dense
// exact walk over ALL senders — an independent code path that must produce
// the very integers the flat tally produces, which pins sparse == flat
// bit-identically across the registry cross product at small n. Below n,
// counts become estimates est = round(cnt * n / degree) and protocol
// lemmas that are theorems under exact counts become approximations —
// batches run their relaxed (assert-free) threshold forms there.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "net/round_buffer.hpp"
#include "net/sparse_kernels.hpp"
#include "support/types.hpp"

namespace adba::net {

/// Sampled senders per receiver per round when the scenario does not pin
/// `sample_degree`. Constant-degree is the cheapest useful default; for
/// fidelity at large n choose degree = Θ(√n) (King-Saia) explicitly.
inline constexpr NodeId kDefaultSampleDegree = 64;

class SparsePlane {
public:
    /// Re-arms the plane for a trial. `requested_degree` 0 selects
    /// kDefaultSampleDegree; any request >= n selects the dense exact walk.
    void reset(NodeId n, Count requested_degree, std::uint64_t seed);

    /// Binds the plane to the current round's delivery state. The tally
    /// must have been rebuilt in packed mode for this round.
    void begin_round(Round r, const RoundBuffer& buf, const RoundTally& tally);

    NodeId n() const { return n_; }
    /// Edges probed per receiver per round (== n in dense mode).
    NodeId degree() const { return degree_; }
    /// True when every sender is observed and counts are exact (no scaling).
    bool dense() const { return dense_; }

    /// Heap bytes owned by the plane itself. The design owns NO per-edge or
    /// per-receiver storage — samples are re-derived from the seed (the
    /// batch kernels use a fixed 64-lane stack buffer). The only allocation
    /// is the per-query 2-bit code plane: 2 bits per SENDER (O(n/4) bytes,
    /// sub-dense mode only), independent of degree and receiver count; the
    /// O(n·degree) fuzz bound in tests guards against a future regression
    /// toward materialized per-edge sample tables.
    std::size_t memory_bytes() const {
        return code_.capacity() * sizeof(std::uint64_t);
    }

    /// One round's hoisted query handle: the (kind, phase) bucket's match
    /// plane plus the shared attribute planes, resolved once per beat
    /// (receive_sparse_prepare) so the per-receiver walk re-resolves
    /// nothing — no tally lookup, no precondition test, no plane pointer
    /// chase per receiver. In sub-dense mode query() also folds those
    /// planes into the plane-owned 2-bit code plane (`code`, one gathered
    /// read per probe — sparse_kernels.hpp); the buffer is shared, so AT
    /// MOST ONE Query may be live at a time: calling query() again
    /// invalidates every earlier handle. Every sparse batch already hoists
    /// exactly one query per beat, which is the shape this contract pins.
    /// `match == nullptr` means no honest broadcast landed in the bucket
    /// this round; Byzantine edges still count.
    struct Query {
        MsgKind kind{};
        Phase phase = 0;
        bool require_flag = false;
        const std::uint64_t* match = nullptr;
        const std::uint64_t* val = nullptr;
        const std::uint64_t* flag = nullptr;
        const std::uint64_t* code = nullptr;  ///< sub-dense only
    };
    Query query(MsgKind kind, Phase phase, bool require_flag) const;

    /// Raw sampled (or dense-exact) counts by val & 1 over receiver v's
    /// sender edges for this round.
    std::array<Count, 2> raw_counts(const Query& q, NodeId receiver) const;

    /// Population estimates: raw counts in dense mode, otherwise
    /// scale(raw) per value — the numbers a batch feeds its unchanged
    /// quorum thresholds.
    std::array<Count, 2> val_estimates(const Query& q, NodeId receiver) const;

    /// round(sampled * n / degree), the unbiased-to-rounding estimator.
    Count scale(Count sampled) const {
        if (dense_) return sampled;
        return static_cast<Count>((static_cast<std::uint64_t>(sampled) * n_ +
                                   degree_ / 2) /
                                  degree_);
    }

private:
    void probe(const Query& q, NodeId receiver, NodeId sender,
               std::array<Count, 2>& c) const;

    NodeId n_ = 0;
    NodeId degree_ = 0;
    bool dense_ = false;
    std::uint64_t seed_ = 0;
    Round round_ = 0;
    const RoundBuffer* buf_ = nullptr;
    const RoundTally* tally_ = nullptr;
    const std::uint8_t* state_ = nullptr;  ///< buf_'s presence/honesty plane
    const std::uint64_t* byz_ = nullptr;   ///< packed honesty word plane
    /// Per-query code plane backing store (2 words out per source word in,
    /// sub-dense only). Owned by the plane, rebuilt by query() — hence the
    /// single-live-Query contract documented above. mutable because
    /// query() is morally const: it publishes round state, mutating only
    /// this scratch buffer.
    mutable std::vector<std::uint64_t> code_;
};

}  // namespace adba::net
