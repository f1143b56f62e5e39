// Word-parallel Rabin skeleton over the fused trial plane: 64 independent
// trials of the two-round phase machine per plane word, bit j = trial j.
//
// Semantics are EXACTLY core/skeleton_batch.hpp's SkeletonBatch, lane by
// lane — same thresholds, same finish-flush termination, same per-(node,
// lane) randomness draws in the same order — so lane j of a fused block is
// bit-identical to the scalar trial seeded with lane j's SeedTree. The trick
// that keeps receive word-parallel under Byzantine pressure: supported
// adversaries deliver piecewise-constant split_as patterns, so every lane's
// per-receiver counts are constant between the boundaries of all lanes'
// rows (net::SegmentFold), and each receive rule is mask algebra over
// kern::lanes_greater compares, decided once per segment for all 64 lanes:
// round 1 is dec = Q0|Q1, val1 = Q1; round 2 is dec = S0|S1, fin = Q0|Q1,
// val1 = S1, case3 = active & ~dec (Q = n-t quorum, S = t+1 support).
//
// The coin is the skeleton's CoinSpec. Committee sums come from the
// fold (honest flips plus Byzantine coins); a coin-sign row splits case 3
// into two masks, one adopting 1 and one adopting the receiver's sign-plane
// bit. Dealer coins are the pure coin function under each lane's own
// DealerCoin seed, drawn once per beat for the lanes some receiver sends to
// case 3; Local coins draw from the focused (node, lane) stream exactly
// where the scalar case-3 path would.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "core/skeleton.hpp"
#include "net/fused_plane.hpp"
#include "rand/rng.hpp"
#include "rand/seed_tree.hpp"

namespace adba::core {

/// 64-lane Rabin skeleton: one object, n nodes x 64 trials, bit planes.
class FusedSkeleton final : public net::FusedProtocol {
public:
    FusedSkeleton(const SkeletonConfig& cfg, CoinSpec coin);

    NodeId n() const override { return cfg_.n; }
    void rearm(const std::uint64_t* input_plane, const SeedTree* lane_seeds) override;
    void send_round(Round r, net::FusedFrame& frame) override;
    void receive_round(Round r, const net::FusedFrame& frame) override;
    const std::uint64_t* value_plane() const override { return val_.data(); }
    const std::uint64_t* decided_plane() const override { return decided_.data(); }
    const std::uint64_t* halted_plane() const override { return halted_.data(); }

private:
    SkeletonConfig cfg_;
    CoinSpec coin_;
    std::vector<std::uint64_t> val_;
    std::vector<std::uint64_t> decided_;
    std::vector<std::uint64_t> flushing_;
    std::vector<std::uint64_t> halted_;
    /// The node range whose coin planes the last send wrote (empty when it
    /// wrote none); the next send clears it.
    NodeId coin_first_ = 0;
    NodeId coin_last_ = 0;
    /// Local coin only: per-(node, lane) protocol streams, lane-major:
    /// rng_[v * 64 + j] is lane j's stream (NodeProtocol, v) — private per
    /// cell, so fused iteration order never perturbs another cell's draws.
    /// Streams are constructed LAZILY at the first draw (rng_live_[v] bit
    /// j); the stream is a pure function of (lane master, v), whenever it
    /// is built.
    std::vector<Xoshiro256> rng_;
    std::vector<std::uint64_t> rng_live_;
    /// Lane j's SeedTree purpose hash of NodeProtocol: node v's stream is
    /// Xoshiro256(SeedTree::child_seed(lane_purpose_[j], v)).
    std::uint64_t lane_purpose_[net::kFusedLanes] = {};
    std::uint64_t dealer_seed_[net::kFusedLanes] = {};

    /// Committee coin: node v's phase-p flips, bit j set when lane j's flip
    /// is +1, for the lanes of `drawn` (other bits are arbitrary). Drawn
    /// without state: honesty and liveness are monotone, so a member live
    /// now drew once at every earlier visit of its committee, and this flip
    /// is output number p / num_blocks of its (NodeProtocol, v) stream. A
    /// first visit reads output 0's top bit in all 64 lanes, with no branch
    /// on a lane or its coin (net::kern::first_flips, eight lanes per
    /// vector where the CPU can); a revisit steps each drawn lane's stream.
    std::uint64_t committee_flips(NodeId v, Phase p, std::uint64_t drawn) const {
        if (p < coin_.schedule.num_blocks) return net::kern::first_flips(lane_purpose_, v);
        std::uint64_t ones = 0;
        for (; drawn != 0; drawn &= drawn - 1) {
            const unsigned j = static_cast<unsigned>(std::countr_zero(drawn));
            Xoshiro256 g(SeedTree::child_seed(lane_purpose_[j], v));
            for (Phase visit = p / coin_.schedule.num_blocks; visit > 0; --visit) g();
            if (g.sign() > 0) ones |= std::uint64_t{1} << j;
        }
        return ones;
    }

    Xoshiro256& cell_rng(NodeId v, unsigned j) {
        const std::uint64_t bit = std::uint64_t{1} << j;
        Xoshiro256& g = rng_[static_cast<std::size_t>(v) * net::kFusedLanes + j];
        if ((rng_live_[v] & bit) == 0) {
            g = Xoshiro256(SeedTree::child_seed(lane_purpose_[j], v));
            rng_live_[v] |= bit;
        }
        return g;
    }

    net::SegmentFold fold_;  ///< recycled receive scratch
};

}  // namespace adba::core
