// Word-parallel Rabin skeleton over the fused trial plane: 64 independent
// trials of the two-round phase machine per plane word, bit j = trial j.
//
// Semantics are EXACTLY core/skeleton_batch.hpp's SkeletonBatch, lane by
// lane — same round step (core::SkeletonStep, over 64-lane words here and
// one node's byte there), same per-(node, lane) randomness draws in the
// same order — so lane j of a fused block is bit-identical to the scalar
// trial seeded with lane j's SeedTree. The trick that keeps receive
// word-parallel under Byzantine pressure: supported adversaries deliver
// piecewise-constant split_as patterns, so every lane's per-receiver counts
// are constant between the boundaries of all lanes' rows
// (net::SegmentFold), and the threshold masks are kern::lanes_greater
// compares taken once per segment for all 64 lanes.
//
// The coin is the skeleton's CoinSpec. Committee sums come from the
// fold (honest flips plus Byzantine coins); a coin-sign row lets a lane's
// coin be the receiver's sign-plane bit. Dealer coins are the pure coin
// function under each lane's own DealerCoin seed, drawn once per beat for
// the lanes some receiver sends to case 3; Local coins draw from the
// focused (node, lane) stream exactly where the scalar case-3 path would.
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
    const std::uint64_t* value_plane() const override { return planes_.val.data(); }
    const std::uint64_t* decided_plane() const override { return planes_.decided.data(); }
    const std::uint64_t* halted_plane() const override { return planes_.halted.data(); }

private:
    SkeletonConfig cfg_;
    CoinSpec coin_;
    SkeletonPlanes<std::uint64_t> planes_;  ///< bit j of a word: lane j
    /// The node range whose coin planes the last send wrote (empty when it
    /// wrote none); the next send clears it.
    NodeId coin_first_ = 0;
    NodeId coin_last_ = 0;
    /// Per-(node, lane) protocol streams: committee flips draw statelessly
    /// from their purposes, and only the Local coin's case-3 draws keep a
    /// table of cells.
    net::LaneStreams streams_;
    std::uint64_t dealer_seed_[net::kFusedLanes] = {};

    /// Committee coin: node v's phase-p flips, bit j set when lane j's flip
    /// is +1, for the lanes of `drawn` (other bits are arbitrary), each
    /// lane's CoinSpec::committee_flip. A first visit reads output 0's top
    /// bit in all 64 lanes, with no branch on a lane or its coin
    /// (net::kern::first_flips, eight lanes per vector where the CPU can); a
    /// revisit steps each drawn lane's stream.
    std::uint64_t committee_flips(NodeId v, Phase p, std::uint64_t drawn) const {
        const std::uint64_t* purpose = streams_.purposes();
        if (p < coin_.schedule.num_blocks) return net::kern::first_flips(purpose, v);
        std::uint64_t ones = 0;
        for (; drawn != 0; drawn &= drawn - 1) {
            const unsigned j = static_cast<unsigned>(std::countr_zero(drawn));
            if (coin_.committee_flip(purpose[j], v, p) > 0) ones |= std::uint64_t{1} << j;
        }
        return ones;
    }

    net::SegmentFold fold_;  ///< recycled receive scratch
};

}  // namespace adba::core
