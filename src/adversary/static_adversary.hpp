// Static Byzantine adversary: chooses its corrupt set before the execution
// (the weaker model of Goldwasser-Pavlov-Vaikuntanathan etc., paper §1).
//
// Used as an ablation point in E8: the gap between static and adaptive
// measured rounds is the paper's whole motivation. Registered twice: as
// `static` and as `split-vote` (the protocol-agnostic threshold-straddling
// equivocation attack). It corrupts its set in round 0, and every round
// every member sends the same split row, a function of (round, n) alone.
//
// Block-level form (net::Adversary::block_form): on the fused plane the
// first lane's object plays all 64 lanes. In round 0 it folds every lane's
// set into one lane mask per node and corrupts by it
// (FusedLaneControl::corrupt_lanes), which counts each lane's set size; each
// round it sends its row once for every lane as the frame's shared row,
// weighted per lane by that size (share_row). act() is its oracle through
// the per-lane bridge.
#pragma once

#include <cstdint>
#include <vector>

#include "net/engine.hpp"
#include "rand/rng.hpp"

namespace adba::adv {

class StaticAdversary final : public net::Adversary, private net::BlockStrategy {
public:
    /// Corrupts `q` nodes chosen uniformly at round 0 (q <= engine budget).
    StaticAdversary(Count q, Xoshiro256 rng) : q_(q), rng_(rng) {}

    /// Replaces the stream the next on_start draws its set from, so that a
    /// kept object replays a fresh one built with `rng` (its vectors are
    /// reused).
    void reseed(Xoshiro256 rng) { rng_ = rng; }

    void on_start(NodeId n, Count budget) override;
    void act(net::RoundControl& ctl) override;
    /// Any other StaticAdversary: its rows are this one's.
    bool same_strategy(const net::Adversary& other) const override;
    net::BlockStrategy* block_form() override { return this; }

    /// The corrupt set, ascending; valid from on_start.
    const std::vector<NodeId>& corrupted() const { return corrupted_; }
    /// Round r's row at n: val 0 (coin -1 in round 2 of a phase) below n/2,
    /// val 1 (coin +1) from n/2 up.
    static net::SplitRow row(Round r, NodeId n);

private:
    void act_block(net::FusedLaneControl& ctl, const net::Adversary* const* advs) override;

    Count q_;
    Xoshiro256 rng_;
    std::vector<NodeId> corrupted_;
    // on_start scratch: the Fisher-Yates array and the drawn ids' n-bit
    // membership bitmap.
    std::vector<NodeId> ids_;
    std::vector<std::uint64_t> member_;
    // Block-level form, set in round 0 and sized then, so that the other
    // lanes' objects stay small: the lanes whose set holds node v, the
    // lanes with a non-empty set, and each lane's set size.
    std::vector<std::uint64_t> lane_mask_;
    std::uint64_t members_ = 0;
    std::vector<Count> set_size_;
};

}  // namespace adba::adv
