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
// first lane's object plays all 64 lanes. Its block start draws every
// lane's set from that lane's own stream, with exactly on_start's below()
// calls, into one lane mask per node (the lanes whose set holds the node)
// over one shared Fisher-Yates array; the lane objects' own corrupted()
// sets are not refreshed. In round 0 it corrupts by that mask
// (FusedLaneControl::corrupt_lanes), which counts each lane's set size;
// each round it sends its row once for every lane as the frame's shared
// row, weighted per lane by that size (share_row). on_start and act() are
// its oracle through the per-lane bridge.
#pragma once

#include <cstdint>
#include <typeinfo>
#include <vector>

#include "net/engine.hpp"
#include "rand/rng.hpp"

namespace adba::adv {

class StaticAdversary final : public net::Adversary, private net::BlockStrategy {
public:
    /// Corrupts `q` nodes chosen uniformly at round 0 (q <= engine budget).
    StaticAdversary(Count q, Xoshiro256 rng) : q_(q), rng_(rng) {}

    /// Replaces the stream the next on_start (or a fused block's start)
    /// draws its set from, so that a kept object replays a fresh one built
    /// with `rng` (its vectors are reused).
    void reseed(Xoshiro256 rng) { rng_ = rng; }

    void on_start(NodeId n, Count budget) override;
    void act(net::RoundControl& ctl) override;
    /// Any other StaticAdversary, whatever its q: its rows are this one's.
    bool same_strategy(const net::Adversary& other) const override {
        return typeid(other) == typeid(StaticAdversary);
    }
    net::BlockStrategy* block_form() override { return this; }

    /// The corrupt set, ascending; valid from on_start (a fused block's
    /// start does not write it).
    const std::vector<NodeId>& corrupted() const { return corrupted_; }
    /// Round r's row at n: val 0 (coin -1 in round 2 of a phase) below n/2,
    /// val 1 (coin +1) from n/2 up.
    static net::SplitRow row(Round r, NodeId n);

private:
    void start_block(net::Adversary* const* advs, std::uint64_t lanes, NodeId n,
                     Count budget) override;
    void act_block(net::FusedLaneControl& ctl, const net::Adversary* const* advs) override;

    Count q_;
    Xoshiro256 rng_;
    std::vector<NodeId> corrupted_;
    // Fisher-Yates array of on_start and of the block start, which leaves
    // it the identity after each lane.
    std::vector<NodeId> ids_;
    // on_start scratch: the drawn ids' n-bit membership bitmap.
    std::vector<std::uint64_t> member_;
    // Block-level form, sized by the block start, so that the other lanes'
    // objects stay small: the lanes' generators while they draw, every
    // lane's swap targets (kern::fisher_yates_targets), the lanes whose set
    // holds node v, the lanes with a non-empty set, and each lane's set size
    // (counted in round 0).
    std::vector<Xoshiro256> lane_rng_;
    std::vector<NodeId> targets_;
    std::vector<std::uint64_t> lane_mask_;
    std::uint64_t members_ = 0;
    std::vector<Count> set_size_;
};

}  // namespace adba::adv
