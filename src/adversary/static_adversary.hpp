// Static Byzantine adversary: chooses its corrupt set before the execution
// (the weaker model of Goldwasser-Pavlov-Vaikuntanathan etc., paper §1).
//
// Used as an ablation point in E8: the gap between static and adaptive
// measured rounds is the paper's whole motivation. Registered twice: as
// `static` and as `split-vote` (the protocol-agnostic threshold-straddling
// equivocation attack), both with SplitVotes behaviour.
//
// Lane-uniform (net::Adversary::lane_uniform): its act() is its declared
// form played through the control, so the fused plane can run 64 lanes of
// it on word masks. Its strategy key is its behaviour: a fused block asks
// one lane per behaviour for each round's row.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/engine.hpp"
#include "rand/rng.hpp"

namespace adba::adv {

/// What the statically corrupted nodes do each round.
enum class StaticBehavior : std::uint8_t {
    Silent,      ///< send nothing (fail-stop from round 0)
    SplitVotes,  ///< equivocate: val=0 to low-ID receivers, val=1 to the rest
};

class StaticAdversary final : public net::Adversary {
public:
    /// Corrupts `q` nodes chosen uniformly at round 0 (q <= engine budget).
    StaticAdversary(Count q, StaticBehavior behavior, Xoshiro256 rng);

    /// Replaces the stream the next on_start draws its set from, so that a
    /// kept object replays a fresh one built with `rng` (its vectors are
    /// reused).
    void reseed(Xoshiro256 rng) { rng_ = rng; }

    void on_start(NodeId n, Count budget) override;
    void act(net::RoundControl& ctl) override;
    /// The ascending corrupt set and, under SplitVotes, round r's split row:
    /// val 0 (coin -1 in round 2 of a phase) below n/2, val 1 (coin +1)
    /// from n/2 up.
    std::optional<net::LaneUniformRound> lane_uniform(Round r, NodeId n) const override;
    /// Another StaticAdversary with this behaviour: its rows are this one's.
    bool same_strategy(const net::Adversary& other) const override;

    const std::vector<NodeId>& corrupted() const { return corrupted_; }

private:
    Count q_;
    StaticBehavior behavior_;
    Xoshiro256 rng_;
    std::vector<NodeId> corrupted_;
    // on_start scratch: the Fisher-Yates array and the drawn ids' n-bit
    // membership bitmap.
    std::vector<NodeId> ids_;
    std::vector<std::uint64_t> member_;
};

}  // namespace adba::adv
