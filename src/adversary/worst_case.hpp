// Worst-case adaptive rushing adversary against the Rabin-skeleton
// protocols (Algorithm 3 and the Chor-Coan baselines).
//
// This is the strategy the paper's analysis quantifies over. Per phase:
//
//  Round 1 (votes): if some value's honest tally reaches the n-t quorum and
//  the margin is affordable, corrupt just enough of that bloc — preferring
//  current-committee members, whose corpses double as coin equivocators —
//  to block the quorum (delays Lemma 2's lock-in). Otherwise stay silent:
//  Byzantine votes can only help honest tallies cross thresholds.
//
//  Round 2 (decided + coin): rushing — the adversary reads every honest
//  round-2 broadcast, including the committee's ±1 flips, before acting.
//   1. If more than t honest nodes are decided, corrupt (d - t) of them so
//      no receiver can reach the t+1 / n-t decided thresholds (prevents
//      Case 1/Case 2 convergence).
//   2. Ruin the committee coin, choosing the cheaper of:
//       * SPLIT — corrupt majority-sign flippers until the surviving honest
//         sum S' sits within the Byzantine equivocation margin
//         (-M <= S' <= M-1), then deliver all-(+1) coins to half the
//         receivers and all-(-1) to the rest: receivers straddle the >=0
//         rule and adopt different values (chosen balanced, keeping future
//         phases cheap to ruin);
//       * OPPOSITE — when some honest nodes are decided on b_i, push every
//         receiver's sum to the 1-b_i side (free whenever the honest flips
//         already landed against b_i).
//      Each corruption moves the margin by 2 (removes a flip AND adds an
//      equivocator) — so ruining a phase costs about |S|/2 ~ ½·sqrt(s)
//      corruptions, which is precisely the counting argument behind
//      Theorem 2: budget t ruins ~2t/sqrt(s) phases and no more.
//   3. If the phase cannot be ruined within budget, spend nothing.
//
// The strategy self-caps at `max_corruptions` (the q < t of Theorem 2's
// early-termination clause) independent of the engine budget.
//
// Observation is bulk: each decision reads one RoundControl::view() and
// re-observes after corrupting; the SPLIT row is built once per round in
// member scratch and handed whole to every Byzantine committee member via
// deliver_row_as.
//
// Block-level form (net::Adversary::block_form): on the fused plane one
// object decides all 64 lanes of a block per round from the frame's
// planes, in O(n) word operations — kern::lane_counts passes for the Vote1
// tallies, the decided nodes and the committee margins (one four-column
// pass), one ascending sweep with per-lane quotas for each
// "first k ascending ids of a set" victim pick (none for a lane that
// cannot afford its decided reduction: it spends nothing that round), one
// descending sweep for b_i, the SPLIT and OPPOSITE greedy costs in closed
// form as one straight loop over 64-lane arrays, corruption by lane mask in
// one pass, and SPLIT and OPPOSITE together as one coin-sign row written in
// the frame's plane (SPLIT targets are a prefix-XOR over the live plane,
// OPPOSITE a per-lane constant). It is written apart from act(), which
// stays its oracle: the block-by-block tests pin the two against each
// other. phases_ruined() counts act() runs only.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "net/engine.hpp"
#include "net/fused_plane.hpp"
#include "support/types.hpp"

namespace adba::adv {

struct WorstCaseConfig {
    Count t = 0;                ///< protocol threshold parameter
    Count max_corruptions = 0;  ///< actual corruption cap q (<= engine budget)
    core::BlockSchedule schedule;
    bool block_round1_quorums = true;
    /// Engine round at which the phase-structured protocol starts (e.g. 2
    /// when wrapped by the Turpin-Coan prelude). Rounds before the offset
    /// are ignored.
    Round round_offset = 0;

    friend bool operator==(const WorstCaseConfig&, const WorstCaseConfig&) = default;
};

class WorstCaseAdversary final : public net::Adversary, private net::BlockStrategy {
public:
    explicit WorstCaseAdversary(WorstCaseConfig cfg) : cfg_(cfg) {}

    void on_start(NodeId n, Count budget) override;
    void act(net::RoundControl& ctl) override;
    /// Another WorstCaseAdversary with an equal configuration.
    bool same_strategy(const net::Adversary& other) const override;
    net::BlockStrategy* block_form() override { return this; }

    Count corruptions_used() const { return used_; }
    /// Number of phases whose coin this adversary successfully ruined.
    Count phases_ruined() const { return ruined_; }

private:
    void act_round1(net::RoundControl& ctl, Phase p);
    void act_round2(net::RoundControl& ctl, Phase p);
    Count remaining(const net::RoundControl& ctl) const;
    void corrupt_tracked(net::RoundControl& ctl, NodeId v);

    // ---- block-level form (worst_case.cpp) ----
    /// Every lane's state is this object's own: `advs` is not read.
    void act_block(net::FusedLaneControl& ctl, const net::Adversary* const* advs) override;
    void block_round1(net::FusedLaneControl& ctl, Phase p);
    void block_round2(net::FusedLaneControl& ctl, Phase p);
    /// remaining() of one lane.
    Count lane_remaining(const net::FusedLaneControl& ctl, unsigned lane) const;

    WorstCaseConfig cfg_;
    Count used_ = 0;
    Count ruined_ = 0;
    // Per-round scratch, recycled across rounds.
    std::vector<NodeId> victims_;    ///< nodes to corrupt, in corruption order
    std::vector<NodeId> plan_pos_;   ///< honest committee +1 flippers, victims excluded
    std::vector<NodeId> plan_neg_;   ///< honest committee -1 flippers, victims excluded
    std::vector<net::Message> split_row_;  ///< SPLIT coin deliveries, one per receiver
    // Block-level form, sized at its first round, so that the other lanes'
    // objects stay small: each lane's corruptions, and the lanes in which
    // node v is picked to corrupt (all zero between rounds).
    std::vector<Count> lane_used_;
    std::vector<std::uint64_t> picks_;
};

}  // namespace adba::adv
