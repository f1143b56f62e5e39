// Phase-King deterministic Byzantine agreement (Berman-Garay-Perry style),
// the O(t)-round deterministic comparator for E3/E4.
//
// The paper cites t+1-round deterministic protocols [9, 13] as the
// pre-randomization state of the art; we implement the classical simple
// phase-king variant with constant-size messages:
//   t+1 phases, king of phase k is node k; two rounds per phase:
//     round 1: all broadcast val; v records (maj_v, mult_v);
//     round 2: the king broadcasts maj_king; v keeps maj_v if
//              mult_v > n/2 + t, otherwise adopts the king's value.
// Resilience t < n/4 (the simple variant's bound, which suffices as the
// deterministic *shape* comparator; the t < n/3
// deterministic protocols of Garay-Moses are substantially more intricate
// and add nothing to the measured comparison).
//
// Against our adaptive rushing adversary the worst case is exactly the
// classical one: corrupt each king as its phase arrives; after t ruined
// phases the budget is gone and the t+1st king finishes the job —
// deterministically 2(t+1) rounds, the O(t) line in E3.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "net/batch.hpp"
#include "net/fused_plane.hpp"
#include "net/node.hpp"
#include "rand/seed_tree.hpp"
#include "support/types.hpp"

namespace adba::base {

struct PhaseKingParams {
    NodeId n = 0;
    Count t = 0;  ///< requires 4t < n

    Count phases() const { return t + 1; }
    Round total_rounds() const { return 2 * phases(); }
    /// King (coordinator) of phase k.
    NodeId king_of(Phase k) const { return static_cast<NodeId>(k); }
};

class PhaseKingNode final : public net::HonestNode {
public:
    /// An unarmed node; reinit() arms it.
    PhaseKingNode() = default;
    PhaseKingNode(PhaseKingParams params, NodeId self, Bit input);

    /// Arms the node for a fresh trial (the constructor's contract).
    void reinit(PhaseKingParams params, NodeId self, Bit input);

    std::optional<net::Message> round_send(Round r) override;
    void round_receive(Round r, const net::ReceiveView& view) override;
    bool halted() const override { return halted_; }
    Bit current_value() const override { return val_; }

private:
    PhaseKingParams params_;
    NodeId self_ = 0;
    Bit val_ = 0;
    Bit maj_ = 0;
    Count mult_ = 0;
    bool halted_ = false;
};

/// SoA batch form of Phase-King: val / maj / mult planes, one dispatch per
/// beat, the rule written once over net::BeatCounts. Round-1 majorities
/// hoist the shared honest tally (or read sampled estimates); the round-2
/// king probe is one single-sender read per receiver, exact on every plane
/// (the one-coordinator analogue of the committee's exact island). No RNG
/// and no threshold assertion, so sampling needs no relaxation.
/// Bit-identical to PhaseKingNode.
class PhaseKingBatch final : public net::NativeBatch {
public:
    PhaseKingBatch(const PhaseKingParams& params, const std::vector<Bit>& inputs);
    void rearm(const PhaseKingParams& params, const std::vector<Bit>& inputs);

    NodeId n() const override { return params_.n; }
    // The round-2 king broadcast fires exactly once — from the shard whose
    // range holds the king.
    void send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) override;
    const std::uint8_t* halted_plane() const override { return halted_.data(); }
    Bit value(NodeId v) const override { return val_[v]; }
    bool decided(NodeId /*v*/) const override { return false; }
    Bit output(NodeId v) const override { return val_[v]; }

protected:
    /// Round 1 counts vals; the king round reads no counts.
    net::BeatQuery beat_query(Round r) const override;
    void receive_rule(Round r, const net::BeatCounts& in, NodeId lo, NodeId hi) override;

private:
    PhaseKingParams params_;
    std::vector<Bit> val_;
    std::vector<Bit> maj_;
    std::vector<Count> mult_;
    std::vector<std::uint8_t> halted_;
};

/// 64-lane Phase-King over the fused trial plane: round-1 majorities are
/// one lane-vector compare of the fold's counts (c1 > c0) per receiver
/// segment, for all 64 lanes; the round-2 king probe is a fold over the
/// king alone, whose honest broadcast and Byzantine rows count alike.
/// mult_ never materializes — only the "2·mult > n + 2t" predicate survives
/// round 1, stored as the strong_ plane. No RNG at all. Bit-identical to
/// PhaseKingBatch lane by lane.
class FusedPhaseKing final : public net::FusedProtocol {
public:
    explicit FusedPhaseKing(const PhaseKingParams& params);

    NodeId n() const override { return params_.n; }
    void rearm(const std::uint64_t* input_plane, const SeedTree* lane_seeds) override;
    void send_round(Round r, net::FusedFrame& frame) override;
    void receive_round(Round r, const net::FusedFrame& frame) override;
    const std::uint64_t* value_plane() const override { return val_.data(); }
    const std::uint64_t* decided_plane() const override { return decided_.data(); }
    const std::uint64_t* halted_plane() const override { return halted_.data(); }

private:
    PhaseKingParams params_;
    std::vector<std::uint64_t> val_;
    std::vector<std::uint64_t> maj_;
    std::vector<std::uint64_t> strong_;  ///< 2·mult > n + 2t, per (node, lane)
    std::vector<std::uint64_t> decided_; ///< all-zero (phase-king never decides)
    std::vector<std::uint64_t> halted_;
    net::SegmentFold fold_;  ///< recycled receive scratch
};

/// Builds (into an empty pool) or re-arms the node set of one trial.
void arm_phase_king_nodes(const PhaseKingParams& params, const std::vector<Bit>& inputs,
                          std::vector<std::unique_ptr<net::HonestNode>>& nodes);

}  // namespace adba::base
