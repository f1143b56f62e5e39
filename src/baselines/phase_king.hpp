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
//
// Three forms: PhaseKingNode (the per-node spec), PhaseKingBatch and
// FusedPhaseKing. The two fast forms differ only in how they count; both
// step their state through one PhaseKingStep.
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
    /// The contract every form checks when armed.
    void check() const;
};

/// A Phase-King form's state: one lane word W per node and plane.
template <typename W>
struct PhaseKingPlanes {
    std::vector<W> val, maj, strong, halted;

    /// n nodes holding `input`, live.
    void rearm(const W* input, NodeId n) {
        val.assign(input, input + n);
        for (std::vector<W>* p : {&maj, &strong, &halted}) p->assign(n, 0);
    }
};

/// One Phase-King receive round on a lane word W: one node of
/// PhaseKingBatch (a 0/1 byte) or 64 trials of FusedPhaseKing (bit j =
/// lane j). Both fast forms call it; PhaseKingNode's rule, written apart,
/// is its spec. Round 1 keeps only whether the majority was strong
/// (2·mult > n + 2t), not mult itself. A complement is only ever masked by
/// another lane word, so a 0/1 byte stays 0/1.
template <typename W>
struct PhaseKingStep {
    bool king_round;  ///< round 2 (else round 1)
    W maj;            ///< round 1: the majority value is 1
    W strong;         ///< round 1: the majority is strong
    W king1;          ///< round 2: the king's value is 1
    W exhaust;        ///< round 2: all lanes in the last phase, else none

    /// Round 1: more1 = more 1s than 0s counted (the majority, 0 on a
    /// tie); over_b = the count of b passes (n + 2t) / 2.
    static PhaseKingStep round1(W more1, W over0, W over1) {
        return {false, more1, W((more1 & over1) | (~more1 & over0)), 0, 0};
    }
    /// Round 2: king1 = the king's value is 1 (a silent or corrupted king's
    /// is 0). A strong majority keeps its value, the rest adopt the king's;
    /// the last phase halts.
    static PhaseKingStep round2(W king1, bool last_phase) {
        return {true, 0, 0, king1, W(last_phase ? ~W{0} : 0)};
    }

    /// Node v's words every live lane (honest, not halted) writes: its
    /// majority in round 1, its value in round 2.
    void value(PhaseKingPlanes<W>& s, NodeId v, W live) const {
        if (!king_round) {
            s.maj[v] = W((s.maj[v] & ~live) | (maj & live));
            s.strong[v] = W((s.strong[v] & ~live) | (strong & live));
            return;
        }
        const W next = W((s.strong[v] & s.maj[v]) | (~s.strong[v] & king1));
        s.val[v] = W((s.val[v] & ~live) | (next & live));
    }
    /// Lanes end() halts: every lane in the last phase's round 2.
    W ending() const { return exhaust; }
    void end(PhaseKingPlanes<W>& s, NodeId v, W live) const { s.halted[v] |= live & exhaust; }
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

/// SoA batch form of Phase-King: val / maj / strong planes, one dispatch
/// per beat. Its receive rule compares each receiver's net::BeatCounts and
/// hands the masks to PhaseKingStep: round-1 majorities read the shared
/// honest tally (or sampled estimates); the round-2 king probe is one
/// single-sender read per receiver, exact on every plane (the
/// one-coordinator analogue of the committee's exact island). No RNG and
/// no threshold assertion, so sampling needs no relaxation. Bit-identical
/// to PhaseKingNode.
class PhaseKingBatch final : public net::NativeBatch {
public:
    /// Arms the batch for a fresh trial; zero allocation once warm.
    void rearm(const PhaseKingParams& params, const std::vector<Bit>& inputs);

    NodeId n() const override { return params_.n; }
    // The round-2 king broadcast fires exactly once — from the shard whose
    // range holds the king.
    void send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) override;
    const std::uint8_t* halted_plane() const override { return planes_.halted.data(); }
    Bit value(NodeId v) const override { return planes_.val[v]; }
    bool decided(NodeId /*v*/) const override { return false; }
    Bit output(NodeId v) const override { return planes_.val[v]; }

protected:
    /// Round 1 counts vals; the king round reads no counts.
    net::BeatQuery beat_query(Round r) const override;
    void receive_rule(Round r, const net::BeatCounts& in, NodeId lo, NodeId hi) override;

private:
    PhaseKingParams params_;
    PhaseKingPlanes<Bit> planes_;
};

/// 64-lane Phase-King over the fused trial plane: round-1 majorities are
/// one lane-vector compare of the fold's counts (c1 > c0) per receiver
/// segment, for all 64 lanes; the round-2 king probe is a fold over the
/// king alone, whose honest broadcast and Byzantine rows count alike. The
/// masks go to PhaseKingStep, as PhaseKingBatch's do. No RNG at all.
/// Bit-identical to PhaseKingBatch lane by lane.
class FusedPhaseKing final : public net::FusedProtocol {
public:
    explicit FusedPhaseKing(const PhaseKingParams& params);

    NodeId n() const override { return params_.n; }
    void rearm(const std::uint64_t* input_plane, const SeedTree* lane_seeds) override;
    void send_round(Round r, net::FusedFrame& frame) override;
    void receive_round(Round r, const net::FusedFrame& frame) override;
    const std::uint64_t* value_plane() const override { return planes_.val.data(); }
    const std::uint64_t* decided_plane() const override { return decided_.data(); }
    const std::uint64_t* halted_plane() const override { return planes_.halted.data(); }

private:
    PhaseKingParams params_;
    PhaseKingPlanes<std::uint64_t> planes_;
    std::vector<std::uint64_t> decided_;  ///< all-zero (phase-king never decides)
    net::SegmentFold fold_;  ///< recycled receive scratch
};

/// Builds (into an empty pool) or re-arms the node set of one trial.
void arm_phase_king_nodes(const PhaseKingParams& params, const std::vector<Bit>& inputs,
                          std::vector<std::unique_ptr<net::HonestNode>>& nodes);

}  // namespace adba::base
