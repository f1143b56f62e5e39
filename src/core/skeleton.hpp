// Rabin-style phase skeleton shared by every shared-coin agreement protocol
// in this repository (Algorithm 3, both Chor-Coan baselines, the Rabin
// trusted-dealer reference, and the local-coin ablation).
//
// Each phase has two broadcast rounds (paper §3.2, Algorithm 3):
//   round 1: broadcast (phase, 1, val, decided);
//            if >= n-t identical vals b received: val=b, decided=true
//            else decided=false.
//   round 2: broadcast (phase, 2, val, decided) [+ coin contribution];
//            case 1: >= n-t (b, decided=true)  -> val=b, Finish
//            case 2: >= t+1 (b, decided=true)  -> val=b, decided=true
//            case 3: otherwise                 -> val=coin, decided=false.
//
// Termination ("finish flush"): a node that sets Finish in phase i
// broadcasts its (val, decided=true) in BOTH rounds of phase i+1, then
// halts. Lemma 4's proof requires the finisher's decided=true value to be
// visible in the round-2 tallies of phase i+1 — exiting right after the
// round-1 broadcast (the terser reading of Algorithm 3 lines 9-10) would
// leave remaining honest nodes short of the n-t threshold whenever
// f > h-(n-t) nodes finish simultaneously. One extra broadcast round per
// finishing node preserves the lemma's guarantee (finisher halts in phase
// i+1; everyone else by phase i+2) at identical asymptotic cost. Pinned by
// SkeletonFlush.FinisherBroadcastsOneFullPhaseThenHalts (test_skeleton) and
// Lemma4.FinisherForcesTerminationWithinTwoPhases (test_agreement).
//
// Subclasses supply only the coin source:
//   * coin_contribution(p) — this node's ±1 flip piggybacked on its round-2
//     broadcast of phase p (0 = not a flipper this phase);
//   * coin_value(p, view)  — the common-coin bit derived from this round's
//     deliveries (or private/dealer randomness).
#pragma once

#include <cstdint>
#include <optional>

#include "net/engine.hpp"
#include "net/node.hpp"
#include "rand/rng.hpp"
#include "support/types.hpp"

namespace adba::core {

/// Termination mode (paper §3.2 "Las Vegas Byzantine Agreement").
enum class AgreementMode : std::uint8_t {
    /// Run exactly `phases` phases; agreement holds w.h.p. (Theorem 2).
    WhpFixedPhases,
    /// Cycle committees forever; always agree, expected-round bound
    /// (paper §3.2, Las Vegas variant). The engine's max_rounds is the
    /// safety stop.
    LasVegas,
};

struct SkeletonConfig {
    NodeId n = 0;
    Count t = 0;          ///< threshold parameter (n-t / t+1 tallies)
    Count phases = 1;     ///< phase budget in WhpFixedPhases mode
    AgreementMode mode = AgreementMode::WhpFixedPhases;
};

/// Common machinery for two-round-per-phase shared-coin agreement nodes.
class RabinSkeletonNode : public net::HonestNode {
public:
    RabinSkeletonNode(SkeletonConfig cfg, NodeId self, Bit input, Xoshiro256 rng);

    /// Re-arms a pooled node for a fresh trial (same contract as the
    /// constructor); trial runners call this instead of re-allocating.
    void reinit(SkeletonConfig cfg, NodeId self, Bit input, Xoshiro256 rng);

    std::optional<net::Message> round_send(Round r) final;
    void round_receive(Round r, const net::ReceiveView& view) final;
    bool halted() const final { return halted_; }
    Bit current_value() const final { return val_; }
    bool current_decided() const final { return decided_; }

    // --- introspection for tests / full-information adversaries ---
    bool finish_flag() const { return finish_; }
    /// Phase in which this node set Finish (engaged termination), if any.
    std::optional<Phase> finish_phase() const { return finish_phase_; }
    NodeId self() const { return self_; }

protected:
    /// This node's ±1 flip for phase p (0 = does not flip). Called exactly
    /// once per phase at round-2 send time, before any round-2 message is
    /// received — Lemma 5's independence requirement.
    virtual CoinSign coin_contribution(Phase p) = 0;

    /// The phase-p coin this node adopts in case 3, computed from the
    /// round-2 deliveries.
    virtual Bit coin_value(Phase p, const net::ReceiveView& view) = 0;

    const SkeletonConfig& cfg() const { return cfg_; }
    Xoshiro256& rng() { return rng_; }

protected:
    /// For subclasses that construct via their own reinit() (the constructor
    /// and the pooled path then share one initialization body).
    RabinSkeletonNode() = default;

private:
    void receive_round1(Phase p, const net::ReceiveView& view);
    void receive_round2(Phase p, const net::ReceiveView& view);

    SkeletonConfig cfg_;
    NodeId self_ = 0;
    Xoshiro256 rng_;

    Bit val_ = 0;
    bool decided_ = false;
    bool finish_ = false;
    std::optional<Phase> finish_phase_;
    bool flushing_ = false;  ///< in the post-Finish broadcast phase
    bool halted_ = false;
};

/// Sums sanitized coin contributions of a block-committee from round-2
/// deliveries: Byzantine coin fields are clamped to ±1, contributions from
/// outside the committee are ignored (paper §3.2: "messages from byzantine
/// nodes not in the committee are ignored"). Shared by Algorithm 3 and the
/// Chor-Coan baselines. Backed by the view's shared-tally coin prefix, so
/// the honest contribution costs O(1) per receiver.
std::int64_t committee_coin_sum(const net::ReceiveView& view, Phase p, NodeId first,
                                NodeId last);

}  // namespace adba::core
