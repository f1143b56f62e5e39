// Rabin-style phase skeleton shared by every shared-coin agreement protocol
// in this repository (Algorithm 3, both Chor-Coan baselines, the Rabin
// trusted-dealer reference, and the local-coin ablation). They differ only
// in where the phase coin comes from, so one node class runs all of them
// and a CoinSpec value names the coin.
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
// The coin (CoinSpec) is drawn at three sites only:
//   * Committee — Algorithm 3 and the Chor-Coans: phase p's committee (an ID
//     block of the schedule) piggybacks ±1 flips on its round-2 broadcasts,
//     and every node adopts the sign of the committee sum (Algorithm 2 /
//     Corollary 1);
//   * Dealer — a public coin function of the trial's dealer seed and the
//     phase, the same at every node;
//   * Local — each case-3 node flips its own private bit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "net/engine.hpp"
#include "net/node.hpp"
#include "rand/rng.hpp"
#include "rand/seed_tree.hpp"
#include "support/contracts.hpp"
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

struct CoinSpec;

struct SkeletonConfig {
    NodeId n = 0;
    Count t = 0;          ///< threshold parameter (n-t / t+1 tallies)
    Count phases = 1;     ///< phase budget in WhpFixedPhases mode
    AgreementMode mode = AgreementMode::WhpFixedPhases;

    /// The contract every form checks when armed: n > 0, t < n/3, a phase
    /// budget, and a coin function under the Dealer coin.
    void check(const CoinSpec& coin) const;
    /// True when phase p is the last of a fixed phase budget: a receiver
    /// that does not finish in its round 2 halts on its current value.
    bool exhausts(Phase p) const {
        return mode == AgreementMode::WhpFixedPhases && p + 1 == phases;
    }
};

/// The phase coin of a skeleton protocol, in every form: the per-node
/// RabinSkeletonNode, the scalar SkeletonBatch and the 64-lane
/// FusedSkeleton.
struct CoinSpec {
    enum class Kind : std::uint8_t {
        Committee,  ///< phase-p committee members flip; coin = sign of sum
        Dealer,     ///< public coin: dealer(seed, p), identical at every node
        Local,      ///< private coin: each case-3 node flips its own bit
    };
    Kind kind = Kind::Local;
    BlockSchedule schedule;  ///< Committee only
    /// Dealer only: a pure coin function of (the trial's DealerCoin seed,
    /// phase). Each batch evaluates it under its own trial's seed (every
    /// lane under its own, on the fused plane), so it may run on any shard.
    Bit (*dealer)(std::uint64_t dealer_seed, Phase p) = nullptr;

    /// The node range [first, last) that flips phase p's committee coin in
    /// round 2; empty unless the coin is Committee.
    std::pair<NodeId, NodeId> flippers(Phase p) const {
        if (kind != Kind::Committee) return {0, 0};
        return schedule.range(schedule.committee_of_phase(p));
    }

    /// Member v's phase-p flip under the Committee coin, drawn without a
    /// stream table: `purpose` is the trial's NodeProtocol purpose hash, and
    /// a member draws only its flips from its (NodeProtocol, v) stream.
    /// Honesty and liveness are monotone, so a member that flips now flipped
    /// at every earlier visit of its committee, and this flip is output
    /// p / num_blocks of that stream; a first visit reads
    /// Xoshiro256::first_output.
    CoinSign committee_flip(std::uint64_t purpose, NodeId v, Phase p) const {
        const std::uint64_t seed = SeedTree::child_seed(purpose, v);
        Phase visit = p / schedule.num_blocks;
        if (visit == 0) return (Xoshiro256::first_output(seed) >> 63) != 0 ? CoinSign{1} : CoinSign{-1};
        Xoshiro256 g(seed);
        for (; visit > 0; --visit) g();
        return g.sign();
    }
};

/// One node of a two-round-per-phase shared-coin agreement protocol.
class RabinSkeletonNode final : public net::HonestNode {
public:
    /// An unarmed node; reinit() arms it.
    RabinSkeletonNode() = default;
    RabinSkeletonNode(const SkeletonConfig& cfg, const CoinSpec& coin, NodeId self,
                      Bit input, Xoshiro256 rng, std::uint64_t dealer_seed = 0);

    /// Arms the node for a fresh trial (the constructor's contract); pooled
    /// nodes are re-armed this way instead of re-allocated. `dealer_seed` is
    /// the trial's DealerCoin seed, read only under the Dealer coin.
    void reinit(const SkeletonConfig& cfg, const CoinSpec& coin, NodeId self, Bit input,
                Xoshiro256 rng, std::uint64_t dealer_seed = 0);

    std::optional<net::Message> round_send(Round r) override;
    void round_receive(Round r, const net::ReceiveView& view) override;
    bool halted() const override { return halted_; }
    Bit current_value() const override { return val_; }
    bool current_decided() const override { return decided_; }

    // --- introspection for tests / full-information adversaries ---
    bool finish_flag() const { return finish_; }
    /// Phase in which this node set Finish (engaged termination), if any.
    std::optional<Phase> finish_phase() const { return finish_phase_; }
    NodeId self() const { return self_; }

private:
    void receive_round1(Phase p, const net::ReceiveView& view);
    void receive_round2(Phase p, const net::ReceiveView& view);
    /// The phase-p coin this node adopts in case 3.
    Bit case3_coin(Phase p, const net::ReceiveView& view);

    SkeletonConfig cfg_;
    CoinSpec coin_;
    std::uint64_t dealer_seed_ = 0;
    NodeId self_ = 0;
    Xoshiro256 rng_;

    Bit val_ = 0;
    bool decided_ = false;
    bool finish_ = false;
    std::optional<Phase> finish_phase_;
    bool flushing_ = false;  ///< in the post-Finish broadcast phase
    bool halted_ = false;
};

/// Builds (into an empty pool) or re-arms the n skeleton nodes of one
/// trial: node v gets inputs[v] and the stream (NodeProtocol, v), and a
/// Dealer coin binds the trial's DealerCoin seed.
void arm_skeleton_nodes(const SkeletonConfig& cfg, const CoinSpec& coin,
                        const std::vector<Bit>& inputs, const SeedTree& seeds,
                        std::vector<std::unique_ptr<net::HonestNode>>& nodes);

/// Sums sanitized coin contributions of a block-committee from round-2
/// deliveries: Byzantine coin fields are clamped to ±1, contributions from
/// outside the committee are ignored (paper §3.2: "messages from byzantine
/// nodes not in the committee are ignored"): the per-node Committee coin.
/// Backed by the view's shared-tally coin prefix, so
/// the honest contribution costs O(1) per receiver.
std::int64_t committee_coin_sum(const net::ReceiveView& view, Phase p, NodeId first,
                                NodeId last);

/// A skeleton form's state: one lane word W per node and plane.
template <typename W>
struct SkeletonPlanes {
    std::vector<W> val, decided, flushing, halted;

    /// n nodes holding `input`, undecided and live.
    void rearm(const W* input, NodeId n) {
        val.assign(input, input + n);
        for (std::vector<W>* p : {&decided, &flushing, &halted}) p->assign(n, 0);
    }
};

/// One skeleton receive round on a lane word W: one node of SkeletonBatch
/// (a 0/1 byte) or 64 trials of FusedSkeleton (bit j = lane j). Both fast
/// forms call it; RabinSkeletonNode's rule, written apart, is its spec. A
/// form builds it from the round's threshold masks — q_b: n-t votes for b,
/// s_b: t+1 decided votes for b — once per node or receiver segment, then
/// steps node v's words on its live lanes (honest, neither halted nor
/// flushing). A complement is only ever masked by another lane word, so a
/// 0/1 byte stays 0/1.
template <typename W>
struct SkeletonStep {
    W dec;      ///< lanes that end the round decided
    W one;      ///< a deciding lane's value is 1
    W coin;     ///< lanes that take the phase coin
    W fin;      ///< lanes that finish
    W exhaust;  ///< all lanes when the phases run out, else none

    /// Round 1: n-t votes for b decide b; other lanes keep their value,
    /// undecided. Two n-t counts cannot coexist even as sampled estimates
    /// (est0 + est1 <= n + 1 < 2(n-t) for t < n/3), so the check holds on
    /// every plane, and round 2 relies on the same bound.
    static SkeletonStep round1(W q0, W q1) {
        ADBA_ENSURES_MSG((q0 & q1) == 0, "two n-t quorums cannot coexist (t < n/3)");
        return {W(q0 | q1), q1, 0, 0, 0};
    }

    /// Round 2, over decided votes: n-t for b finish on b (case 1), t+1
    /// decide b (case 2), else the phase coin, undecided (case 3); a lane
    /// that does not finish halts when the phases run out. Only sub-dense
    /// estimates can give both values t+1 votes: that tie goes to 0, and
    /// Lemma 3 is asserted where the counts are exact.
    static SkeletonStep round2(W q0, W q1, W s0, W s1, bool exact, bool exhausts) {
        if (exact)
            ADBA_ENSURES_MSG((s0 & s1) == 0, "Lemma 3 violated: decided quorums for both values");
        const W dec = W(s0 | s1);
        return {dec, W(q1 | (s1 & ~s0)), W(~dec), W(q0 | q1), W(exhausts ? ~W{0} : 0)};
    }

    /// The lanes of `live` that take the phase coin.
    W coin_lanes(W live) const { return W(live & coin); }
    /// Node v's value and decided words; `c` holds the phase coin on
    /// coin_lanes(live).
    void value(SkeletonPlanes<W>& s, NodeId v, W live, W c) const {
        const W set = W(live & (dec | coin));  // lanes whose value is written
        s.val[v] = W((s.val[v] & ~set) | ((one | (coin & c)) & set));
        s.decided[v] = W((s.decided[v] & ~live) | (dec & live));
    }
    /// Lanes end() may flush or halt.
    W ending() const { return W(fin | exhaust); }
    /// Node v's flushing and halted words: finishers flush through the next
    /// phase.
    void end(SkeletonPlanes<W>& s, NodeId v, W live) const {
        s.flushing[v] |= fin & live;
        s.halted[v] |= live & ~fin & exhaust;
    }
};

}  // namespace adba::core
