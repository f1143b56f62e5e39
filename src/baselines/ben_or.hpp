// Ben-Or's randomized agreement (PODC 1983, [5] in the paper) — the
// protocol that opened the randomized-BA line the paper extends. We port
// the classical two-step structure to the synchronous engine with its
// original thresholds and resilience t < n/5:
//
//   report round : broadcast val; if some b passes the (n+t)/2 quorum,
//                  propose b, else propose ⊥;
//   propose round: if > 2t proposals for b  -> decide b (broadcast one more
//                  phase, then halt — same flush rule as the skeleton);
//                  if > t proposals for b   -> val := b;
//                  else                     -> val := private coin flip.
//
// With private coins a split start needs expected 2^Θ(n) phases — this is
// the historical starting point that Rabin-style shared coins (and the
// paper's committee coins) replace; E8/E11 use it as the "no shared
// randomness" control with provable safety.
//
// Three forms: BenOrNode (the per-node spec), BenOrBatch and FusedBenOr.
// The two fast forms differ only in how they count and draw; both step
// their state through one BenOrStep.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "net/batch.hpp"
#include "net/fused_plane.hpp"
#include "net/node.hpp"
#include "rand/seed_tree.hpp"
#include "support/contracts.hpp"
#include "support/types.hpp"

namespace adba::base {

struct BenOrParams {
    NodeId n = 0;
    Count t = 0;       ///< requires 5t < n (the 1983 resilience)
    Count phases = 1;  ///< round budget: 2 rounds per phase

    /// The contract every form checks when armed.
    void check() const;
};

/// A Ben-Or form's state: one lane word W per node and plane.
template <typename W>
struct BenOrPlanes {
    std::vector<W> val, proposal, proposing, decided, flushing, halted;

    /// n nodes holding `input`, proposing nothing, undecided and live.
    void rearm(const W* input, NodeId n) {
        val.assign(input, input + n);
        for (std::vector<W>* p : {&proposal, &proposing, &decided, &flushing, &halted})
            p->assign(n, 0);
    }
};

/// One Ben-Or receive round on a lane word W: one node of BenOrBatch (a 0/1
/// byte) or 64 trials of FusedBenOr (bit j = lane j). Both fast forms call
/// it; BenOrNode's rule, written apart, is its spec. A form builds it from
/// the round's threshold masks once per node or receiver segment, then
/// steps node v's words on its live lanes (honest, neither halted nor
/// flushing). A complement is only ever masked by another lane word, so a
/// 0/1 byte stays 0/1.
template <typename W>
struct BenOrStep {
    bool propose_round;  ///< else the report round
    W prop;              ///< lanes that propose: past the report quorum, or deciding
    W prop1;             ///< ... with 1
    W one;               ///< propose round: a lane's value is 1 without the coin
    W coin;              ///< lanes that take the private coin
    W exhaust;           ///< all lanes when the phases run out, else none

    /// Report round: r_b = more than (n+t)/2 reports of b. Such a lane
    /// proposes b (1 where both pass: the last write wins), the rest ⊥.
    static BenOrStep report(W r0, W r1) { return {false, W(r0 | r1), r1, 0, 0, 0}; }

    /// Propose round: f_b = more than 2t proposals of b, a_b = more than t.
    /// f_b decides b, proposes it and flushes through one more phase; a_b
    /// adopts b; otherwise the private coin, and a lane that does not
    /// decide halts when the phases run out. Only sub-dense estimates tie:
    /// a finish tie goes to 0, an adopt tie to 1 (the last write wins), and
    /// the conflict check runs where the counts are exact.
    static BenOrStep propose(W f0, W f1, W a0, W a1, bool exact, bool last_phase) {
        if (exact) ADBA_ENSURES_MSG((a0 & a1) == 0, "conflicting Ben-Or proposals above t");
        const W fin = W(f0 | f1);
        const W fin1 = W(f1 & ~f0);
        return {true, fin, fin1, W(fin1 | (~fin & a1)), W(~(a0 | a1)),
                W(last_phase ? ~W{0} : 0)};
    }

    /// The lanes of `live` that take the private coin.
    W coin_lanes(W live) const { return W(live & coin); }
    /// Node v's words every lane writes: its proposal in the report round,
    /// its value in the propose round, where `c` holds the private coin on
    /// coin_lanes(live).
    void value(BenOrPlanes<W>& s, NodeId v, W live, W c) const {
        if (propose_round) {
            s.val[v] = W((s.val[v] & ~live) | ((one | (coin & c)) & live));
            return;
        }
        const W p = W(prop & live);
        s.proposal[v] = W((s.proposal[v] & ~p) | (prop1 & live));
        s.proposing[v] = W((s.proposing[v] & ~live) | p);
    }
    /// Lanes end() may change: the propose round's deciders and, in the
    /// last phase, every lane.
    W ending() const { return propose_round ? W(prop | exhaust) : W{0}; }
    /// Node v's propose-round ending: a decider proposes its value, decides
    /// and flushes through one more phase; the rest halt when the phases
    /// run out.
    void end(BenOrPlanes<W>& s, NodeId v, W live) const {
        const W p = W(prop & live);
        s.proposal[v] = W((s.proposal[v] & ~p) | (prop1 & live));
        s.decided[v] |= p;
        s.flushing[v] |= p;
        s.proposing[v] |= p;
        s.halted[v] |= live & ~p & exhaust;
    }
};

class BenOrNode final : public net::HonestNode {
public:
    /// An unarmed node; reinit() arms it.
    BenOrNode() = default;
    BenOrNode(BenOrParams params, NodeId self, Bit input, Xoshiro256 rng);

    /// Arms the node for a fresh trial (the constructor's contract).
    void reinit(BenOrParams params, NodeId self, Bit input, Xoshiro256 rng);

    std::optional<net::Message> round_send(Round r) override;
    void round_receive(Round r, const net::ReceiveView& view) override;
    bool halted() const override { return halted_; }
    Bit current_value() const override { return val_; }
    bool current_decided() const override { return decided_; }

private:
    BenOrParams params_;
    NodeId self_ = 0;
    Xoshiro256 rng_;
    Bit val_ = 0;
    Bit proposal_ = 0;
    bool proposing_ = false;  ///< this phase's R2 proposal is non-⊥
    bool decided_ = false;
    bool flushing_ = false;
    bool halted_ = false;
};

/// SoA batch form of Ben-Or: BenOrPlanes of bytes plus private-coin RNG
/// streams, the whole population stepped under one dispatch per beat. Its
/// receive rule compares each receiver's net::BeatCounts and hands the
/// masks to BenOrStep. Bit-identical to BenOrNode
/// (tests/test_batch_plane.cpp).
class BenOrBatch final : public net::NativeBatch {
public:
    /// Arms the batch for a fresh trial; zero allocation once warm.
    void rearm(const BenOrParams& params, const std::vector<Bit>& inputs,
               const SeedTree& seeds);

    NodeId n() const override { return params_.n; }
    void send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) override;
    const std::uint8_t* halted_plane() const override { return planes_.halted.data(); }
    Bit value(NodeId v) const override { return planes_.val[v]; }
    bool decided(NodeId v) const override { return planes_.decided[v] != 0; }
    Bit output(NodeId v) const override { return planes_.val[v]; }
    const Bit* value_plane() const override { return planes_.val.data(); }
    const std::uint8_t* decided_plane() const override { return planes_.decided.data(); }

protected:
    /// Report rounds count report vals; propose rounds count non-⊥ proposals.
    net::BeatQuery beat_query(Round r) const override;
    void receive_rule(Round r, const net::BeatCounts& in, NodeId lo, NodeId hi) override;

private:
    BenOrParams params_;
    BenOrPlanes<Bit> planes_;
    std::vector<Xoshiro256> rng_;
};

/// 64-lane Ben-Or over the fused trial plane (net/fused_plane.hpp): report
/// and propose quorums are lane masks over the fold's exact counts (one
/// kern::lanes_greater compare each), taken once per receiver segment for
/// all 64 lanes and handed to BenOrStep, as BenOrBatch's are; the private
/// coin draws from the focused (node, lane) stream exactly where the scalar
/// case-3 path would. Bit-identical to BenOrBatch lane by lane.
class FusedBenOr final : public net::FusedProtocol {
public:
    explicit FusedBenOr(const BenOrParams& params);

    NodeId n() const override { return params_.n; }
    void rearm(const std::uint64_t* input_plane, const SeedTree* lane_seeds) override;
    void send_round(Round r, net::FusedFrame& frame) override;
    void receive_round(Round r, const net::FusedFrame& frame) override;
    const std::uint64_t* value_plane() const override { return planes_.val.data(); }
    const std::uint64_t* decided_plane() const override { return planes_.decided.data(); }
    const std::uint64_t* halted_plane() const override { return planes_.halted.data(); }

private:
    BenOrParams params_;
    BenOrPlanes<std::uint64_t> planes_;
    net::LaneStreams streams_;  ///< the private coins' per-(node, lane) streams
    net::SegmentFold fold_;     ///< recycled receive scratch
};

/// Builds (into an empty pool) or re-arms the node set of one trial.
void arm_ben_or_nodes(const BenOrParams& params, const std::vector<Bit>& inputs,
                      const SeedTree& seeds,
                      std::vector<std::unique_ptr<net::HonestNode>>& nodes);

}  // namespace adba::base
