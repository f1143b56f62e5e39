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

struct BenOrParams {
    NodeId n = 0;
    Count t = 0;       ///< requires 5t < n (the 1983 resilience)
    Count phases = 1;  ///< round budget: 2 rounds per phase
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

/// SoA batch form of Ben-Or: per-node state (val / proposal / proposing /
/// decided / flushing / halted, plus private-coin RNG streams) as flat
/// arrays, whole population stepped under one dispatch per beat, with the
/// report/propose rule written once over net::BeatCounts (honest quorum
/// counts hoisted once per round, only Byzantine deltas per receiver).
/// Bit-identical to BenOrNode (tests/test_batch_plane.cpp).
class BenOrBatch final : public net::NativeBatch {
public:
    BenOrBatch(const BenOrParams& params, const std::vector<Bit>& inputs,
               const SeedTree& seeds);
    void rearm(const BenOrParams& params, const std::vector<Bit>& inputs,
               const SeedTree& seeds);

    NodeId n() const override { return params_.n; }
    void send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) override;
    const std::uint8_t* halted_plane() const override { return halted_.data(); }
    Bit value(NodeId v) const override { return val_[v]; }
    bool decided(NodeId v) const override { return decided_[v] != 0; }
    Bit output(NodeId v) const override { return val_[v]; }
    const Bit* value_plane() const override { return val_.data(); }
    const std::uint8_t* decided_plane() const override { return decided_.data(); }

protected:
    /// Report rounds count report vals; propose rounds count non-⊥ proposals.
    net::BeatQuery beat_query(Round r) const override;
    void receive_rule(Round r, const net::BeatCounts& in, NodeId lo, NodeId hi) override;

private:
    BenOrParams params_;
    std::vector<Bit> val_;
    std::vector<Bit> proposal_;
    std::vector<std::uint8_t> proposing_;
    std::vector<std::uint8_t> decided_;
    std::vector<std::uint8_t> flushing_;
    std::vector<std::uint8_t> halted_;
    std::vector<Xoshiro256> rng_;
};

/// 64-lane Ben-Or over the fused trial plane (net/fused_plane.hpp): report
/// and propose quorums are lane masks over the fold's exact counts (one
/// kern::lanes_greater compare each), decided once per receiver segment for
/// all 64 lanes; the conflict check is one word check over the active
/// lanes, and the private coin draws from the focused (node, lane) stream
/// exactly where the scalar case-3 path would. Bit-identical to BenOrBatch
/// lane by lane.
class FusedBenOr final : public net::FusedProtocol {
public:
    explicit FusedBenOr(const BenOrParams& params);

    NodeId n() const override { return params_.n; }
    void rearm(const std::uint64_t* input_plane, const SeedTree* lane_seeds) override;
    void send_round(Round r, net::FusedFrame& frame) override;
    void receive_round(Round r, const net::FusedFrame& frame) override;
    const std::uint64_t* value_plane() const override { return val_.data(); }
    const std::uint64_t* decided_plane() const override { return decided_.data(); }
    const std::uint64_t* halted_plane() const override { return halted_.data(); }

private:
    BenOrParams params_;
    std::vector<std::uint64_t> val_;
    std::vector<std::uint64_t> proposal_;
    std::vector<std::uint64_t> proposing_;
    std::vector<std::uint64_t> decided_;
    std::vector<std::uint64_t> flushing_;
    std::vector<std::uint64_t> halted_;
    net::LaneStreams streams_;  ///< the private coins' per-(node, lane) streams
    net::SegmentFold fold_;     ///< recycled receive scratch
};

/// Builds (into an empty pool) or re-arms the node set of one trial.
void arm_ben_or_nodes(const BenOrParams& params, const std::vector<Bit>& inputs,
                      const SeedTree& seeds,
                      std::vector<std::unique_ptr<net::HonestNode>>& nodes);

}  // namespace adba::base
