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
#include "net/sparse_plane.hpp"
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
    BenOrNode(BenOrParams params, NodeId self, Bit input, Xoshiro256 rng);

    /// Re-arms a pooled node for a fresh trial (constructor contract).
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
/// arrays, whole population stepped under one dispatch per beat. The
/// report/propose quorum counts are hoisted out of the per-node loop: the
/// honest tallies are receiver-independent, only Byzantine deltas vary.
/// Bit-identical to BenOrNode (tests/test_batch_plane.cpp).
class BenOrBatch final : public net::BatchProtocol {
public:
    BenOrBatch(const BenOrParams& params, const std::vector<Bit>& inputs,
               const SeedTree& seeds);
    void rearm(const BenOrParams& params, const std::vector<Bit>& inputs,
               const SeedTree& seeds);

    NodeId n() const override { return params_.n; }
    void send_all(Round r, net::RoundBuffer& buf) override;
    void receive_all(Round r, const net::RoundBuffer& buf,
                     const net::RoundTally& tally) override;
    void receive_all(Round r, const net::RoundBuffer& buf,
                     const net::DeliverySource& src) override;
    // Sharded beats: state planes and RNG streams are per-node, the honest
    // quorum counts and Byzantine delta plane are hoisted in
    // receive_prepare, so ranges step race-free (net/batch.hpp contract).
    bool shardable() const override { return true; }
    void send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) override;
    void receive_prepare(Round r, const net::RoundBuffer& buf,
                         const net::RoundTally& tally) override;
    void receive_range(Round r, const net::RoundBuffer& buf,
                       const net::RoundTally& tally, NodeId lo, NodeId hi) override;
    // Sparse beats: report/propose quorums from sampled estimates. The
    // "conflicting proposals above t" assertion is a theorem for exact
    // counts only, so it relaxes under sub-dense sampling; dense sampling
    // reproduces the flat integers and keeps it armed.
    bool supports_sparse() const override { return true; }
    void receive_sparse_prepare(Round r, const net::RoundBuffer& buf,
                                const net::RoundTally& tally,
                                const net::SparsePlane& sparse) override;
    void receive_sparse_range(Round r, const net::RoundBuffer& buf,
                              const net::RoundTally& tally,
                              const net::SparsePlane& sparse, NodeId lo,
                              NodeId hi) override;
    const std::uint8_t* halted_plane() const override { return halted_.data(); }
    Bit value(NodeId v) const override { return val_[v]; }
    bool decided(NodeId v) const override { return decided_[v] != 0; }
    Bit output(NodeId v) const override { return val_[v]; }
    const Bit* value_plane() const override { return val_.data(); }
    const std::uint8_t* decided_plane() const override { return decided_.data(); }

private:
    void apply_report(NodeId v, const std::array<Count, 2>& cnt);
    /// `checked` arms the conflicting-proposals assertion — exact counts
    /// only; sub-dense sampled estimates can trip it statistically.
    void apply_propose(NodeId v, Phase p, const std::array<Count, 2>& prop,
                       bool checked);

    BenOrParams params_;
    // receive_prepare → receive_range handoff; valid for one beat only.
    std::array<Count, 2> prep_base_{0, 0};
    const std::array<Count, 2>* prep_delta_ = nullptr;
    net::SparsePlane::Query prep_sparse_query_;  ///< sparse beats only
    std::vector<Bit> val_;
    std::vector<Bit> proposal_;
    std::vector<std::uint8_t> proposing_;
    std::vector<std::uint8_t> decided_;
    std::vector<std::uint8_t> flushing_;
    std::vector<std::uint8_t> halted_;
    std::vector<Xoshiro256> rng_;
};

/// 64-lane Ben-Or over the fused trial plane (net/fused_plane.hpp): report
/// and propose quorums become per-(lane, segment) exact counts fed by
/// bit-sliced LaneAdder columns; the private coin draws from the focused
/// (node, lane) stream exactly where the scalar case-3 path would.
/// Bit-identical to BenOrBatch lane by lane.
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
    std::vector<Xoshiro256> rng_;  ///< lane-major per node: rng_[v*64+j]
    // Recycled receive scratch.
    net::SegmentFold fold_;
    net::LaneToggles t_fin_, t_val1_, t_coin_;
    std::vector<std::uint64_t> m_fin_, m_val1_, m_coin_;
};

std::vector<std::unique_ptr<net::HonestNode>> make_ben_or_nodes(
    const BenOrParams& params, const std::vector<Bit>& inputs, const SeedTree& seeds);

/// Re-arms a pool built by make_ben_or_nodes for a new trial (no allocs).
void reinit_ben_or_nodes(const BenOrParams& params, const std::vector<Bit>& inputs,
                         const SeedTree& seeds,
                         std::vector<std::unique_ptr<net::HonestNode>>& nodes);

/// Native batch factory / pooled reinit (mirrors make/reinit_ben_or_nodes).
std::unique_ptr<net::BatchProtocol> make_ben_or_batch(const BenOrParams& params,
                                                      const std::vector<Bit>& inputs,
                                                      const SeedTree& seeds);
void reinit_ben_or_batch(const BenOrParams& params, const std::vector<Bit>& inputs,
                         const SeedTree& seeds, net::BatchProtocol& batch);

}  // namespace adba::base
