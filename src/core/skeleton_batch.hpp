// SoA batch implementation of the Rabin phase skeleton — the native
// BatchProtocol for every shared-coin agreement protocol in the repository
// (Algorithm 3, both Chor-Coan baselines, the Rabin trusted-dealer
// reference, and the local-coin ablation).
//
// Semantics are EXACTLY core/skeleton.hpp's RabinSkeletonNode — same state
// machine, same per-node randomness draws in the same order — but the
// per-node state lives in flat arrays (val / decided / flushing / halted
// planes, plus one RNG stream per node in a contiguous vector under the
// Local coin) and the whole
// population steps under ONE virtual dispatch per engine beat. The receive
// rule (net::NativeBatch) compares each receiver's net::BeatCounts against
// the thresholds and hands the masks to core::SkeletonStep, the round step
// FusedSkeleton calls too; the counts come from the shared RoundTally plus
// per-receiver delta planes, or from sampled estimates on the sparse plane.
// tests/test_batch_plane.cpp pins this class bit-identical to the per-node
// adapter across every compatible registry pair.
//
// The coin is the node's CoinSpec (core/skeleton.hpp): Committee (Algorithm
// 3 / Chor-Coan block schedules), Dealer (a public coin function of the
// trial's dealer seed and the phase), or Local (private per-node flips).
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "core/skeleton.hpp"
#include "net/batch.hpp"
#include "rand/rng.hpp"
#include "rand/seed_tree.hpp"

namespace adba::core {

/// Whole-population Rabin skeleton: one object, n nodes, flat planes.
class SkeletonBatch final : public net::NativeBatch {
public:
    /// Arms the batch for a fresh trial; zero allocation once warm.
    void rearm(const SkeletonConfig& cfg, CoinSpec coin,
               const std::vector<Bit>& inputs, const SeedTree& seeds);

    NodeId n() const override { return cfg_.n; }
    void send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) override;
    const std::uint8_t* halted_plane() const override { return planes_.halted.data(); }
    Bit value(NodeId v) const override { return planes_.val[v]; }
    bool decided(NodeId v) const override { return planes_.decided[v] != 0; }
    Bit output(NodeId v) const override { return planes_.val[v]; }
    const Bit* value_plane() const override { return planes_.val.data(); }
    const std::uint8_t* decided_plane() const override { return planes_.decided.data(); }

protected:
    /// Round 1 counts Vote1 vals; round 2 counts decided Vote2 vals plus,
    /// under the committee coin, the phase's committee sum.
    net::BeatQuery beat_query(Round r) const override;
    void receive_rule(Round r, const net::BeatCounts& in, NodeId lo, NodeId hi) override;

private:
    SkeletonConfig cfg_;
    CoinSpec coin_;
    std::uint64_t dealer_seed_ = 0;  ///< Dealer only: this trial's DealerCoin seed
    std::uint64_t purpose_ = 0;      ///< this trial's NodeProtocol purpose hash
    SkeletonPlanes<Bit> planes_;
    std::vector<Xoshiro256> rng_;  ///< Local only: per-node streams, flat
};

}  // namespace adba::core
