// SoA batch implementation of the Rabin phase skeleton — the native
// BatchProtocol for every shared-coin agreement protocol in the repository
// (Algorithm 3, both Chor-Coan baselines, the Rabin trusted-dealer
// reference, and the local-coin ablation).
//
// Semantics are EXACTLY core/skeleton.hpp's RabinSkeletonNode — same state
// machine, same thresholds, same finish-flush termination, same per-node
// randomness draws in the same order — but the per-node state lives in flat
// arrays (val / decided / finish / flushing / halted planes plus one RNG
// stream per node in a contiguous vector) and the whole population steps
// under ONE virtual dispatch per engine beat. The receive step hoists the
// receiver-independent work out of the per-node loop entirely: the honest
// val/flag counts and coin prefix are read once per round from the shared
// RoundTally, and the per-receiver Byzantine deltas come from the tally's
// delta planes, so the inner loop is pure arithmetic over contiguous
// arrays. tests/test_batch_plane.cpp pins this class bit-identical to the
// per-node adapter across every compatible registry pair.
//
// The subclass coin hooks of RabinSkeletonNode become a BatchCoinSpec
// value: Committee (Algorithm 3 / Chor-Coan block schedules), Dealer (a
// public coin function of the phase), or Local (private per-node flips).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/params.hpp"
#include "core/skeleton.hpp"
#include "net/batch.hpp"
#include "net/sparse_plane.hpp"
#include "rand/rng.hpp"
#include "rand/seed_tree.hpp"

namespace adba::core {

/// The coin source for a SkeletonBatch — the data-only analogue of the
/// RabinSkeletonNode subclass hooks.
struct BatchCoinSpec {
    enum class Kind : std::uint8_t {
        Committee,  ///< phase-p committee members flip; coin = sign of sum
        Dealer,     ///< public coin: dealer(p), identical at every node
        Local,      ///< private coin: each case-3 node flips its own bit
    };
    Kind kind = Kind::Local;
    BlockSchedule schedule;           ///< Committee only
    std::function<Bit(Phase)> dealer; ///< Dealer only
};

/// Whole-population Rabin skeleton: one object, n nodes, flat planes.
class SkeletonBatch final : public net::BatchProtocol {
public:
    SkeletonBatch(const SkeletonConfig& cfg, BatchCoinSpec coin,
                  const std::vector<Bit>& inputs, const SeedTree& seeds);

    /// Re-arms a pooled batch for a fresh trial (constructor contract);
    /// zero allocation once warm.
    void rearm(const SkeletonConfig& cfg, BatchCoinSpec coin,
               const std::vector<Bit>& inputs, const SeedTree& seeds);

    NodeId n() const override { return cfg_.n; }
    void send_all(Round r, net::RoundBuffer& buf) override;
    void receive_all(Round r, const net::RoundBuffer& buf,
                     const net::RoundTally& tally) override;
    void receive_all(Round r, const net::RoundBuffer& buf,
                     const net::DeliverySource& src) override;
    // Sharded beats: all per-node state (planes, RNG streams) is indexed by
    // node, so ranges write disjointly; every shared tally query — including
    // the committee coin — is hoisted into receive_prepare. Dealer coins must
    // be pure functions of the phase (the registry's are), so they may be
    // invoked from any shard.
    bool shardable() const override { return true; }
    void send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) override;
    void receive_prepare(Round r, const net::RoundBuffer& buf,
                         const net::RoundTally& tally) override;
    void receive_range(Round r, const net::RoundBuffer& buf,
                       const net::RoundTally& tally, NodeId lo, NodeId hi) override;
    // Sparse beats: vote counts come from sampled per-receiver estimates;
    // the committee coin stays EXACT (its sender range is the paper's
    // polylog committee — cheap to hear in full), hoisted exactly as in
    // receive_prepare. Dense sampling reproduces the flat integers, so the
    // Lemma 3 assertion stays armed there and relaxes only under real
    // sampling, where two t+1 estimates can statistically coexist.
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
    /// Round-1 threshold update for node v given its (val 0, val 1) counts.
    void apply_round1(NodeId v, const std::array<Count, 2>& cnt);
    /// Round-2 update; `coin` is invoked only in case 3 (so RNG draws match
    /// the per-node path exactly). `checked` arms the Lemma 3 assertion —
    /// a theorem for exact counts, but not for sub-dense sampled estimates.
    template <typename CoinFn>
    void apply_round2(NodeId v, const std::array<Count, 2>& cnt_dec, bool checked,
                      CoinFn&& coin);
    /// Post-round-2 wrapper logic (finish flush / fixed-phase exhaustion).
    void apply_phase_end(NodeId v, Phase p);

    SkeletonConfig cfg_;
    BatchCoinSpec coin_;
    // receive_prepare → receive_range handoff; valid for one beat only.
    std::array<Count, 2> prep_base_{0, 0};
    const std::array<Count, 2>* prep_delta_ = nullptr;
    std::int64_t prep_honest_coin_ = 0;
    const std::int64_t* prep_coin_delta_ = nullptr;
    net::SparsePlane::Query prep_sparse_query_;  ///< sparse beats only
    std::vector<Bit> val_;
    std::vector<std::uint8_t> decided_;
    std::vector<std::uint8_t> finish_;
    std::vector<std::uint8_t> flushing_;
    std::vector<std::uint8_t> halted_;
    std::vector<Xoshiro256> rng_;  ///< per-node streams, flat
};

/// Factory + pooled-reinit pair mirroring make_*_nodes/reinit_*_nodes;
/// `reinit` checks the batch was built by this factory (type + size).
std::unique_ptr<net::BatchProtocol> make_skeleton_batch(
    const SkeletonConfig& cfg, BatchCoinSpec coin, const std::vector<Bit>& inputs,
    const SeedTree& seeds);
void reinit_skeleton_batch(const SkeletonConfig& cfg, BatchCoinSpec coin,
                           const std::vector<Bit>& inputs, const SeedTree& seeds,
                           net::BatchProtocol& batch);

}  // namespace adba::core
