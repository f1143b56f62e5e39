// Standalone common-coin protocols (paper §3.1) for direct measurement.
//
// Algorithm 1: every node draws X_v uniform in {-1, +1}, broadcasts it, and
// outputs 1 iff the sum of received values is >= 0. Theorem 3: this is a
// common coin (Definition 2) against an adaptive rushing adversary that
// corrupts up to ½·sqrt(n) nodes *after seeing the flips*.
//
// Algorithm 2: only k designated nodes (here: IDs 0..k-1, known to all)
// flip and broadcast; everyone outputs the sign of the designated sum.
// Corollary 1: common coin while at most ½·sqrt(k) designated nodes are
// Byzantine.
//
// Inside Algorithm 3 the coin is piggybacked on round-2 vote messages; these
// standalone one-round nodes exist so experiments E1/E2 can measure
// Definition 2's (δ, ε) directly.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "net/node.hpp"
#include "rand/rng.hpp"
#include "rand/seed_tree.hpp"

namespace adba::core {

struct CoinConfig {
    NodeId n = 0;
    /// Number of designated flippers (IDs 0..designated-1). designated == n
    /// is Algorithm 1; designated < n is Algorithm 2.
    NodeId designated = 0;
};

/// One participant of Algorithm 1 / Algorithm 2. Single round, then halts.
class CoinFlipNode final : public net::HonestNode {
public:
    /// An unarmed node; reinit() arms it.
    CoinFlipNode() = default;

    /// Arms the node for a fresh trial.
    void reinit(CoinConfig cfg, NodeId self, Xoshiro256 rng);

    std::optional<net::Message> round_send(Round r) override;
    void round_receive(Round r, const net::ReceiveView& view) override;
    bool halted() const override { return halted_; }
    Bit current_value() const override { return out_; }

    /// The ±1 value this node flipped (0 if not designated). Exposed for
    /// tests and full-information adversaries.
    CoinSign flipped() const { return flip_; }

private:
    CoinConfig cfg_;
    NodeId self_ = 0;
    Xoshiro256 rng_;
    CoinSign flip_ = 0;
    Bit out_ = 0;
    bool halted_ = false;
};

/// Builds (into an empty pool) or re-arms all n participants of one trial,
/// each with its own stream.
void arm_coin_nodes(const CoinConfig& cfg, const SeedTree& seeds,
                    std::vector<std::unique_ptr<net::HonestNode>>& nodes);

}  // namespace adba::core
