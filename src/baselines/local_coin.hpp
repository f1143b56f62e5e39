// Local-coin ablation (Ben-Or style): the Rabin skeleton with each undecided
// node flipping its own private coin instead of sharing one.
//
// This is the "why common coins matter" control: with u undecided honest
// nodes, a phase is good only if all u private flips land on the decided
// value simultaneously — probability ~2^-u — so from a split start the
// protocol needs expected exponential phases (Ben-Or, PODC 1983 behaviour).
// Used by E8/E9 to show the committee coin is what buys the speedup, and as
// a correctness stressor (safety must hold even when liveness crawls).
#pragma once

#include <memory>
#include <vector>

#include "core/skeleton.hpp"
#include "rand/seed_tree.hpp"

namespace adba::base {

struct LocalCoinParams {
    NodeId n = 0;
    Count t = 0;
    /// Explicit phase budget — there is no useful w.h.p. formula (expected
    /// phases are exponential in the number of undecided nodes).
    Count phases = 1;
};

class LocalCoinNode final : public core::RabinSkeletonNode {
public:
    LocalCoinNode(const LocalCoinParams& params, core::AgreementMode mode, NodeId self,
                  Bit input, Xoshiro256 rng);

    /// Re-arms a pooled node for a fresh trial (constructor contract).
    void reinit(const LocalCoinParams& params, core::AgreementMode mode, NodeId self,
                Bit input, Xoshiro256 rng) {
        RabinSkeletonNode::reinit(
            core::SkeletonConfig{params.n, params.t, params.phases, mode}, self,
            input, rng);
    }

protected:
    CoinSign coin_contribution(Phase) override { return 0; }
    Bit coin_value(Phase, const net::ReceiveView&) override { return rng().bit(); }
};

std::vector<std::unique_ptr<net::HonestNode>> make_local_coin_nodes(
    const LocalCoinParams& params, core::AgreementMode mode,
    const std::vector<Bit>& inputs, const SeedTree& seeds);

/// Re-arms a pool built by make_local_coin_nodes for a new trial (no allocs).
void reinit_local_coin_nodes(const LocalCoinParams& params, core::AgreementMode mode,
                             const std::vector<Bit>& inputs, const SeedTree& seeds,
                             std::vector<std::unique_ptr<net::HonestNode>>& nodes);

}  // namespace adba::base
