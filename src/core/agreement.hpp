// Algorithm 3 (paper §3.2): committee-based Byzantine agreement under an
// adaptive full-information rushing adversary, t < n/3.
//
// The node is the Rabin skeleton plus the paper's committee coin: phase i's
// coin is produced by committee i (ID block of size s = n/c), each member
// piggybacking a ±1 flip on its round-2 broadcast; every node adopts the
// sign of the committee sum (Algorithm 2 / Corollary 1).
//
// Round complexity: phases = c = min(α⌈t²/n⌉log n, 3αt/log n) (+ the
// finite-n w.h.p. floor, see core/params.hpp), two rounds per phase, early
// termination per Lemma 4.
#pragma once

#include <memory>
#include <vector>

#include "core/params.hpp"
#include "core/skeleton.hpp"
#include "net/node.hpp"
#include "rand/seed_tree.hpp"

namespace adba::core {

/// One node of Algorithm 3.
class Algorithm3Node final : public RabinSkeletonNode {
public:
    Algorithm3Node(const AgreementParams& params, AgreementMode mode, NodeId self,
                   Bit input, Xoshiro256 rng);

    /// Re-arms a pooled node for a fresh trial (constructor contract).
    void reinit(const AgreementParams& params, AgreementMode mode, NodeId self,
                Bit input, Xoshiro256 rng);

    const BlockSchedule& schedule() const { return sched_; }

protected:
    CoinSign coin_contribution(Phase p) override;
    Bit coin_value(Phase p, const net::ReceiveView& view) override;

private:
    BlockSchedule sched_;
};

/// Builds the full node vector for one run: node v gets inputs[v] and an
/// independent protocol stream from the seed tree.
std::vector<std::unique_ptr<net::HonestNode>> make_algorithm3_nodes(
    const AgreementParams& params, AgreementMode mode, const std::vector<Bit>& inputs,
    const SeedTree& seeds);

/// Re-arms a pool previously built by make_algorithm3_nodes for a new trial,
/// with zero allocation. Pool size and node types must match.
void reinit_algorithm3_nodes(const AgreementParams& params, AgreementMode mode,
                             const std::vector<Bit>& inputs, const SeedTree& seeds,
                             std::vector<std::unique_ptr<net::HonestNode>>& nodes);

}  // namespace adba::core
