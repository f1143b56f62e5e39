// Sampling-majority agreement (Augustine-Pandurangan-Robinson, PODC 2013 —
// discussed in the paper's §1.3): in each round every node samples the
// values of two uniformly random nodes and re-sets its value to the
// majority of {own, sample1, sample2}. Converges to a common value in
// polylog(n) rounds when the Byzantine count is O(sqrt(n)/polylog n).
//
// The paper points out that this protocol and its own common coin both rest
// on anti-concentration: the random-walk drift of the value split is
// Θ(sqrt(n)) per round, so an adversary below the sqrt(n) scale cannot hold
// the population balanced — the same sqrt(n) frontier as Theorem 3.
// Experiment E11 measures that frontier directly.
//
// Model mapping: APR sample by pulling from random nodes; on a complete
// full-information network this is equivalent to everyone broadcasting its
// value and each receiver *choosing* two random senders to read — which is
// how we implement it (a Byzantine sender still controls, per receiver,
// the value that receiver samples; a rushing adversary still corrupts after
// seeing the round's broadcasts). Silent senders (crashed) are resampled as
// the receiver's own value.
//
// Termination: the primitive has no self-detection (APR wrap it in
// almost-everywhere-to-everywhere boosting, out of scope here); nodes run a
// fixed budget of R rounds and output their value. Tests and E11 measure
// the first all-agree round.
#pragma once

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "net/node.hpp"
#include "rand/seed_tree.hpp"
#include "support/types.hpp"

namespace adba::base {

struct SamplingMajorityParams {
    NodeId n = 0;
    Count t = 0;       ///< tolerated Byzantine (guarantees need t = O(sqrt n / polylog n))
    Count rounds = 1;  ///< fixed round budget R

    /// R = ceil(kappa * log2(n)^2) — the APR polylog convergence budget.
    static SamplingMajorityParams compute(NodeId n, Count t, double kappa = 4.0);
};

class SamplingMajorityNode final : public net::HonestNode {
public:
    /// An unarmed node; reinit() arms it.
    SamplingMajorityNode() = default;

    /// Arms the node for a fresh trial.
    void reinit(SamplingMajorityParams params, NodeId self, Bit input, Xoshiro256 rng);

    std::optional<net::Message> round_send(Round r) override;
    void round_receive(Round r, const net::ReceiveView& view) override;
    bool halted() const override { return halted_; }
    Bit current_value() const override { return val_; }

private:
    SamplingMajorityParams params_;
    NodeId self_ = 0;
    Xoshiro256 rng_;
    Bit val_ = 0;
    bool halted_ = false;
};

/// Builds (into an empty pool) or re-arms the node set of one trial.
void arm_sampling_majority_nodes(const SamplingMajorityParams& params,
                                 const std::vector<Bit>& inputs, const SeedTree& seeds,
                                 std::vector<std::unique_ptr<net::HonestNode>>& nodes);

}  // namespace adba::base
