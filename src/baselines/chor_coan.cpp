#include "baselines/chor_coan.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"
#include "support/math.hpp"

namespace adba::base {

namespace {
double log2n(NodeId n) { return static_cast<double>(std::max<std::uint32_t>(1, ceil_log2(n))); }

Count clamp_count(double c, NodeId n) {
    return static_cast<Count>(std::clamp(std::ceil(c), 1.0, static_cast<double>(n)));
}
}  // namespace

ChorCoanParams ChorCoanParams::compute_rushing(NodeId n, Count t, const Tuning& tune) {
    ADBA_EXPECTS(n >= 1);
    ADBA_EXPECTS_MSG(3 * static_cast<std::uint64_t>(t) < n, "requires t < n/3");
    const double logn = log2n(n);
    const Count c = std::max(clamp_count(3.0 * tune.alpha * t / logn, n),
                             clamp_count(tune.gamma * logn, n));
    ChorCoanParams p;
    p.n = n;
    p.t = t;
    p.phases = c;
    p.schedule = BlockSchedule::make(n, static_cast<NodeId>(ceil_div(n, c)));
    return p;
}

ChorCoanParams ChorCoanParams::compute_classic(NodeId n, Count t, const Tuning& tune) {
    ADBA_EXPECTS(n >= 1);
    ADBA_EXPECTS_MSG(3 * static_cast<std::uint64_t>(t) < n, "requires t < n/3");
    const double logn = log2n(n);
    const auto g = static_cast<NodeId>(
        std::clamp(std::ceil(tune.beta * logn), 1.0, static_cast<double>(n)));
    // Budget enough phases that the adversary cannot ruin them all: a ruined
    // group costs ~½·sqrt(g) corruptions under rushing, plus the w.h.p. floor.
    const double ruin_cost = 0.5 * std::sqrt(static_cast<double>(g));
    const Count phases = clamp_count(2.0 * t / std::max(1.0, ruin_cost), n) +
                         clamp_count(tune.gamma * logn, n);
    ChorCoanParams p;
    p.n = n;
    p.t = t;
    p.phases = phases;
    p.schedule = BlockSchedule::make(n, g);
    return p;
}

ChorCoanNode::ChorCoanNode(const ChorCoanParams& params, AgreementMode mode, NodeId self,
                           Bit input, Xoshiro256 rng) {
    reinit(params, mode, self, input, rng);
}

void ChorCoanNode::reinit(const ChorCoanParams& params, AgreementMode mode,
                          NodeId self, Bit input, Xoshiro256 rng) {
    RabinSkeletonNode::reinit(
        core::SkeletonConfig{params.n, params.t, params.phases, mode}, self, input,
        rng);
    sched_ = params.schedule;
}

CoinSign ChorCoanNode::coin_contribution(Phase p) {
    return sched_.flips_in_phase(self(), p) ? rng().sign() : CoinSign{0};
}

Bit ChorCoanNode::coin_value(Phase p, const net::ReceiveView& view) {
    const Count k = sched_.committee_of_phase(p);
    const auto [first, last] = sched_.range(k);
    return core::committee_coin_sum(view, p, first, last) >= 0 ? Bit{1} : Bit{0};
}

std::vector<std::unique_ptr<net::HonestNode>> make_chor_coan_nodes(
    const ChorCoanParams& params, AgreementMode mode, const std::vector<Bit>& inputs,
    const SeedTree& seeds) {
    ADBA_EXPECTS(inputs.size() == params.n);
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    nodes.reserve(params.n);
    for (NodeId v = 0; v < params.n; ++v) {
        nodes.push_back(std::make_unique<ChorCoanNode>(
            params, mode, v, inputs[v], seeds.stream(StreamPurpose::NodeProtocol, v)));
    }
    return nodes;
}

void reinit_chor_coan_nodes(const ChorCoanParams& params, AgreementMode mode,
                            const std::vector<Bit>& inputs, const SeedTree& seeds,
                            std::vector<std::unique_ptr<net::HonestNode>>& nodes) {
    ADBA_EXPECTS(inputs.size() == params.n);
    net::reinit_node_pool<ChorCoanNode>(nodes, params.n, [&](ChorCoanNode& nd,
                                                             NodeId v) {
        nd.reinit(params, mode, v, inputs[v],
                  seeds.stream(StreamPurpose::NodeProtocol, v));
    });
}

Round max_rounds_whp(const ChorCoanParams& p) { return 2 * (p.phases + 2); }

}  // namespace adba::base
