#include "core/agreement.hpp"

#include "support/contracts.hpp"

namespace adba::core {

Algorithm3Node::Algorithm3Node(const AgreementParams& params, AgreementMode mode,
                               NodeId self, Bit input, Xoshiro256 rng) {
    reinit(params, mode, self, input, rng);
}

void Algorithm3Node::reinit(const AgreementParams& params, AgreementMode mode,
                            NodeId self, Bit input, Xoshiro256 rng) {
    RabinSkeletonNode::reinit(SkeletonConfig{params.n, params.t, params.phases, mode},
                              self, input, rng);
    sched_ = params.schedule;
}

CoinSign Algorithm3Node::coin_contribution(Phase p) {
    return sched_.flips_in_phase(self(), p) ? rng().sign() : CoinSign{0};
}

Bit Algorithm3Node::coin_value(Phase p, const net::ReceiveView& view) {
    const Count k = sched_.committee_of_phase(p);
    const auto [first, last] = sched_.range(k);
    return committee_coin_sum(view, p, first, last) >= 0 ? Bit{1} : Bit{0};
}

std::vector<std::unique_ptr<net::HonestNode>> make_algorithm3_nodes(
    const AgreementParams& params, AgreementMode mode, const std::vector<Bit>& inputs,
    const SeedTree& seeds) {
    ADBA_EXPECTS(inputs.size() == params.n);
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    nodes.reserve(params.n);
    for (NodeId v = 0; v < params.n; ++v) {
        nodes.push_back(std::make_unique<Algorithm3Node>(
            params, mode, v, inputs[v], seeds.stream(StreamPurpose::NodeProtocol, v)));
    }
    return nodes;
}

void reinit_algorithm3_nodes(const AgreementParams& params, AgreementMode mode,
                             const std::vector<Bit>& inputs, const SeedTree& seeds,
                             std::vector<std::unique_ptr<net::HonestNode>>& nodes) {
    ADBA_EXPECTS(inputs.size() == params.n);
    net::reinit_node_pool<Algorithm3Node>(nodes, params.n, [&](Algorithm3Node& nd,
                                                               NodeId v) {
        nd.reinit(params, mode, v, inputs[v],
                  seeds.stream(StreamPurpose::NodeProtocol, v));
    });
}

}  // namespace adba::core
