#include "baselines/local_coin.hpp"

#include "support/contracts.hpp"

namespace adba::base {

LocalCoinNode::LocalCoinNode(const LocalCoinParams& params, core::AgreementMode mode,
                             NodeId self, Bit input, Xoshiro256 rng) {
    reinit(params, mode, self, input, rng);
}

std::vector<std::unique_ptr<net::HonestNode>> make_local_coin_nodes(
    const LocalCoinParams& params, core::AgreementMode mode,
    const std::vector<Bit>& inputs, const SeedTree& seeds) {
    ADBA_EXPECTS(inputs.size() == params.n);
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    nodes.reserve(params.n);
    for (NodeId v = 0; v < params.n; ++v) {
        nodes.push_back(std::make_unique<LocalCoinNode>(
            params, mode, v, inputs[v], seeds.stream(StreamPurpose::NodeProtocol, v)));
    }
    return nodes;
}

void reinit_local_coin_nodes(const LocalCoinParams& params, core::AgreementMode mode,
                             const std::vector<Bit>& inputs, const SeedTree& seeds,
                             std::vector<std::unique_ptr<net::HonestNode>>& nodes) {
    ADBA_EXPECTS(inputs.size() == params.n);
    net::reinit_node_pool<LocalCoinNode>(nodes, params.n, [&](LocalCoinNode& nd,
                                                              NodeId v) {
        nd.reinit(params, mode, v, inputs[v],
                  seeds.stream(StreamPurpose::NodeProtocol, v));
    });
}

}  // namespace adba::base
