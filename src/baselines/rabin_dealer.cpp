#include "baselines/rabin_dealer.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"
#include "support/math.hpp"

namespace adba::base {

RabinDealerParams RabinDealerParams::compute(NodeId n, Count t, double gamma) {
    ADBA_EXPECTS(n >= 1);
    ADBA_EXPECTS_MSG(3 * static_cast<std::uint64_t>(t) < n, "requires t < n/3");
    const double logn = static_cast<double>(std::max<std::uint32_t>(1, ceil_log2(n)));
    RabinDealerParams p;
    p.n = n;
    p.t = t;
    p.phases = static_cast<Count>(std::max(1.0, std::ceil(gamma * logn))) + 1;
    return p;
}

RabinDealerNode::RabinDealerNode(const RabinDealerParams& params, core::AgreementMode mode,
                                 NodeId self, Bit input, Xoshiro256 rng,
                                 std::uint64_t dealer_seed) {
    reinit(params, mode, self, input, rng, dealer_seed);
}

void RabinDealerNode::reinit(const RabinDealerParams& params, core::AgreementMode mode,
                             NodeId self, Bit input, Xoshiro256 rng,
                             std::uint64_t dealer_seed) {
    RabinSkeletonNode::reinit(
        core::SkeletonConfig{params.n, params.t, params.phases, mode}, self, input,
        rng);
    dealer_seed_ = dealer_seed;
}

Bit RabinDealerNode::dealer_coin(std::uint64_t dealer_seed, Phase p) {
    return static_cast<Bit>(mix64(dealer_seed ^ (0x51a3c0ffee1dULL + p)) & 1);
}

Bit RabinDealerNode::coin_value(Phase p, const net::ReceiveView&) {
    return dealer_coin(dealer_seed_, p);
}

std::vector<std::unique_ptr<net::HonestNode>> make_rabin_dealer_nodes(
    const RabinDealerParams& params, core::AgreementMode mode,
    const std::vector<Bit>& inputs, const SeedTree& seeds) {
    ADBA_EXPECTS(inputs.size() == params.n);
    const std::uint64_t dealer_seed = seeds.seed(StreamPurpose::DealerCoin);
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    nodes.reserve(params.n);
    for (NodeId v = 0; v < params.n; ++v) {
        nodes.push_back(std::make_unique<RabinDealerNode>(
            params, mode, v, inputs[v], seeds.stream(StreamPurpose::NodeProtocol, v),
            dealer_seed));
    }
    return nodes;
}

void reinit_rabin_dealer_nodes(const RabinDealerParams& params,
                               core::AgreementMode mode,
                               const std::vector<Bit>& inputs, const SeedTree& seeds,
                               std::vector<std::unique_ptr<net::HonestNode>>& nodes) {
    ADBA_EXPECTS(inputs.size() == params.n);
    const std::uint64_t dealer_seed = seeds.seed(StreamPurpose::DealerCoin);
    net::reinit_node_pool<RabinDealerNode>(nodes, params.n, [&](RabinDealerNode& nd,
                                                                NodeId v) {
        nd.reinit(params, mode, v, inputs[v],
                  seeds.stream(StreamPurpose::NodeProtocol, v), dealer_seed);
    });
}

Round max_rounds_whp(const RabinDealerParams& p) { return 2 * (p.phases + 2); }

}  // namespace adba::base
