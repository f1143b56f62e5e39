#include "core/common_coin.hpp"

#include "support/contracts.hpp"

namespace adba::core {

void CoinFlipNode::reinit(CoinConfig cfg, NodeId self, Xoshiro256 rng) {
    ADBA_EXPECTS(cfg.n > 0);
    ADBA_EXPECTS(cfg.designated >= 1 && cfg.designated <= cfg.n);
    ADBA_EXPECTS(self < cfg.n);
    cfg_ = cfg;
    self_ = self;
    rng_ = rng;
    flip_ = 0;
    out_ = 0;
    halted_ = false;
}

std::optional<net::Message> CoinFlipNode::round_send(Round r) {
    ADBA_EXPECTS(r == 0);
    if (self_ >= cfg_.designated) return std::nullopt;  // only designated flip
    flip_ = rng_.sign();
    net::Message m;
    m.kind = net::MsgKind::Coin;
    m.coin = flip_;
    return m;
}

void CoinFlipNode::round_receive(Round r, const net::ReceiveView& view) {
    ADBA_EXPECTS(r == 0);
    const std::int64_t sum = view.coin_sum(net::MsgKind::Coin, 0,
                                           /*check_phase=*/false, 0, cfg_.designated);
    out_ = sum >= 0 ? Bit{1} : Bit{0};
    halted_ = true;
}

void arm_coin_nodes(const CoinConfig& cfg, const SeedTree& seeds,
                    std::vector<std::unique_ptr<net::HonestNode>>& nodes) {
    net::arm_node_pool<CoinFlipNode>(nodes, cfg.n, [&](CoinFlipNode& nd, NodeId v) {
        nd.reinit(cfg, v, seeds.stream(StreamPurpose::NodeProtocol, v));
    });
}

}  // namespace adba::core
