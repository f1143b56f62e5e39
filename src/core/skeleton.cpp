#include "core/skeleton.hpp"

#include "support/contracts.hpp"

namespace adba::core {

RabinSkeletonNode::RabinSkeletonNode(const SkeletonConfig& cfg, const CoinSpec& coin,
                                     NodeId self, Bit input, Xoshiro256 rng,
                                     std::uint64_t dealer_seed) {
    reinit(cfg, coin, self, input, rng, dealer_seed);  // one initialization body
}

void SkeletonConfig::check(const CoinSpec& coin) const {
    ADBA_EXPECTS(n > 0);
    ADBA_EXPECTS_MSG(3 * static_cast<std::uint64_t>(t) < n, "requires t < n/3");
    ADBA_EXPECTS(phases >= 1);
    if (coin.kind == CoinSpec::Kind::Dealer) ADBA_EXPECTS(coin.dealer != nullptr);
}

void RabinSkeletonNode::reinit(const SkeletonConfig& cfg, const CoinSpec& coin, NodeId self,
                               Bit input, Xoshiro256 rng, std::uint64_t dealer_seed) {
    cfg.check(coin);
    ADBA_EXPECTS(self < cfg.n);
    ADBA_EXPECTS(input <= 1);
    cfg_ = cfg;
    coin_ = coin;
    dealer_seed_ = dealer_seed;
    self_ = self;
    rng_ = rng;
    val_ = input;
    decided_ = false;
    finish_ = false;
    finish_phase_.reset();
    flushing_ = false;
    halted_ = false;
}

std::optional<net::Message> RabinSkeletonNode::round_send(Round r) {
    ADBA_EXPECTS(!halted_);
    const Phase p = r / 2;
    net::Message m;
    m.phase = p;
    m.val = val_;
    m.flag = decided_ ? 1 : 0;
    if (r % 2 == 0) {
        m.kind = net::MsgKind::Vote1;
    } else {
        m.kind = net::MsgKind::Vote2;
        // Flip regardless of this node's own case: the flip is drawn before
        // any round-2 delivery is seen, so every honest committee member
        // contributes (Corollary 1 counts them all).
        if (coin_.kind == CoinSpec::Kind::Committee && coin_.schedule.flips_in_phase(self_, p))
            m.coin = rng_.sign();
        if (flushing_) {
            // Second flush broadcast done; the node's output is final.
            halted_ = true;
        }
    }
    return m;
}

void RabinSkeletonNode::round_receive(Round r, const net::ReceiveView& view) {
    ADBA_EXPECTS(!halted_);
    const Phase p = r / 2;
    if (flushing_) return;  // output already fixed; ignore deliveries
    if (r % 2 == 0) {
        receive_round1(p, view);
    } else {
        receive_round2(p, view);
        if (finish_) {
            // Broadcast (val, decided=true) through one more full phase,
            // then halt (see header comment on the finish flush).
            flushing_ = true;
        } else if (cfg_.mode == AgreementMode::WhpFixedPhases && p + 1 == cfg_.phases) {
            // Phase budget exhausted: decide on the current val (Theorem 2's
            // w.h.p. guarantee is about exactly this point).
            halted_ = true;
        }
    }
}

void RabinSkeletonNode::receive_round1(Phase p, const net::ReceiveView& view) {
    const Count n = cfg_.n;
    const auto cnt = view.val_counts(net::MsgKind::Vote1, p, /*require_flag=*/false);
    const Count quorum = n - cfg_.t;
    ADBA_ENSURES_MSG(!(cnt[0] >= quorum && cnt[1] >= quorum),
                     "two n-t quorums cannot coexist (t < n/3)");
    if (cnt[0] >= quorum) {
        val_ = 0;
        decided_ = true;
    } else if (cnt[1] >= quorum) {
        val_ = 1;
        decided_ = true;
    } else {
        decided_ = false;
    }
}

void RabinSkeletonNode::receive_round2(Phase p, const net::ReceiveView& view) {
    const Count n = cfg_.n;
    const auto cnt_dec = view.val_counts(net::MsgKind::Vote2, p, /*require_flag=*/true);
    const Count quorum = n - cfg_.t;
    const Count supermin = cfg_.t + 1;
    // Lemma 3: all honest decided nodes share one value, so two disjoint
    // (t+1)-sized decided sets for different values would need two honest
    // nodes decided on different values — impossible.
    ADBA_ENSURES_MSG(!(cnt_dec[0] >= supermin && cnt_dec[1] >= supermin),
                     "Lemma 3 violated: decided quorums for both values");
    for (Bit b : {Bit{0}, Bit{1}}) {
        if (cnt_dec[b] >= quorum) {
            val_ = b;
            decided_ = true;
            finish_ = true;
            finish_phase_ = p;
            return;
        }
    }
    for (Bit b : {Bit{0}, Bit{1}}) {
        if (cnt_dec[b] >= supermin) {
            val_ = b;
            decided_ = true;
            return;
        }
    }
    val_ = case3_coin(p, view);
    decided_ = false;
}

Bit RabinSkeletonNode::case3_coin(Phase p, const net::ReceiveView& view) {
    switch (coin_.kind) {
        case CoinSpec::Kind::Committee: {
            const auto [first, last] = coin_.schedule.range(coin_.schedule.committee_of_phase(p));
            return committee_coin_sum(view, p, first, last) >= 0 ? Bit{1} : Bit{0};
        }
        case CoinSpec::Kind::Dealer:
            return coin_.dealer(dealer_seed_, p);
        case CoinSpec::Kind::Local:
            return rng_.bit();
    }
    return Bit{0};  // unreachable: all kinds handled above
}

void arm_skeleton_nodes(const SkeletonConfig& cfg, const CoinSpec& coin,
                        const std::vector<Bit>& inputs, const SeedTree& seeds,
                        std::vector<std::unique_ptr<net::HonestNode>>& nodes) {
    ADBA_EXPECTS(inputs.size() == cfg.n);
    const std::uint64_t dealer_seed =
        coin.kind == CoinSpec::Kind::Dealer ? seeds.seed(StreamPurpose::DealerCoin) : 0;
    net::arm_node_pool<RabinSkeletonNode>(nodes, cfg.n, [&](RabinSkeletonNode& nd, NodeId v) {
        nd.reinit(cfg, coin, v, inputs[v], seeds.stream(StreamPurpose::NodeProtocol, v),
                  dealer_seed);
    });
}

std::int64_t committee_coin_sum(const net::ReceiveView& view, Phase p, NodeId first,
                                NodeId last) {
    return view.coin_sum(net::MsgKind::Vote2, p, /*check_phase=*/true, first, last);
}

}  // namespace adba::core
