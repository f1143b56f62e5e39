#include "adversary/static_adversary.hpp"

#include <algorithm>
#include <numeric>

#include "support/contracts.hpp"

namespace adba::adv {

StaticAdversary::StaticAdversary(Count q, StaticBehavior behavior, Xoshiro256 rng)
    : q_(q), behavior_(behavior), rng_(rng) {}

void StaticAdversary::on_start(NodeId n, Count budget) {
    ADBA_EXPECTS_MSG(q_ <= budget, "static corrupt set exceeds engine budget");
    // Uniform sample without replacement (partial Fisher-Yates). The draw
    // sequence is part of the recorded-experiment contract — the scratch
    // reuse below must never change which rng_ values are consumed.
    ids_.resize(n);
    std::iota(ids_.begin(), ids_.end(), NodeId{0});
    for (Count i = 0; i < q_; ++i) {
        const auto j = i + static_cast<NodeId>(rng_.below(n - i));
        std::swap(ids_[i], ids_[j]);
    }
    corrupted_.assign(ids_.begin(), ids_.begin() + q_);
    std::sort(corrupted_.begin(), corrupted_.end());
}

std::optional<net::LaneUniformRound> StaticAdversary::lane_uniform(Round r, NodeId n) const {
    // Built in place: a fused block asks every lane for its form every round.
    std::optional<net::LaneUniformRound> form(std::in_place);
    form->corrupt = corrupted_;
    if (behavior_ == StaticBehavior::SplitVotes) {
        const bool round2 = (r % 2) == 1;
        net::SplitRow& row = form->row.emplace();
        net::Message& low = row.low.emplace();  // val 0 (coin -1 in round 2) below the boundary
        low.kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
        low.phase = r / 2;
        low.val = 0;
        low.coin = round2 ? CoinSign{-1} : CoinSign{0};
        net::Message& high = row.high.emplace(low);  // val 1 (coin +1) at and above it
        high.val = 1;
        high.coin = round2 ? CoinSign{1} : CoinSign{0};
        row.boundary = n / 2;
    }
    return form;
}

void StaticAdversary::act(net::RoundControl& ctl) {
    lane_uniform(ctl.round(), ctl.n())->play(ctl);
}

}  // namespace adba::adv
