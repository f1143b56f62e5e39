#include "adversary/static_adversary.hpp"

#include <bit>
#include <numeric>
#include <utility>

#include "support/contracts.hpp"

namespace adba::adv {

StaticAdversary::StaticAdversary(Count q, StaticBehavior behavior, Xoshiro256 rng)
    : q_(q), behavior_(behavior), rng_(rng) {}

void StaticAdversary::on_start(NodeId n, Count budget) {
    ADBA_EXPECTS_MSG(q_ <= budget, "static corrupt set exceeds engine budget");
    // Uniform sample without replacement (partial Fisher-Yates). The draw
    // sequence is part of the recorded-experiment contract: exactly q_
    // below() calls, in this order.
    ids_.resize(n);
    std::iota(ids_.begin(), ids_.end(), NodeId{0});
    member_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
    for (Count i = 0; i < q_; ++i) {
        const auto j = i + static_cast<NodeId>(rng_.below(n - i));
        std::swap(ids_[i], ids_[j]);
        member_[ids_[i] / 64] |= std::uint64_t{1} << (ids_[i] % 64);
    }
    // One O(n/64 + q) sweep of the membership bitmap lists the set in
    // ascending order.
    corrupted_.resize(q_);
    Count k = 0;
    for (std::size_t w = 0; w < member_.size(); ++w)
        for (std::uint64_t bits = member_[w]; bits != 0; bits &= bits - 1)
            corrupted_[k++] = static_cast<NodeId>(w * 64 + std::countr_zero(bits));
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

bool StaticAdversary::same_strategy(const net::Adversary& other) const {
    const auto* o = dynamic_cast<const StaticAdversary*>(&other);
    return o != nullptr && o->behavior_ == behavior_;
}

void StaticAdversary::act(net::RoundControl& ctl) {
    lane_uniform(ctl.round(), ctl.n())->play(ctl);
}

}  // namespace adba::adv
