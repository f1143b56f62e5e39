#include "adversary/static_adversary.hpp"

#include <bit>
#include <numeric>
#include <utility>

#include "net/fused_plane.hpp"
#include "support/contracts.hpp"

namespace adba::adv {

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

net::SplitRow StaticAdversary::row(Round r, NodeId n) {
    const bool round2 = (r % 2) == 1;
    net::SplitRow row;
    net::Message& low = row.low.emplace();  // val 0 (coin -1 in round 2) below the boundary
    low.kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    low.phase = r / 2;
    low.val = 0;
    low.coin = round2 ? CoinSign{-1} : CoinSign{0};
    net::Message& high = row.high.emplace(low);  // val 1 (coin +1) at and above it
    high.val = 1;
    high.coin = round2 ? CoinSign{1} : CoinSign{0};
    row.boundary = n / 2;
    return row;
}

bool StaticAdversary::same_strategy(const net::Adversary& other) const {
    return dynamic_cast<const StaticAdversary*>(&other) != nullptr;
}

void StaticAdversary::act(net::RoundControl& ctl) {
    if (ctl.round() == 0)
        for (const NodeId v : corrupted_) ctl.corrupt(v);
    const net::SplitRow r = row(ctl.round(), ctl.n());
    for (const NodeId v : corrupted_) ctl.split_as(v, r.low, r.high, r.boundary);
}

void StaticAdversary::act_block(net::FusedLaneControl& ctl, const net::Adversary* const* advs) {
    const net::FusedFrame& f = ctl.frame();
    if (ctl.round() == 0) {
        lane_mask_.assign(f.n(), 0);
        members_ = 0;
        for (std::uint64_t lanes = f.active; lanes != 0; lanes &= lanes - 1) {
            const std::uint64_t bit = lanes & -lanes;
            // same_strategy made every lane's adversary a StaticAdversary.
            const auto& set =
                static_cast<const StaticAdversary&>(*advs[std::countr_zero(lanes)]).corrupted_;
            for (const NodeId v : set) lane_mask_[v] |= bit;
            if (!set.empty()) members_ |= bit;
        }
        set_size_.resize(net::kFusedLanes);
        ctl.corrupt_lanes(lane_mask_.data(), set_size_.data());
    }
    if ((members_ & f.active) != 0)
        ctl.share_row(row(ctl.round(), f.n()), lane_mask_.data(), members_ & f.active,
                      set_size_.data());
}

}  // namespace adba::adv
