#include "adversary/static_adversary.hpp"

#include <algorithm>
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

void StaticAdversary::act(net::RoundControl& ctl) {
    if (ctl.round() == 0)
        for (const NodeId v : corrupted_) ctl.corrupt(v);
    const net::SplitRow r = row(ctl.round(), ctl.n());
    for (const NodeId v : corrupted_) ctl.split_as(v, r.low, r.high, r.boundary);
}

void StaticAdversary::start_block(net::Adversary* const* advs, std::uint64_t lanes, NodeId n,
                                  Count budget) {
    // on_start's draws in every lane at once, each from its lane's stream.
    lane_rng_.resize(net::kFusedLanes);
    Count q[net::kFusedLanes] = {};
    Count most = 0;
    for (std::uint64_t l = lanes; l != 0; l &= l - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(l));
        // same_strategy made every lane's adversary a StaticAdversary.
        const auto& lane = static_cast<const StaticAdversary&>(*advs[j]);
        ADBA_EXPECTS_MSG(lane.q_ <= budget, "static corrupt set exceeds engine budget");
        lane_rng_[j] = lane.rng_;
        q[j] = lane.q_;
        most = std::max(most, q[j]);
    }
    targets_.resize(static_cast<std::size_t>(most) * net::kFusedLanes);
    net::kern::fisher_yates_targets(lane_rng_.data(), q, lanes, n, targets_.data());

    // Each lane's swaps over the one id array. Swap i brings the id at its
    // target to position i, into the lane's set; position i is never read
    // again, so only the target is written, and writing every target back
    // restores the identity for the next lane.
    lane_mask_.assign(n, 0);
    members_ = 0;
    ids_.resize(n);
    std::iota(ids_.begin(), ids_.end(), NodeId{0});
    for (; lanes != 0; lanes &= lanes - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
        static_cast<StaticAdversary&>(*advs[j]).rng_ = lane_rng_[j];
        const NodeId* const target = targets_.data() + j;
        const std::uint64_t bit = std::uint64_t{1} << j;
        for (Count i = 0; i < q[j]; ++i) {
            const NodeId a = target[std::size_t{net::kFusedLanes} * i];
            lane_mask_[ids_[a]] |= bit;
            ids_[a] = ids_[i];
        }
        for (Count i = 0; i < q[j]; ++i) {
            const NodeId a = target[std::size_t{net::kFusedLanes} * i];
            ids_[a] = a;
        }
        if (q[j] != 0) members_ |= bit;
    }
}

void StaticAdversary::act_block(net::FusedLaneControl& ctl, const net::Adversary* const*) {
    const net::FusedFrame& f = ctl.frame();
    if (ctl.round() == 0) {
        set_size_.resize(net::kFusedLanes);
        ctl.corrupt_lanes(lane_mask_.data(), set_size_.data());
    }
    if ((members_ & f.active) != 0)
        ctl.share_row(row(ctl.round(), f.n()), lane_mask_.data(), members_ & f.active,
                      set_size_.data());
}

}  // namespace adba::adv
