#include "core/skeleton_fused.hpp"

#include <algorithm>
#include <tuple>

#include "support/contracts.hpp"

namespace adba::core {

using net::kFusedLanes;

FusedSkeleton::FusedSkeleton(const SkeletonConfig& cfg, CoinSpec coin) {
    cfg.check(coin);
    cfg_ = cfg;
    coin_ = std::move(coin);
}

void FusedSkeleton::rearm(const std::uint64_t* input_plane, const SeedTree* lane_seeds) {
    const NodeId n = cfg_.n;
    planes_.rearm(input_plane, n);
    coin_first_ = coin_last_ = 0;  // a block starts on a zeroed frame
    streams_.rearm(lane_seeds, coin_.kind == CoinSpec::Kind::Local ? n : 0);
    if (coin_.kind == CoinSpec::Kind::Dealer)
        for (unsigned j = 0; j < kFusedLanes; ++j)
            dealer_seed_[j] = lane_seeds[j].seed(StreamPurpose::DealerCoin);
}

// Node loops below call nothing, so that each is a vector loop at the
// build's baseline ISA; random draws run in loops of their own over only the
// nodes that draw.

void FusedSkeleton::send_round(Round r, net::FusedFrame& frame) {
    const NodeId n = cfg_.n;
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    frame.kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    frame.phase = p;

    // The coin planes carry only the flipping committee: clear the range
    // the last send wrote.
    std::fill(frame.coinp.begin() + coin_first_, frame.coinp.begin() + coin_last_, 0);
    std::fill(frame.coinn.begin() + coin_first_, frame.coinn.begin() + coin_last_, 0);
    coin_first_ = coin_last_ = 0;

    std::uint64_t* const sent = frame.sent.data();
    const std::uint64_t* const byz = frame.byz.data();
    std::uint64_t* const halted = planes_.halted.data();
    for (NodeId v = 0; v < n; ++v) sent[v] = ~byz[v] & ~halted[v];
    std::copy_n(planes_.val.data(), n, frame.val.data());
    std::copy_n(planes_.decided.data(), n, frame.flag.data());
    if (!round2) return;

    // The flip is drawn before any round-2 delivery is seen (Lemma 5
    // independence) for every live lane, flushing or not — exactly the
    // scalar send path's draw set.
    std::tie(coin_first_, coin_last_) = coin_.flippers(p);
    for (NodeId v = coin_first_; v < coin_last_; ++v) {
        const std::uint64_t drawn = sent[v] & frame.active;
        const std::uint64_t ones = committee_flips(v, p, drawn);
        frame.coinp[v] = ones & drawn;
        frame.coinn[v] = ~ones & drawn;
    }
    const std::uint64_t* const flushing = planes_.flushing.data();
    for (NodeId v = 0; v < n; ++v) halted[v] |= sent[v] & flushing[v];  // second flush broadcast done
}

void FusedSkeleton::receive_round(Round r, const net::FusedFrame& frame) {
    using net::kern::lanes_greater;
    using Step = SkeletonStep<std::uint64_t>;
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    const net::MsgKind kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    // count >= n - t, and count >= t + 1, as count > bound.
    const auto quorum = static_cast<std::int32_t>(cfg_.n - cfg_.t - 1);
    const auto supermin = static_cast<std::int32_t>(cfg_.t);
    const std::uint64_t active = frame.active;

    // Round 2 counts flagged senders only (val_flag_cnt), and the committee
    // coin adds its members' flips.
    const auto [flip_first, flip_last] = round2 ? coin_.flippers(p) : std::pair<NodeId, NodeId>{};
    fold_.prepare(frame, {kind, p, round2, flip_first, flip_last});

    const std::uint64_t* const byz = frame.byz.data();
    const std::uint64_t* const sign = frame.sign.data();
    const std::uint64_t* const flushing = planes_.flushing.data();
    const std::uint64_t* const halted = planes_.halted.data();
    const auto live = [&](NodeId v) { return ~byz[v] & ~halted[v] & ~flushing[v] & active; };
    const bool exhausts = cfg_.exhausts(p);
    std::uint64_t dealer_drawn = 0, dealer_ones = 0;
    fold_.sweep([&](const net::LaneCounts& c, NodeId lo, NodeId hi) {
        const std::uint64_t q0 = lanes_greater(c.c0, quorum) & active;
        const std::uint64_t q1 = lanes_greater(c.c1, quorum) & active;
        if (!round2) {
            const Step step = Step::round1(q0, q1);
            for (NodeId v = lo; v < hi; ++v) step.value(planes_, v, live(v), 0);
            return;
        }

        const Step step = Step::round2(q0, q1, lanes_greater(c.c0, supermin) & active,
                                       lanes_greater(c.c1, supermin) & active,
                                       /*exact=*/true, exhausts);
        // Receiver v's coin is ones | (by_sign & sign[v]) | (by_draw & its value).
        std::uint64_t ones = 0;
        std::uint64_t by_sign = 0;  // lanes whose receiver adopts its coin-sign bit
        std::uint64_t by_draw = 0;  // lanes whose cells draw a private coin into val
        switch (coin_.kind) {
            case CoinSpec::Kind::Committee: {
                // The coin-sign row adds +coin_sign or -coin_sign: both
                // signs adopt 1, neither does, or the sign plane says.
                std::int32_t low[net::kFusedLanes], high[net::kFusedLanes];
                for (unsigned j = 0; j < net::kFusedLanes; ++j) {
                    low[j] = c.coin[j] - c.coin_sign[j];
                    high[j] = c.coin[j] + c.coin_sign[j];
                }
                ones = lanes_greater(low, -1);
                by_sign = ~ones & lanes_greater(high, -1);
                break;
            }
            case CoinSpec::Kind::Dealer:
                for (std::uint64_t l = step.coin_lanes(active) & ~dealer_drawn; l != 0; l &= l - 1) {
                    const unsigned j = static_cast<unsigned>(std::countr_zero(l));
                    if (coin_.dealer(dealer_seed_[j], p) != 0) dealer_ones |= std::uint64_t{1} << j;
                }
                dealer_drawn |= step.coin_lanes(active);
                ones = dealer_ones;
                break;
            case CoinSpec::Kind::Local:
                by_draw = ~std::uint64_t{0};
                break;
        }
        // Local coin: each coin cell of a live receiver draws from its own
        // stream and writes its value here; the word loop reads it back.
        if (by_draw != 0)
            for (NodeId v = lo; v < hi; ++v) {
                const std::uint64_t cells = step.coin_lanes(live(v));
                std::uint64_t drawn = 0;
                for (std::uint64_t cm = cells; cm != 0; cm &= cm - 1) {
                    const unsigned j = static_cast<unsigned>(std::countr_zero(cm));
                    if (streams_.at(v, j).bit() != 0) drawn |= std::uint64_t{1} << j;
                }
                planes_.val[v] = (planes_.val[v] & ~cells) | drawn;
            }
        // by_sign is empty without a coin-sign row, so a stale sign plane
        // is never read into a value.
        for (NodeId v = lo; v < hi; ++v)
            step.value(planes_, v, live(v), ones | (by_sign & sign[v]) | (by_draw & planes_.val[v]));
        if (step.ending() == 0) return;
        for (NodeId v = lo; v < hi; ++v) step.end(planes_, v, live(v));
    });
}

}  // namespace adba::core
