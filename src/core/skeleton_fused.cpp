#include "core/skeleton_fused.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace adba::core {

using net::kFusedLanes;

FusedSkeleton::FusedSkeleton(const SkeletonConfig& cfg, CoinSpec coin) {
    // Same contracts as SkeletonBatch::rearm, checked once per block set.
    ADBA_EXPECTS(cfg.n > 0);
    ADBA_EXPECTS_MSG(3 * static_cast<std::uint64_t>(cfg.t) < cfg.n, "requires t < n/3");
    ADBA_EXPECTS(cfg.phases >= 1);
    if (coin.kind == CoinSpec::Kind::Dealer) ADBA_EXPECTS(coin.dealer != nullptr);
    cfg_ = cfg;
    coin_ = std::move(coin);
}

void FusedSkeleton::rearm(const std::uint64_t* input_plane, const SeedTree* lane_seeds) {
    const NodeId n = cfg_.n;
    val_.assign(input_plane, input_plane + n);
    decided_.assign(n, 0);
    finish_.assign(n, 0);
    flushing_.assign(n, 0);
    halted_.assign(n, 0);
    // Per-cell streams identical to the scalar batches': lane j's stream
    // (NodeProtocol, v), consumed only by cell (v, j). Committee flips draw
    // statelessly (committee_flips); only the Local coin's case-3 draws keep
    // a stream per cell, derived lazily at the first draw (cell_rng).
    if (coin_.kind == CoinSpec::Kind::Local) {
        rng_.resize(static_cast<std::size_t>(n) * kFusedLanes);
        rng_live_.assign(n, 0);
    }
    for (unsigned j = 0; j < kFusedLanes; ++j)
        lane_purpose_[j] = lane_seeds[j].purpose_hash(StreamPurpose::NodeProtocol);
    if (coin_.kind == CoinSpec::Kind::Dealer)
        for (unsigned j = 0; j < kFusedLanes; ++j)
            dealer_seed_[j] = lane_seeds[j].seed(StreamPurpose::DealerCoin);
}

void FusedSkeleton::send_round(Round r, net::FusedFrame& frame) {
    const NodeId n = cfg_.n;
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    frame.kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    frame.phase = p;

    NodeId flip_first = 0, flip_last = 0;
    if (round2 && coin_.kind == CoinSpec::Kind::Committee) {
        const auto range = coin_.schedule.range(coin_.schedule.committee_of_phase(p));
        flip_first = range.first;
        flip_last = range.second;
    }

    for (NodeId v = 0; v < n; ++v) {
        const std::uint64_t act = ~frame.byz[v] & ~halted_[v];
        frame.sent[v] = act;
        frame.val[v] = val_[v];
        frame.flag[v] = decided_[v];
        if (!round2) continue;
        if (v >= flip_first && v < flip_last) {
            // The flip is drawn before any round-2 delivery is seen
            // (Lemma 5 independence) for every live lane, flushing or not —
            // exactly the scalar send path's draw set.
            const std::uint64_t drawn = act & frame.active;
            const std::uint64_t ones = committee_flips(v, p, drawn);
            frame.coinp[v] = ones & drawn;
            frame.coinn[v] = ~ones & drawn;
        }
        halted_[v] |= act & flushing_[v];  // second flush broadcast done
    }
}

void FusedSkeleton::receive_round(Round r, const net::FusedFrame& frame) {
    using net::kern::lanes_greater;
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    const net::MsgKind kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    // count >= n - t, and count >= t + 1, as count > bound.
    const auto quorum = static_cast<std::int32_t>(cfg_.n - cfg_.t - 1);
    const auto supermin = static_cast<std::int32_t>(cfg_.t);
    const std::uint64_t active = frame.active;

    // Round 2 counts flagged senders only (val_flag_cnt), and the committee
    // coin adds its members' flips.
    NodeId flip_first = 0, flip_last = 0;
    if (round2 && coin_.kind == CoinSpec::Kind::Committee) {
        const auto range = coin_.schedule.range(coin_.schedule.committee_of_phase(p));
        flip_first = range.first;
        flip_last = range.second;
    }
    fold_.prepare(frame, {kind, p, round2, flip_first, flip_last});

    const bool last_phase =
        cfg_.mode == AgreementMode::WhpFixedPhases && p + 1 == cfg_.phases;
    std::uint64_t dealer_drawn = 0, dealer_ones = 0;
    fold_.sweep([&](const net::LaneCounts& c, NodeId lo, NodeId hi) {
        const std::uint64_t q0 = lanes_greater(c.c0, quorum) & active;
        const std::uint64_t q1 = lanes_greater(c.c1, quorum) & active;
        if (!round2) {
            ADBA_ENSURES_MSG((q0 & q1) == 0, "two n-t quorums cannot coexist (t < n/3)");
            // Round 1: val is written only where a quorum decided.
            const std::uint64_t dec = q0 | q1;
            for (NodeId v = lo; v < hi; ++v) {
                const std::uint64_t act = ~frame.byz[v] & ~halted_[v] & ~flushing_[v];
                const std::uint64_t dw = dec & act;
                val_[v] = (val_[v] & ~dw) | (q1 & act);
                decided_[v] = (decided_[v] & ~act) | dw;
            }
            return;
        }

        // Round 2: a value with t+1 flagged votes is decided (finished with
        // n-t); otherwise case 3 adopts the phase coin.
        const std::uint64_t s0 = lanes_greater(c.c0, supermin) & active;
        const std::uint64_t s1 = lanes_greater(c.c1, supermin) & active;
        ADBA_ENSURES_MSG((s0 & s1) == 0, "Lemma 3 violated: decided quorums for both values");
        const std::uint64_t dec = s0 | s1;
        const std::uint64_t fin = q0 | q1;
        const std::uint64_t case3 = active & ~dec;
        std::uint64_t val1 = s1;
        std::uint64_t by_sign = 0;  // case-3 lanes whose receiver adopts its coin-sign bit
        std::uint64_t by_draw = 0;  // case-3 lanes that draw a private coin per cell
        switch (coin_.kind) {
            case CoinSpec::Kind::Committee: {
                // The coin-sign row adds +coin_sign or -coin_sign: both
                // signs adopt 1, neither does, or the sign plane says.
                std::int32_t low[net::kFusedLanes], high[net::kFusedLanes];
                for (unsigned j = 0; j < net::kFusedLanes; ++j) {
                    low[j] = c.coin[j] - c.coin_sign[j];
                    high[j] = c.coin[j] + c.coin_sign[j];
                }
                const std::uint64_t low_ones = lanes_greater(low, -1);
                val1 |= case3 & low_ones;
                by_sign = case3 & ~low_ones & lanes_greater(high, -1);
                break;
            }
            case CoinSpec::Kind::Dealer:
                for (std::uint64_t l = case3 & ~dealer_drawn; l != 0; l &= l - 1) {
                    const unsigned j = static_cast<unsigned>(std::countr_zero(l));
                    if (coin_.dealer(dealer_seed_[j], p) != 0) dealer_ones |= std::uint64_t{1} << j;
                }
                dealer_drawn |= case3;
                val1 |= case3 & dealer_ones;
                break;
            case CoinSpec::Kind::Local:
                by_draw = case3;
                break;
        }
        for (NodeId v = lo; v < hi; ++v) {
            const std::uint64_t act = ~frame.byz[v] & ~halted_[v] & ~flushing_[v];
            std::uint64_t v1 = val1;
            if (by_sign != 0) v1 |= by_sign & frame.sign[v];
            for (std::uint64_t cm = by_draw & act; cm != 0; cm &= cm - 1) {
                const unsigned j = static_cast<unsigned>(std::countr_zero(cm));
                if (cell_rng(v, j).bit() != 0) v1 |= std::uint64_t{1} << j;
            }
            val_[v] = (val_[v] & ~act) | (v1 & act);
            decided_[v] = (decided_[v] & ~act) | (dec & act);
            const std::uint64_t fin_v = fin & act;
            finish_[v] |= fin_v;
            flushing_[v] |= fin_v;  // finishers flush through the next phase
            if (last_phase) halted_[v] |= act & ~fin_v;  // fixed-phase exhaustion
        }
    });
}

}  // namespace adba::core
