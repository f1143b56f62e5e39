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
    flushing_.assign(n, 0);
    halted_.assign(n, 0);
    coin_first_ = coin_last_ = 0;  // a block starts on a zeroed frame
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
    std::uint64_t* const halted = halted_.data();
    for (NodeId v = 0; v < n; ++v) sent[v] = ~byz[v] & ~halted[v];
    std::copy_n(val_.data(), n, frame.val.data());
    std::copy_n(decided_.data(), n, frame.flag.data());
    if (!round2) return;

    if (coin_.kind == CoinSpec::Kind::Committee) {
        // The flip is drawn before any round-2 delivery is seen (Lemma 5
        // independence) for every live lane, flushing or not — exactly the
        // scalar send path's draw set.
        const auto [first, last] = coin_.schedule.range(coin_.schedule.committee_of_phase(p));
        for (NodeId v = first; v < last; ++v) {
            const std::uint64_t drawn = sent[v] & frame.active;
            const std::uint64_t ones = committee_flips(v, p, drawn);
            frame.coinp[v] = ones & drawn;
            frame.coinn[v] = ~ones & drawn;
        }
        coin_first_ = first;
        coin_last_ = last;
    }
    const std::uint64_t* const flushing = flushing_.data();
    for (NodeId v = 0; v < n; ++v) halted[v] |= sent[v] & flushing[v];  // second flush broadcast done
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

    const std::uint64_t* const byz = frame.byz.data();
    const std::uint64_t* const sign = frame.sign.data();
    std::uint64_t* const val = val_.data();
    std::uint64_t* const decided = decided_.data();
    std::uint64_t* const flushing = flushing_.data();
    std::uint64_t* const halted = halted_.data();
    // Fixed-phase exhaustion halts every receiver that did not finish.
    const std::uint64_t exhaust =
        cfg_.mode == AgreementMode::WhpFixedPhases && p + 1 == cfg_.phases ? ~std::uint64_t{0} : 0;
    std::uint64_t dealer_drawn = 0, dealer_ones = 0;
    fold_.sweep([&](const net::LaneCounts& c, NodeId lo, NodeId hi) {
        const std::uint64_t q0 = lanes_greater(c.c0, quorum) & active;
        const std::uint64_t q1 = lanes_greater(c.c1, quorum) & active;
        if (!round2) {
            ADBA_ENSURES_MSG((q0 & q1) == 0, "two n-t quorums cannot coexist (t < n/3)");
            // Round 1: val is written only where a quorum decided.
            const std::uint64_t dec = q0 | q1;
            for (NodeId v = lo; v < hi; ++v) {
                const std::uint64_t act = ~byz[v] & ~halted[v] & ~flushing[v];
                const std::uint64_t dw = dec & act;
                val[v] = (val[v] & ~dw) | (q1 & act);
                decided[v] = (decided[v] & ~act) | dw;
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
        // Local coin: each case-3 cell of a live receiver draws from its own
        // stream and writes its value here; the word loop keeps those bits.
        if (by_draw != 0)
            for (NodeId v = lo; v < hi; ++v) {
                const std::uint64_t cells = by_draw & ~byz[v] & ~halted[v] & ~flushing[v];
                std::uint64_t ones = 0;
                for (std::uint64_t cm = cells; cm != 0; cm &= cm - 1) {
                    const unsigned j = static_cast<unsigned>(std::countr_zero(cm));
                    if (cell_rng(v, j).bit() != 0) ones |= std::uint64_t{1} << j;
                }
                val[v] = (val[v] & ~cells) | ones;
            }
        // by_sign is empty without a coin-sign row, so a stale sign plane
        // is never read into a value.
        for (NodeId v = lo; v < hi; ++v) {
            const std::uint64_t act = ~byz[v] & ~halted[v] & ~flushing[v];
            const std::uint64_t set = act & ~by_draw;
            val[v] = (val[v] & ~set) | ((val1 | (by_sign & sign[v])) & set);
            decided[v] = (decided[v] & ~act) | (dec & act);
        }
        if ((fin | exhaust) == 0) return;
        for (NodeId v = lo; v < hi; ++v) {
            const std::uint64_t act = ~byz[v] & ~halted[v] & ~flushing[v];
            const std::uint64_t fin_v = fin & act;
            flushing[v] |= fin_v;  // finishers flush through the next phase
            halted[v] |= act & ~fin_v & exhaust;
        }
    });
}

}  // namespace adba::core
