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
    m_dec_.assign(n, 0);
    m_val1_.assign(n, 0);
    m_fin_.assign(n, 0);
    m_coin_.assign(n, 0);
    m_sign_.assign(n, 0);
    // Per-cell streams identical to the scalar batches': lane j's stream
    // (NodeProtocol, v), consumed only by cell (v, j). Committee flips draw
    // statelessly (committee_flip); only the Local coin's case-3 draws keep
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
            std::uint64_t pos = 0, neg = 0;
            for (std::uint64_t lanes = act & frame.active; lanes != 0; lanes &= lanes - 1) {
                const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
                if (committee_flip(v, j, p) > 0)
                    pos |= std::uint64_t{1} << j;
                else
                    neg |= std::uint64_t{1} << j;
            }
            frame.coinp[v] = pos;
            frame.coinn[v] = neg;
        }
        halted_[v] |= act & flushing_[v];  // second flush broadcast done
    }
}

void FusedSkeleton::receive_round(Round r, const net::FusedFrame& frame) {
    const NodeId n = cfg_.n;
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    const net::MsgKind kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    const Count quorum = cfg_.n - cfg_.t;
    const Count supermin = cfg_.t + 1;

    // Honest per-lane counts: one pass over the planes feeds every lane's
    // histogram (val_cnt round 1, val_flag_cnt round 2: flagged senders only).
    const std::uint64_t flag_free = round2 ? 0 : ~std::uint64_t{0};
    Count h[2][kFusedLanes];
    net::kern::lane_counts<2>(0, n, [&](NodeId v, std::uint64_t* w) {
        const std::uint64_t present = frame.sent[v] & (frame.flag[v] | flag_free);
        w[0] = present & ~frame.val[v];
        w[1] = present & frame.val[v];
    }, h);

    NodeId flip_first = 0, flip_last = 0;
    std::int64_t hcoin[kFusedLanes] = {};
    const bool committee =
        round2 && coin_.kind == CoinSpec::Kind::Committee;
    if (committee) {
        const auto range = coin_.schedule.range(coin_.schedule.committee_of_phase(p));
        flip_first = range.first;
        flip_last = range.second;
        // Honest committee coin sum per lane (coin planes are nonzero only
        // inside the flip range; mask with sent so corrupted members drop
        // out exactly as the shared tally drops Byzantine senders).
        Count c[2][kFusedLanes];
        net::kern::lane_counts<2>(flip_first, flip_last, [&](NodeId v, std::uint64_t* w) {
            w[0] = frame.sent[v] & frame.coinp[v];
            w[1] = frame.sent[v] & frame.coinn[v];
        }, c);
        for (unsigned j = 0; j < kFusedLanes; ++j)
            hcoin[j] = static_cast<std::int64_t>(c[0][j]) - c[1][j];
    }

    t_dec_.reset(n);
    t_val1_.reset(n);
    if (round2) {
        t_fin_.reset(n);
        t_coin_.reset(n);
    }
    const bool sign = round2 && frame.has_sign;
    if (sign) t_sign_.reset(n);

    fold_.prepare(frame, {kind, p, round2, flip_first, flip_last});
    for (std::uint64_t lanes = frame.active; lanes != 0; lanes &= lanes - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
        const std::uint64_t bit = std::uint64_t{1} << j;
        bool dealer_drawn = false;
        Bit dealer_bit = 0;

        for (const net::FoldSegment& seg : fold_.lane(frame, j)) {
            const NodeId lo = seg.lo;
            const NodeId hi = seg.hi;
            const Count cnt[2] = {static_cast<Count>(h[0][j] + seg.c0),
                                  static_cast<Count>(h[1][j] + seg.c1)};
            const std::int64_t coin_delta = seg.coin;

            if (!round2) {
                ADBA_ENSURES_MSG(!(cnt[0] >= quorum && cnt[1] >= quorum),
                                 "two n-t quorums cannot coexist (t < n/3)");
                if (cnt[0] >= quorum) {
                    t_dec_.mark(lo, hi, bit);
                } else if (cnt[1] >= quorum) {
                    t_dec_.mark(lo, hi, bit);
                    t_val1_.mark(lo, hi, bit);
                }
                continue;
            }

            ADBA_ENSURES_MSG(!(cnt[0] >= supermin && cnt[1] >= supermin),
                             "Lemma 3 violated: decided quorums for both values");
            bool fin = false, dec = false;
            Bit b = 0;
            if (cnt[0] >= quorum) {
                fin = dec = true;
            } else if (cnt[1] >= quorum) {
                fin = dec = true;
                b = 1;
            } else if (cnt[0] >= supermin) {
                dec = true;
            } else if (cnt[1] >= supermin) {
                dec = true;
                b = 1;
            }
            if (dec) {
                t_dec_.mark(lo, hi, bit);
                if (fin) t_fin_.mark(lo, hi, bit);
                if (b != 0) t_val1_.mark(lo, hi, bit);
                continue;
            }
            // Case 3: adopt the phase coin.
            switch (coin_.kind) {
                case CoinSpec::Kind::Committee:
                    // The coin-sign row adds +coin_sign or -coin_sign: both
                    // signs adopt 1, neither does, or the sign plane says.
                    if (hcoin[j] + coin_delta - seg.coin_sign >= 0)
                        t_val1_.mark(lo, hi, bit);
                    else if (hcoin[j] + coin_delta + seg.coin_sign >= 0)
                        t_sign_.mark(lo, hi, bit);
                    break;
                case CoinSpec::Kind::Dealer:
                    if (!dealer_drawn) {
                        dealer_bit = coin_.dealer(dealer_seed_[j], p);
                        dealer_drawn = true;
                    }
                    if (dealer_bit != 0) t_val1_.mark(lo, hi, bit);
                    break;
                case CoinSpec::Kind::Local:
                    t_coin_.mark(lo, hi, bit);  // per-cell draw at the write
                    break;
            }
        }
    }

    t_dec_.sweep(m_dec_.data(), n);
    t_val1_.sweep(m_val1_.data(), n);
    if (round2) {
        t_fin_.sweep(m_fin_.data(), n);
        t_coin_.sweep(m_coin_.data(), n);
    }
    if (sign) t_sign_.sweep(m_sign_.data(), n);

    const bool last_phase =
        cfg_.mode == AgreementMode::WhpFixedPhases && p + 1 == cfg_.phases;
    for (NodeId v = 0; v < n; ++v) {
        const std::uint64_t act = ~frame.byz[v] & ~halted_[v] & ~flushing_[v];
        if (!round2) {
            // Round 1: val is written only where a quorum decided.
            const std::uint64_t dw = m_dec_[v] & act;
            val_[v] = (val_[v] & ~dw) | (m_val1_[v] & act);
            decided_[v] = (decided_[v] & ~act) | dw;
            continue;
        }
        // Round 2: every active receiver writes val (case 1/2 adopt b,
        // case 3 adopts the coin).
        std::uint64_t v1 = m_val1_[v];
        if (sign) v1 |= m_sign_[v] & frame.sign[v];
        std::uint64_t cm = m_coin_[v] & act;
        if (cm != 0) {
            for (; cm != 0; cm &= cm - 1) {
                const unsigned j = static_cast<unsigned>(std::countr_zero(cm));
                if (cell_rng(v, j).bit() != 0) v1 |= std::uint64_t{1} << j;
            }
        }
        val_[v] = (val_[v] & ~act) | (v1 & act);
        decided_[v] = (decided_[v] & ~act) | (m_dec_[v] & act);
        const std::uint64_t fin = m_fin_[v] & act;
        finish_[v] |= fin;
        flushing_[v] |= fin;  // finishers flush through the next phase
        if (last_phase) halted_[v] |= act & ~fin;  // fixed-phase exhaustion
    }
}

}  // namespace adba::core
