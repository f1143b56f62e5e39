#include "core/skeleton_batch.hpp"

#include "support/contracts.hpp"

namespace adba::core {

SkeletonBatch::SkeletonBatch(const SkeletonConfig& cfg, CoinSpec coin,
                             const std::vector<Bit>& inputs, const SeedTree& seeds) {
    rearm(cfg, std::move(coin), inputs, seeds);
}

void SkeletonBatch::rearm(const SkeletonConfig& cfg, CoinSpec coin,
                          const std::vector<Bit>& inputs, const SeedTree& seeds) {
    // Same contracts as RabinSkeletonNode::reinit, checked once for the
    // whole population.
    ADBA_EXPECTS(cfg.n > 0);
    ADBA_EXPECTS_MSG(3 * static_cast<std::uint64_t>(cfg.t) < cfg.n, "requires t < n/3");
    ADBA_EXPECTS(cfg.phases >= 1);
    ADBA_EXPECTS(inputs.size() == cfg.n);
    if (coin.kind == CoinSpec::Kind::Dealer) ADBA_EXPECTS(coin.dealer != nullptr);
    cfg_ = cfg;
    coin_ = std::move(coin);
    if (coin_.kind == CoinSpec::Kind::Dealer)
        dealer_seed_ = seeds.seed(StreamPurpose::DealerCoin);
    const NodeId n = cfg_.n;
    val_.assign(inputs.begin(), inputs.end());
    for (NodeId v = 0; v < n; ++v) ADBA_EXPECTS(val_[v] <= 1);
    decided_.assign(n, 0);
    finish_.assign(n, 0);
    flushing_.assign(n, 0);
    halted_.assign(n, 0);
    // Per-node streams identical to the per-node constructors': stream
    // (NodeProtocol, v), consumed in ascending node order each beat.
    rng_.clear();
    rng_.reserve(n);
    for (NodeId v = 0; v < n; ++v)
        rng_.push_back(seeds.stream(StreamPurpose::NodeProtocol, v));
}

void SkeletonBatch::send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) {
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    const std::uint8_t* state = buf.state_plane();

    // Committee membership is an ID range; hoist it out of the node loop
    // (BlockSchedule::flips_in_phase is exactly this range test).
    NodeId flip_first = 0, flip_last = 0;
    if (round2 && coin_.kind == CoinSpec::Kind::Committee) {
        const auto range =
            coin_.schedule.range(coin_.schedule.committee_of_phase(p));
        flip_first = range.first;
        flip_last = range.second;
    }

    net::Message m;
    m.phase = p;
    m.kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    for (NodeId v = lo; v < hi; ++v) {
        if ((state[v] & net::RoundBuffer::kByzantine) != 0 || halted_[v]) continue;
        m.val = val_[v];
        m.flag = decided_[v] ? 1 : 0;
        m.coin = 0;
        if (round2) {
            // Flip regardless of this node's own case: the flip is drawn
            // before any round-2 delivery is seen (Lemma 5 independence).
            // Stream v is private to v, so a shard draws exactly what the
            // serial sweep would.
            if (v >= flip_first && v < flip_last) m.coin = rng_[v].sign();
            if (flushing_[v]) halted_[v] = 1;  // second flush broadcast done
        }
        buf.set_broadcast(v, m);
    }
}

net::BeatQuery SkeletonBatch::beat_query(Round r) const {
    const Phase p = r / 2;
    if ((r % 2) == 0) return {net::MsgKind::Vote1, p};
    net::BeatQuery q{net::MsgKind::Vote2, p, /*require_flag=*/true};
    if (coin_.kind == CoinSpec::Kind::Committee) {
        const auto range = coin_.schedule.range(coin_.schedule.committee_of_phase(p));
        q.coin_first = range.first;
        q.coin_last = range.second;
    }
    return q;
}

void SkeletonBatch::receive_rule(Round r, const net::BeatCounts& in, NodeId lo,
                                 NodeId hi) {
    const Phase p = r / 2;
    const Count quorum = cfg_.n - cfg_.t;
    const Count supermin = cfg_.t + 1;
    // The case-3 coin, drawn only where the per-node path would draw it.
    const auto coin = [&](NodeId v) -> Bit {
        switch (coin_.kind) {
            case CoinSpec::Kind::Committee:
                return in.coin_sum(v) >= 0 ? Bit{1} : Bit{0};
            case CoinSpec::Kind::Dealer:
                return coin_.dealer(dealer_seed_, p);
            case CoinSpec::Kind::Local:
                return rng_[v].bit();
        }
        return Bit{0};  // unreachable: all kinds handled above
    };

    for (NodeId v = lo; v < hi; ++v) {
        if (in.byzantine(v) || halted_[v] || flushing_[v]) continue;
        const std::array<Count, 2> cnt = in.val(v);

        if ((r % 2) == 0) {
            // Round 1. Two n-t counts cannot coexist even as sampled
            // estimates (est0 + est1 <= n + 1 < 2(n-t) for t < n/3), so this
            // assertion holds on every plane.
            ADBA_ENSURES_MSG(!(cnt[0] >= quorum && cnt[1] >= quorum),
                             "two n-t quorums cannot coexist (t < n/3)");
            if (cnt[0] >= quorum || cnt[1] >= quorum) {
                val_[v] = cnt[0] >= quorum ? Bit{0} : Bit{1};
                decided_[v] = 1;
            } else {
                decided_[v] = 0;
            }
            continue;
        }

        // Round 2 over decided counts. Lemma 3 is a theorem for exact
        // counts only; sub-dense estimates can breach it statistically.
        if (in.exact()) {
            ADBA_ENSURES_MSG(!(cnt[0] >= supermin && cnt[1] >= supermin),
                             "Lemma 3 violated: decided quorums for both values");
        }
        if (cnt[0] >= quorum || cnt[1] >= quorum) {
            val_[v] = cnt[0] >= quorum ? Bit{0} : Bit{1};
            decided_[v] = 1;
            finish_[v] = 1;
        } else if (cnt[0] >= supermin || cnt[1] >= supermin) {
            val_[v] = cnt[0] >= supermin ? Bit{0} : Bit{1};
            decided_[v] = 1;
        } else {
            val_[v] = coin(v);
            decided_[v] = 0;
        }
        if (finish_[v]) {
            // Broadcast (val, decided=true) through one more full phase,
            // then halt (the skeleton's finish flush).
            flushing_[v] = 1;
        } else if (cfg_.mode == AgreementMode::WhpFixedPhases && p + 1 == cfg_.phases) {
            halted_[v] = 1;
        }
    }
}

}  // namespace adba::core
