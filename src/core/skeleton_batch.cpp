#include "core/skeleton_batch.hpp"

#include <tuple>

#include "support/contracts.hpp"

namespace adba::core {

void SkeletonBatch::rearm(const SkeletonConfig& cfg, CoinSpec coin,
                          const std::vector<Bit>& inputs, const SeedTree& seeds) {
    cfg.check(coin);
    ADBA_EXPECTS(inputs.size() == cfg.n);
    cfg_ = cfg;
    coin_ = std::move(coin);
    if (coin_.kind == CoinSpec::Kind::Dealer)
        dealer_seed_ = seeds.seed(StreamPurpose::DealerCoin);
    const NodeId n = cfg_.n;
    planes_.rearm(inputs.data(), n);
    for (NodeId v = 0; v < n; ++v) ADBA_EXPECTS(inputs[v] <= 1);
    // Committee members draw their flips without a table
    // (CoinSpec::committee_flip), and the Dealer coin draws nothing per
    // node. The Local coin's per-node streams are the per-node
    // constructors': stream (NodeProtocol, v), consumed in ascending node
    // order each beat.
    purpose_ = seeds.purpose_hash(StreamPurpose::NodeProtocol);
    rng_.clear();
    if (coin_.kind == CoinSpec::Kind::Local) {
        rng_.reserve(n);
        for (NodeId v = 0; v < n; ++v) rng_.push_back(Xoshiro256(SeedTree::child_seed(purpose_, v)));
    }
}

void SkeletonBatch::send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) {
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    const std::uint8_t* state = buf.state_plane();

    // Committee membership is an ID range; hoist it out of the node loop
    // (BlockSchedule::flips_in_phase is exactly this range test).
    const auto [flip_first, flip_last] = coin_.flippers(p);

    net::Message m;
    m.phase = p;
    m.kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    for (NodeId v = lo; v < hi; ++v) {
        if ((state[v] & net::RoundBuffer::kByzantine) != 0 || planes_.halted[v]) continue;
        m.val = planes_.val[v];
        m.flag = planes_.decided[v] ? 1 : 0;
        m.coin = 0;
        if (round2) {
            // Flip regardless of this node's own case: the flip is drawn
            // before any round-2 delivery is seen (Lemma 5 independence).
            // Stream v is private to v, so a shard draws exactly what the
            // serial sweep would.
            if (v >= flip_first && v < flip_last) m.coin = coin_.committee_flip(purpose_, v, p);
            if (planes_.flushing[v]) planes_.halted[v] = 1;  // second flush broadcast done
        }
        buf.set_broadcast(v, m);
    }
}

net::BeatQuery SkeletonBatch::beat_query(Round r) const {
    const Phase p = r / 2;
    if ((r % 2) == 0) return {net::MsgKind::Vote1, p};
    net::BeatQuery q{net::MsgKind::Vote2, p, /*require_flag=*/true};
    std::tie(q.coin_first, q.coin_last) = coin_.flippers(p);
    return q;
}

void SkeletonBatch::receive_rule(Round r, const net::BeatCounts& in, NodeId lo,
                                 NodeId hi) {
    using Step = SkeletonStep<Bit>;
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    const Count quorum = cfg_.n - cfg_.t;
    const Count supermin = cfg_.t + 1;
    const bool exact = in.exact();
    const bool exhausts = cfg_.exhausts(p);
    // The phase coin, drawn only for a receiver that takes it.
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
        if (in.byzantine(v) || planes_.halted[v] || planes_.flushing[v]) continue;
        const std::array<Count, 2> cnt = in.val(v);
        const Bit q0 = cnt[0] >= quorum, q1 = cnt[1] >= quorum;
        // Round 2 counts decided votes; Lemma 3 holds for exact counts only.
        const Step step = round2 ? Step::round2(q0, q1, cnt[0] >= supermin, cnt[1] >= supermin,
                                                exact, exhausts)
                                 : Step::round1(q0, q1);
        step.value(planes_, v, 1, step.coin_lanes(1) != 0 ? coin(v) : Bit{0});
        if (step.ending() != 0) step.end(planes_, v, 1);
    }
}

}  // namespace adba::core
