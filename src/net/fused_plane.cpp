#include "net/fused_plane.hpp"

#include <algorithm>
#include <bit>

#include "support/contracts.hpp"

namespace adba::net {

namespace {

/// Delivery slots a fresh pattern row covers — exactly what
/// RoundBuffer::apply_pattern reports for a just-corrupted sender.
std::uint64_t covered_slots(bool low, bool high, NodeId boundary, NodeId n) {
    return (low ? std::uint64_t{boundary} : 0) + (high ? std::uint64_t{n - boundary} : 0);
}

}  // namespace

// ------------------------------------------------------------- BlockStrategy

void BlockStrategy::start_block(Adversary* const* advs, std::uint64_t lanes, NodeId n,
                                Count budget) {
    for (; lanes != 0; lanes &= lanes - 1) advs[std::countr_zero(lanes)]->on_start(n, budget);
}

// ---------------------------------------------------------------- FusedFrame

void FusedFrame::throw_duplicate_row() {
    throw ContractViolation(
        "fused plane: duplicate Byzantine pattern for one (lane, sender, "
        "round); supported fused adversaries pattern a sender at most once "
        "per round (adversaries that re-pattern must declare "
        "supports_fused=false)");
}

// --------------------------------------------------------- FusedLaneControl

void FusedLaneControl::rearm(FusedFrame* frame, FusedProtocol* proto, Count budget) {
    frame_ = frame;
    proto_ = proto;
    budget_ = budget;
    round_ = 0;
    lane_ = 0;
    std::fill(std::begin(used_), std::end(used_), Count{0});
    std::fill(std::begin(byz_msgs_), std::end(byz_msgs_), std::uint64_t{0});
}

bool FusedLaneControl::is_honest(NodeId v) const {
    ADBA_EXPECTS(v < frame_->n());
    return (frame_->byz[v] & lane_bit()) == 0;
}

bool FusedLaneControl::is_halted(NodeId v) const {
    ADBA_EXPECTS(v < frame_->n());
    return (frame_->byz[v] & lane_bit()) == 0 &&
           (proto_->halted_plane()[v] & lane_bit()) != 0;
}

std::optional<Message> FusedLaneControl::message_of(NodeId v) const {
    const std::uint64_t bit = lane_bit();
    if ((frame_->sent[v] & bit) == 0) return std::nullopt;
    Message m;
    m.kind = frame_->kind;
    m.phase = frame_->phase;
    m.val = (frame_->val[v] & bit) != 0 ? 1 : 0;
    m.flag = (frame_->flag[v] & bit) != 0 ? 1 : 0;
    m.coin = (frame_->coinp[v] & bit) != 0   ? CoinSign{1}
             : (frame_->coinn[v] & bit) != 0 ? CoinSign{-1}
                                             : CoinSign{0};
    return m;
}

const Message* FusedLaneControl::intended_broadcast(NodeId v) const {
    ADBA_EXPECTS(v < frame_->n());
    ADBA_EXPECTS_MSG(is_honest(v), "only honest nodes have intended broadcasts");
    const auto m = message_of(v);
    if (!m) return nullptr;
    scratch_ = *m;
    return &scratch_;
}

Bit FusedLaneControl::current_value(NodeId v) const {
    ADBA_EXPECTS(v < frame_->n());
    ADBA_EXPECTS_MSG(is_honest(v), "introspection is defined for honest nodes");
    return (proto_->value_plane()[v] & lane_bit()) != 0 ? 1 : 0;
}

bool FusedLaneControl::current_decided(NodeId v) const {
    ADBA_EXPECTS(v < frame_->n());
    ADBA_EXPECTS_MSG(is_honest(v), "introspection is defined for honest nodes");
    return (proto_->decided_plane()[v] & lane_bit()) != 0;
}

std::optional<Message> FusedLaneControl::corrupt(NodeId v) {
    ADBA_EXPECTS(v < frame_->n());
    const std::uint64_t bit = lane_bit();
    ADBA_EXPECTS_MSG((frame_->byz[v] & bit) == 0,
                     "cannot corrupt an already-Byzantine node");
    ADBA_EXPECTS_MSG((proto_->halted_plane()[v] & bit) == 0,
                     "cannot corrupt a node that already terminated");
    ADBA_EXPECTS_MSG(used_[lane_] < budget_, "corruption budget exhausted");
    ++used_[lane_];
    auto discarded = message_of(v);  // before the sent bit is cleared
    frame_->byz[v] |= bit;
    frame_->sent[v] &= ~bit;  // attribute bits stay; consumers mask with sent
    return discarded;
}

void FusedLaneControl::deliver_as(NodeId, NodeId, const Message&) {
    throw ContractViolation(
        "the fused plane delivers Byzantine messages as split_as patterns "
        "only; per-cell deliver_as has no lane form (adversaries that need it "
        "must offer a block-level form or declare supports_fused=false)");
}

void FusedLaneControl::split_as(NodeId byz_from, const std::optional<Message>& low,
                                const std::optional<Message>& high, NodeId boundary) {
    const NodeId n = frame_->n();
    ADBA_EXPECTS(byz_from < n && boundary <= n);
    ADBA_EXPECTS_MSG((frame_->byz[byz_from] & lane_bit()) != 0,
                     "split_as requires a corrupted sender");
    FusedRow& row = frame_->add_row(lane_, byz_from);
    row.boundary = boundary;
    row.has_low = low.has_value();
    row.has_high = high.has_value();
    if (low) row.low = *low;
    if (high) row.high = *high;
    // The add_row duplicate guard keeps the row fresh.
    byz_msgs_[lane_] += covered_slots(row.has_low, row.has_high, boundary, n);
}

void FusedLaneControl::corrupt_lanes(NodeId lo, NodeId hi, const std::uint64_t* mask,
                                     std::uint64_t lanes, Count* counted) {
    ADBA_EXPECTS(lo <= hi && hi <= frame_->n());
    // corrupt()'s checks, one word of lanes at a time, before any write.
    lanes &= frame_->active;
    std::uint64_t* const byz = frame_->byz.data();
    std::uint64_t* const sent = frame_->sent.data();
    const std::uint64_t* const halted = proto_->halted_plane();
    std::uint64_t byzantine = 0, terminated = 0;  // lanes with such a member
    Count count[kFusedLanes];
    kern::lane_counts<1>(lo, hi, [&](NodeId v, std::uint64_t* w) {
        const std::uint64_t m = mask[v] & lanes;
        byzantine |= byz[v] & m;
        terminated |= halted[v] & m;
        w[0] = m;
    }, &count);
    ADBA_EXPECTS_MSG(byzantine == 0, "cannot corrupt an already-Byzantine node");
    ADBA_EXPECTS_MSG(terminated == 0, "cannot corrupt a node that already terminated");
    for (unsigned j = 0; j < kFusedLanes; ++j)
        ADBA_EXPECTS_MSG(count[j] <= budget_ - used_[j], "corruption budget exhausted");
    for (NodeId v = lo; v < hi; ++v) {
        const std::uint64_t m = mask[v] & lanes;
        byz[v] |= m;
        sent[v] &= ~m;  // attribute bits stay; consumers mask with sent
    }
    for (unsigned j = 0; j < kFusedLanes; ++j) {
        used_[j] += count[j];
        counted[j] = count[j];
    }
}

void FusedLaneControl::share_row(const SplitRow& row, const std::uint64_t* mask,
                                 std::uint64_t lanes, const Count* senders) {
    const NodeId n = frame_->n();
    ADBA_EXPECTS(row.boundary <= n);
    FusedRow& shared = frame_->shared_row;
    shared.boundary = row.boundary;
    shared.has_low = row.low.has_value();
    shared.has_high = row.high.has_value();
    if (row.low) shared.low = *row.low;
    if (row.high) shared.high = *row.high;
    frame_->has_shared = true;
    for (NodeId v = 0; v < n; ++v) {
        const std::uint64_t m = mask[v] & lanes;
        ADBA_EXPECTS_MSG((frame_->byz[v] & m) == m, "split_as requires a corrupted sender");
        frame_->shared[v] = m;
    }
    // split_as's fresh-row charge, once per (lane, sender).
    const std::uint64_t covered = covered_slots(shared.has_low, shared.has_high, row.boundary, n);
    for (; lanes != 0; lanes &= lanes - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
        frame_->shared_senders[j] = senders[j];
        byz_msgs_[j] += senders[j] * covered;
    }
}

std::uint64_t* FusedLaneControl::sign_row(const Message& m, NodeId first, NodeId last,
                                          std::uint64_t lanes) {
    FusedFrame& f = *frame_;
    const NodeId n = f.n();
    ADBA_EXPECTS(first <= last && last <= n);
    const std::uint64_t* const byz = f.byz.data();
    kern::lane_counts<1>(first, last, [&](NodeId u, std::uint64_t* w) { w[0] = byz[u] & lanes; },
                         &f.sign_senders);
    f.sign_msg = m;
    f.sign_first = first;
    f.sign_last = last;
    f.sign_lanes = lanes;
    f.has_sign = true;
    // A lane outside `lanes` counted no sender.
    for (unsigned j = 0; j < kFusedLanes; ++j) byz_msgs_[j] += std::uint64_t{f.sign_senders[j]} * n;
    return f.sign.data();
}

// ---------------------------------------------------------------- FusedBlock

void FusedBlock::run(FusedProtocol& proto, Adversary* const* advs, Count budget,
                     Round max_rounds, FusedLaneResult* out, std::uint64_t in_block) {
    const NodeId n = proto.n();
    ADBA_EXPECTS(n > 0);
    ADBA_EXPECTS(max_rounds > 0);
    ADBA_EXPECTS(in_block != 0);
    frame_.reset(n);
    ctl_.rearm(&frame_, &proto, budget);
    // The block form, when there is one, starts every lane.
    BlockStrategy* const block = block_form(advs, in_block);
    if (block != nullptr) {
        block->start_block(advs, in_block, n, budget);
    } else {
        for (std::uint64_t l = in_block; l != 0; l &= l - 1)
            advs[std::countr_zero(l)]->on_start(n, budget);
    }

    std::uint64_t active = in_block;
    std::uint64_t decided = 0;
    Round rounds[kFusedLanes] = {};
    std::uint64_t msgs[kFusedLanes] = {};
    std::uint64_t bits[kFusedLanes] = {};

    Count cnt[3][kFusedLanes];  // live broadcasts, flush-halted senders, halted receivers

    for (Round r = 0; r < max_rounds && active != 0; ++r) {
        frame_.active = active;
        frame_.begin_round(MsgKind::None, 0);

        // Beat 1: honest sends (the protocol fills the broadcast planes and
        // applies its flush-halts).
        proto.send_round(r, frame_);

        // Beat 2: each live lane's rushing adversary observes and acts,
        // all at once through the block form or lane by lane through the
        // bridge. Retired lanes' adversaries are never invoked again —
        // their scalar twins' runs already ended.
        ctl_.set_round(r);
        if (block != nullptr) {
            block->act_block(ctl_, advs);
        } else {
            for (std::uint64_t lanes = active; lanes != 0; lanes &= lanes - 1) {
                const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
                ctl_.set_lane(j);
                advs[j]->act(ctl_);
            }
        }

        // Honest traffic accounting in closed form per lane: the same
        // broadcast_fanout identity Engine::account_sends charges, from
        // per-lane counts of live broadcasts (S), flush-halted senders (SH)
        // and honest-halted receivers (H), all read AFTER corruptions.
        // Until a node of an active lane halts, SH and H are zero there,
        // and one column counts S.
        const std::uint64_t* const sent = frame_.sent.data();
        const std::uint64_t* const byz = frame_.byz.data();
        const std::uint64_t* const halted = proto.halted_plane();
        std::uint64_t halted_any = 0;
        for (NodeId v = 0; v < n; ++v) halted_any |= halted[v];
        if ((halted_any & active) != 0) {
            kern::lane_counts<3>(0, n, [&](NodeId v, std::uint64_t* w) {
                w[0] = sent[v];
                w[1] = sent[v] & halted[v];
                w[2] = ~byz[v] & halted[v];
            }, cnt);
        } else {
            kern::lane_counts<1>(0, n, [&](NodeId v, std::uint64_t* w) { w[0] = sent[v]; }, cnt);
            std::fill(std::begin(cnt[1]), std::end(cnt[1]), Count{0});
            std::fill(std::begin(cnt[2]), std::end(cnt[2]), Count{0});
        }
        Message probe;
        probe.kind = frame_.kind;
        probe.phase = frame_.phase;
        const std::uint64_t wb = wire_bits(probe, n);
        for (unsigned j = 0; j < kFusedLanes; ++j) {
            const std::uint64_t in_lane = 0 - (active >> j & 1);
            const std::uint64_t fan =
                broadcast_fanout(cnt[0][j], cnt[1][j], cnt[2][j], n) & in_lane;
            msgs[j] += fan;
            bits[j] += fan * wb;
        }

        // Beat 3: deliveries.
        proto.receive_round(r, frame_);

        // All-halted sweep, all lanes at once: lane j is live while any node
        // is neither Byzantine nor halted in it. The sweep stops, 64 nodes
        // at a time, once every active lane has shown a live node.
        const std::uint64_t* const halted2 = proto.halted_plane();
        constexpr NodeId kStep = 64;
        std::uint64_t live_any = 0;
        for (NodeId lo = 0, hi = 0; lo < n && (live_any & active) != active; lo = hi) {
            hi = lo + std::min(n - lo, kStep);
            for (NodeId v = lo; v < hi; ++v) live_any |= ~byz[v] & ~halted2[v];
        }
        const std::uint64_t retired = active & ~live_any;
        for (std::uint64_t lanes = retired; lanes != 0; lanes &= lanes - 1) {
            const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
            rounds[j] = r + 1;  // count this round as executed
        }
        decided |= retired;
        active &= live_any;
    }

    for (std::uint64_t l = in_block; l != 0; l &= l - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(l));
        FusedLaneResult& res = out[j];
        const bool lane_decided = (decided >> j & 1) != 0;
        res.all_halted = lane_decided;
        res.rounds = lane_decided ? rounds[j] : max_rounds;
        res.outcome =
            lane_decided ? TrialOutcome::Decided : TrialOutcome::RoundCapExhausted;
        res.metrics = Metrics{};
        res.metrics.honest_messages = msgs[j];
        res.metrics.honest_bits = bits[j];
        res.metrics.byzantine_messages = ctl_.byzantine_messages(j);
        res.metrics.corruptions = ctl_.corruptions(j);
        res.metrics.rounds = res.rounds;
        ADBA_ENSURES_MSG(ctl_.corruptions(j) <= budget, "budget accounting overflow");
    }
}

BlockStrategy* FusedBlock::block_form(Adversary* const* advs, std::uint64_t lanes) {
    const Adversary& lead = *advs[std::countr_zero(lanes)];
    for (std::uint64_t l = lanes; l != 0; l &= l - 1) {
        Adversary& other = *advs[std::countr_zero(l)];
        if (other.block_form() == nullptr || !lead.same_strategy(other)) return nullptr;
    }
    return advs[std::countr_zero(lanes)]->block_form();
}

// --------------------------------------------------------------- SegmentFold

SegmentFold::Unit SegmentFold::classify(const Message* m) const {
    Unit u;
    if (m == nullptr || m->kind != q_.kind || m->phase != q_.phase) return u;
    if (!q_.require_flag || m->flag != 0) ((m->val & 1) != 0 ? u.c1 : u.c0) = 1;
    u.coin = m->coin > 0 ? 1 : m->coin < 0 ? -1 : 0;
    return u;
}

void SegmentFold::apply(const Delta& d) {
    if (d.lane < kFusedLanes) {
        counts_.c0[d.lane] += d.d.c0;
        counts_.c1[d.lane] += d.d.c1;
        counts_.coin[d.lane] += d.d.coin;
        return;
    }
    for (unsigned j = 0; j < kFusedLanes; ++j) {
        counts_.c0[j] += shared_weight_[j] * d.d.c0;
        counts_.c1[j] += shared_weight_[j] * d.d.c1;
        counts_.coin[j] += shared_coin_[j] * d.d.coin;
    }
}

void SegmentFold::prepare(const FusedFrame& frame, const FoldQuery& q) {
    const NodeId n = frame.n();
    q_ = q;
    n_ = n;
    deltas_.clear();
    const NodeId from_first = std::min(q.from_first, n);
    const NodeId from_last = std::min(q.from_last, n);
    const NodeId coin_first = std::min(q.coin_first, n);
    const NodeId coin_last = std::min(q.coin_last, n);
    const bool every_sender = from_first == 0 && from_last == n;

    // Honest broadcasts all carry the frame's (kind, phase) and reach every
    // receiver. When only some senders count, the same pass counts the
    // shared row's senders among them; otherwise those are its per-lane
    // sender counts.
    const std::uint64_t honest =
        frame.kind == q.kind && frame.phase == q.phase ? ~std::uint64_t{0} : 0;
    const std::uint64_t flag_free = q.require_flag ? 0 : ~std::uint64_t{0};
    Count h[3][kFusedLanes];
    const auto by_val = [&](NodeId v, std::uint64_t* w) {
        const std::uint64_t present = frame.sent[v] & (frame.flag[v] | flag_free) & honest;
        w[0] = present & ~frame.val[v];
        w[1] = present & frame.val[v];
    };
    if (every_sender) {
        kern::lane_counts<2>(0, n, by_val, h);
        std::copy(std::begin(frame.shared_senders), std::end(frame.shared_senders), h[2]);
    } else {
        kern::lane_counts<3>(from_first, from_last, [&](NodeId v, std::uint64_t* w) {
            by_val(v, w);
            w[2] = frame.shared[v];
        }, h);
    }
    // The honest coin sum and the shared row's committee senders.
    Count c[3][kFusedLanes] = {};
    const auto by_coin = [&](NodeId v, std::uint64_t* w) {
        w[0] = frame.sent[v] & frame.coinp[v] & honest;
        w[1] = frame.sent[v] & frame.coinn[v] & honest;
    };
    if (coin_first < coin_last && frame.has_shared)
        kern::lane_counts<3>(coin_first, coin_last, [&](NodeId v, std::uint64_t* w) {
            by_coin(v, w);
            w[2] = frame.shared[v];
        }, c);
    else if (coin_first < coin_last)
        kern::lane_counts<2>(coin_first, coin_last, by_coin, c);
    for (unsigned j = 0; j < kFusedLanes; ++j) {
        counts_.c0[j] = static_cast<std::int32_t>(h[0][j]);
        counts_.c1[j] = static_cast<std::int32_t>(h[1][j]);
        counts_.coin[j] = static_cast<std::int32_t>(c[0][j]) - static_cast<std::int32_t>(c[1][j]);
        counts_.coin_sign[j] = 0;
        shared_weight_[j] = frame.has_shared ? static_cast<std::int32_t>(h[2][j]) : 0;
        shared_coin_[j] = frame.has_shared ? static_cast<std::int32_t>(c[2][j]) : 0;
    }

    // The shared row, weighted per lane: receiver 0 sees the low side
    // unless the boundary is 0.
    if (frame.has_shared) {
        const FusedRow& row = frame.shared_row;
        const Unit low = classify(row.has_low ? &row.low : nullptr);
        const Unit high = classify(row.has_high ? &row.high : nullptr);
        const Unit& first = row.boundary > 0 ? low : high;
        for (unsigned j = 0; j < kFusedLanes; ++j) {
            counts_.c0[j] += shared_weight_[j] * first.c0;
            counts_.c1[j] += shared_weight_[j] * first.c1;
            counts_.coin[j] += shared_coin_[j] * first.coin;
        }
        if (row.boundary > 0 && row.boundary < n && !(high == low))
            deltas_.push_back({row.boundary, kFusedLanes, high - low});
    }

    // The coin-sign row: its counts are the same for every receiver; only
    // the coin sign varies, so its coin weight goes to the receiver.
    if (frame.has_sign) {
        // The row's senders in [lo, hi): the counts sign_row took when the
        // range covers the row's.
        const auto byz_senders = [&](NodeId lo, NodeId hi, Count (*out)[kFusedLanes]) {
            if (lo <= frame.sign_first && frame.sign_last <= hi) {
                std::copy(std::begin(frame.sign_senders), std::end(frame.sign_senders), out[0]);
                return;
            }
            kern::lane_counts<1>(std::max(lo, frame.sign_first), std::min(hi, frame.sign_last),
                                 [&](NodeId v, std::uint64_t* w) {
                                     w[0] = frame.byz[v] & frame.sign_lanes;
                                 },
                                 out);
        };
        Count weight[1][kFusedLanes], coin_weight[1][kFusedLanes] = {};
        byz_senders(from_first, from_last, weight);
        const bool coined = frame.sign_msg.kind == q.kind && frame.sign_msg.phase == q.phase;
        if (coined) byz_senders(coin_first, coin_last, coin_weight);
        const Unit u = classify(&frame.sign_msg);
        for (unsigned j = 0; j < kFusedLanes; ++j) {
            counts_.c0[j] += static_cast<std::int32_t>(weight[0][j]) * u.c0;
            counts_.c1[j] += static_cast<std::int32_t>(weight[0][j]) * u.c1;
            counts_.coin_sign[j] = static_cast<std::int32_t>(coin_weight[0][j]);
        }
    }

    // Each lane's own rows, at unit weight where their sender counts.
    for (std::uint64_t lanes = frame.row_lanes() & frame.active; lanes != 0;
         lanes &= lanes - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
        for (const FusedRow& row : frame.rows(j)) {
            const bool counted = row.sender >= from_first && row.sender < from_last;
            const bool coined = row.sender >= coin_first && row.sender < coin_last;
            if (!counted && !coined) continue;
            const auto side = [&](bool has, const Message& m) {
                Unit u = classify(has ? &m : nullptr);
                if (!counted) u.c0 = u.c1 = 0;
                if (!coined) u.coin = 0;
                return u;
            };
            const Unit low = side(row.has_low, row.low);
            const Unit high = side(row.has_high, row.high);
            const Unit& first = row.boundary > 0 ? low : high;
            counts_.c0[j] += first.c0;
            counts_.c1[j] += first.c1;
            counts_.coin[j] += first.coin;
            if (row.boundary == 0 || row.boundary >= n || high == low) continue;
            // A lane's set playing one row through the bridge cuts at one
            // boundary: one delta per run of equal cuts.
            if (!deltas_.empty() && deltas_.back().lane == j &&
                deltas_.back().boundary == row.boundary)
                deltas_.back().d = deltas_.back().d + (high - low);
            else
                deltas_.push_back({row.boundary, j, high - low});
        }
    }
    // Rows that share one cut (a shared row, one lane's set playing one row
    // through the bridge) arrive sorted already.
    const auto by_boundary = [](const Delta& a, const Delta& b) { return a.boundary < b.boundary; };
    if (!std::is_sorted(deltas_.begin(), deltas_.end(), by_boundary))
        std::sort(deltas_.begin(), deltas_.end(), by_boundary);
}

}  // namespace adba::net
