#include "net/fused_plane.hpp"

#include <algorithm>
#include <bit>

#include "support/contracts.hpp"

namespace adba::net {

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
        "must declare supports_fused=false)");
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
    // Newly covered delivery slots of a fresh pattern row — exactly what
    // RoundBuffer::apply_pattern reports for a just-corrupted sender (the
    // add_row duplicate guard keeps "fresh" unconditional).
    std::uint64_t covered = 0;
    if (low) covered += boundary;
    if (high) covered += n - boundary;
    byz_msgs_[lane_] += covered;
}

// ---------------------------------------------------------------- FusedBlock

void FusedBlock::run(FusedProtocol& proto, Adversary* const* advs, Count budget,
                     Round max_rounds, FusedLaneResult* out) {
    const NodeId n = proto.n();
    ADBA_EXPECTS(n > 0);
    ADBA_EXPECTS(max_rounds > 0);
    frame_.reset(n);
    ctl_.rearm(&frame_, &proto, budget);
    for (unsigned j = 0; j < kFusedLanes; ++j) advs[j]->on_start(n, budget);

    std::uint64_t active = ~std::uint64_t{0};
    std::uint64_t decided = 0;
    Round rounds[kFusedLanes] = {};
    std::uint64_t msgs[kFusedLanes] = {};
    std::uint64_t bits[kFusedLanes] = {};

    kern::LaneAdder a_sent, a_flush, a_halt;
    Count sent_cnt[kFusedLanes], flush_cnt[kFusedLanes], halt_cnt[kFusedLanes];

    for (Round r = 0; r < max_rounds && active != 0; ++r) {
        frame_.active = active;
        frame_.begin_round(MsgKind::None, 0);

        // Beat 1: honest sends (the protocol fills the broadcast planes and
        // applies its flush-halts).
        proto.send_round(r, frame_);

        // Beat 2: each live lane's rushing adversary observes and acts.
        // Retired lanes' adversaries are never invoked again — their scalar
        // twins' runs already ended.
        ctl_.set_round(r);
        for (std::uint64_t lanes = active; lanes != 0; lanes &= lanes - 1) {
            const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
            ctl_.set_lane(j);
            advs[j]->act(ctl_);
        }

        // Honest traffic accounting in closed form per lane: the same
        // broadcast_fanout identity Engine::account_sends charges, from
        // per-lane counts of live broadcasts (S), flush-halted senders (SH)
        // and honest-halted receivers (H), all read AFTER corruptions.
        const std::uint64_t* halted = proto.halted_plane();
        a_sent.reset();
        a_flush.reset();
        a_halt.reset();
        for (NodeId v = 0; v < n; ++v) {
            const std::uint64_t s = frame_.sent[v];
            a_sent.add(s);
            a_flush.add(s & halted[v]);
            a_halt.add(~frame_.byz[v] & halted[v]);
        }
        a_sent.counts(sent_cnt);
        a_flush.counts(flush_cnt);
        a_halt.counts(halt_cnt);
        Message probe;
        probe.kind = frame_.kind;
        probe.phase = frame_.phase;
        const std::uint64_t wb = wire_bits(probe, n);
        for (std::uint64_t lanes = active; lanes != 0; lanes &= lanes - 1) {
            const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
            const std::uint64_t fan =
                broadcast_fanout(sent_cnt[j], flush_cnt[j], halt_cnt[j], n);
            msgs[j] += fan;
            bits[j] += fan * wb;
        }

        // Beat 3: deliveries.
        proto.receive_round(r, frame_);

        // All-halted sweep, all lanes at once: lane j is live while any node
        // is neither Byzantine nor halted in it.
        const std::uint64_t* halted2 = proto.halted_plane();
        std::uint64_t live_any = 0;
        for (NodeId v = 0; v < n; ++v) live_any |= ~frame_.byz[v] & ~halted2[v];
        const std::uint64_t retired = active & ~live_any;
        for (std::uint64_t lanes = retired; lanes != 0; lanes &= lanes - 1) {
            const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
            rounds[j] = r + 1;  // count this round as executed
        }
        decided |= retired;
        active &= live_any;
    }

    for (unsigned j = 0; j < kFusedLanes; ++j) {
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

// -------------------------------------------------------------- LaneSegments

void LaneSegments::rebuild(const std::vector<FusedRow>& rows, NodeId n) {
    // Sorted-insert with dedupe instead of sort+unique: row counts are small
    // (≤ the corruption budget) and the supported adversaries split every
    // sender at ONE shared boundary, so almost every insert is a single
    // compare against the last interior cut. This runs every (lane, round) —
    // it is the hot path of fused receive under Byzantine pressure.
    cuts_.clear();
    cuts_.push_back(0);
    for (const FusedRow& row : rows) {
        const NodeId b = row.boundary;
        if (b == 0 || b >= n) continue;
        std::size_t i = cuts_.size();
        while (i > 1 && cuts_[i - 1] > b) --i;
        if (cuts_[i - 1] == b) continue;
        cuts_.insert(cuts_.begin() + static_cast<std::ptrdiff_t>(i), b);
    }
    cuts_.push_back(n);
}

}  // namespace adba::net
