#include "baselines/phase_king.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace adba::base {

void PhaseKingParams::check() const {
    ADBA_EXPECTS(n > 0);
    ADBA_EXPECTS_MSG(4 * static_cast<std::uint64_t>(t) < n, "simple phase-king requires t < n/4");
    ADBA_EXPECTS_MSG(t + 1 <= n, "needs t+1 distinct kings");
}

PhaseKingNode::PhaseKingNode(PhaseKingParams params, NodeId self, Bit input) {
    reinit(params, self, input);  // one initialization body for both paths
}

void PhaseKingNode::reinit(PhaseKingParams params, NodeId self, Bit input) {
    params.check();
    ADBA_EXPECTS(self < params.n);
    ADBA_EXPECTS(input <= 1);
    params_ = params;
    self_ = self;
    val_ = input;
    maj_ = 0;
    mult_ = 0;
    halted_ = false;
}

std::optional<net::Message> PhaseKingNode::round_send(Round r) {
    ADBA_EXPECTS(!halted_);
    const Phase k = r / 2;
    net::Message m;
    m.phase = k;
    if (r % 2 == 0) {
        m.kind = net::MsgKind::PhaseKingSend;
        m.val = val_;
        return m;
    }
    if (self_ == params_.king_of(k)) {
        m.kind = net::MsgKind::PhaseKingRuler;
        m.val = maj_;
        return m;
    }
    return std::nullopt;  // only the king speaks in round 2
}

void PhaseKingNode::round_receive(Round r, const net::ReceiveView& view) {
    ADBA_EXPECTS(!halted_);
    const Phase k = r / 2;
    if (r % 2 == 0) {
        const auto cnt =
            view.val_counts(net::MsgKind::PhaseKingSend, k, /*require_flag=*/false);
        maj_ = cnt[1] > cnt[0] ? Bit{1} : Bit{0};
        mult_ = cnt[maj_];
        return;
    }
    // Round 2: adopt the king's value unless our majority was overwhelming.
    Bit king_val = 0;  // a silent/corrupted king defaults to 0 at every node
    const net::Message* m = view.from(params_.king_of(k));
    if (m != nullptr && m->kind == net::MsgKind::PhaseKingRuler && m->phase == k)
        king_val = m->val & 1;
    if (2 * static_cast<std::uint64_t>(mult_) > params_.n + 2 * static_cast<std::uint64_t>(params_.t)) {
        val_ = maj_;
    } else {
        val_ = king_val;
    }
    if (k + 1 == params_.phases()) halted_ = true;
}

void arm_phase_king_nodes(const PhaseKingParams& params, const std::vector<Bit>& inputs,
                          std::vector<std::unique_ptr<net::HonestNode>>& nodes) {
    ADBA_EXPECTS(inputs.size() == params.n);
    net::arm_node_pool<PhaseKingNode>(
        nodes, params.n,
        [&](PhaseKingNode& nd, NodeId v) { nd.reinit(params, v, inputs[v]); });
}

// --------------------------------------------------------- PhaseKingBatch

void PhaseKingBatch::rearm(const PhaseKingParams& params,
                           const std::vector<Bit>& inputs) {
    params.check();
    ADBA_EXPECTS(inputs.size() == params.n);
    params_ = params;
    const NodeId n = params.n;
    planes_.rearm(inputs.data(), n);
    for (NodeId v = 0; v < n; ++v) ADBA_EXPECTS(inputs[v] <= 1);
}

void PhaseKingBatch::send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) {
    const Phase k = r / 2;
    const std::uint8_t* state = buf.state_plane();
    if ((r % 2) == 0) {
        net::Message m;
        m.kind = net::MsgKind::PhaseKingSend;
        m.phase = k;
        for (NodeId v = lo; v < hi; ++v) {
            if ((state[v] & net::RoundBuffer::kByzantine) != 0 || planes_.halted[v]) continue;
            m.val = planes_.val[v];
            buf.set_broadcast(v, m);
        }
        return;
    }
    // Only the king speaks in round 2 — and only the shard that holds it.
    const NodeId king = params_.king_of(k);
    if (king < lo || king >= hi) return;
    if ((state[king] & net::RoundBuffer::kByzantine) != 0 || planes_.halted[king]) return;
    net::Message m;
    m.kind = net::MsgKind::PhaseKingRuler;
    m.phase = k;
    m.val = planes_.maj[king];
    buf.set_broadcast(king, m);
}

net::BeatQuery PhaseKingBatch::beat_query(Round r) const {
    net::BeatQuery q{net::MsgKind::PhaseKingSend, r / 2};
    q.counts = (r % 2) == 0;
    return q;
}

void PhaseKingBatch::receive_rule(Round r, const net::BeatCounts& in, NodeId lo,
                                  NodeId hi) {
    using Step = PhaseKingStep<Bit>;
    const Phase k = r / 2;
    const NodeId king = params_.king_of(k);
    const bool last_phase = k + 1 == params_.phases();
    // 2 * mult > n + 2t, as mult > floor((n + 2t) / 2).
    const std::uint64_t strong_bound =
        (params_.n + 2 * static_cast<std::uint64_t>(params_.t)) / 2;
    const auto round1 = [&](const std::array<Count, 2>& cnt) {
        return Step::round1(cnt[1] > cnt[0], cnt[0] > strong_bound, cnt[1] > strong_bound);
    };
    // A silent or corrupted king's value is 0 at every node.
    const auto king1 = [&](NodeId v) -> Bit {
        const net::Message* m = in.from(v, king);
        return m != nullptr && m->kind == net::MsgKind::PhaseKingRuler && m->phase == k
                   ? m->val & 1
                   : 0;
    };
    for (NodeId v = lo; v < hi; ++v) {
        if (in.byzantine(v) || planes_.halted[v]) continue;
        const Step step =
            (r % 2) == 0 ? round1(in.val(v)) : Step::round2(king1(v), last_phase);
        step.value(planes_, v, 1);
        if (step.ending() != 0) step.end(planes_, v, 1);
    }
}

// --------------------------------------------------------- FusedPhaseKing

FusedPhaseKing::FusedPhaseKing(const PhaseKingParams& params) {
    params.check();
    params_ = params;
}

void FusedPhaseKing::rearm(const std::uint64_t* input_plane,
                           const SeedTree* /*lane_seeds*/) {
    const NodeId n = params_.n;
    planes_.rearm(input_plane, n);
    decided_.assign(n, 0);
}

void FusedPhaseKing::send_round(Round r, net::FusedFrame& frame) {
    const NodeId n = params_.n;
    const Phase k = r / 2;
    frame.phase = k;
    if ((r % 2) == 0) {
        frame.kind = net::MsgKind::PhaseKingSend;
        for (NodeId v = 0; v < n; ++v) {
            frame.sent[v] = ~frame.byz[v] & ~planes_.halted[v];
            frame.val[v] = planes_.val[v];
        }
        return;
    }
    // Only the king speaks in round 2.
    frame.kind = net::MsgKind::PhaseKingRuler;
    const NodeId king = params_.king_of(k);
    std::fill(frame.sent.begin(), frame.sent.end(), 0);
    frame.sent[king] = ~frame.byz[king] & ~planes_.halted[king];
    frame.val[king] = planes_.maj[king];
}

void FusedPhaseKing::receive_round(Round r, const net::FusedFrame& frame) {
    using net::kern::lanes_greater;
    using Step = PhaseKingStep<std::uint64_t>;
    const Phase k = r / 2;
    const std::uint64_t active = frame.active;
    const std::uint64_t* const byz = frame.byz.data();
    const std::uint64_t* const halted = planes_.halted.data();
    const auto live = [&](NodeId v) { return ~byz[v] & ~halted[v] & active; };

    if ((r % 2) == 0) {
        // 2 * mult > n + 2t, as mult > floor((n + 2t) / 2).
        const auto strong_bound =
            static_cast<std::int32_t>((params_.n + 2 * static_cast<std::uint64_t>(params_.t)) / 2);
        fold_.prepare(frame, {net::MsgKind::PhaseKingSend, k});
        fold_.sweep([&](const net::LaneCounts& c, NodeId lo, NodeId hi) {
            const Step step = Step::round1(lanes_greater(c.c1, c.c0) & active,
                                           lanes_greater(c.c0, strong_bound) & active,
                                           lanes_greater(c.c1, strong_bound) & active);
            for (NodeId v = lo; v < hi; ++v) step.value(planes_, v, live(v));
        });
        return;
    }

    // Round 2: the king's value, counted from the king alone — its honest
    // broadcast, or the row a corrupted king sends (shared or the lane's
    // own).
    const NodeId king = params_.king_of(k);
    const bool last_phase = k + 1 == params_.phases();
    fold_.prepare(frame, {net::MsgKind::PhaseKingRuler, k, false, 0, 0, king, king + 1});
    fold_.sweep([&](const net::LaneCounts& c, NodeId lo, NodeId hi) {
        const Step step = Step::round2(lanes_greater(c.c1, 0) & active, last_phase);
        for (NodeId v = lo; v < hi; ++v) step.value(planes_, v, live(v));
        if (step.ending() == 0) return;
        for (NodeId v = lo; v < hi; ++v) step.end(planes_, v, live(v));
    });
}

}  // namespace adba::base
