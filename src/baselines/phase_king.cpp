#include "baselines/phase_king.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace adba::base {

PhaseKingNode::PhaseKingNode(PhaseKingParams params, NodeId self, Bit input) {
    reinit(params, self, input);  // one initialization body for both paths
}

void PhaseKingNode::reinit(PhaseKingParams params, NodeId self, Bit input) {
    ADBA_EXPECTS(params.n > 0);
    ADBA_EXPECTS_MSG(4 * static_cast<std::uint64_t>(params.t) < params.n,
                     "simple phase-king requires t < n/4");
    ADBA_EXPECTS_MSG(params.t + 1 <= params.n, "needs t+1 distinct kings");
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

PhaseKingBatch::PhaseKingBatch(const PhaseKingParams& params,
                               const std::vector<Bit>& inputs) {
    rearm(params, inputs);
}

void PhaseKingBatch::rearm(const PhaseKingParams& params,
                           const std::vector<Bit>& inputs) {
    ADBA_EXPECTS(params.n > 0);
    ADBA_EXPECTS_MSG(4 * static_cast<std::uint64_t>(params.t) < params.n,
                     "simple phase-king requires t < n/4");
    ADBA_EXPECTS_MSG(params.t + 1 <= params.n, "needs t+1 distinct kings");
    ADBA_EXPECTS(inputs.size() == params.n);
    params_ = params;
    const NodeId n = params.n;
    val_.assign(inputs.begin(), inputs.end());
    for (NodeId v = 0; v < n; ++v) ADBA_EXPECTS(val_[v] <= 1);
    maj_.assign(n, 0);
    mult_.assign(n, 0);
    halted_.assign(n, 0);
}

void PhaseKingBatch::send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) {
    const Phase k = r / 2;
    const std::uint8_t* state = buf.state_plane();
    if ((r % 2) == 0) {
        net::Message m;
        m.kind = net::MsgKind::PhaseKingSend;
        m.phase = k;
        for (NodeId v = lo; v < hi; ++v) {
            if ((state[v] & net::RoundBuffer::kByzantine) != 0 || halted_[v]) continue;
            m.val = val_[v];
            buf.set_broadcast(v, m);
        }
        return;
    }
    // Only the king speaks in round 2 — and only the shard that holds it.
    const NodeId king = params_.king_of(k);
    if (king < lo || king >= hi) return;
    if ((state[king] & net::RoundBuffer::kByzantine) != 0 || halted_[king]) return;
    net::Message m;
    m.kind = net::MsgKind::PhaseKingRuler;
    m.phase = k;
    m.val = maj_[king];
    buf.set_broadcast(king, m);
}

net::BeatQuery PhaseKingBatch::beat_query(Round r) const {
    net::BeatQuery q{net::MsgKind::PhaseKingSend, r / 2};
    q.counts = (r % 2) == 0;
    return q;
}

void PhaseKingBatch::receive_rule(Round r, const net::BeatCounts& in, NodeId lo,
                                  NodeId hi) {
    const Phase k = r / 2;
    const NodeId king = params_.king_of(k);
    for (NodeId v = lo; v < hi; ++v) {
        if (in.byzantine(v) || halted_[v]) continue;
        if ((r % 2) == 0) {
            const std::array<Count, 2> cnt = in.val(v);
            maj_[v] = cnt[1] > cnt[0] ? Bit{1} : Bit{0};
            mult_[v] = cnt[maj_[v]];
            continue;
        }
        // Round 2: adopt the king's value unless our majority was
        // overwhelming; a silent/corrupted king defaults to 0 at every node.
        Bit king_val = 0;
        const net::Message* m = in.from(v, king);
        if (m != nullptr && m->kind == net::MsgKind::PhaseKingRuler && m->phase == k)
            king_val = m->val & 1;
        if (2 * static_cast<std::uint64_t>(mult_[v]) >
            params_.n + 2 * static_cast<std::uint64_t>(params_.t)) {
            val_[v] = maj_[v];
        } else {
            val_[v] = king_val;
        }
        if (k + 1 == params_.phases()) halted_[v] = 1;
    }
}

// --------------------------------------------------------- FusedPhaseKing

FusedPhaseKing::FusedPhaseKing(const PhaseKingParams& params) {
    ADBA_EXPECTS(params.n > 0);
    ADBA_EXPECTS_MSG(4 * static_cast<std::uint64_t>(params.t) < params.n,
                     "simple phase-king requires t < n/4");
    ADBA_EXPECTS_MSG(params.t + 1 <= params.n, "needs t+1 distinct kings");
    params_ = params;
}

void FusedPhaseKing::rearm(const std::uint64_t* input_plane,
                           const SeedTree* /*lane_seeds*/) {
    const NodeId n = params_.n;
    val_.assign(input_plane, input_plane + n);
    maj_.assign(n, 0);
    strong_.assign(n, 0);
    decided_.assign(n, 0);
    halted_.assign(n, 0);
}

void FusedPhaseKing::send_round(Round r, net::FusedFrame& frame) {
    const NodeId n = params_.n;
    const Phase k = r / 2;
    frame.phase = k;
    if ((r % 2) == 0) {
        frame.kind = net::MsgKind::PhaseKingSend;
        for (NodeId v = 0; v < n; ++v) {
            frame.sent[v] = ~frame.byz[v] & ~halted_[v];
            frame.val[v] = val_[v];
        }
        return;
    }
    // Only the king speaks in round 2.
    frame.kind = net::MsgKind::PhaseKingRuler;
    const NodeId king = params_.king_of(k);
    std::fill(frame.sent.begin(), frame.sent.end(), 0);
    frame.sent[king] = ~frame.byz[king] & ~halted_[king];
    frame.val[king] = maj_[king];
}

void FusedPhaseKing::receive_round(Round r, const net::FusedFrame& frame) {
    using net::kern::lanes_greater;
    const Phase k = r / 2;
    const std::uint64_t active = frame.active;

    if ((r % 2) == 0) {
        // 2 * mult > n + 2t, as mult > floor((n + 2t) / 2).
        const auto strong_bound =
            static_cast<std::int32_t>((params_.n + 2 * static_cast<std::uint64_t>(params_.t)) / 2);
        fold_.prepare(frame, {net::MsgKind::PhaseKingSend, k});
        fold_.sweep([&](const net::LaneCounts& c, NodeId lo, NodeId hi) {
            const std::uint64_t maj = lanes_greater(c.c1, c.c0) & active;
            const std::uint64_t strong = ((maj & lanes_greater(c.c1, strong_bound)) |
                                          (~maj & lanes_greater(c.c0, strong_bound))) &
                                         active;
            for (NodeId v = lo; v < hi; ++v) {
                const std::uint64_t act = ~frame.byz[v] & ~halted_[v];
                maj_[v] = (maj_[v] & ~act) | (maj & act);
                strong_[v] = (strong_[v] & ~act) | (strong & act);
            }
        });
        return;
    }

    // Round 2: the king's value, counted from the king alone — its honest
    // broadcast, or the row a corrupted king sends (shared or the lane's
    // own); a silent/corrupted king defaults to 0 at every node.
    const NodeId king = params_.king_of(k);
    const bool last_phase = k + 1 == params_.phases();
    fold_.prepare(frame, {net::MsgKind::PhaseKingRuler, k, false, 0, 0, king, king + 1});
    fold_.sweep([&](const net::LaneCounts& c, NodeId lo, NodeId hi) {
        const std::uint64_t kv = lanes_greater(c.c1, 0) & active;
        for (NodeId v = lo; v < hi; ++v) {
            const std::uint64_t act = ~frame.byz[v] & ~halted_[v];
            const std::uint64_t nv = (strong_[v] & maj_[v]) | (~strong_[v] & kv);
            val_[v] = (val_[v] & ~act) | (nv & act);
            if (last_phase) halted_[v] |= act;
        }
    });
}

}  // namespace adba::base
