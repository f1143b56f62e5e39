#include "baselines/ben_or.hpp"

#include "support/contracts.hpp"

namespace adba::base {

void BenOrParams::check() const {
    ADBA_EXPECTS(n > 0);
    ADBA_EXPECTS_MSG(5 * static_cast<std::uint64_t>(t) < n, "Ben-Or 1983 requires t < n/5");
    ADBA_EXPECTS(phases >= 1);
}

BenOrNode::BenOrNode(BenOrParams params, NodeId self, Bit input, Xoshiro256 rng) {
    reinit(params, self, input, rng);  // one initialization body for both paths
}

void BenOrNode::reinit(BenOrParams params, NodeId self, Bit input, Xoshiro256 rng) {
    params.check();
    ADBA_EXPECTS(self < params.n);
    ADBA_EXPECTS(input <= 1);
    params_ = params;
    self_ = self;
    rng_ = rng;
    val_ = input;
    proposal_ = 0;
    proposing_ = false;
    decided_ = false;
    flushing_ = false;
    halted_ = false;
}

std::optional<net::Message> BenOrNode::round_send(Round r) {
    ADBA_EXPECTS(!halted_);
    net::Message m;
    m.phase = r / 2;
    if (r % 2 == 0) {
        m.kind = net::MsgKind::BenOrReport;
        m.val = val_;
    } else {
        m.kind = net::MsgKind::BenOrPropose;
        m.val = proposal_;
        m.flag = proposing_ ? 1 : 0;  // flag 0 encodes the ⊥ proposal
        if (flushing_) halted_ = true;
    }
    return m;
}

void BenOrNode::round_receive(Round r, const net::ReceiveView& view) {
    ADBA_EXPECTS(!halted_);
    const Phase p = r / 2;
    if (flushing_) return;  // output fixed; ignoring deliveries
    const Count n = params_.n;
    const Count t = params_.t;

    if (r % 2 == 0) {
        const auto cnt =
            view.val_counts(net::MsgKind::BenOrReport, p, /*require_flag=*/false);
        proposing_ = false;
        for (Bit b : {Bit{0}, Bit{1}}) {
            if (2 * static_cast<std::uint64_t>(cnt[b]) >
                static_cast<std::uint64_t>(n) + t) {
                proposal_ = b;
                proposing_ = true;
            }
        }
        return;
    }

    const auto prop =
        view.val_counts(net::MsgKind::BenOrPropose, p, /*require_flag=*/true);
    // Two honest nodes cannot propose different values (both passed the
    // (n+t)/2 quorum), so at most one value exceeds t from honest senders.
    ADBA_ENSURES_MSG(!(prop[0] > t && prop[1] > t),
                     "conflicting Ben-Or proposals above t");
    bool adopted = false;
    for (Bit b : {Bit{0}, Bit{1}}) {
        if (prop[b] > 2 * t) {
            val_ = b;
            decided_ = true;
            // Broadcast one more full phase advertising the decision (so
            // peers' proposal tallies see it), then halt.
            flushing_ = true;
            proposal_ = val_;
            proposing_ = true;
            return;
        }
    }
    for (Bit b : {Bit{0}, Bit{1}}) {
        if (prop[b] > t) {
            val_ = b;
            adopted = true;
        }
    }
    if (!adopted) val_ = rng_.bit();  // private coin — the pre-shared-coin world
    if (p + 1 >= params_.phases) halted_ = true;
}

void arm_ben_or_nodes(const BenOrParams& params, const std::vector<Bit>& inputs,
                      const SeedTree& seeds,
                      std::vector<std::unique_ptr<net::HonestNode>>& nodes) {
    ADBA_EXPECTS(inputs.size() == params.n);
    net::arm_node_pool<BenOrNode>(nodes, params.n, [&](BenOrNode& nd, NodeId v) {
        nd.reinit(params, v, inputs[v], seeds.stream(StreamPurpose::NodeProtocol, v));
    });
}

// ------------------------------------------------------------- BenOrBatch

void BenOrBatch::rearm(const BenOrParams& params, const std::vector<Bit>& inputs,
                       const SeedTree& seeds) {
    params.check();
    ADBA_EXPECTS(inputs.size() == params.n);
    params_ = params;
    const NodeId n = params.n;
    planes_.rearm(inputs.data(), n);
    for (NodeId v = 0; v < n; ++v) ADBA_EXPECTS(inputs[v] <= 1);
    rng_.clear();
    rng_.reserve(n);
    for (NodeId v = 0; v < n; ++v)
        rng_.push_back(seeds.stream(StreamPurpose::NodeProtocol, v));
}

void BenOrBatch::send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) {
    const std::uint8_t* state = buf.state_plane();
    const bool round2 = (r % 2) != 0;
    net::Message m;
    m.phase = r / 2;
    m.kind = round2 ? net::MsgKind::BenOrPropose : net::MsgKind::BenOrReport;
    for (NodeId v = lo; v < hi; ++v) {
        if ((state[v] & net::RoundBuffer::kByzantine) != 0 || planes_.halted[v]) continue;
        if (round2) {
            m.val = planes_.proposal[v];
            m.flag = planes_.proposing[v] ? 1 : 0;  // flag 0 encodes the ⊥ proposal
            if (planes_.flushing[v]) planes_.halted[v] = 1;
        } else {
            m.val = planes_.val[v];
            m.flag = 0;
        }
        buf.set_broadcast(v, m);
    }
}

net::BeatQuery BenOrBatch::beat_query(Round r) const {
    const bool propose = (r % 2) != 0;
    return {propose ? net::MsgKind::BenOrPropose : net::MsgKind::BenOrReport, r / 2,
            /*require_flag=*/propose};
}

void BenOrBatch::receive_rule(Round r, const net::BeatCounts& in, NodeId lo, NodeId hi) {
    using Step = BenOrStep<Bit>;
    const bool propose = (r % 2) != 0;
    const Count t = params_.t;
    const bool last_phase = r / 2 + 1 >= params_.phases;
    const bool exact = in.exact();
    // 2 * count > n + t, as count > floor((n + t) / 2).
    const std::uint64_t report_quorum = (static_cast<std::uint64_t>(params_.n) + t) / 2;
    for (NodeId v = lo; v < hi; ++v) {
        if (in.byzantine(v) || planes_.halted[v] || planes_.flushing[v]) continue;
        const std::array<Count, 2> cnt = in.val(v);
        // The conflict check holds for exact counts only.
        const Step step = propose ? Step::propose(cnt[0] > 2 * t, cnt[1] > 2 * t, cnt[0] > t,
                                                  cnt[1] > t, exact, last_phase)
                                  : Step::report(cnt[0] > report_quorum, cnt[1] > report_quorum);
        step.value(planes_, v, 1, step.coin_lanes(1) != 0 ? rng_[v].bit() : Bit{0});
        if (step.ending() != 0) step.end(planes_, v, 1);
    }
}

// ------------------------------------------------------------- FusedBenOr

FusedBenOr::FusedBenOr(const BenOrParams& params) {
    params.check();
    params_ = params;
}

void FusedBenOr::rearm(const std::uint64_t* input_plane, const SeedTree* lane_seeds) {
    const NodeId n = params_.n;
    planes_.rearm(input_plane, n);
    streams_.rearm(lane_seeds, n);
}

void FusedBenOr::send_round(Round r, net::FusedFrame& frame) {
    const NodeId n = params_.n;
    const bool round2 = (r % 2) != 0;
    frame.kind = round2 ? net::MsgKind::BenOrPropose : net::MsgKind::BenOrReport;
    frame.phase = r / 2;
    for (NodeId v = 0; v < n; ++v) {
        const std::uint64_t act = ~frame.byz[v] & ~planes_.halted[v];
        frame.sent[v] = act;
        if (round2) {
            frame.val[v] = planes_.proposal[v];
            frame.flag[v] = planes_.proposing[v];  // flag 0 encodes the ⊥ proposal
            planes_.halted[v] |= act & planes_.flushing[v];
        } else {
            frame.val[v] = planes_.val[v];
            frame.flag[v] = 0;
        }
    }
}

void FusedBenOr::receive_round(Round r, const net::FusedFrame& frame) {
    using net::kern::lanes_greater;
    using Step = BenOrStep<std::uint64_t>;
    const NodeId n = params_.n;
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    const net::MsgKind kind =
        round2 ? net::MsgKind::BenOrPropose : net::MsgKind::BenOrReport;
    const auto t = static_cast<std::int32_t>(params_.t);
    // 2 * count > n + t, as count > floor((n + t) / 2).
    const auto report_quorum = static_cast<std::int32_t>((n + params_.t) / 2);
    const std::uint64_t active = frame.active;
    const bool last_phase = p + 1 >= params_.phases;

    const std::uint64_t* const byz = frame.byz.data();
    const std::uint64_t* const flushing = planes_.flushing.data();
    const std::uint64_t* const halted = planes_.halted.data();
    const auto live = [&](NodeId v) { return ~byz[v] & ~halted[v] & ~flushing[v] & active; };
    // A proposal counts only with its flag (flag 0 is the ⊥ proposal).
    fold_.prepare(frame, {kind, p, /*require_flag=*/round2});
    fold_.sweep([&](const net::LaneCounts& c, NodeId lo, NodeId hi) {
        if (!round2) {
            const Step step = Step::report(lanes_greater(c.c0, report_quorum) & active,
                                           lanes_greater(c.c1, report_quorum) & active);
            for (NodeId v = lo; v < hi; ++v) step.value(planes_, v, live(v), 0);
            return;
        }
        const Step step = Step::propose(
            lanes_greater(c.c0, 2 * t) & active, lanes_greater(c.c1, 2 * t) & active,
            lanes_greater(c.c0, t) & active, lanes_greater(c.c1, t) & active,
            /*exact=*/true, last_phase);
        for (NodeId v = lo; v < hi; ++v) {
            // Each coin cell draws from its own stream.
            std::uint64_t drawn = 0;
            for (std::uint64_t cm = step.coin_lanes(live(v)); cm != 0; cm &= cm - 1) {
                const unsigned j = static_cast<unsigned>(std::countr_zero(cm));
                if (streams_.at(v, j).bit() != 0) drawn |= std::uint64_t{1} << j;
            }
            step.value(planes_, v, live(v), drawn);
        }
        if (step.ending() == 0) return;
        for (NodeId v = lo; v < hi; ++v) step.end(planes_, v, live(v));
    });
}

}  // namespace adba::base
