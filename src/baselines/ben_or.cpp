#include "baselines/ben_or.hpp"

#include "support/contracts.hpp"

namespace adba::base {

BenOrNode::BenOrNode(BenOrParams params, NodeId self, Bit input, Xoshiro256 rng) {
    reinit(params, self, input, rng);  // one initialization body for both paths
}

void BenOrNode::reinit(BenOrParams params, NodeId self, Bit input, Xoshiro256 rng) {
    ADBA_EXPECTS(params.n > 0);
    ADBA_EXPECTS_MSG(5 * static_cast<std::uint64_t>(params.t) < params.n,
                     "Ben-Or 1983 requires t < n/5");
    ADBA_EXPECTS(params.phases >= 1);
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

BenOrBatch::BenOrBatch(const BenOrParams& params, const std::vector<Bit>& inputs,
                       const SeedTree& seeds) {
    rearm(params, inputs, seeds);
}

void BenOrBatch::rearm(const BenOrParams& params, const std::vector<Bit>& inputs,
                       const SeedTree& seeds) {
    ADBA_EXPECTS(params.n > 0);
    ADBA_EXPECTS_MSG(5 * static_cast<std::uint64_t>(params.t) < params.n,
                     "Ben-Or 1983 requires t < n/5");
    ADBA_EXPECTS(params.phases >= 1);
    ADBA_EXPECTS(inputs.size() == params.n);
    params_ = params;
    const NodeId n = params.n;
    val_.assign(inputs.begin(), inputs.end());
    for (NodeId v = 0; v < n; ++v) ADBA_EXPECTS(val_[v] <= 1);
    proposal_.assign(n, 0);
    proposing_.assign(n, 0);
    decided_.assign(n, 0);
    flushing_.assign(n, 0);
    halted_.assign(n, 0);
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
        if ((state[v] & net::RoundBuffer::kByzantine) != 0 || halted_[v]) continue;
        if (round2) {
            m.val = proposal_[v];
            m.flag = proposing_[v] ? 1 : 0;  // flag 0 encodes the ⊥ proposal
            if (flushing_[v]) halted_[v] = 1;
        } else {
            m.val = val_[v];
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
    const Phase p = r / 2;
    const Count t = params_.t;
    for (NodeId v = lo; v < hi; ++v) {
        if (in.byzantine(v) || halted_[v] || flushing_[v]) continue;
        const std::array<Count, 2> cnt = in.val(v);

        if ((r % 2) == 0) {
            // Report round: propose b when b passes the (n+t)/2 quorum.
            proposing_[v] = 0;
            for (Bit b : {Bit{0}, Bit{1}}) {
                if (2 * static_cast<std::uint64_t>(cnt[b]) >
                    static_cast<std::uint64_t>(params_.n) + t) {
                    proposal_[v] = b;
                    proposing_[v] = 1;
                }
            }
            continue;
        }

        // Two honest nodes cannot propose different values (both passed the
        // (n+t)/2 quorum), so at most one value exceeds t from honest
        // senders — a theorem for exact counts only.
        if (in.exact()) {
            ADBA_ENSURES_MSG(!(cnt[0] > t && cnt[1] > t),
                             "conflicting Ben-Or proposals above t");
        }
        if (cnt[0] > 2 * t || cnt[1] > 2 * t) {
            val_[v] = cnt[0] > 2 * t ? Bit{0} : Bit{1};
            decided_[v] = 1;
            flushing_[v] = 1;
            proposal_[v] = val_[v];
            proposing_[v] = 1;
            continue;
        }
        bool adopted = false;
        for (Bit b : {Bit{0}, Bit{1}}) {
            if (cnt[b] > t) {
                val_[v] = b;
                adopted = true;
            }
        }
        if (!adopted) val_[v] = rng_[v].bit();  // private coin
        if (p + 1 >= params_.phases) halted_[v] = 1;
    }
}

// ------------------------------------------------------------- FusedBenOr

FusedBenOr::FusedBenOr(const BenOrParams& params) {
    ADBA_EXPECTS(params.n > 0);
    ADBA_EXPECTS_MSG(5 * static_cast<std::uint64_t>(params.t) < params.n,
                     "Ben-Or 1983 requires t < n/5");
    ADBA_EXPECTS(params.phases >= 1);
    params_ = params;
}

void FusedBenOr::rearm(const std::uint64_t* input_plane, const SeedTree* lane_seeds) {
    const NodeId n = params_.n;
    val_.assign(input_plane, input_plane + n);
    proposal_.assign(n, 0);
    proposing_.assign(n, 0);
    decided_.assign(n, 0);
    flushing_.assign(n, 0);
    halted_.assign(n, 0);
    streams_.rearm(lane_seeds, n);
}

void FusedBenOr::send_round(Round r, net::FusedFrame& frame) {
    const NodeId n = params_.n;
    const bool round2 = (r % 2) != 0;
    frame.kind = round2 ? net::MsgKind::BenOrPropose : net::MsgKind::BenOrReport;
    frame.phase = r / 2;
    for (NodeId v = 0; v < n; ++v) {
        const std::uint64_t act = ~frame.byz[v] & ~halted_[v];
        frame.sent[v] = act;
        if (round2) {
            frame.val[v] = proposal_[v];
            frame.flag[v] = proposing_[v];  // flag 0 encodes the ⊥ proposal
            halted_[v] |= act & flushing_[v];
        } else {
            frame.val[v] = val_[v];
            frame.flag[v] = 0;
        }
    }
}

void FusedBenOr::receive_round(Round r, const net::FusedFrame& frame) {
    using net::kern::lanes_greater;
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

    // A proposal counts only with its flag (flag 0 is the ⊥ proposal).
    fold_.prepare(frame, {kind, p, /*require_flag=*/round2});
    fold_.sweep([&](const net::LaneCounts& c, NodeId lo, NodeId hi) {
        if (!round2) {
            // Report round: propose the value past the (n+t)/2 quorum; at
            // most one can pass it (counts total at most n).
            const std::uint64_t p1 = lanes_greater(c.c1, report_quorum) & active;
            const std::uint64_t prop = (lanes_greater(c.c0, report_quorum) & active) | p1;
            for (NodeId v = lo; v < hi; ++v) {
                const std::uint64_t act = ~frame.byz[v] & ~halted_[v] & ~flushing_[v];
                proposing_[v] = (proposing_[v] & ~act) | (prop & act);
                proposal_[v] = (proposal_[v] & ~(prop & act)) | (p1 & act);
            }
            return;
        }

        // Propose round: more than 2t proposals of a value decide it, more
        // than t adopt it; otherwise the private coin.
        const std::uint64_t a0 = lanes_greater(c.c0, t) & active;
        const std::uint64_t a1 = lanes_greater(c.c1, t) & active;
        ADBA_ENSURES_MSG((a0 & a1) == 0, "conflicting Ben-Or proposals above t");
        const std::uint64_t fin = (lanes_greater(c.c0, 2 * t) | lanes_greater(c.c1, 2 * t)) & active;
        const std::uint64_t draw = active & ~(a0 | a1);
        for (NodeId v = lo; v < hi; ++v) {
            const std::uint64_t act = ~frame.byz[v] & ~halted_[v] & ~flushing_[v];
            std::uint64_t v1 = a1;
            const std::uint64_t cm = draw & act;
            for (std::uint64_t l = cm; l != 0; l &= l - 1) {
                const unsigned j = static_cast<unsigned>(std::countr_zero(l));
                if (streams_.at(v, j).bit() != 0) v1 |= std::uint64_t{1} << j;
            }
            val_[v] = (val_[v] & ~act) | (v1 & act);
            const std::uint64_t fin_v = fin & act;
            decided_[v] |= fin_v;
            flushing_[v] |= fin_v;
            proposing_[v] |= fin_v;
            proposal_[v] = (proposal_[v] & ~fin_v) | (a1 & fin_v);
            if (last_phase) halted_[v] |= act & ~fin_v;
        }
    });
}

}  // namespace adba::base
