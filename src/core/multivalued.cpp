#include "core/multivalued.hpp"

#include "support/contracts.hpp"

namespace adba::core {

MultiValuedParams MultiValuedParams::compute(NodeId n, Count t, const Tuning& tune,
                                             net::Word fallback, AgreementMode mode) {
    MultiValuedParams p;
    p.binary = AgreementParams::compute(n, t, tune);
    p.fallback = fallback;
    p.mode = mode;
    return p;
}

TurpinCoanNode::TurpinCoanNode(const MultiValuedParams& params, NodeId self,
                               net::Word input, Xoshiro256 rng) {
    reinit(params, self, input, rng);  // one initialization body for both paths
}

void TurpinCoanNode::reinit(const MultiValuedParams& params, NodeId self,
                            net::Word input, Xoshiro256 rng) {
    ADBA_EXPECTS(self < params.binary.n);
    params_ = params;
    self_ = self;
    rng_ = rng;
    input_ = input;
    echo_.reset();
    x_star_ = 0;
    x_star_valid_ = false;
    inner_live_ = false;  // the inner node is re-armed by the prelude
}

std::optional<net::Message> TurpinCoanNode::round_send(Round r) {
    ADBA_EXPECTS(!halted());
    if (r == 0) {
        net::Message m;
        m.kind = net::MsgKind::TCValue;
        m.word = input_;
        return m;
    }
    if (r == 1) {
        net::Message m;
        m.kind = net::MsgKind::TCEcho;
        m.flag = echo_.has_value() ? 1 : 0;
        m.word = echo_.value_or(0);
        return m;
    }
    ADBA_ENSURES_MSG(inner_live_, "prelude must have armed the inner protocol");
    return inner_.round_send(r - 2);
}

void TurpinCoanNode::round_receive(Round r, const net::ReceiveView& view) {
    ADBA_EXPECTS(!halted());
    const NodeId n = params_.binary.n;
    const Count quorum = n - params_.binary.t;

    if (r == 0) {
        // The quorum uniqueness contract (two n-t quorums would intersect in
        // an honest double-voter) is enforced inside quorum_word.
        echo_ = view.quorum_word(net::MsgKind::TCValue, /*require_flag=*/false, quorum);
        return;
    }

    if (r == 1) {
        const auto plur =
            view.plurality_word(net::MsgKind::TCEcho, /*require_flag=*/true);
        Count best = 0;
        if (plur) {
            x_star_ = plur->first;  // ties broke to the smallest word
            best = plur->second;
        }
        x_star_valid_ = best > 0;
        const Bit binary_input = best >= quorum ? Bit{1} : Bit{0};
        const AgreementParams& b = params_.binary;
        inner_.reinit({b.n, b.t, b.phases, params_.mode},
                      {CoinSpec::Kind::Committee, b.schedule}, self_, binary_input, rng_);
        inner_live_ = true;
        return;
    }

    ADBA_ENSURES_MSG(inner_live_, "prelude must have armed the inner protocol");
    inner_.round_receive(r - 2, view);
}

bool TurpinCoanNode::halted() const { return inner_live_ && inner_.halted(); }

Bit TurpinCoanNode::current_value() const {
    return inner_live_ ? inner_.current_value() : Bit{0};
}

bool TurpinCoanNode::current_decided() const {
    return inner_live_ && inner_.current_decided();
}

bool TurpinCoanNode::decided_real_value() const {
    return inner_live_ && inner_.output() == 1;
}

net::Word TurpinCoanNode::output_word() const {
    if (!decided_real_value()) return params_.fallback;
    // Binary outcome 1 implies some honest node saw a quorum of echoes, so
    // every honest x_star_ is defined and equal (header sketch).
    ADBA_ENSURES_MSG(x_star_valid_, "binary 1 without any echoed word");
    return x_star_;
}

void arm_turpin_coan_nodes(const MultiValuedParams& params,
                           const std::vector<net::Word>& inputs, const SeedTree& seeds,
                           std::vector<std::unique_ptr<net::HonestNode>>& nodes) {
    ADBA_EXPECTS(inputs.size() == params.binary.n);
    net::arm_node_pool<TurpinCoanNode>(
        nodes, params.binary.n, [&](TurpinCoanNode& nd, NodeId v) {
            nd.reinit(params, v, inputs[v],
                      seeds.stream(StreamPurpose::NodeProtocol, v));
        });
}

Round max_rounds_whp(const MultiValuedParams& p) {
    return 2 + max_rounds_whp(p.binary);
}

}  // namespace adba::core
