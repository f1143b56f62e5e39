#include "baselines/sampling_majority.hpp"

#include <algorithm>
#include <limits>

#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/math.hpp"

namespace adba::base {

std::optional<std::string> why_bad_kappa(NodeId n, double kappa) {
    if (!(kappa > 0.0)) return "kappa must be positive (got kappa=" + format_double(kappa) + ")";
    const double logn = static_cast<double>(std::max<std::uint32_t>(1, ceil_log2(n)));
    if (std::ceil(kappa * logn * logn) < std::numeric_limits<Round>::max()) return std::nullopt;
    return "kappa=" + format_double(kappa) + " at n=" + std::to_string(n) +
           " puts the round cap ceil(kappa*log2(n)^2)+1 past the largest round; lower kappa";
}

SamplingMajorityParams SamplingMajorityParams::compute(NodeId n, Count t, double kappa) {
    ADBA_EXPECTS(n >= 2);
    ADBA_EXPECTS_MSG(3 * static_cast<std::uint64_t>(t) < n, "requires t < n/3");
    ADBA_EXPECTS(!why_bad_kappa(n, kappa));
    const double logn = static_cast<double>(std::max<std::uint32_t>(1, ceil_log2(n)));
    SamplingMajorityParams p;
    p.n = n;
    p.t = t;
    p.rounds = static_cast<Count>(std::max(1.0, std::ceil(kappa * logn * logn)));
    return p;
}

void SamplingMajorityNode::reinit(SamplingMajorityParams params, NodeId self,
                                  Bit input, Xoshiro256 rng) {
    ADBA_EXPECTS(params.n >= 2);
    ADBA_EXPECTS(self < params.n);
    ADBA_EXPECTS(input <= 1);
    params_ = params;
    self_ = self;
    rng_ = rng;
    val_ = input;
    halted_ = false;
}

std::optional<net::Message> SamplingMajorityNode::round_send(Round r) {
    ADBA_EXPECTS(!halted_);
    net::Message m;
    m.kind = net::MsgKind::Vote1;  // single-message-kind protocol
    m.phase = r;
    m.val = val_;
    return m;
}

void SamplingMajorityNode::round_receive(Round r, const net::ReceiveView& view) {
    ADBA_EXPECTS(!halted_);
    if (r + 1 >= params_.rounds) {
        // Decision round: output the majority over ALL received values — the
        // simplified almost-everywhere-to-everywhere step (APR boost). Once
        // sampling has driven the population to a (1 - o(1)) majority, the
        // <= t Byzantine equivocations cannot swing a full tally; without
        // convergence the outputs split, correctly exposing the stall.
        const auto cnt =
            view.val_counts(net::MsgKind::Vote1, r, /*require_flag=*/false);
        val_ = cnt[1] >= cnt[0] ? Bit{1} : Bit{0};
        halted_ = true;
        return;
    }
    // Two independent uniform samples (with replacement, self allowed — APR
    // sample uniformly from all nodes).
    Bit sample[2];
    for (Bit& s : sample) {
        const auto u = static_cast<NodeId>(rng_.below(params_.n));
        const net::Message* m = view.from(u);
        // A silent sender (halted/crashed/withholding Byzantine) yields no
        // value; the sampler falls back on its own value.
        s = (m != nullptr && m->kind == net::MsgKind::Vote1 && m->phase == r)
                ? static_cast<Bit>(m->val & 1)
                : val_;
    }
    const int ones = static_cast<int>(val_) + sample[0] + sample[1];
    val_ = ones >= 2 ? Bit{1} : Bit{0};
}

void arm_sampling_majority_nodes(const SamplingMajorityParams& params,
                                 const std::vector<Bit>& inputs, const SeedTree& seeds,
                                 std::vector<std::unique_ptr<net::HonestNode>>& nodes) {
    ADBA_EXPECTS(inputs.size() == params.n);
    net::arm_node_pool<SamplingMajorityNode>(
        nodes, params.n, [&](SamplingMajorityNode& nd, NodeId v) {
            nd.reinit(params, v, inputs[v],
                      seeds.stream(StreamPurpose::NodeProtocol, v));
        });
}

}  // namespace adba::base
