#include "core/params.hpp"

#include <algorithm>
#include <cmath>

#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/math.hpp"

namespace adba::core {

BlockSchedule BlockSchedule::make(NodeId n, NodeId block_size) {
    ADBA_EXPECTS(n > 0);
    BlockSchedule s;
    s.n = n;
    s.block = std::clamp<NodeId>(block_size, 1, n);
    s.num_blocks = static_cast<Count>(ceil_div(n, s.block));
    ADBA_ENSURES(s.num_blocks >= 1);
    return s;
}

std::pair<NodeId, NodeId> BlockSchedule::range(Count k) const {
    ADBA_EXPECTS(k < num_blocks);
    const NodeId first = static_cast<NodeId>(k) * block;
    const NodeId last = std::min<NodeId>(first + block, n);
    return {first, last};
}

bool BlockSchedule::flips_in_phase(NodeId v, Phase p) const {
    ADBA_EXPECTS(v < n);
    return v / block == committee_of_phase(p);
}

NodeId BlockSchedule::size(Count k) const {
    const auto [first, last] = range(k);
    return last - first;
}

Count raw_committee_count(NodeId n, Count t, double alpha) {
    ADBA_EXPECTS(n >= 1);
    const double logn = static_cast<double>(std::max<std::uint32_t>(1, ceil_log2(n)));
    const double t2_over_n =
        static_cast<double>(ceil_div(static_cast<std::uint64_t>(t) * t, n));
    const double c1 = alpha * t2_over_n * logn;
    const double c2 = 3.0 * alpha * static_cast<double>(t) / logn;
    const double c = std::min(c1, c2);
    return static_cast<Count>(std::clamp(std::ceil(c), 1.0, static_cast<double>(n)));
}

std::optional<std::string> why_bad_tuning(const Tuning& tune) {
    if (tune.alpha >= 1.0) return std::nullopt;
    return "alpha must be at least 1 (got alpha=" + format_double(tune.alpha) + ")";
}

AgreementParams AgreementParams::compute(NodeId n, Count t, const Tuning& tune) {
    ADBA_EXPECTS(n >= 1);
    ADBA_EXPECTS_MSG(3 * static_cast<std::uint64_t>(t) < n, "requires t < n/3");
    ADBA_EXPECTS(tune.alpha >= 1.0);

    const double logn = static_cast<double>(std::max<std::uint32_t>(1, ceil_log2(n)));
    const Count raw = raw_committee_count(n, t, tune.alpha);
    const auto floor_phases =
        static_cast<Count>(std::clamp(std::ceil(tune.gamma * logn), 1.0,
                                      static_cast<double>(n)));
    const Count c = std::max(raw, floor_phases);

    AgreementParams p;
    p.n = n;
    p.t = t;
    p.phases = c;
    p.schedule = BlockSchedule::make(n, static_cast<NodeId>(ceil_div(n, c)));
    ADBA_ENSURES(p.phases >= 1);
    ADBA_ENSURES(p.schedule.block >= 1);
    return p;
}

Round max_rounds_whp(const AgreementParams& p) {
    // c phases of 2 rounds, plus one flush phase if Finish fires in the last
    // phase, plus safety slack of one phase.
    return 2 * (p.phases + 2);
}

}  // namespace adba::core
