#include "baselines/chor_coan.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"
#include "support/math.hpp"

namespace adba::base {

namespace {
double log2n(NodeId n) { return static_cast<double>(std::max<std::uint32_t>(1, ceil_log2(n))); }

Count clamp_count(double c, NodeId n) {
    return static_cast<Count>(std::clamp(std::ceil(c), 1.0, static_cast<double>(n)));
}
}  // namespace

ChorCoanParams ChorCoanParams::compute_rushing(NodeId n, Count t, const Tuning& tune) {
    ADBA_EXPECTS(n >= 1);
    ADBA_EXPECTS_MSG(3 * static_cast<std::uint64_t>(t) < n, "requires t < n/3");
    const double logn = log2n(n);
    const Count c = std::max(clamp_count(3.0 * tune.alpha * t / logn, n),
                             clamp_count(tune.gamma * logn, n));
    ChorCoanParams p;
    p.n = n;
    p.t = t;
    p.phases = c;
    p.schedule = BlockSchedule::make(n, static_cast<NodeId>(ceil_div(n, c)));
    return p;
}

ChorCoanParams ChorCoanParams::compute_classic(NodeId n, Count t, const Tuning& tune) {
    ADBA_EXPECTS(n >= 1);
    ADBA_EXPECTS_MSG(3 * static_cast<std::uint64_t>(t) < n, "requires t < n/3");
    const double logn = log2n(n);
    const auto g = static_cast<NodeId>(
        std::clamp(std::ceil(tune.beta * logn), 1.0, static_cast<double>(n)));
    // Budget enough phases that the adversary cannot ruin them all: a ruined
    // group costs ~½·sqrt(g) corruptions under rushing, plus the w.h.p. floor.
    const double ruin_cost = 0.5 * std::sqrt(static_cast<double>(g));
    const Count phases = clamp_count(2.0 * t / std::max(1.0, ruin_cost), n) +
                         clamp_count(tune.gamma * logn, n);
    ChorCoanParams p;
    p.n = n;
    p.t = t;
    p.phases = phases;
    p.schedule = BlockSchedule::make(n, g);
    return p;
}

Round max_rounds_whp(const ChorCoanParams& p) { return 2 * (p.phases + 2); }

}  // namespace adba::base
