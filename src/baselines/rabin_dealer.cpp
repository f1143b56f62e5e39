#include "baselines/rabin_dealer.hpp"

#include <algorithm>
#include <cmath>

#include "rand/rng.hpp"
#include "support/contracts.hpp"
#include "support/math.hpp"

namespace adba::base {

RabinDealerParams RabinDealerParams::compute(NodeId n, Count t, double gamma) {
    ADBA_EXPECTS(n >= 1);
    ADBA_EXPECTS_MSG(3 * static_cast<std::uint64_t>(t) < n, "requires t < n/3");
    const double logn = static_cast<double>(std::max<std::uint32_t>(1, ceil_log2(n)));
    RabinDealerParams p;
    p.n = n;
    p.t = t;
    p.phases = static_cast<Count>(std::max(1.0, std::ceil(gamma * logn))) + 1;
    return p;
}

Bit dealer_coin(std::uint64_t dealer_seed, Phase p) {
    return static_cast<Bit>(mix64(dealer_seed ^ (0x51a3c0ffee1dULL + p)) & 1);
}

Round max_rounds_whp(const RabinDealerParams& p) { return 2 * (p.phases + 2); }

}  // namespace adba::base
