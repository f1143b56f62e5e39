// Rabin's randomized agreement (FOCS 1983) with a trusted external dealer —
// the idealized shared-coin reference (paper §1.2: "Rabin's protocol assumes
// a shared (common) coin available to all nodes (say, given by a trusted
// external dealer)").
//
// The dealer is modeled as a public function of (dealer seed, phase) that
// every node evaluates locally — a perfect common coin, by construction
// unbiased and identical at all nodes. The dealer's phase-p coin is treated
// as revealed only in round 2 of phase p (a non-rushing dealer): the
// adversary strategies in this repository do not act on it before honest
// nodes adopt it. Each phase is good with probability >= 1/2, so expected
// O(1) phases — the floor any committee scheme is compared against.
#pragma once

#include <cstdint>

#include "support/types.hpp"

namespace adba::base {

/// Seed-free: the dealer seed is per trial (the trial's DealerCoin stream
/// seed), bound by every skeleton form from the trial's SeedTree.
struct RabinDealerParams {
    NodeId n = 0;
    Count t = 0;
    Count phases = 1;  ///< w.h.p. budget: failure prob <= 2^-phases

    /// phases = ⌈γ·log2 n⌉ + 1 gives failure probability <= 2/n^γ.
    static RabinDealerParams compute(NodeId n, Count t, double gamma = 2.0);
};

/// The dealer's public coin for phase p under the trial's dealer seed
/// (identical at every node): the skeleton's Dealer coin.
Bit dealer_coin(std::uint64_t dealer_seed, Phase p);

Round max_rounds_whp(const RabinDealerParams& p);

}  // namespace adba::base
