// Chor-Coan (IEEE TSE 1985) baselines — the 40-year bound the paper beats.
//
// Chor-Coan is the same Rabin-style vote/threshold/coin loop, with the
// common coin produced by *groups* of nodes taking turns. We provide two
// faithful-to-purpose variants:
//
//  * Rushing  — the strengthened version the paper's footnote 3 sketches
//    ("easy to make Chor and Coan's protocol work under a rushing adaptive
//    adversary, using an idea similar to our protocol"): exactly the
//    regime-2 schedule of Algorithm 3, c = 3α·t/log n committees of size
//    n/c, coin = sign of the committee sum. This is the apples-to-apples
//    comparator for E3/E4: the ONLY difference from Algorithm 3 is the
//    committee count (no ⌈t²/n⌉·log n term), so measured gaps isolate the
//    paper's contribution.
//
//  * Classic  — the historical shape: fixed groups of g = β·log2 n nodes,
//    phase i served by group i mod (n/g). Under the *rushing* adversary the
//    ruin cost of a group is only ~½·sqrt(g), so measured rounds degrade
//    toward Θ(t/sqrt(log n)) — an instructive measured finding, bench_e3's
//    cc-classic column (the 1985 analysis assumed a non-rushing adversary).
#pragma once

#include "core/params.hpp"

namespace adba::base {

using core::BlockSchedule;
using core::Tuning;

/// Resolved parameters for a Chor-Coan instance.
struct ChorCoanParams {
    NodeId n = 0;
    Count t = 0;
    Count phases = 1;
    BlockSchedule schedule;

    /// Rushing-hardened variant: c = max(⌈3α·t/log n⌉, ⌈γ·log n⌉)
    /// committees of size ⌈n/c⌉.
    static ChorCoanParams compute_rushing(NodeId n, Count t, const Tuning& tune = {});

    /// Classic variant: groups of size g = ⌈β·log2 n⌉; phase budget sized
    /// for the rushing ruin cost ½·sqrt(g) so w.h.p. termination still
    /// holds in our (harder) model: phases = ⌈2t/(½√g)⌉ + ⌈γ·log n⌉.
    static ChorCoanParams compute_classic(NodeId n, Count t, const Tuning& tune = {});
};

/// The paper's round budget analogue for this baseline.
Round max_rounds_whp(const ChorCoanParams& p);

}  // namespace adba::base
