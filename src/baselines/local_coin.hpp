// Local-coin ablation (Ben-Or style): the Rabin skeleton with each undecided
// node flipping its own private coin instead of sharing one.
//
// This is the "why common coins matter" control: with u undecided honest
// nodes, a phase is good only if all u private flips land on the decided
// value simultaneously — probability ~2^-u — so from a split start the
// protocol needs expected exponential phases (Ben-Or, PODC 1983 behaviour).
// Used by E8/E9 to show the committee coin is what buys the speedup, and as
// a correctness stressor (safety must hold even when liveness crawls).
#pragma once

#include "support/types.hpp"

namespace adba::base {

struct LocalCoinParams {
    NodeId n = 0;
    Count t = 0;
    /// Explicit phase budget — there is no useful w.h.p. formula (expected
    /// phases are exponential in the number of undecided nodes).
    Count phases = 1;
};

}  // namespace adba::base
