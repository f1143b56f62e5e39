// Communication accounting for the simulator.
//
// The paper reports message complexity O(min(n t^2 log n, n^2 t / log n))
// (§1.2, §4); experiment E6 regenerates that comparison from these counters.
// Only honest traffic is charged to the protocol (Byzantine nodes may send
// arbitrarily much; that is the adversary's budget, not the algorithm's).
#pragma once

#include <algorithm>
#include <cstdint>

#include "support/types.hpp"

namespace adba::net {

/// "No receiver cap" for broadcast_fanout.
inline constexpr std::uint64_t kUncapped = ~std::uint64_t{0};

/// Point-to-point messages one round of honest broadcasts costs, in closed
/// form — the identity both execution planes charge (Engine per trial,
/// FusedBlock per lane). A broadcast reaches the n-1 other nodes minus the
/// `halted_receivers` honest nodes that already terminated; a sender that
/// flush-halted during this round's send is itself one of those, so its own
/// exclusion puts one receiver back:
///     (sent - sent_halted)·(n-1-H) + sent_halted·(n-H).
/// `cap` bounds each broadcast's receivers (sub-dense sparse delivery is
/// receiver-driven: at most `degree` receivers pull any one broadcast).
/// Counts come from the post-corruption planes: corrupted senders are gone.
inline std::uint64_t broadcast_fanout(std::uint64_t sent, std::uint64_t sent_halted,
                                      std::uint64_t halted_receivers, NodeId n,
                                      std::uint64_t cap = kUncapped) {
    // n-1-H wraps only when every node is honest and halted; then nothing
    // is sent by a non-halted sender and the wrapped factor is multiplied
    // by zero.
    const std::uint64_t nodes = n;
    const std::uint64_t to_live = std::min(nodes - 1 - halted_receivers, cap);
    const std::uint64_t to_halted = std::min(nodes - halted_receivers, cap);
    return (sent - sent_halted) * to_live + sent_halted * to_halted;
}

struct Metrics {
    /// Point-to-point messages sent by honest nodes (a broadcast to n-1
    /// neighbors counts n-1; self-delivery is local and free).
    std::uint64_t honest_messages = 0;
    /// Total bits of honest traffic under CONGEST encoding (wire_bits).
    std::uint64_t honest_bits = 0;
    /// Messages delivered on behalf of Byzantine senders.
    std::uint64_t byzantine_messages = 0;
    /// Rounds actually executed.
    std::uint64_t rounds = 0;
    /// Nodes corrupted over the run.
    std::uint64_t corruptions = 0;
};

}  // namespace adba::net
