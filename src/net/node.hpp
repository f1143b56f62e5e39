// Interface implemented by every honest protocol node.
//
// The engine drives nodes with a strict two-beat cadence per round:
//   1. round_send(r)    — compute and emit this round's broadcast (random
//                         choices for round r are drawn here);
//   2. round_receive(r) — observe the delivered messages and update state.
// Between the two beats the adversary observes every honest broadcast
// (rushing, §1.1) and may corrupt nodes and substitute per-recipient
// Byzantine messages.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "net/message.hpp"
#include "net/round_buffer.hpp"
#include "support/contracts.hpp"
#include "support/types.hpp"

namespace adba::net {

// ReceiveView (the receiver's window onto one round, a concrete final class
// with non-virtual from() plus the shared tally queries) lives in
// net/round_buffer.hpp with the flat delivery plane backing it. Scripted
// tests that used to subclass ReceiveView implement DeliverySource instead
// and hand the engine-independent adapter constructor a receiver id.

/// An honest protocol participant. Implementations are pure state machines;
/// all randomness comes from the per-node stream handed to the constructor.
class HonestNode {
public:
    virtual ~HonestNode() = default;

    /// Emits this round's broadcast; nullopt = silent this round.
    /// Called only while the node is honest and not halted.
    virtual std::optional<Message> round_send(Round r) = 0;

    /// Consumes this round's deliveries.
    virtual void round_receive(Round r, const ReceiveView& view) = 0;

    /// True once the node has terminated the protocol (it stays silent and
    /// its output() is final). Halting is irreversible.
    virtual bool halted() const = 0;

    /// The node's current agreement value (final once halted). Also serves
    /// as full-information introspection for adversaries: the model lets
    /// Byzantine nodes know the entire honest state (§1.1).
    virtual Bit current_value() const = 0;

    /// Current "decided" flag (Algorithm 3 bookkeeping); false where the
    /// protocol has no such notion. Introspection for adversaries/tests.
    virtual bool current_decided() const { return false; }

    /// Final output bit (valid when the engine stops; equals current_value
    /// for all protocols here).
    virtual Bit output() const { return current_value(); }
};

/// Shared loop behind every protocol's arm_*_nodes: fills an empty pool with
/// n default-constructed (unarmed) Nodes, or checks that a pool from an
/// earlier trial holds n Nodes, then arms each node in id order via
/// `per_node(node, v)`. Trial runners reuse node sets across Monte-Carlo
/// trials this way with zero allocation.
template <typename Node, typename Fn>
void arm_node_pool(std::vector<std::unique_ptr<HonestNode>>& nodes, NodeId n,
                   Fn&& per_node) {
    ADBA_EXPECTS(n > 0);
    if (nodes.empty()) {
        nodes.reserve(n);
        for (NodeId v = 0; v < n; ++v) nodes.push_back(std::make_unique<Node>());
    }
    ADBA_EXPECTS(nodes.size() == n);
    ADBA_EXPECTS_MSG(dynamic_cast<Node*>(nodes.front().get()) != nullptr,
                     "node pool type does not match the requested protocol");
    for (NodeId v = 0; v < n; ++v) per_node(*static_cast<Node*>(nodes[v].get()), v);
}

}  // namespace adba::net
