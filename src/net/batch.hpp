// Batch node plane: whole-protocol stepping with ONE virtual dispatch per
// engine beat instead of one per node.
//
// The engine's round cadence (sends -> adversary -> deliveries) used to walk
// a vector<unique_ptr<HonestNode>> and pay a virtual call plus a pointer
// chase per node per beat; at large n that dispatch-and-cache-miss tax —
// not algorithmic work — dominated the round loop. BatchProtocol inverts
// the loop: the protocol implementation owns ALL per-node state and the
// engine calls
//
//   send_all(r, buf)              — every live honest node broadcasts,
//   receive_all(r, buf, tally)    — every live honest node consumes the
//                                   round (flat delivery plane + shared
//                                   tallies), or
//   receive_all(r, src)           — the same over the virtual DeliverySource
//                                   oracle (EngineConfig::reference_delivery;
//                                   the per-node adapter only),
//
// plus the sharded (receive_prepare / receive_range) and sampled
// (receive_sparse_prepare / receive_sparse_range) splits of the receive
// beat, and reads `halted_plane()` / `value(v)` / `decided(v)` for gating,
// message accounting, adversary introspection, and result assembly.
//
// Two families implement the interface:
//  * PerNodeBatch — the generic adapter over any HonestNode vector. Every
//    protocol works unchanged through it, and it is the reference oracle the
//    native batches are pinned against; over the DeliverySource oracle
//    (scenario key `reference=true`) it is the executable spec of every
//    plane.
//  * NativeBatch — SoA batches (core/skeleton_batch.hpp,
//    baselines/ben_or.hpp, baselines/phase_king.hpp) that keep per-node
//    state as flat arrays and write each protocol's receive rule ONCE. A
//    native batch states two things per beat: the query (BeatQuery — which
//    (kind, phase) bucket its counts read, with or without the flag filter,
//    and which committee's coin) and the per-node rule over [lo, hi), which
//    reads its inputs from a BeatCounts. This file implements every receive
//    entry point from those two hooks: BeatCounts is backed by the flat
//    tally (honest histogram + per-receiver delta plane) or by the sparse
//    plane (sampled estimates; the committee coin stays an exact island),
//    so the flat, sharded and sampled beats run one rule. Selected by the
//    registry's make_batch hooks; scenario key `batch=false` (CLI
//    `--batch=off`) or `reference=true` runs the per-node nodes through
//    the adapter instead.
//
// One step further along the same axis, net/fused_plane.hpp batches across
// TRIALS instead of nodes: 64 Monte-Carlo trials co-execute bit-sliced in
// one machine word per node (scenario key `fused`). The fused plane has its
// own protocol interface (FusedProtocol) because its state layout is a
// transpose of this one's; a native batch remains the per-trial oracle the
// fused lanes are pinned against, just as PerNodeBatch is this plane's.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/node.hpp"
#include "net/round_buffer.hpp"
#include "net/sparse_plane.hpp"
#include "support/types.hpp"

namespace adba::net {

/// Steps one protocol's whole node population; the engine's only handle on
/// honest protocol state. Implementations must preserve per-node semantics
/// exactly: iterate nodes in ascending id, skip Byzantine (RoundBuffer state
/// plane) and halted nodes, and draw per-node randomness in the same order
/// a per-node engine loop would.
class BatchProtocol {
public:
    virtual ~BatchProtocol() = default;

    virtual NodeId n() const = 0;

    /// Beat 1: every live honest node computes its round-r broadcast into
    /// `buf` (set_broadcast). Nodes that halt at send time (finish-flush
    /// protocols) must flip their halted_plane() bit here.
    virtual void send_all(Round r, RoundBuffer& buf) = 0;

    /// Beat 3, flat path: every live honest node consumes the round through
    /// the shared tally service. Implementations hoist receiver-independent
    /// queries (honest histograms, delta planes) out of the per-node loop.
    virtual void receive_all(Round r, const RoundBuffer& buf,
                             const RoundTally& tally) = 0;

    /// Beat 3, oracle path: the same semantics over the virtual
    /// DeliverySource adapter (the engine's reference_delivery mode) —
    /// per-node ReceiveView queries, the executable spec of the flat
    /// receive_all. `buf` supplies the honesty plane only; deliveries go
    /// through `src`. Only the per-node form has one (PerNodeBatch); the
    /// default throws ContractViolation.
    virtual void receive_all(Round r, const RoundBuffer& buf, const DeliverySource& src);

    // ---- intra-trial sharding (EngineConfig::intra) ----
    //
    // A shardable batch lets the engine split each beat into disjoint
    // word-aligned node ranges executed concurrently (IntraDispatcher,
    // net/tally_kernels.hpp), with a barrier per beat:
    //
    //   send beat    : send_range(r, buf, lo, hi) per shard;
    //   receive beat : receive_prepare(r, buf, tally) once, serially —
    //                  ALL shared tally queries (find, delta planes, coin
    //                  sums) must be hoisted here, because the tally's
    //                  lazy caches are not safe to build concurrently —
    //                  then receive_range(r, buf, tally, lo, hi) per
    //                  shard, touching only per-node state in [lo, hi).
    //
    // Per-node writes (value planes, halted bits, set_broadcast, per-node
    // RNG draws) are disjoint across ranges, so sharded execution is
    // race-free and bit-identical to send_all/receive_all at ANY shard
    // count — tests/test_intra_shard.cpp pins this. A Dealer-style shared
    // coin hook must be pure (thread-safe) for its batch to be shardable.

    /// True when this batch implements the range protocol above. The
    /// default (and PerNodeBatch, whose nodes build lazy per-view tallies)
    /// is non-shardable; the engine then runs whole-population beats.
    virtual bool shardable() const { return false; }
    /// Send beat over senders [lo, hi); shardable batches only.
    virtual void send_range(Round r, RoundBuffer& buf, NodeId lo, NodeId hi);
    /// Serial pre-pass of the receive beat: hoist shared tally state.
    virtual void receive_prepare(Round r, const RoundBuffer& buf,
                                 const RoundTally& tally);
    /// Receive beat over receivers [lo, hi); shardable batches only.
    virtual void receive_range(Round r, const RoundBuffer& buf,
                               const RoundTally& tally, NodeId lo, NodeId hi);

    // ---- sparse delivery plane (EngineConfig::plane == PlaneMode::Sparse) --
    //
    // A sparse-capable batch answers its receive-beat tally queries from
    // sampled per-receiver counts (net/sparse_plane.hpp) instead of exact
    // population tallies, with the same prepare/range split as the sharded
    // flat beat: receive_sparse_prepare hoists the round's SparsePlane
    // query handle plus any EXACT island (the committee coin range, which
    // every receiver still hears in full), then receive_sparse_range steps
    // receivers [lo, hi) on estimated counts. Under dense sampling
    // (degree >= n) the estimates are the flat integers, so the sparse path
    // is pinned bit-identical to the flat one; below n, threshold lemmas
    // that are theorems for exact counts may fail statistically, so range
    // implementations must run their relaxed (assert-free) forms there.

    /// True when this batch implements the sparse receive protocol (every
    /// NativeBatch does).
    virtual bool supports_sparse() const { return false; }
    /// Serial pre-pass of the sparse receive beat.
    virtual void receive_sparse_prepare(Round r, const RoundBuffer& buf,
                                        const RoundTally& tally,
                                        const SparsePlane& sparse);
    /// Sparse receive beat over receivers [lo, hi).
    virtual void receive_sparse_range(Round r, const RoundBuffer& buf,
                                      const RoundTally& tally,
                                      const SparsePlane& sparse, NodeId lo,
                                      NodeId hi);

    /// Contiguous halted bitplane, one byte per node (1 = halted). Valid
    /// between beats; updated only inside send_all / receive_all.
    virtual const std::uint8_t* halted_plane() const = 0;

    /// Full-information introspection (RoundControl, result assembly).
    virtual Bit value(NodeId v) const = 0;
    virtual bool decided(NodeId v) const = 0;
    virtual Bit output(NodeId v) const = 0;
    /// value()/decided() as contiguous planes (one byte per node, valid
    /// between beats like halted_plane()), or nullptr when the batch keeps
    /// none. RoundControl::view() hands them to adversaries in bulk; a batch
    /// without them is observed through value()/decided() one node at a time.
    virtual const Bit* value_plane() const { return nullptr; }
    virtual const std::uint8_t* decided_plane() const { return nullptr; }

    /// False when no broadcast of this batch ever carries a word payload
    /// (carries_word): the engine's traffic accounting then skips the
    /// message plane. The default, true, reads every broadcast's kind.
    virtual bool sends_words() const { return true; }

    /// The underlying per-node objects, when this batch has them (adapter);
    /// nullptr for native SoA batches. Round observers require them.
    virtual const std::vector<std::unique_ptr<HonestNode>>* nodes() const {
        return nullptr;
    }
};

/// Generic adapter: drives any HonestNode vector behind the batch
/// interface. One virtual call per node per beat survives inside — this is
/// the compatibility / oracle path, not the fast one.
class PerNodeBatch final : public BatchProtocol {
public:
    PerNodeBatch() = default;
    explicit PerNodeBatch(std::vector<std::unique_ptr<HonestNode>> nodes) {
        rearm(std::move(nodes));
    }

    /// Re-arms the adapter around a (possibly new) node set; the halted
    /// plane is refreshed from the nodes.
    void rearm(std::vector<std::unique_ptr<HonestNode>> nodes);
    /// Moves the node set back out (to a caller-owned pool); the adapter is
    /// unusable until the next rearm().
    std::vector<std::unique_ptr<HonestNode>> take_nodes();

    NodeId n() const override { return static_cast<NodeId>(nodes_.size()); }
    void send_all(Round r, RoundBuffer& buf) override;
    void receive_all(Round r, const RoundBuffer& buf, const RoundTally& tally) override;
    void receive_all(Round r, const RoundBuffer& buf, const DeliverySource& src) override;
    const std::uint8_t* halted_plane() const override { return halted_.data(); }
    Bit value(NodeId v) const override { return nodes_[v]->current_value(); }
    bool decided(NodeId v) const override { return nodes_[v]->current_decided(); }
    Bit output(NodeId v) const override { return nodes_[v]->output(); }
    const std::vector<std::unique_ptr<HonestNode>>* nodes() const override {
        return &nodes_;
    }

private:
    template <typename MakeView>
    void receive_impl(Round r, const std::uint8_t* state, MakeView&& make_view);

    std::vector<std::unique_ptr<HonestNode>> nodes_;
    std::vector<std::uint8_t> halted_;
};

/// What one receive beat of a native batch reads: per-receiver counts, by
/// val & 1, of deliveries matching (kind, phase) — flag != 0 only when
/// `require_flag` — and, over senders [coin_first, coin_last), the
/// committee coin's sanitized ±1 sum of matching deliveries (an empty
/// range means the beat has no committee coin). `counts == false` marks a
/// beat that reads no counts at all (phase-king's king round), so no tally
/// or sample query is built for it.
struct BeatQuery {
    MsgKind kind{};
    Phase phase = 0;
    bool require_flag = false;
    bool counts = true;
    NodeId coin_first = 0;
    NodeId coin_last = 0;
};

/// One receive beat's inputs, whichever plane delivers them. Built once
/// per beat (serially — the tally's lazy caches are not thread-safe) and
/// then read from any shard. Two backings:
///  * flat    — the honest bucket counts plus the per-receiver Byzantine
///              delta plane; the committee coin as the honest range sum
///              plus its delta plane;
///  * sampled — SparsePlane::val_estimates per receiver; the committee
///              coin and single-sender probes stay exact (the committee
///              is the plane's exact island).
/// Their spec is the per-node nodes over a DeliverySource (PerNodeBatch
/// under `reference=true`).
class BeatCounts {
public:
    BeatCounts() = default;
    static BeatCounts flat(const BeatQuery& q, const RoundBuffer& buf,
                           const RoundTally& tally);
    static BeatCounts sampled(const BeatQuery& q, const RoundBuffer& buf,
                              const RoundTally& tally, const SparsePlane& sparse);

    /// Receiver v is Byzantine this round (its state is not stepped).
    bool byzantine(NodeId v) const {
        return (state_[v] & RoundBuffer::kByzantine) != 0;
    }
    /// Receiver v's (val 0, val 1) counts: exact, or sampled estimates.
    std::array<Count, 2> val(NodeId v) const {
        if (sparse_ != nullptr) return sparse_->val_estimates(sparse_query_, v);
        std::array<Count, 2> c = base_;
        if (delta_ != nullptr) {
            c[0] += delta_[v][0];
            c[1] += delta_[v][1];
        }
        return c;
    }
    /// The committee coin's sum as receiver v hears it — exact on every plane.
    std::int64_t coin_sum(NodeId v) const {
        return honest_coin_ + (coin_delta_ != nullptr ? coin_delta_[v] : 0);
    }
    /// The message `sender` delivered to v this round (nullptr = silence);
    /// a single-sender probe, exact on every plane.
    const Message* from(NodeId v, NodeId sender) const { return buf_->from(v, sender); }
    /// True when the counts are exact (flat, dense sampling):
    /// threshold lemmas that are theorems for exact counts — Lemma 3, Ben-Or's
    /// conflicting proposals — may be asserted. False under sub-dense
    /// sampling, where estimates can breach them statistically.
    bool exact() const { return exact_; }

private:
    BeatCounts(const BeatQuery& q, const RoundBuffer& buf)
        : q_(q), state_(buf.state_plane()), buf_(&buf) {}
    /// Honest coin sum and Byzantine coin delta plane from the tally.
    void hoist_coin(const RoundTally& tally);

    bool exact_ = true;
    BeatQuery q_;
    const std::uint8_t* state_ = nullptr;
    const RoundBuffer* buf_ = nullptr;
    std::array<Count, 2> base_{0, 0};
    const std::array<Count, 2>* delta_ = nullptr;
    std::int64_t honest_coin_ = 0;
    const std::int64_t* coin_delta_ = nullptr;
    const SparsePlane* sparse_ = nullptr;  ///< set on the sampled backing
    SparsePlane::Query sparse_query_;
};

/// A native SoA batch written as one receive rule. Subclasses supply the
/// send beat (send_range) and two receive hooks — the beat's query and the
/// per-node rule over [lo, hi) — and every BatchProtocol entry point that
/// steps the population is implemented here from them, so the flat,
/// sharded and sampled beats cannot drift apart.
///
/// Sharding contract: the rule touches only per-node state in [lo, hi)
/// (value planes, halted bits, per-node RNG streams), so ranges write
/// disjointly and any shard count reproduces the serial sweep; a shared
/// coin hook the rule calls must be pure.
class NativeBatch : public BatchProtocol {
public:
    void send_all(Round r, RoundBuffer& buf) final { send_range(r, buf, 0, n()); }
    void receive_all(Round r, const RoundBuffer& buf, const RoundTally& tally) final;
    using BatchProtocol::receive_all;
    bool shardable() const final { return true; }
    void receive_prepare(Round r, const RoundBuffer& buf, const RoundTally& tally) final;
    void receive_range(Round r, const RoundBuffer& buf, const RoundTally& tally,
                       NodeId lo, NodeId hi) final;
    bool supports_sparse() const final { return true; }
    /// Native batches run binary protocols, whose kinds carry no word.
    bool sends_words() const final { return false; }
    void receive_sparse_prepare(Round r, const RoundBuffer& buf, const RoundTally& tally,
                                const SparsePlane& sparse) final;
    void receive_sparse_range(Round r, const RoundBuffer& buf, const RoundTally& tally,
                              const SparsePlane& sparse, NodeId lo, NodeId hi) final;

protected:
    /// What round r's receive beat reads.
    virtual BeatQuery beat_query(Round r) const = 0;
    /// Round r's receive step for every live honest node in [lo, hi),
    /// ascending, reading its inputs from `in` only.
    virtual void receive_rule(Round r, const BeatCounts& in, NodeId lo, NodeId hi) = 0;

private:
    BeatCounts prep_;  ///< prepare → range handoff; valid for one beat
};

}  // namespace adba::net
