// Synchronous complete-network simulator with a first-class adaptive
// rushing Byzantine adversary (the paper's model, §1.1).
//
// Round cadence:
//   1. every live honest node computes its broadcast (drawing this round's
//      randomness);
//   2. the adversary observes ALL of those broadcasts (rushing = it sees the
//      current round's random choices), may adaptively corrupt nodes
//      (discarding their broadcast and taking over their identity), and
//      chooses per-recipient messages for every Byzantine node
//      (equivocation is allowed: different receivers may get different
//      messages, or silence);
//   3. deliveries: each live honest node receives, from each sender, either
//      the sender's honest broadcast (delivered verbatim and attributed —
//      the channel authenticates senders, §1.1) or the adversary's choice.
//
// Corruption is permanent and budgeted: at most `budget` (= t) corruptions
// per run, enforced by contract. Halted nodes have left the protocol and
// cannot be corrupted (their output already stands).
//
// Data plane, three layers (see also src/net/batch.hpp):
//   RoundBuffer    — flat per-round delivery state (contiguous Message[] +
//                    uint8_t presence/honesty plane, net/round_buffer.hpp);
//   RoundTally     — engine-level shared tallies: honest histogram once per
//                    round, Byzantine delta planes once per query signature;
//   BatchProtocol  — whole-protocol stepping: ONE virtual dispatch per beat
//                    per round (send_all / receive_all), with halted state
//                    as a contiguous bitplane. Per-node HonestNode vectors
//                    ride through the PerNodeBatch adapter unchanged.
// EngineConfig::reference_delivery re-routes every delivery probe through
// the virtual DeliverySource adapter with per-sender tally loops: the slow
// oracle the equivalence tests pin the flat path against.
//
// Adversaries act through RoundControl, one trial at a time. The fused
// trial plane (net/fused_plane.hpp) runs the same act() per lane through a
// lane-masked bridge; a strategy may also offer one block-level form
// (BlockStrategy) that decides all 64 lanes of a block at once, with that
// bridge as its oracle.
//
// Engines are reusable: reset() rearms a finished engine for another run
// and take_nodes()/take_batch() return the protocol state to the caller's
// pool, so Monte-Carlo runners keep one engine + one protocol instance per
// worker and stop paying per-trial allocation.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <typeinfo>
#include <vector>

#include "net/batch.hpp"
#include "net/message.hpp"
#include "net/metrics.hpp"
#include "net/node.hpp"
#include "net/round_buffer.hpp"
#include "net/sparse_plane.hpp"
#include "net/transcript.hpp"
#include "support/types.hpp"

namespace adba::net {

class BlockStrategy;
class Engine;
class FusedLaneControl;  // net/fused_plane.hpp

/// Bulk observation of one round (RoundControl::view): contiguous per-node
/// planes over all n nodes in the engine's own byte encodings, so a strategy
/// scans memory instead of making one virtual call per node per question.
/// Valid until the adversary's next corrupt() or view() call: a corruption
/// may or may not show through an existing view (the engine's live planes
/// show it, a snapshot does not), so re-observe after corrupting.
/// Deliveries never change what a view shows.
struct RoundView {
    NodeId n = 0;
    /// RoundBuffer state byte per node: kPresent (honest, broadcasting this
    /// round), 0 (honest, silent) or kByzantine.
    const std::uint8_t* state = nullptr;
    /// Honest broadcasts; broadcast[v] is defined only where state[v] ==
    /// kPresent (see intended()).
    const Message* broadcast = nullptr;
    /// Defined only for honest v: nonzero iff v terminated.
    const std::uint8_t* halted = nullptr;
    /// Defined only for honest v: the current agreement value.
    const Bit* value = nullptr;
    /// Defined only for honest v: nonzero iff v is decided.
    const std::uint8_t* decided = nullptr;

    bool honest(NodeId v) const { return (state[v] & RoundBuffer::kByzantine) == 0; }
    /// Honest and not terminated: the nodes a strategy may still corrupt.
    bool live(NodeId v) const { return honest(v) && halted[v] == 0; }
    /// Honest v's broadcast this round; nullptr when silent or Byzantine.
    const Message* intended(NodeId v) const {
        return state[v] == RoundBuffer::kPresent ? broadcast + v : nullptr;
    }
};

/// The adversary's handle for one round: observation plus actions.
/// Only valid during Adversary::act; do not retain.
///
/// Abstract so more than one execution plane can host an adversary: the
/// engine's per-trial form (Engine::Ctl, engine.cpp) and the fused trial
/// plane's lane-masked bridge (net/fused_plane.hpp), which runs one
/// adversary instance per bit-sliced lane against that lane's planes only.
///
/// The bulk calls (view, deliver_row_as) have exact base forms built from
/// the per-node virtuals, so a control that implements only those — a
/// forwarding decorator, the fused lane bridge — hosts every strategy
/// unchanged; the engine overrides them with its live planes.
class RoundControl {
public:
    virtual ~RoundControl() = default;

    // ---- observation (full information + rushing) ----
    virtual Round round() const = 0;
    virtual NodeId n() const = 0;
    /// Corruptions still available to the adversary.
    virtual Count budget_left() const = 0;
    /// True iff v has never been corrupted.
    virtual bool is_honest(NodeId v) const = 0;
    /// True iff v terminated (honest and permanently silent).
    virtual bool is_halted(NodeId v) const = 0;
    /// Honest v's intended broadcast this round (nullptr = silent).
    virtual const Message* intended_broadcast(NodeId v) const = 0;
    /// Full-information introspection into honest v's state (§1.1): its
    /// current agreement value and "decided" flag (false where the protocol
    /// has no such notion). Backed by the batch plane, so it works for
    /// per-node and SoA protocol implementations alike.
    virtual Bit current_value(NodeId v) const = 0;
    virtual bool current_decided(NodeId v) const = 0;
    /// All of the above for every node at once (see RoundView for the
    /// validity window). The base form snapshots the per-node virtuals into
    /// storage owned by this control.
    virtual RoundView view() const;

    // ---- actions ----
    /// Corrupts honest, non-halted v: discards v's broadcast for this round,
    /// moves v to the Byzantine set forever, consumes one budget unit.
    /// Returns the discarded broadcast so crash-style adversaries can
    /// selectively re-deliver it.
    virtual std::optional<Message> corrupt(NodeId v) = 0;
    /// Delivers m from Byzantine node `byz_from` to `to` this round.
    virtual void deliver_as(NodeId byz_from, NodeId to, const Message& m) = 0;
    /// Delivers m from `byz_from` to every node. O(1): stored as a pattern
    /// row, not n cell writes.
    void broadcast_as(NodeId byz_from, const Message& m) {
        split_as(byz_from, m, std::nullopt, n());
    }
    /// Threshold equivocation in O(1): delivers `low` to receivers below
    /// `boundary` and `high` to the rest (nullopt = silence for that side).
    /// The classic split attacks (split-vote, coin ruin, king killing,
    /// crash prefixes) are all this shape.
    virtual void split_as(NodeId byz_from, const std::optional<Message>& low,
                          const std::optional<Message>& high, NodeId boundary) = 0;
    /// Delivers cells[to] from `byz_from` to every receiver `to` (one cell
    /// per node: cells.size() == n()). The base form is n deliver_as calls.
    virtual void deliver_row_as(NodeId byz_from, std::span<const Message> cells);
    // Silence is the default behaviour of a Byzantine sender.

protected:
    RoundControl() = default;

private:
    /// Snapshot storage behind the base form of view().
    struct ViewScratch {
        std::vector<std::uint8_t> state, halted, decided;
        std::vector<Message> broadcast;
        std::vector<Bit> value;
    };
    mutable ViewScratch view_scratch_;
};

/// One split_as call minus its sender: `low` to receivers below `boundary`,
/// `high` to the rest (nullopt = silence for that side).
struct SplitRow {
    std::optional<Message> low;
    std::optional<Message> high;
    NodeId boundary = 0;
};

/// Adversary strategy interface. Implementations live in src/adversary.
class Adversary {
public:
    virtual ~Adversary() = default;

    /// Called once before round 0, unless a fused block's block form
    /// starts this lane in its place (BlockStrategy::start_block).
    virtual void on_start(NodeId /*n*/, Count /*budget*/) {}

    /// Called once per round, between honest sends and deliveries.
    virtual void act(RoundControl& ctl) = 0;

    /// Strategy key for the fused plane: true when `other` runs this
    /// strategy with this configuration, so that this one's block_form()
    /// may decide for both: on equal planes it takes the decisions
    /// other.act() would. The default, false, keeps each lane to itself.
    /// Read before on_start: the answer may not depend on a trial's state.
    virtual bool same_strategy(const Adversary& /*other*/) const { return false; }

    /// Block-level form: the object that decides the adversary beat of all
    /// 64 lanes of a fused block from the frame's planes. A block takes its
    /// first lane's only when every lane offers one and runs that lane's
    /// strategy; otherwise every lane's act() runs through the per-lane
    /// bridge, which is the block form's oracle. The default, nullptr,
    /// means no block-level form.
    virtual BlockStrategy* block_form() { return nullptr; }
};

/// The block-level form of a strategy (Adversary::block_form): one object
/// starts every lane of a fused block (net/fused_plane.hpp) and decides its
/// adversary beats from the frame's planes, in word operations where the
/// per-lane bridge would run 64 on_start and act() calls. It acts through
/// FusedLaneControl's word-wise forms of corrupt and split_as and keeps its
/// per-lane state itself.
class BlockStrategy {
public:
    /// Before round 0: starts every lane j of `lanes` on n nodes with
    /// `budget` corruptions, where advs[j] is lane j's adversary (one of
    /// this strategy, by same_strategy), the source of that lane's own
    /// draws. The default calls each lane's on_start; a strategy whose
    /// start draws may draw every lane's state here instead, from the same
    /// streams in the same order.
    virtual void start_block(Adversary* const* advs, std::uint64_t lanes, NodeId n, Count budget);

    /// Round ctl.round()'s adversary beat in every lane j of
    /// ctl.frame().active, where advs[j] is lane j's adversary.
    virtual void act_block(FusedLaneControl& ctl, const Adversary* const* advs) = 0;

protected:
    ~BlockStrategy() = default;
};

/// A do-nothing adversary (no corruptions); the honest-execution baseline.
/// Its block-level form does nothing either.
class NullAdversary final : public Adversary, private BlockStrategy {
public:
    void act(RoundControl&) override {}
    bool same_strategy(const Adversary& other) const override {
        return typeid(other) == typeid(NullAdversary);
    }
    BlockStrategy* block_form() override { return this; }

private:
    void act_block(FusedLaneControl&, const Adversary* const*) override {}
};

/// Which delivery plane answers the receive beat's tally queries.
enum class PlaneMode : std::uint8_t {
    Flat,    ///< exact full-population tallies (RoundTally)
    Sparse,  ///< sampled per-receiver sender subsets (net/sparse_plane.hpp)
};

struct EngineConfig {
    NodeId n = 0;
    Count budget = 0;        ///< adversary's corruption budget t
    Round max_rounds = 0;    ///< hard stop if the protocol does not self-halt
    bool record_transcript = false;
    /// Route deliveries through the virtual DeliverySource adapter with
    /// per-sender tally loops — the reference path the flat plane is pinned
    /// against. Semantics identical, markedly slower.
    bool reference_delivery = false;
    /// Written only by perfbench; src/ reads none of it.
    bool simd_tally = true;
    /// Sparse delivery mode: live receivers probe only `sample_degree`
    /// sampled sender edges per round and scale counts to estimates
    /// (degree >= n: dense exact walk, bit-identical to flat). Requires a
    /// sparse-capable batch (BatchProtocol::supports_sparse) and
    /// !reference_delivery.
    PlaneMode plane = PlaneMode::Flat;
    /// Sampled senders per receiver per round; 0 = kDefaultSampleDegree.
    Count sample_degree = 0;
    /// Seed of the replayable edge-sample streams (SeedTree purpose
    /// SparseTopology); only read in sparse mode.
    std::uint64_t sparse_seed = 0;
    /// Written only by perfbench; the engine reads none of it.
    SparseStream sparse_stream = SparseStream::Counter;
    /// Intra-trial shard dispatcher (owned by the caller, e.g. the arena's
    /// sim::ShardPool; must outlive run()). When set, the send beat, the
    /// packed tally build, and the receive beat split into the dispatcher's
    /// word-aligned node ranges — provided the batch is shardable() and the
    /// engine is not in reference_delivery mode. Null = serial beats.
    /// The round tally is word-packed exactly when the beats shard or the
    /// plane is sparse (whose per-edge probes read the packed planes), and
    /// the byte-plane build otherwise; both answer every query alike.
    IntraDispatcher* intra = nullptr;
    /// Per-trial wall-clock watchdog in milliseconds; 0 = off. When a round
    /// completes past the deadline with live honest nodes, the run stops
    /// with TrialOutcome::WatchdogTimeout instead of spinning toward the
    /// round cap — the guard for Las Vegas protocols whose expected-constant
    /// round count has an unbounded tail (scenario key `watchdog_ms`).
    std::uint32_t watchdog_ms = 0;
    /// Invoked at the top of every round, before honest sends. The
    /// resilience seam (sim/faults.hpp) hangs artificial beat delays here;
    /// null costs one branch per round.
    std::function<void(Round)> beat_probe;
};

/// Outcome of one simulated run.
struct RunResult {
    std::vector<Bit> outputs;      ///< indexed by node; valid where honest[v]
    std::vector<bool> honest;      ///< true = never corrupted
    std::vector<bool> halted;      ///< node self-terminated
    Round rounds = 0;              ///< rounds executed (never clamped)
    bool all_halted = false;       ///< every honest node self-terminated
    /// First-class termination taxonomy: Decided iff all_halted; otherwise
    /// WatchdogTimeout (wall-clock guard fired) or RoundCapExhausted (ran
    /// the full max_rounds with live honest nodes). Engine::run never
    /// reports Faulted — that classification belongs to the trial kernel
    /// (sim/workload.hpp), which owns fault recovery.
    TrialOutcome outcome = TrialOutcome::Decided;
    Metrics metrics;
    std::optional<Transcript> transcript;

    /// All surviving honest nodes output the same bit.
    bool agreement() const;
    /// The common output, if agreement() holds.
    std::optional<Bit> agreed_value() const;
    Count honest_count() const;
};

/// Drives one protocol execution against one adversary.
class Engine {
public:
    /// `nodes.size()` must equal cfg.n; `adversary` must outlive run().
    /// The node vector is wrapped in an engine-pooled PerNodeBatch adapter.
    Engine(EngineConfig cfg, std::vector<std::unique_ptr<HonestNode>> nodes,
           Adversary& adversary);
    /// Batch-plane form: `batch->n()` must equal cfg.n.
    Engine(EngineConfig cfg, std::unique_ptr<BatchProtocol> batch,
           Adversary& adversary);

    /// Rearms a finished (or fresh) engine for another run, reusing every
    /// internal buffer — the trial-reuse path of the Monte-Carlo runners.
    void reset(EngineConfig cfg, std::vector<std::unique_ptr<HonestNode>> nodes,
               Adversary& adversary);
    void reset(EngineConfig cfg, std::unique_ptr<BatchProtocol> batch,
               Adversary& adversary);

    /// Runs rounds until every honest node halts or cfg.max_rounds elapse.
    /// Single-shot per reset().
    RunResult run();

    /// Moves the node set back out (to a caller-owned pool for reinit);
    /// requires the per-node constructor/reset form. The engine keeps its
    /// adapter shell and is unusable until the next reset().
    std::vector<std::unique_ptr<HonestNode>> take_nodes();
    /// Moves the batch back out (batch form of take_nodes).
    std::unique_ptr<BatchProtocol> take_batch();

    /// Test hook: invoked after each round's deliveries with full state
    /// access, for invariant checking (Lemmas 2-4 property tests). Requires
    /// a per-node protocol (the batch must expose nodes()).
    using RoundObserver =
        std::function<void(Round, const std::vector<std::unique_ptr<HonestNode>>&,
                           const std::vector<bool>& honest_mask)>;
    void set_round_observer(RoundObserver obs) { observer_ = std::move(obs); }

private:
    /// The engine-backed RoundControl (defined in engine.cpp); nested, so it
    /// reads the engine's private state directly.
    class Ctl;

    bool is_honest(NodeId v) const { return buf_.is_honest(v); }
    bool is_halted(NodeId v) const;

    void common_reset(EngineConfig cfg, Adversary& adversary);
    /// The dispatcher for protocol beats, or nullptr for serial execution
    /// (no dispatcher configured, batch not shardable, or oracle mode).
    IntraDispatcher* shard_dispatcher() const;
    std::optional<Message> do_corrupt(NodeId v);
    void do_deliver(NodeId byz_from, NodeId to, const Message& m);
    void account_sends();
    void record_sends();
    void run_receives();

    EngineConfig cfg_;
    std::unique_ptr<BatchProtocol> batch_;
    PerNodeBatch* adapter_ = nullptr;  ///< set when batch_ is the pooled adapter
    Adversary* adversary_ = nullptr;

    Round round_ = 0;
    Count budget_used_ = 0;
    RoundBuffer buf_;      ///< flat per-round delivery state
    RoundTally tally_;     ///< engine-level shared tallies, rebuilt per round
    SparsePlane sparse_;   ///< sampled-edge plane (PlaneMode::Sparse only)
    std::vector<bool> honest_mask_;  ///< mirror of buf_ honesty for observers/results

    Metrics metrics_;
    std::optional<Transcript> transcript_;
    RoundObserver observer_;
    bool ran_ = false;
};

}  // namespace adba::net
