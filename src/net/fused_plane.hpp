// The fused trial plane: 64 independent Monte-Carlo trials per machine word.
//
// Every optimization below this layer (flat plane, SoA batches, packed
// tallies, sparse probes) accelerates ONE trial; below n≈256 the per-trial
// fixed costs (engine dispatch, tally rebuild, arena touch) dominate and
// ns/node-round stops improving. Binary protocols carry exactly one bit of
// value state per node, so this layer turns the bit-slicing trick of
// tally_kernels 90°: bit j of every plane word belongs to TRIAL j, and one
// word op steps node v of 64 independent trials at once.
//
//   FusedFrame       — one round's delivery state, bit-sliced: the honest
//                      broadcast planes (sent/val/flag/coin±, one uint64_t
//                      per NODE, bit j = lane j) plus per-lane Byzantine
//                      pattern rows. The lane analogue of RoundBuffer.
//   FusedLaneControl — the lane-masked RoundControl bridge: one unmodified
//                      scalar Adversary instance runs per lane, seeing only
//                      its lane's bits. Contract failures carry the exact
//                      Engine::Ctl messages so fused ≡ scalar extends to
//                      error behaviour. It also holds the word-wise forms a
//                      block-level strategy (net::BlockStrategy,
//                      Adversary::block_form) acts through: one object
//                      decides all 64 lanes per round from the planes,
//                      corrupting by lane mask and sending one shared row
//                      (`static`: its split row, weighted per lane by the
//                      set size counted in round 0) or one coin-sign row
//                      (`worst-case`: per receiver and lane a coin sign,
//                      weighted per lane by its sender count). The bridge
//                      is the oracle of every block form.
//   FusedProtocol    — the protocol interface of this plane: word-parallel
//                      send/receive over a FusedFrame (implementations:
//                      core/skeleton_fused, baselines ben_or / phase_king).
//   FusedBlock       — the driver: Engine::run's beat order (sends →
//                      adversary → accounting → receives → halt sweep) for
//                      64 lanes, with GPU-warp-style divergence: lanes that
//                      decide early drop out of the active mask and accrue
//                      nothing; the block retires when the mask is empty or
//                      the shared round cap fires.
//   SegmentFold      — the one count of the receive beats: every lane's
//                      honest and Byzantine counts (its own rows, the shared
//                      row weighted by its sender count, the coin-sign row)
//                      as 64-lane int32 vectors, receiver segment by
//                      receiver segment. A protocol decides all 64 lanes of
//                      a segment at once with kern::lanes_greater masks.
//
// Determinism contract: per-lane seeds come from the same index-derived
// SeedTree chain as scalar trials, every (node, lane) RNG stream is private,
// and every count is exact — fused aggregates are bit-identical to 64
// scalar runs of the same trial indices. The scalar path stays the oracle,
// exactly as `batch=false` and `intra_threads=1` are for the native batch
// and the sharded beats.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <vector>

#include "net/engine.hpp"
#include "net/message.hpp"
#include "net/metrics.hpp"
#include "net/tally_kernels.hpp"
#include "rand/seed_tree.hpp"
#include "support/types.hpp"

namespace adba::net {

/// Trials co-executed per block: one per bit of the plane word.
inline constexpr unsigned kFusedLanes = 64;

/// One Byzantine split_as pattern from one lane's adversary: `low` to
/// receivers below `boundary`, `high` to the rest (absent side = silence).
/// The piecewise-constant shape is what makes fused receive cheap: every
/// threshold decision is taken once per segment between the boundaries of
/// all lanes' rows, for all 64 lanes at once, not once per receiver.
struct FusedRow {
    NodeId sender = 0;
    NodeId boundary = 0;
    bool has_low = false;
    bool has_high = false;
    Message low;
    Message high;
};

/// One round's bit-sliced delivery state. Attribute planes are UNMASKED
/// (same discipline as kern::PackedPlanes): consumers must AND with `sent`
/// before counting. `byz` persists across rounds. reset() zeroes every
/// plane; begin_round() clears only the Byzantine rows, so each round's
/// send writes the honest planes itself (FusedProtocol::send_round): `sent`
/// for every node, `val` and `flag` for the nodes it sends, and the coin
/// planes zero outside the current committee (a sender's coin is read
/// whenever it sends).
class FusedFrame {
public:
    void reset(NodeId n) {
        n_ = n;
        sent.assign(n, 0);
        val.assign(n, 0);
        flag.assign(n, 0);
        coinp.assign(n, 0);
        coinn.assign(n, 0);
        byz.assign(n, 0);
        shared.assign(n, 0);
        std::fill(std::begin(shared_senders), std::end(shared_senders), Count{0});
        has_shared = false;
        has_sign = false;
        sign.assign(n, 0);
        patterned_.assign(n, 0);
        for (auto& r : rows_) r.clear();
        row_lanes_ = 0;
        active = ~std::uint64_t{0};
        kind = MsgKind::None;
        phase = 0;
    }

    void begin_round(MsgKind round_kind, Phase round_phase) {
        kind = round_kind;
        phase = round_phase;
        if (has_shared) {
            std::fill(shared.begin(), shared.end(), 0);
            std::fill(std::begin(shared_senders), std::end(shared_senders), Count{0});
        }
        has_shared = false;
        has_sign = false;  // a coin-sign row rewrites its plane and counts whole
        if (row_lanes_ != 0) {
            std::fill(patterned_.begin(), patterned_.end(), 0);
            for (; row_lanes_ != 0; row_lanes_ &= row_lanes_ - 1)
                rows_[std::countr_zero(row_lanes_)].clear();
        }
    }

    NodeId n() const { return n_; }

    /// Lane j's own Byzantine pattern rows this round (cleared per round);
    /// the shared row comes on top (shared_row / shared).
    const std::vector<FusedRow>& rows(unsigned lane) const { return rows_[lane]; }
    /// Lanes with at least one row of their own this round.
    std::uint64_t row_lanes() const { return row_lanes_; }

    /// Records a pattern row for (lane, sender) and returns a reference for
    /// the caller to fill in place (sender is already set). At most one row
    /// per (lane, sender, round): every supported fused adversary patterns a
    /// sender once per round, so a duplicate is a bridge bug, not a
    /// behaviour to merge — fail loudly instead of silently diverging from
    /// the scalar densify path. Inline: this sits on the per-(lane, sender,
    /// round) hot path of every Byzantine fused round.
    FusedRow& add_row(unsigned lane, NodeId sender) {
        const std::uint64_t bit = std::uint64_t{1} << lane;
        if ((patterned_[sender] & bit) != 0) throw_duplicate_row();
        patterned_[sender] |= bit;
        row_lanes_ |= bit;
        FusedRow& row = rows_[lane].emplace_back();
        row.sender = sender;
        return row;
    }

    /// Header of this round's honest broadcasts in every lane: every live
    /// sender's message shares (kind, phase) in the supported protocols.
    MsgKind kind = MsgKind::None;
    Phase phase = 0;

    /// Lanes still running (bit j set = lane j live). Maintained by
    /// FusedBlock; protocols may skip evaluation for the other lanes, which
    /// are never observed again (a retired lane's per-node activity masks
    /// are all-zero anyway; a lane a partial block leaves out never ran).
    std::uint64_t active = ~std::uint64_t{0};

    // One word per NODE, bit j = trial j.
    std::vector<std::uint64_t> sent;   ///< live honest broadcast present
    std::vector<std::uint64_t> val;    ///< broadcast val & 1 (unmasked)
    std::vector<std::uint64_t> flag;   ///< broadcast flag != 0 (unmasked)
    std::vector<std::uint64_t> coinp;  ///< broadcast coin > 0 (unmasked)
    std::vector<std::uint64_t> coinn;  ///< broadcast coin < 0 (unmasked)
    std::vector<std::uint64_t> byz;    ///< corrupted (persistent)

    /// This round's shared Byzantine row, set by a block-level strategy
    /// (FusedLaneControl::share_row; `sender` unused): node v sends it in
    /// every lane of shared[v], and shared_senders[j] is lane j's number of
    /// such senders (its set size; 0 in a lane that does not send it).
    /// Without one, has_shared is false and the plane and counts are all
    /// zero. A lane never holds both the shared row and a row of its own
    /// from one sender.
    bool has_shared = false;
    FusedRow shared_row;
    std::vector<std::uint64_t> shared;
    Count shared_senders[kFusedLanes] = {};

    /// This round's coin-sign row, set by a block-level strategy
    /// (FusedLaneControl::sign_row): in every lane of sign_lanes, each
    /// Byzantine node in [sign_first, sign_last) sends sign_msg to every
    /// receiver, with coin +1 to receiver v where sign[v] holds the lane's
    /// bit and coin -1 elsewhere (sign_msg.coin is unused). sign_senders[j]
    /// is lane j's sender count, 0 outside sign_lanes. Without one, has_sign
    /// is false and the other fields are stale; the sign plane always holds
    /// n words. A block that sends it sends no other Byzantine row.
    bool has_sign = false;
    Message sign_msg;
    NodeId sign_first = 0;
    NodeId sign_last = 0;
    std::uint64_t sign_lanes = 0;
    std::vector<std::uint64_t> sign;
    Count sign_senders[kFusedLanes] = {};

private:
    [[noreturn]] static void throw_duplicate_row();

    NodeId n_ = 0;
    std::vector<std::uint64_t> patterned_;  ///< per-round duplicate-row guard
    std::vector<FusedRow> rows_[kFusedLanes];
    std::uint64_t row_lanes_ = 0;  ///< lanes whose rows_ are non-empty
};

/// The per-(node, lane) protocol streams of a block: cell (v, j) draws from
/// lane j's (NodeProtocol, v) stream, Xoshiro256(SeedTree::child_seed(
/// purposes()[j], v)), the scalar batches' stream of node v. Each cell's
/// stream is private, so fused iteration order never perturbs another
/// cell's draws, and is built at the cell's first draw: it is a pure
/// function of (lane seed, v) whenever it is built.
class LaneStreams {
public:
    /// Points lane j at lane_seeds[j]'s streams; a table of `nodes` nodes'
    /// cells, none built yet, serves at() (0: purposes() only).
    void rearm(const SeedTree* lane_seeds, NodeId nodes) {
        for (unsigned j = 0; j < kFusedLanes; ++j)
            purpose_[j] = lane_seeds[j].purpose_hash(StreamPurpose::NodeProtocol);
        rng_.resize(static_cast<std::size_t>(nodes) * kFusedLanes);
        live_.assign(nodes, 0);
    }

    /// Lane j's NodeProtocol purpose hash, for stateless draws.
    const std::uint64_t* purposes() const { return purpose_; }

    /// Cell (v, j)'s stream, built at its first draw.
    Xoshiro256& at(NodeId v, unsigned j) {
        const std::uint64_t bit = std::uint64_t{1} << j;
        Xoshiro256& g = rng_[static_cast<std::size_t>(v) * kFusedLanes + j];
        if ((live_[v] & bit) == 0) {
            g = Xoshiro256(SeedTree::child_seed(purpose_[j], v));
            live_[v] |= bit;
        }
        return g;
    }

private:
    std::uint64_t purpose_[kFusedLanes] = {};
    std::vector<Xoshiro256> rng_;      ///< lane-major per node: rng_[v * 64 + j]
    std::vector<std::uint64_t> live_;  ///< bit j of live_[v]: cell (v, j) built
};

/// A word-parallel protocol over the fused plane. Implementations mirror
/// their scalar batch twin EXACTLY — same round cadence, same thresholds,
/// same RNG draw sites per (node, lane) stream — so that lane j of every
/// plane replays the scalar trial seeded with lane j's seed bit for bit.
///
/// Plane layout: one uint64_t per node, bit j = lane j. `value_plane` is
/// also the output plane (every fused-capable protocol outputs its current
/// value, the scalar BatchProtocol::output contract for this family).
class FusedProtocol {
public:
    virtual ~FusedProtocol() = default;

    virtual NodeId n() const = 0;

    /// Re-arms all 64 lanes for a fresh block: bit j of input_plane[v] is
    /// lane j's input for node v; lane_seeds[j] is lane j's trial SeedTree
    /// (the same tree the scalar trial at that index would use).
    virtual void rearm(const std::uint64_t* input_plane, const SeedTree* lane_seeds) = 0;

    /// Beat 1: compute this round's broadcast planes into `frame`, which
    /// still holds the last round's: `sent` must be written for every node,
    /// `val` and `flag` for every node whose `sent` bit is set, and the coin
    /// planes must be zero outside this round's flipping committee. Apply
    /// send-beat state flips (flush-halts). Must set frame.kind /
    /// frame.phase.
    virtual void send_round(Round r, FusedFrame& frame) = 0;

    /// Beat 3: consume the round — honest planes + per-lane Byzantine rows.
    virtual void receive_round(Round r, const FusedFrame& frame) = 0;

    virtual const std::uint64_t* value_plane() const = 0;
    virtual const std::uint64_t* decided_plane() const = 0;
    virtual const std::uint64_t* halted_plane() const = 0;
};

/// The lane-masked RoundControl: presents ONE lane's view of the fused
/// planes to an unmodified scalar Adversary. Mutations (corrupt, split_as)
/// touch only the focused lane's bit / row list. EXPECTS messages match
/// Engine::Ctl verbatim — the contract surface is part of the equivalence.
class FusedLaneControl final : public RoundControl {
public:
    /// `frame` and `proto` must outlive the control; budget is per lane.
    void rearm(FusedFrame* frame, FusedProtocol* proto, Count budget);

    void set_round(Round r) { round_ = r; }
    void set_lane(unsigned lane) { lane_ = lane; }

    Count corruptions(unsigned lane) const { return used_[lane]; }
    std::uint64_t byzantine_messages(unsigned lane) const { return byz_msgs_[lane]; }

    // ---- what a block-level strategy (BlockStrategy) reads and does ----
    const FusedFrame& frame() const { return *frame_; }
    const FusedProtocol& protocol() const { return *proto_; }
    /// budget_left() of `lane`.
    Count lane_budget_left(unsigned lane) const { return budget_ - used_[lane]; }
    /// corrupt(v) in lanes mask[v] & lanes & active, for every v in
    /// [lo, hi): with corrupt()'s checks and messages, all taken before any
    /// write, and then writes each lane's count of those bits to
    /// counted[0..63].
    void corrupt_lanes(NodeId lo, NodeId hi, const std::uint64_t* mask, std::uint64_t lanes,
                       Count* counted);
    /// corrupt_lanes over every node and active lane.
    void corrupt_lanes(const std::uint64_t* mask, Count* counted) {
        corrupt_lanes(0, frame_->n(), mask, ~std::uint64_t{0}, counted);
    }
    /// Node v sends `row` in lanes mask[v] & lanes this round, for every v,
    /// where senders[j] is lane j's count of mask bits (the set size
    /// corrupt_lanes counted): publishes the row, its lane plane and those
    /// counts as the frame's shared row, and charges each lane's
    /// byzantine_messages its sender count x the row's covered slots, as
    /// one fresh split_as per sender does.
    void share_row(const SplitRow& row, const std::uint64_t* mask, std::uint64_t lanes,
                   const Count* senders);
    /// In every lane of `lanes`, each Byzantine node in [first, last) sends
    /// `m` to every receiver v, with coin +1 where sign[v] holds the lane's
    /// bit and -1 elsewhere: publishes the frame's coin-sign row and charges
    /// each lane's byzantine_messages n per sender, as one fresh
    /// deliver_row_as per sender does. Call it after the round's
    /// corruptions: it counts the senders once, for the charge and for the
    /// receive beat. Returns the frame's n-word sign plane, still holding
    /// an earlier row's signs: the caller writes every word of it before
    /// the receive beat.
    std::uint64_t* sign_row(const Message& m, NodeId first, NodeId last, std::uint64_t lanes);

    // ---- RoundControl ----
    Round round() const override { return round_; }
    NodeId n() const override { return frame_->n(); }
    Count budget_left() const override { return budget_ - used_[lane_]; }
    bool is_honest(NodeId v) const override;
    bool is_halted(NodeId v) const override;
    const Message* intended_broadcast(NodeId v) const override;
    Bit current_value(NodeId v) const override;
    bool current_decided(NodeId v) const override;
    std::optional<Message> corrupt(NodeId v) override;
    void deliver_as(NodeId byz_from, NodeId to, const Message& m) override;
    void split_as(NodeId byz_from, const std::optional<Message>& low,
                  const std::optional<Message>& high, NodeId boundary) override;

private:
    std::uint64_t lane_bit() const { return std::uint64_t{1} << lane_; }
    /// Reconstructs the focused lane's honest broadcast of node v from the
    /// frame planes (exact for every supported protocol: binary kinds carry
    /// no word payload). nullopt = silent (no sent bit).
    std::optional<Message> message_of(NodeId v) const;

    FusedFrame* frame_ = nullptr;
    FusedProtocol* proto_ = nullptr;
    Count budget_ = 0;
    Round round_ = 0;
    unsigned lane_ = 0;
    Count used_[kFusedLanes] = {};
    std::uint64_t byz_msgs_[kFusedLanes] = {};
    mutable Message scratch_;  ///< storage behind intended_broadcast
};

/// Per-lane result of a fused block — the scalar RunResult fields the
/// Monte-Carlo runner consumes, minus the per-node vectors (read those off
/// the planes: FusedBlock::byz_plane + FusedProtocol::value_plane).
struct FusedLaneResult {
    Round rounds = 0;
    bool all_halted = false;
    TrialOutcome outcome = TrialOutcome::Decided;
    Metrics metrics;
};

/// Drives one 64-lane block: Engine::run's beat order, word-parallel.
/// No watchdog (fused scenarios require watchdog_ms == 0, kept off the
/// fused plane upstream).
///
/// The adversary takes one of two paths for the whole block: when every
/// lane offers a block-level form of the first lane's strategy
/// (Adversary::block_form, same_strategy), the first lane's starts them all
/// (BlockStrategy::start_block) and decides their beats; otherwise — a
/// block mixing strategies, or a decorator that hides the form — every
/// lane's on_start and every live lane's act() run through the per-lane
/// bridge.
class FusedBlock {
public:
    /// `proto` must already be rearm()-ed for this block; advs[j] is lane
    /// j's adversary (started here). The block runs the lanes of
    /// `in_block` (a partial block leaves the rest out from round 0: their
    /// adversaries may be null and their results are not written). Results
    /// land in out[j] for each lane j of `in_block`.
    void run(FusedProtocol& proto, Adversary* const* advs, Count budget, Round max_rounds,
             FusedLaneResult* out, std::uint64_t in_block = ~std::uint64_t{0});

    /// Corruption plane of the finished block (bit j of word v = node v
    /// Byzantine in lane j).
    const std::uint64_t* byz_plane() const { return frame_.byz.data(); }

private:
    /// The first lane's block-level form when every lane of `lanes` offers
    /// one of its strategy, else nullptr.
    static BlockStrategy* block_form(Adversary* const* advs, std::uint64_t lanes);

    FusedFrame frame_;
    FusedLaneControl ctl_;
};

// ---- shared word-parallel helpers for FusedProtocol implementations ----

/// What a fused receive beat counts: messages of (kind, phase) from senders
/// in [from_first, from_last) by val & 1 — only those with flag != 0 under
/// require_flag — and the coin sign of every (kind, phase) message whose
/// sender lies in [coin_first, coin_last) (empty range = no coin). Honest
/// broadcasts and Byzantine rows count alike.
struct FoldQuery {
    MsgKind kind = MsgKind::None;
    Phase phase = 0;
    bool require_flag = false;
    NodeId coin_first = 0;
    NodeId coin_last = 0;
    NodeId from_first = 0;
    NodeId from_last = std::numeric_limits<NodeId>::max();
};

/// Every lane's counts on one receiver segment, as 64-lane vectors (lane j
/// at index j), the operands of kern::lanes_greater.
struct LaneCounts {
    alignas(64) std::int32_t c0[kFusedLanes];    ///< counted messages with val 0
    alignas(64) std::int32_t c1[kFusedLanes];    ///< counted messages with val 1
    alignas(64) std::int32_t coin[kFusedLanes];  ///< committee coin sum
    /// Committee coin weight of the coin-sign row: receiver v's sum gains
    /// +coin_sign where frame.sign[v] holds the lane's bit, -coin_sign
    /// elsewhere (0 without one).
    alignas(64) std::int32_t coin_sign[kFusedLanes];
};

/// The one count of every fused receive beat. A row delivers one side below
/// its boundary and the other from it up, so every lane's counts are
/// piecewise constant in the receiver: prepare() counts what receiver 0
/// sees in all lanes — the honest broadcasts (one lane_counts pass), the
/// shared row weighted by each lane's sender count (frame.shared_senders)
/// and, for the coin, its sender count inside the committee range, the
/// coin-sign row likewise, and each lane's own rows — and records each
/// row's side flip as a delta at its boundary. sweep() then walks the
/// sorted union of those boundaries, applying only the deltas recorded at
/// each, so every threshold decision is taken once per segment for all 64
/// lanes. The coin-sign row's coin weight is left to the receiver, as
/// LaneCounts::coin_sign.
class SegmentFold {
public:
    /// Once per receive beat, after the adversary beat.
    void prepare(const FusedFrame& frame, const FoldQuery& q);

    /// Calls fn(counts, lo, hi) for each receiver segment [lo, hi) in order,
    /// covering [0, n), with every lane's counts on it. Neighbours may carry
    /// equal counts. Once per prepare().
    template <typename Fn>
    void sweep(Fn&& fn) {
        std::size_t d = 0;
        for (NodeId lo = 0;;) {
            for (; d < deltas_.size() && deltas_[d].boundary == lo; ++d) apply(deltas_[d]);
            const NodeId hi = d < deltas_.size() ? deltas_[d].boundary : n_;
            fn(static_cast<const LaneCounts&>(counts_), lo, hi);
            if (hi == n_) return;
            lo = hi;
        }
    }

private:
    /// One message's contribution at unit weight.
    struct Unit {
        std::int32_t c0 = 0, c1 = 0, coin = 0;
        friend bool operator==(const Unit&, const Unit&) = default;
        friend Unit operator+(const Unit& a, const Unit& b) {
            return {a.c0 + b.c0, a.c1 + b.c1, a.coin + b.coin};
        }
        friend Unit operator-(const Unit& a, const Unit& b) {
            return {a.c0 - b.c0, a.c1 - b.c1, a.coin - b.coin};
        }
    };
    /// The flip at a row's boundary, at unit weight: lane `lane`'s own row,
    /// or the shared row (lane == kFusedLanes), weighted per lane.
    struct Delta {
        NodeId boundary = 0;
        unsigned lane = 0;
        Unit d;
    };
    Unit classify(const Message* m) const;
    void apply(const Delta& d);

    FoldQuery q_;
    NodeId n_ = 0;
    LaneCounts counts_;
    std::int32_t shared_weight_[kFusedLanes] = {};  ///< lane's shared-row senders counted
    std::int32_t shared_coin_[kFusedLanes] = {};    ///< ... and in the coin range
    std::vector<Delta> deltas_;
};

}  // namespace adba::net
