// Flat per-round delivery state: the simulator's hot data plane.
//
// Every protocol here is a full-broadcast-per-round protocol on a complete
// network (paper §1.1), so the inner loop of every experiment is
// rounds × n receivers × n senders. This header keeps that loop cache-flat:
//
//  * RoundBuffer — one contiguous `Message[]` for the round's honest
//    broadcasts plus a `uint8_t` presence/honesty plane (never `vector<bool>`
//    on the hot path), and Byzantine delivery rows allocated on demand. The
//    per-(receiver, sender) probe is a byte load plus at most one
//    bounds-checked array load — no virtual dispatch, no optional unwrap.
//    A row is either Dense (n per-receiver cells) or a Pattern (threshold
//    equivocation: one message below a receiver boundary, another above),
//    so the classic split/broadcast attacks cost O(1) per sender per round
//    instead of O(n).
//
//  * RoundTally — the engine-level shared tally service. Honest broadcasts
//    are receiver-independent, so their (kind, phase) histogram is computed
//    ONCE per round in O(n); Byzantine-row deltas are aggregated once per
//    query signature into per-receiver arrays (O(n + rows) for pattern
//    rows, O(n) per dense row), dropping honest-path receives from O(n²)
//    per round to O(n).
//
//  * ReceiveView — the receiver's window onto one round, now a concrete
//    `final` class (non-virtual `from()`, bulk `for_each_delivery`, and the
//    tally queries). Polymorphism survives only behind DeliverySource, a thin
//    virtual adapter used by scripted tests and by the engine's reference
//    delivery path, which the equivalence suite pins the flat plane against.
//
//  The tally has two equivalent build modes (engine toggle
//  EngineConfig::simd_tally, scenario key `simd=`): the scalar byte-plane
//  sweep above (the reference oracle) and a word-packed mode
//  (net/tally_kernels.hpp) where presence/val/flag/coin collapse to
//  uint64_t bit planes, counts become popcounts-over-words, and the pack
//  pass itself shards across an IntraDispatcher's word-aligned node
//  ranges. Both modes produce bit-identical query results.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "net/tally_kernels.hpp"
#include "support/contracts.hpp"
#include "support/types.hpp"

namespace adba::net {

/// Thin virtual adapter for delivery lookups. Only scripted tests and the
/// reference (oracle) engine path pay this vtable; the flat path never does.
class DeliverySource {
public:
    virtual ~DeliverySource() = default;

    /// Message delivered from `sender` to `receiver` this round, or nullptr.
    virtual const Message* delivery(NodeId receiver, NodeId sender) const = 0;
    virtual NodeId n() const = 0;
};

/// Contiguous storage for one round of deliveries (reused across rounds and,
/// via Engine::reset, across trials — no per-round allocation once warm).
class RoundBuffer {
public:
    /// Per-sender state byte: bit 0 = broadcast present, bit 1 = Byzantine.
    static constexpr std::uint8_t kPresent = 1;
    static constexpr std::uint8_t kByzantine = 2;

    /// Byzantine row representations.
    static constexpr std::uint8_t kRowDense = 0;    ///< n per-receiver cells
    static constexpr std::uint8_t kRowPattern = 1;  ///< threshold split

    /// Threshold-equivocation row: msg[0] to receivers < boundary, msg[1]
    /// to the rest; present[side] == 0 means silence for that side.
    struct RowPattern {
        Message msg[2];
        std::uint8_t present[2] = {0, 0};
        NodeId boundary = 0;
    };

    /// Sizes for a run of n nodes; everyone honest, no rows, nothing present.
    void reset(NodeId n);
    /// Clears the presence plane and recycles the Byzantine rows; corruption
    /// marks survive (corruption is permanent, §1.1).
    void begin_round();

    NodeId n() const { return n_; }
    bool is_honest(NodeId v) const { return (state_[v] & kByzantine) == 0; }

    // ---- beat 1: honest sends ----
    void set_broadcast(NodeId v, const Message& m) {
        honest_[v] = m;
        state_[v] = kPresent;
    }
    /// Honest sender v's broadcast this round (nullptr = silent/halted).
    const Message* broadcast(NodeId v) const {
        return state_[v] == kPresent ? &honest_[v] : nullptr;
    }

    // ---- beat 2: adversary actions ----
    /// Moves v to the Byzantine set forever; returns the discarded broadcast.
    std::optional<Message> corrupt(NodeId v);
    /// Records m as (byz_from -> to); returns true when the slot was empty.
    bool deliver(NodeId byz_from, NodeId to, const Message& m);
    /// O(1) threshold equivocation: `low` (if non-null) to receivers below
    /// `boundary`, `high` (if non-null) to the rest. Returns the number of
    /// previously-empty slots now covered (for message accounting). Falls
    /// back to a dense merge when the sender already delivered this round.
    Count apply_pattern(NodeId byz_from, const Message* low, const Message* high,
                        NodeId boundary);
    /// Dense row in bulk: cells[to] (n cells) to every receiver — exactly n
    /// deliver() calls, filling one dense slot with one copy. Returns the
    /// number of previously-empty slots now covered.
    Count deliver_row(NodeId byz_from, const Message* cells);

    // ---- beat 3: receiver probes (the hot path) ----
    const Message* from(NodeId receiver, NodeId sender) const {
        const std::uint8_t st = state_[sender];
        if (st == kPresent) return &honest_[sender];
        if (st == 0) return nullptr;
        const std::int32_t row = byz_row_index_[sender];
        if (row < 0) return nullptr;
        return row_delivery(static_cast<std::size_t>(row), receiver);
    }

    // ---- tally-building access ----
    std::size_t rows_in_use() const { return rows_in_use_; }
    NodeId row_sender(std::size_t row) const { return row_sender_[row]; }
    std::uint8_t row_mode(std::size_t row) const { return row_mode_[row]; }
    const RowPattern& row_pattern(std::size_t row) const { return row_pattern_[row]; }
    const Message* row_delivery(std::size_t row, NodeId receiver) const {
        if (row_mode_[row] == kRowDense) {
            const std::size_t off =
                static_cast<std::size_t>(row_slot_[row]) * n_ + receiver;
            return byz_present_[off] ? &byz_msgs_[off] : nullptr;
        }
        const RowPattern& p = row_pattern_[row];
        const int side = receiver < p.boundary ? 0 : 1;
        return p.present[side] ? &p.msg[side] : nullptr;
    }
    const std::uint8_t* state_plane() const { return state_.data(); }
    const Message* honest_plane() const { return honest_.data(); }

private:
    std::int32_t ensure_row(NodeId v);
    /// Assigns (and clears) a dense cell block for `row`. Dense storage is
    /// allocated per *densified* row, not per row: a round of t pattern
    /// rows (every split/broadcast attack) costs O(t) bookkeeping, not an
    /// O(t * n) cell arena.
    void assign_dense_slot(std::size_t row);
    /// Materializes a pattern row into dense cells (merge path).
    void densify(std::size_t row);

    NodeId n_ = 0;
    std::vector<Message> honest_;        ///< [n] honest broadcasts
    std::vector<std::uint8_t> state_;    ///< [n] presence/honesty plane
    std::vector<std::int32_t> byz_row_index_;  ///< [n] sender -> row, or -1
    std::vector<NodeId> row_sender_;     ///< [rows] row -> sender
    std::vector<std::uint8_t> row_mode_; ///< [rows] kRowDense / kRowPattern
    std::vector<std::int32_t> row_slot_; ///< [rows] dense slot index, or -1
    std::vector<RowPattern> row_pattern_;  ///< [rows] pattern payloads
    std::vector<Message> byz_msgs_;      ///< [slots * n] dense delivery cells
    std::vector<std::uint8_t> byz_present_;  ///< [slots * n]
    std::size_t rows_in_use_ = 0;
    std::size_t slots_in_use_ = 0;
};

/// Adapts a RoundBuffer behind the virtual DeliverySource interface — the
/// engine's reference delivery path (per-probe vtable dispatch, per-sender
/// tally loops) that the flat path must match bit for bit.
class RoundBufferSource final : public DeliverySource {
public:
    explicit RoundBufferSource(const RoundBuffer& buf) : buf_(buf) {}
    const Message* delivery(NodeId receiver, NodeId sender) const override {
        return buf_.from(receiver, sender);
    }
    NodeId n() const override { return buf_.n(); }

private:
    const RoundBuffer& buf_;
};

/// Sorted (word, count) histogram — the recycled flat replacement for the
/// old std::map word tallies. Entries are unique words in ascending order;
/// clear() keeps capacity, so a warm engine builds these with zero
/// allocation per round.
using WordHistogram = std::vector<std::pair<Word, Count>>;

/// One (kind, phase) bucket of the round's honest-broadcast histogram.
/// val/flag counts are filled eagerly; coin prefix sums and word histograms
/// are built lazily on the round's first query that needs them.
struct TallyBucket {
    MsgKind kind{};
    Phase phase = 0;
    std::array<Count, 2> val_cnt{};       ///< by val & 1
    std::array<Count, 2> val_flag_cnt{};  ///< by val & 1, flag != 0 only
    Count total = 0;

    /// Packed-mode match plane: bit v set iff present sender v's broadcast
    /// landed in this bucket. Filled eagerly by the packed rebuild (unused
    /// and unsized in scalar mode); every packed query ANDs against it.
    std::vector<std::uint64_t> match;

    mutable bool have_coin_prefix = false;
    /// coin_prefix[u] = sum of sanitized ±1 coins of honest senders < u
    /// whose broadcast matched this bucket; size n+1.
    mutable std::vector<std::int64_t> coin_prefix;
    mutable bool have_words = false;
    mutable WordHistogram words;       ///< all matching messages
    mutable WordHistogram words_flag;  ///< flag != 0 only
};

/// Engine-level shared tallies over one round. rebuild() runs once per round
/// in O(n); buckets and the per-receiver Byzantine delta caches are shared
/// by every receiver's ReceiveView for that round, so each receive query is
/// O(1) after the first receiver pays the O(n + rows) aggregation.
class RoundTally {
public:
    /// Scalar rebuild — the byte-plane reference oracle.
    void rebuild(const RoundBuffer& buf) { rebuild(buf, false, nullptr); }
    /// Full form: `packed` selects the word-packed popcount build
    /// (tally_kernels.hpp); `intra` shards the pack pass over word-aligned
    /// node ranges (packed mode only; ignored when scalar). Query results
    /// are bit-identical across all (packed, intra) combinations.
    void rebuild(const RoundBuffer& buf, bool packed, IntraDispatcher* intra);
    /// True when the current round was built in packed mode.
    bool packed() const { return packed_; }
    /// The round's shared word-packed attribute planes (packed mode only).
    /// UNMASKED — consumers must gate every bit through a bucket's match
    /// plane (tally_kernels.hpp contract). The sparse delivery plane reads
    /// these directly for its per-edge honest-sender probes.
    const kern::PackedPlanes& packed_planes() const {
        ADBA_EXPECTS_MSG(packed_, "packed_planes requires a packed rebuild");
        return planes_;
    }

    const TallyBucket* find(MsgKind kind, Phase phase) const;
    /// Live buckets for the current round, in discovery order. Bucket
    /// storage (coin prefixes, word maps) is recycled across rounds, so a
    /// warm engine's tally service allocates nothing per round.
    std::size_t bucket_count() const { return buckets_in_use_; }
    const TallyBucket& bucket(std::size_t i) const { return buckets_[i]; }

    /// Lazy builders (per round, shared across receivers).
    const std::vector<std::int64_t>& coin_prefix(const TallyBucket& b) const;
    const WordHistogram& word_counts(const TallyBucket& b, bool require_flag) const;

    /// Sanitized ±1 coin sum of bucket-matching honest senders in
    /// [first, last): masked popcounts over the packed coin planes, or the
    /// lazy prefix difference in scalar mode — one query API, two builds,
    /// identical integers.
    std::int64_t coin_range_sum(const TallyBucket& b, NodeId first,
                                NodeId last) const;

    /// Whole per-receiver Byzantine val-count delta plane for one query
    /// signature (array of size n, indexed by receiver); nullptr when the
    /// round has no Byzantine rows. Built once per signature with a
    /// difference sweep over pattern rows — O(n + rows), not O(n * rows).
    /// Batch protocols hoist this out of their receive loop.
    const std::array<Count, 2>* val_delta_plane(MsgKind kind, Phase phase,
                                                bool require_flag) const;
    /// Per-receiver Byzantine val-count deltas for one query signature;
    /// nullptr when the round has no Byzantine rows.
    const std::array<Count, 2>* val_deltas(MsgKind kind, Phase phase,
                                           bool require_flag, NodeId receiver) const;
    /// Whole per-receiver Byzantine coin-sum delta plane over senders in
    /// [first, last); nullptr when the round has no Byzantine rows.
    const std::int64_t* coin_delta_plane(MsgKind kind, Phase phase, bool check_phase,
                                         NodeId first, NodeId last) const;
    /// Per-receiver Byzantine coin-sum delta over senders in [first, last).
    std::int64_t coin_delta(MsgKind kind, Phase phase, bool check_phase,
                            NodeId first, NodeId last, NodeId receiver) const;

    /// Byzantine-row word deltas delivered to `receiver` for `kind` (any
    /// phase), as a sorted histogram in recycled scratch storage — valid
    /// until the next call. No per-query allocation once warm.
    const WordHistogram& byz_word_deltas(MsgKind kind, bool require_flag,
                                         NodeId receiver) const;

private:
    struct ValCache {
        MsgKind kind{};
        Phase phase = 0;
        bool flag = false;
        std::vector<std::array<Count, 2>> delta;  ///< [n]
    };
    struct CoinCache {
        MsgKind kind{};
        Phase phase = 0;
        bool check_phase = false;
        NodeId first = 0;
        NodeId last = 0;
        std::vector<std::int64_t> delta;  ///< [n]
    };

    void rebuild_scalar(const RoundBuffer& buf);
    void rebuild_packed(const RoundBuffer& buf, IntraDispatcher* intra);
    TallyBucket& bucket_for(MsgKind kind, Phase phase, std::size_t words);

    const RoundBuffer* buf_ = nullptr;
    bool packed_ = false;
    kern::PackedPlanes planes_;            ///< packed mode; recycled
    std::vector<kern::PackShard> pack_shards_;  ///< per-shard pack scratch
    // Buckets and query caches: entries are reused across rounds (vectors
    // and maps keep their storage); *_in_use_ marks how many are live for
    // the current round.
    std::vector<TallyBucket> buckets_;
    std::size_t buckets_in_use_ = 0;
    mutable std::vector<ValCache> val_caches_;
    mutable std::size_t val_caches_in_use_ = 0;
    mutable std::vector<CoinCache> coin_caches_;
    mutable std::size_t coin_caches_in_use_ = 0;
    mutable WordHistogram byz_words_scratch_;  ///< recycled by byz_word_deltas
};

/// Receiver-specific view of one round's deliveries — concrete and final so
/// the per-(receiver, sender) probe devirtualizes and inlines.
///
/// Two backends share exactly one semantics:
///  * flat     — RoundBuffer probe + RoundTally-backed O(1) queries;
///  * adapter  — a DeliverySource (scripted test or the engine's reference
///               path); every tally query falls back to the plain per-sender
///               loop over from(), which doubles as the executable spec the
///               flat implementations are tested against.
class ReceiveView final {
public:
    ReceiveView(const RoundBuffer& buf, const RoundTally& tally, NodeId receiver)
        : buf_(&buf), tally_(&tally), n_(buf.n()), recv_(receiver) {}
    ReceiveView(const DeliverySource& src, NodeId receiver)
        : src_(&src), n_(src.n()), recv_(receiver) {}

    /// Message delivered from `sender` to this receiver this round, or
    /// nullptr for silence (halted, crashed, or adversarially withheld).
    /// `from(self)` returns the node's own broadcast (a node counts its own
    /// value in the paper's tallies).
    const Message* from(NodeId sender) const {
        ADBA_EXPECTS(sender < n_);
        if (buf_) return buf_->from(recv_, sender);
        return src_->delivery(recv_, sender);
    }

    /// Network size; senders are 0..n()-1.
    NodeId n() const { return n_; }
    /// The receiving node's own id.
    NodeId receiver() const { return recv_; }

    /// Span-style bulk iteration: invokes fn(sender, const Message&) for
    /// every non-silent delivery to this receiver, in sender order.
    template <typename Fn>
    void for_each_delivery(Fn&& fn) const {
        if (buf_ == nullptr) {
            for (NodeId u = 0; u < n_; ++u)
                if (const Message* m = src_->delivery(recv_, u)) fn(u, *m);
            return;
        }
        const std::uint8_t* state = buf_->state_plane();
        const Message* honest = buf_->honest_plane();
        for (NodeId u = 0; u < n_; ++u) {
            const std::uint8_t st = state[u];
            if (st == RoundBuffer::kPresent) {
                fn(u, honest[u]);
            } else if (st != 0) {
                if (const Message* m = buf_->from(recv_, u)) fn(u, *m);
            }
        }
    }

    // ---- tally service (shared honest histogram + per-receiver deltas) ----

    /// Counts, by val & 1, of deliveries matching (kind, phase) and, when
    /// `require_flag`, flag != 0 — the quorum probe every voting protocol
    /// reduces its receive step to.
    std::array<Count, 2> val_counts(MsgKind kind, Phase phase,
                                    bool require_flag) const;

    /// Sum of sanitized ±1 coin fields over deliveries from senders in
    /// [first, last) matching `kind` (and `phase`, when `check_phase`).
    /// Byzantine coin fields are clamped to ±1 (paper §3.2).
    std::int64_t coin_sum(MsgKind kind, Phase phase, bool check_phase,
                          NodeId first, NodeId last) const;

    /// The word (if any) whose delivery tally reaches `quorum` among
    /// messages of `kind` (flag != 0 when `require_flag`). Enforces the
    /// n-t uniqueness contract: two distinct quorum words throw.
    std::optional<Word> quorum_word(MsgKind kind, bool require_flag,
                                    Count quorum) const;

    /// The most frequent word among messages of `kind` (flag != 0 when
    /// `require_flag`) with its multiplicity; ties break to the smallest
    /// word; nullopt when no message matches.
    std::optional<std::pair<Word, Count>> plurality_word(MsgKind kind,
                                                         bool require_flag) const;

private:
    /// Shared walk behind quorum_word/plurality_word: invokes
    /// consider(word, count) over the combined delivery histogram in
    /// ascending word order (defined in round_buffer.cpp).
    template <typename Fn>
    void walk_words(MsgKind kind, bool require_flag, Fn&& consider) const;

    const RoundBuffer* buf_ = nullptr;
    const RoundTally* tally_ = nullptr;
    const DeliverySource* src_ = nullptr;
    NodeId n_ = 0;
    NodeId recv_ = 0;
};

}  // namespace adba::net
