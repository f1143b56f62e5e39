#include "net/engine.hpp"

#include <algorithm>
#include <chrono>

#include "support/contracts.hpp"

namespace adba::net {

// ---------------------------------------------------------------- RunResult

bool RunResult::agreement() const {
    std::optional<Bit> seen;
    for (NodeId v = 0; v < outputs.size(); ++v) {
        if (!honest[v]) continue;
        if (!seen) {
            seen = outputs[v];
        } else if (*seen != outputs[v]) {
            return false;
        }
    }
    return true;
}

std::optional<Bit> RunResult::agreed_value() const {
    if (!agreement()) return std::nullopt;
    for (NodeId v = 0; v < outputs.size(); ++v)
        if (honest[v]) return outputs[v];
    return std::nullopt;  // no honest node survived (cannot happen for t < n/3)
}

Count RunResult::honest_count() const {
    return static_cast<Count>(std::count(honest.begin(), honest.end(), true));
}

// ------------------------------------------------------------- RoundControl

RoundView RoundControl::view() const {
    const NodeId count = n();
    ViewScratch& s = view_scratch_;
    s.state.resize(count);
    s.broadcast.resize(count);
    s.halted.resize(count);
    s.value.resize(count);
    s.decided.resize(count);
    for (NodeId v = 0; v < count; ++v) {
        const bool honest = is_honest(v);
        const Message* m = honest ? intended_broadcast(v) : nullptr;
        s.state[v] = !honest ? RoundBuffer::kByzantine : m != nullptr ? RoundBuffer::kPresent : 0;
        if (m != nullptr) s.broadcast[v] = *m;
        s.halted[v] = honest && is_halted(v) ? 1 : 0;
        s.value[v] = honest ? current_value(v) : 0;
        s.decided[v] = honest && current_decided(v) ? 1 : 0;
    }
    return {count,          s.state.data(), s.broadcast.data(),
            s.halted.data(), s.value.data(), s.decided.data()};
}

void RoundControl::deliver_row_as(NodeId byz_from, std::span<const Message> cells) {
    ADBA_EXPECTS(cells.size() == n());
    for (NodeId to = 0; to < cells.size(); ++to) deliver_as(byz_from, to, cells[to]);
}

// ------------------------------------------------------------- Engine::Ctl

/// The engine-backed RoundControl: one per-trial execution over the flat /
/// sparse delivery planes. (The fused plane provides its own lane-masked
/// implementation in net/fused_plane.cpp.)
class Engine::Ctl final : public RoundControl {
public:
    explicit Ctl(Engine& e) : e_(e) {}

    Round round() const override { return e_.round_; }
    NodeId n() const override { return e_.cfg_.n; }
    Count budget_left() const override { return e_.cfg_.budget - e_.budget_used_; }
    bool is_honest(NodeId v) const override {
        ADBA_EXPECTS(v < e_.cfg_.n);
        return e_.is_honest(v);
    }
    bool is_halted(NodeId v) const override {
        ADBA_EXPECTS(v < e_.cfg_.n);
        return e_.is_halted(v);
    }
    const Message* intended_broadcast(NodeId v) const override {
        ADBA_EXPECTS(v < e_.cfg_.n);
        ADBA_EXPECTS_MSG(e_.is_honest(v), "only honest nodes have intended broadcasts");
        return e_.buf_.broadcast(v);
    }
    Bit current_value(NodeId v) const override {
        ADBA_EXPECTS(v < e_.cfg_.n);
        ADBA_EXPECTS_MSG(e_.is_honest(v), "introspection is defined for honest nodes");
        return e_.batch_->value(v);
    }
    bool current_decided(NodeId v) const override {
        ADBA_EXPECTS(v < e_.cfg_.n);
        ADBA_EXPECTS_MSG(e_.is_honest(v), "introspection is defined for honest nodes");
        return e_.batch_->decided(v);
    }
    /// The live planes themselves: the buffer's state/broadcast planes and
    /// the batch's halted/value/decided planes. A batch without value and
    /// decided planes (the per-node adapter) is observed through the base
    /// form instead.
    RoundView view() const override {
        const Bit* value = e_.batch_->value_plane();
        const std::uint8_t* decided = e_.batch_->decided_plane();
        if (value == nullptr || decided == nullptr) return RoundControl::view();
        return {e_.cfg_.n, e_.buf_.state_plane(), e_.buf_.honest_plane(),
                e_.batch_->halted_plane(), value, decided};
    }
    std::optional<Message> corrupt(NodeId v) override { return e_.do_corrupt(v); }
    void deliver_as(NodeId byz_from, NodeId to, const Message& m) override {
        e_.do_deliver(byz_from, to, m);
    }
    void split_as(NodeId byz_from, const std::optional<Message>& low,
                  const std::optional<Message>& high, NodeId boundary) override {
        ADBA_EXPECTS(byz_from < e_.cfg_.n && boundary <= e_.cfg_.n);
        ADBA_EXPECTS_MSG(!e_.buf_.is_honest(byz_from),
                         "split_as requires a corrupted sender");
        e_.metrics_.byzantine_messages += e_.buf_.apply_pattern(
            byz_from, low ? &*low : nullptr, high ? &*high : nullptr, boundary);
    }
    void deliver_row_as(NodeId byz_from, std::span<const Message> cells) override {
        ADBA_EXPECTS(byz_from < e_.cfg_.n && cells.size() == e_.cfg_.n);
        ADBA_EXPECTS_MSG(!e_.buf_.is_honest(byz_from),
                         "deliver_row_as requires a corrupted sender");
        e_.metrics_.byzantine_messages += e_.buf_.deliver_row(byz_from, cells.data());
    }

private:
    Engine& e_;
};

// ------------------------------------------------------------------- Engine

Engine::Engine(EngineConfig cfg, std::vector<std::unique_ptr<HonestNode>> nodes,
               Adversary& adversary) {
    reset(cfg, std::move(nodes), adversary);
}

Engine::Engine(EngineConfig cfg, std::unique_ptr<BatchProtocol> batch,
               Adversary& adversary) {
    reset(cfg, std::move(batch), adversary);
}

void Engine::reset(EngineConfig cfg, std::vector<std::unique_ptr<HonestNode>> nodes,
                   Adversary& adversary) {
    ADBA_EXPECTS(nodes.size() == cfg.n);
    for (const auto& p : nodes) ADBA_EXPECTS(p != nullptr);
    if (adapter_ != nullptr) {
        adapter_->rearm(std::move(nodes));  // pooled adapter: no allocation
    } else {
        auto adapter = std::make_unique<PerNodeBatch>(std::move(nodes));
        adapter_ = adapter.get();
        batch_ = std::move(adapter);
    }
    common_reset(cfg, adversary);
}

void Engine::reset(EngineConfig cfg, std::unique_ptr<BatchProtocol> batch,
                   Adversary& adversary) {
    ADBA_EXPECTS(batch != nullptr);
    ADBA_EXPECTS(batch->n() == cfg.n);
    batch_ = std::move(batch);
    adapter_ = nullptr;
    common_reset(cfg, adversary);
}

void Engine::common_reset(EngineConfig cfg, Adversary& adversary) {
    cfg_ = cfg;
    adversary_ = &adversary;
    ADBA_EXPECTS(cfg_.n > 0);
    ADBA_EXPECTS(cfg_.max_rounds > 0);
    if (cfg_.plane == PlaneMode::Sparse) {
        ADBA_EXPECTS_MSG(batch_->supports_sparse(),
                         "plane=sparse requires a sparse-capable batch");
        ADBA_EXPECTS_MSG(!cfg_.reference_delivery,
                         "plane=sparse has no reference-delivery form");
        sparse_.reset(cfg_.n, cfg_.sample_degree, cfg_.sparse_seed);
    }
    round_ = 0;
    budget_used_ = 0;
    buf_.reset(cfg_.n);
    honest_mask_.assign(cfg_.n, true);
    metrics_ = Metrics{};
    transcript_.reset();
    if (cfg_.record_transcript) transcript_.emplace();
    observer_ = nullptr;  // a run-A observer must not fire on run B's state
    ran_ = false;
}

std::vector<std::unique_ptr<HonestNode>> Engine::take_nodes() {
    ADBA_EXPECTS_MSG(adapter_ != nullptr,
                     "take_nodes requires the per-node engine form (see take_batch)");
    return adapter_->take_nodes();
}

std::unique_ptr<BatchProtocol> Engine::take_batch() {
    adapter_ = nullptr;
    return std::move(batch_);
}

bool Engine::is_halted(NodeId v) const {
    return buf_.is_honest(v) && batch_->halted_plane()[v] != 0;
}

std::optional<Message> Engine::do_corrupt(NodeId v) {
    ADBA_EXPECTS(v < cfg_.n);
    ADBA_EXPECTS_MSG(buf_.is_honest(v), "cannot corrupt an already-Byzantine node");
    ADBA_EXPECTS_MSG(batch_->halted_plane()[v] == 0,
                     "cannot corrupt a node that already terminated");
    ADBA_EXPECTS_MSG(budget_used_ < cfg_.budget, "corruption budget exhausted");
    ++budget_used_;
    ++metrics_.corruptions;
    honest_mask_[v] = false;
    if (transcript_) transcript_->record_corruption(v);
    return buf_.corrupt(v);
}

void Engine::do_deliver(NodeId byz_from, NodeId to, const Message& m) {
    ADBA_EXPECTS(byz_from < cfg_.n && to < cfg_.n);
    ADBA_EXPECTS_MSG(!buf_.is_honest(byz_from), "deliver_as requires a corrupted sender");
    if (buf_.deliver(byz_from, to, m)) ++metrics_.byzantine_messages;
}

void Engine::account_sends() {
    // Accounting + transcript reflect post-corruption reality: a node
    // corrupted this round never got its broadcast onto the wire. Honest
    // receivers that already terminated have left the protocol, so a
    // broadcast is charged only for the receivers that still take delivery
    // (Byzantine receivers stay on the wire — the sender cannot know them).
    // One branch-free pass counts what the closed form (broadcast_fanout,
    // net/metrics.hpp) needs: live broadcasts, the ones whose sender
    // flush-halted this round, honest-halted receivers, and the same split
    // for the word-carrying prelude kinds, read from the message plane only
    // when the batch can send one.
    const NodeId n = cfg_.n;
    const std::uint8_t* state = buf_.state_plane();
    const Message* sent_msgs = batch_->sends_words() ? buf_.honest_plane() : nullptr;
    const std::uint8_t* halted = batch_->halted_plane();
    std::uint64_t sent = 0, sent_halted = 0, words = 0, words_halted = 0;
    std::uint64_t halted_receivers = 0;
    for (NodeId v = 0; v < n; ++v) {
        const std::uint64_t h = halted[v] != 0;
        const std::uint64_t present = state[v] == RoundBuffer::kPresent;
        const std::uint64_t word =
            sent_msgs != nullptr ? present & carries_word(sent_msgs[v].kind) : 0;
        sent += present;
        sent_halted += present & h;
        words += word;
        words_halted += word & h;
        halted_receivers += h & ((state[v] & RoundBuffer::kByzantine) == 0);
    }
    // Sparse sub-dense delivery is receiver-driven: each live receiver pulls
    // `degree` sampled sender edges, so a broadcast is charged for at most
    // that many receivers. Dense sampling keeps the exact flat accounting
    // (the cap never binds), preserving bit-identical aggregates.
    const std::uint64_t cap = cfg_.plane == PlaneMode::Sparse && !sparse_.dense()
                                  ? sparse_.degree()
                                  : kUncapped;
    const std::uint64_t fanout =
        broadcast_fanout(sent, sent_halted, halted_receivers, n, cap);
    const std::uint64_t word_fanout =
        broadcast_fanout(words, words_halted, halted_receivers, n, cap);
    metrics_.honest_messages += fanout;
    metrics_.honest_bits += fanout * wire_bits(Message{}, n) + word_fanout * kWordWireBits;
    if (transcript_) record_sends();
}

void Engine::record_sends() {
    for (NodeId v = 0; v < cfg_.n; ++v) {
        if (buf_.is_honest(v)) {
            const Message* m = buf_.broadcast(v);
            transcript_->record_send(v, m ? std::optional<Message>(*m) : std::nullopt,
                                     true);
        } else {
            transcript_->record_send(v, std::nullopt, false);
        }
    }
}

IntraDispatcher* Engine::shard_dispatcher() const {
    if (cfg_.intra == nullptr || cfg_.reference_delivery) return nullptr;
    return batch_->shardable() ? cfg_.intra : nullptr;
}

void Engine::run_receives() {
    if (cfg_.reference_delivery) {
        const RoundBufferSource src(buf_);
        batch_->receive_all(round_, buf_, src);
        return;
    }
    // The tally is word-packed where its planes are read word-wise: sharded
    // beats (the pack pass splits over the shards) and the sparse plane's
    // per-edge probes. Serial flat beats take the byte-plane sweep, which
    // measured as fast or faster on most serial shapes.
    IntraDispatcher* d = shard_dispatcher();
    const bool sparse = cfg_.plane == PlaneMode::Sparse;
    tally_.rebuild(buf_, sparse || d != nullptr, d);
    if (sparse) {
        // Sparse receive beat: same prepare/range split as the flat sharded
        // path — exact islands (committee coin, king probe) hoist or read
        // from the tally, the per-receiver walk probes sampled edges only.
        sparse_.begin_round(round_, buf_, tally_);
        batch_->receive_sparse_prepare(round_, buf_, tally_, sparse_);
        if (d != nullptr) {
            d->run_shards(cfg_.n, [&](unsigned, NodeId lo, NodeId hi) {
                batch_->receive_sparse_range(round_, buf_, tally_, sparse_, lo, hi);
            });
        } else {
            batch_->receive_sparse_range(round_, buf_, tally_, sparse_, 0, cfg_.n);
        }
        return;
    }
    if (d != nullptr) {
        batch_->receive_prepare(round_, buf_, tally_);
        d->run_shards(cfg_.n, [&](unsigned, NodeId lo, NodeId hi) {
            batch_->receive_range(round_, buf_, tally_, lo, hi);
        });
        return;
    }
    batch_->receive_all(round_, buf_, tally_);
}

RunResult Engine::run() {
    ADBA_EXPECTS_MSG(!ran_, "Engine::run is single-shot (reset() rearms)");
    ran_ = true;

    adversary_->on_start(cfg_.n, cfg_.budget);

    // Watchdog deadline, armed once per run; the clock is only consulted
    // when configured, so unwatched trials pay nothing.
    const auto deadline =
        cfg_.watchdog_ms
            ? std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(cfg_.watchdog_ms)
            : std::chrono::steady_clock::time_point{};

    bool all_halted = false;
    bool timed_out = false;
    for (round_ = 0; round_ < cfg_.max_rounds; ++round_) {
        if (cfg_.beat_probe) cfg_.beat_probe(round_);
        if (transcript_) transcript_->begin_round(round_, cfg_.n);
        buf_.begin_round();

        // Beat 1: honest sends (randomness for this round is drawn here).
        // One dispatch for the whole population, or one per shard when an
        // intra-trial dispatcher is armed (per-node RNG streams are index-
        // seeded, so the draw order inside a shard matches the serial one).
        if (IntraDispatcher* d = shard_dispatcher()) {
            d->run_shards(cfg_.n, [&](unsigned, NodeId lo, NodeId hi) {
                batch_->send_range(round_, buf_, lo, hi);
            });
        } else {
            batch_->send_all(round_, buf_);
        }

        // Beat 2: the rushing adversary observes and acts.
        {
            Ctl ctl(*this);
            adversary_->act(ctl);
        }

        account_sends();

        // Beat 3: deliveries — again one dispatch.
        run_receives();

        metrics_.rounds = round_ + 1;
        if (observer_) {
            const auto* nodes = batch_->nodes();
            ADBA_EXPECTS_MSG(nodes != nullptr,
                             "round observers require a per-node protocol");
            observer_(round_, *nodes, honest_mask_);
        }

        // All-halted check over the contiguous bitplanes: a node is live
        // iff it is honest (buffer state plane) and not halted (batch).
        const std::uint8_t* state = buf_.state_plane();
        const std::uint8_t* halted = batch_->halted_plane();
        all_halted = true;
        for (NodeId v = 0; v < cfg_.n; ++v) {
            if ((state[v] & RoundBuffer::kByzantine) == 0 && halted[v] == 0) {
                all_halted = false;
                break;
            }
        }
        if (all_halted) {
            ++round_;  // count this round as executed
            break;
        }
        if (cfg_.watchdog_ms && std::chrono::steady_clock::now() >= deadline) {
            timed_out = true;
            ++round_;  // this round completed before the guard fired
            break;
        }
    }

    RunResult res;
    res.outputs.resize(cfg_.n, 0);
    res.honest = honest_mask_;
    res.halted.assign(cfg_.n, false);
    const std::uint8_t* halted = batch_->halted_plane();
    for (NodeId v = 0; v < cfg_.n; ++v) {
        if (buf_.is_honest(v)) {
            res.outputs[v] = batch_->output(v);
            res.halted[v] = halted[v] != 0;
        }
    }
    // Honest termination report: the executed round count verbatim (a run
    // that burned its whole cap used to be clamped into looking like a
    // decided one) plus the explicit outcome taxonomy.
    res.rounds = round_;
    res.all_halted = all_halted;
    res.outcome = all_halted  ? TrialOutcome::Decided
                  : timed_out ? TrialOutcome::WatchdogTimeout
                              : TrialOutcome::RoundCapExhausted;
    ADBA_ENSURES_MSG(res.outcome == TrialOutcome::Decided || !res.all_halted,
                     "a non-decided outcome must never read as all-halted");
    res.metrics = metrics_;
    res.transcript = std::move(transcript_);

    // Pooled arenas destroy the per-trial adversary right after run();
    // drop the pointer so the idle engine never holds a dangling reference.
    adversary_ = nullptr;

    ADBA_ENSURES_MSG(budget_used_ <= cfg_.budget, "budget accounting overflow");
    return res;
}

}  // namespace adba::net
