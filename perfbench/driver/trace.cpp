#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/engine.hpp"
#include "net/fused_plane.hpp"
#include "net/sparse_plane.hpp"
#include "rand/rng.hpp"
#include "rand/seed_tree.hpp"
#include "sim/executor.hpp"
#include "sim/faults.hpp"
#include "sim/inputs.hpp"
#include "support/contracts.hpp"

namespace perfbench {

using adba::Bit;
using adba::NodeId;
using adba::Round;
namespace net = adba::net;
namespace sim = adba::sim;

void LayerTrace::merge(const LayerTrace& o) {
    trials += o.trials;
    fused_trials += o.fused_trials;
    setup_ns += o.setup_ns;
    trial_rounds += o.trial_rounds;
    engine_node_rounds += o.engine_node_rounds;
    fused_node_rounds += o.fused_node_rounds;
    dispatches += o.dispatches;
    shard_busy_ns += o.shard_busy_ns;
    shard_capacity_ns += o.shard_capacity_ns;
    shard_overhead_ns += o.shard_overhead_ns;
    engine_ns += o.engine_ns;
    engine_children_ns += o.engine_children_ns;
    block_ns += o.block_ns;
    block_children_ns += o.block_children_ns;
    lane_rounds += o.lane_rounds;
    lane_slots += o.lane_slots;
    sparse_rounds += o.sparse_rounds;
    sparse_prepare_ns += o.sparse_prepare_ns;
    sparse_range_ns += o.sparse_range_ns;
    sparse_probes += o.sparse_probes;
    send_ns += o.send_ns;
    receive_ns += o.receive_ns;
    act_ns += o.act_ns;
    observe_calls += o.observe_calls;
    deliver_cells += o.deliver_cells;
    split_rows += o.split_rows;
}

namespace {

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Set while the current thread runs one shard of a dispatch, so a beat call
/// knows whether it blocks the engine's thread directly or through the
/// dispatch that contains it.
thread_local bool tl_in_shard = false;

/// Beat-call clocks shared by one arena's TimedBatch and TimingDispatcher.
/// Range calls may run on several shard threads at once, hence the atomics;
/// the plain fields are only touched on the engine's thread.
struct BeatClock {
    std::atomic<std::uint64_t> send_ns{0};
    std::atomic<std::uint64_t> receive_ns{0};
    std::atomic<std::uint64_t> sparse_range_ns{0};
    std::atomic<std::uint64_t> shard_calls{0};  ///< beat calls made inside a shard
    /// Time the engine's thread spent blocked in protocol beats: serial beat
    /// calls plus the wall of dispatches that ran beat calls.
    std::uint64_t blocked_ns = 0;
    std::uint64_t sparse_prepare_ns = 0;
    std::uint64_t sparse_rounds = 0;
    double sparse_probes = 0;

    void fold_into(LayerTrace& t) const {
        t.send_ns += send_ns.load(std::memory_order_relaxed);
        t.receive_ns += receive_ns.load(std::memory_order_relaxed);
        t.sparse_range_ns += sparse_range_ns.load(std::memory_order_relaxed);
        t.sparse_prepare_ns += sparse_prepare_ns;
        t.sparse_rounds += sparse_rounds;
        t.sparse_probes += sparse_probes;
    }
};

/// Decorator around the protocol's batch plane (layer `core`): times every
/// beat call and forwards everything else untouched.
class TimedBatch final : public net::BatchProtocol {
public:
    explicit TimedBatch(BeatClock& clock) : clock_(clock) {}

    void wrap(std::unique_ptr<net::BatchProtocol> inner) { inner_ = std::move(inner); }
    /// Hands the wrapped batch back; the registry's reinit hooks need the
    /// concrete batch type, not this decorator.
    std::unique_ptr<net::BatchProtocol> unwrap() { return std::move(inner_); }

    NodeId n() const override { return inner_->n(); }
    void send_all(Round r, net::RoundBuffer& buf) override {
        timed(clock_.send_ns, [&] { inner_->send_all(r, buf); });
    }
    void receive_all(Round r, const net::RoundBuffer& buf,
                     const net::RoundTally& tally) override {
        timed(clock_.receive_ns, [&] { inner_->receive_all(r, buf, tally); });
    }
    void receive_all(Round r, const net::RoundBuffer& buf,
                     const net::DeliverySource& src) override {
        timed(clock_.receive_ns, [&] { inner_->receive_all(r, buf, src); });
    }
    bool shardable() const override { return inner_->shardable(); }
    void send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) override {
        timed(clock_.send_ns, [&] { inner_->send_range(r, buf, lo, hi); });
    }
    void receive_prepare(Round r, const net::RoundBuffer& buf,
                         const net::RoundTally& tally) override {
        timed(clock_.receive_ns, [&] { inner_->receive_prepare(r, buf, tally); });
    }
    void receive_range(Round r, const net::RoundBuffer& buf, const net::RoundTally& tally,
                       NodeId lo, NodeId hi) override {
        timed(clock_.receive_ns, [&] { inner_->receive_range(r, buf, tally, lo, hi); });
    }
    bool supports_sparse() const override { return inner_->supports_sparse(); }
    void receive_sparse_prepare(Round r, const net::RoundBuffer& buf,
                                const net::RoundTally& tally,
                                const net::SparsePlane& sparse) override {
        // Live receivers are counted before the timed span: each probes
        // `degree` sampled senders in the range calls that follow.
        const std::uint8_t* state = buf.state_plane();
        const std::uint8_t* halted = inner_->halted_plane();
        std::uint64_t live = 0;
        for (NodeId v = 0, n = inner_->n(); v < n; ++v)
            live += (state[v] & net::RoundBuffer::kByzantine) == 0 && halted[v] == 0;
        clock_.sparse_probes += static_cast<double>(live) * sparse.degree();
        ++clock_.sparse_rounds;
        clock_.sparse_prepare_ns += timed(clock_.receive_ns, [&] {
            inner_->receive_sparse_prepare(r, buf, tally, sparse);
        });
    }
    void receive_sparse_range(Round r, const net::RoundBuffer& buf,
                              const net::RoundTally& tally, const net::SparsePlane& sparse,
                              NodeId lo, NodeId hi) override {
        const std::uint64_t d = timed(clock_.receive_ns, [&] {
            inner_->receive_sparse_range(r, buf, tally, sparse, lo, hi);
        });
        clock_.sparse_range_ns.fetch_add(d, std::memory_order_relaxed);
    }
    const std::uint8_t* halted_plane() const override { return inner_->halted_plane(); }
    Bit value(NodeId v) const override { return inner_->value(v); }
    bool decided(NodeId v) const override { return inner_->decided(v); }
    Bit output(NodeId v) const override { return inner_->output(v); }
    const std::vector<std::unique_ptr<net::HonestNode>>* nodes() const override {
        return inner_->nodes();
    }

private:
    template <typename F>
    std::uint64_t timed(std::atomic<std::uint64_t>& acc, F&& call) {
        const std::uint64_t t0 = now_ns();
        call();
        const std::uint64_t d = now_ns() - t0;
        acc.fetch_add(d, std::memory_order_relaxed);
        if (tl_in_shard)
            clock_.shard_calls.fetch_add(1, std::memory_order_relaxed);
        else
            clock_.blocked_ns += d;
        return d;
    }

    BeatClock& clock_;
    std::unique_ptr<net::BatchProtocol> inner_;
};

/// Decorator around the arena's ShardPool (layer `sim.shard`): times each
/// dispatch and each shard inside it. A dispatch that ran protocol beat
/// calls blocks the engine on the protocol; one that did not (the packed
/// tally build) is the engine's own work.
class TimingDispatcher final : public net::IntraDispatcher {
public:
    TimingDispatcher(net::IntraDispatcher& inner, unsigned workers, BeatClock& clock,
                     LayerTrace& trace)
        : inner_(inner), workers_(workers), clock_(clock), trace_(trace) {}

    unsigned shards() const override { return inner_.shards(); }

    void run_shards(NodeId n,
                    const std::function<void(unsigned, NodeId, NodeId)>& fn) override {
        shard_ns_.assign(inner_.shards(), 0);
        const std::uint64_t calls_before = clock_.shard_calls.load(std::memory_order_relaxed);
        const std::uint64_t t0 = now_ns();
        inner_.run_shards(n, [&](unsigned s, NodeId lo, NodeId hi) {
            struct InShard {
                InShard() { tl_in_shard = true; }
                ~InShard() { tl_in_shard = false; }
            } in_shard;
            const std::uint64_t a = now_ns();
            fn(s, lo, hi);
            shard_ns_[s] = now_ns() - a;  // one writer per shard index
        });
        const std::uint64_t wall = now_ns() - t0;
        std::uint64_t busy = 0, longest = 0;
        for (const std::uint64_t d : shard_ns_) {
            busy += d;
            longest = std::max(longest, d);
        }
        ++trace_.dispatches;
        trace_.shard_busy_ns += busy;
        trace_.shard_capacity_ns += wall * workers_;
        trace_.shard_overhead_ns += wall - std::min(wall, longest);
        if (clock_.shard_calls.load(std::memory_order_relaxed) != calls_before)
            clock_.blocked_ns += wall;
    }

private:
    net::IntraDispatcher& inner_;
    const unsigned workers_;
    BeatClock& clock_;
    LayerTrace& trace_;
    std::vector<std::uint64_t> shard_ns_;
};

/// RoundControl decorator (layer `adversary`): counts observation calls,
/// per-cell deliveries and split rows, forwarding each unchanged.
class CountingControl final : public net::RoundControl {
public:
    CountingControl(net::RoundControl& inner, LayerTrace& trace)
        : inner_(inner), trace_(&trace) {}

    Round round() const override {
        observe();
        return inner_.round();
    }
    NodeId n() const override {
        observe();
        return inner_.n();
    }
    Count budget_left() const override {
        observe();
        return inner_.budget_left();
    }
    bool is_honest(NodeId v) const override {
        observe();
        return inner_.is_honest(v);
    }
    bool is_halted(NodeId v) const override {
        observe();
        return inner_.is_halted(v);
    }
    const net::Message* intended_broadcast(NodeId v) const override {
        observe();
        return inner_.intended_broadcast(v);
    }
    Bit current_value(NodeId v) const override {
        observe();
        return inner_.current_value(v);
    }
    bool current_decided(NodeId v) const override {
        observe();
        return inner_.current_decided(v);
    }
    std::optional<net::Message> corrupt(NodeId v) override { return inner_.corrupt(v); }
    void deliver_as(NodeId byz_from, NodeId to, const net::Message& m) override {
        ++trace_->deliver_cells;
        inner_.deliver_as(byz_from, to, m);
    }
    void split_as(NodeId byz_from, const std::optional<net::Message>& low,
                  const std::optional<net::Message>& high, NodeId boundary) override {
        ++trace_->split_rows;
        inner_.split_as(byz_from, low, high, boundary);
    }

private:
    void observe() const { ++trace_->observe_calls; }

    net::RoundControl& inner_;
    LayerTrace* trace_;
};

/// Adversary time on one execution plane: act() and on_start().
struct AdversaryClock {
    std::uint64_t act_ns = 0;
    std::uint64_t start_ns = 0;
};

/// Adversary decorator: times act/on_start and hands the strategy a
/// CountingControl in place of the plane's RoundControl.
class TimedAdversary final : public net::Adversary {
public:
    TimedAdversary(AdversaryClock& clock, LayerTrace& trace) : clock_(clock), trace_(trace) {}

    void wrap(net::Adversary* inner) { inner_ = inner; }

    void on_start(NodeId n, Count budget) override {
        const std::uint64_t t0 = now_ns();
        inner_->on_start(n, budget);
        clock_.start_ns += now_ns() - t0;
    }
    void act(net::RoundControl& ctl) override {
        CountingControl counted(ctl, trace_);
        const std::uint64_t t0 = now_ns();
        inner_->act(counted);
        clock_.act_ns += now_ns() - t0;
    }

private:
    AdversaryClock& clock_;
    LayerTrace& trace_;
    net::Adversary* inner_ = nullptr;
};

/// Decorator around the 64-lane fused protocol (layer `core` on the fused
/// plane): times the send and receive beats.
class TimedFused final : public net::FusedProtocol {
public:
    TimedFused(std::unique_ptr<net::FusedProtocol> inner, LayerTrace& trace)
        : inner_(std::move(inner)), trace_(trace) {}

    NodeId n() const override { return inner_->n(); }
    void rearm(const std::uint64_t* input_plane, const adba::SeedTree* lane_seeds) override {
        inner_->rearm(input_plane, lane_seeds);
    }
    void send_round(Round r, net::FusedFrame& frame) override {
        const std::uint64_t t0 = now_ns();
        inner_->send_round(r, frame);
        const std::uint64_t d = now_ns() - t0;
        trace_.send_ns += d;
        beats_ns += d;
    }
    void receive_round(Round r, const net::FusedFrame& frame) override {
        const std::uint64_t t0 = now_ns();
        inner_->receive_round(r, frame);
        const std::uint64_t d = now_ns() - t0;
        trace_.receive_ns += d;
        beats_ns += d;
    }
    const std::uint64_t* value_plane() const override { return inner_->value_plane(); }
    const std::uint64_t* decided_plane() const override { return inner_->decided_plane(); }
    const std::uint64_t* halted_plane() const override { return inner_->halted_plane(); }

    std::uint64_t beats_ns = 0;

private:
    std::unique_ptr<net::FusedProtocol> inner_;
    LayerTrace& trace_;
};

/// The binary workload's per-chunk arena (sim/runner.cpp), re-composed from
/// the registry hooks with the decorators above spliced into each seam.
/// Batch-plane trials and fused blocks only — the benchmark's workloads.
class TracedArena {
public:
    TracedArena(const sim::ScenarioPlan& plan, LayerTrace& trace)
        : plan_(plan), trace_(trace), batch_(std::make_unique<TimedBatch>(clock_)),
          adversary_(engine_adv_, trace) {
        ADBA_EXPECTS_MSG(plan_.scenario.use_batch && plan_.protocol->make_batch,
                         "the traced executor drives the native batch plane only");
        lanes_.reserve(net::kFusedLanes);
        for (unsigned j = 0; j < net::kFusedLanes; ++j) lanes_.emplace_back(fused_adv_, trace);
    }
    TracedArena(const TracedArena&) = delete;
    TracedArena& operator=(const TracedArena&) = delete;

    ~TracedArena() {
        clock_.fold_into(trace_);
        trace_.engine_children_ns +=
            clock_.blocked_ns + engine_adv_.act_ns + engine_adv_.start_ns;
        trace_.block_children_ns += (fused_ ? fused_->beats_ns : 0) + fused_adv_.act_ns +
                                    fused_adv_.start_ns;
        trace_.act_ns += engine_adv_.act_ns + fused_adv_.act_ns;
    }

    bool fused_active() const { return plan_.scenario.use_fused; }

    sim::TrialResult run(std::uint64_t seed) {
        const std::uint64_t t_enter = now_ns();
        const sim::Scenario& s = plan_.scenario;
        const adba::SeedTree seeds(seed);
        sim::make_inputs(s.inputs, s.n, seeds, inputs_);
        if (!have_bundle_) {
            bundle_ = plan_.protocol->make_batch(s, inputs_, seeds);
            have_bundle_ = true;
        } else if (plan_.protocol->reinit_batch) {
            plan_.protocol->reinit_batch(s, inputs_, seeds, bundle_);
        } else {
            bundle_.batch = plan_.protocol->make_batch(s, inputs_, seeds).batch;
        }
        const auto adversary = plan_.adversary->make_adversary(s, bundle_, seeds);

        net::EngineConfig cfg;
        cfg.n = s.n;
        cfg.budget = s.t;
        cfg.max_rounds =
            s.max_rounds_override ? s.max_rounds_override : bundle_.default_max_rounds;
        cfg.record_transcript = s.record_transcript;
        cfg.reference_delivery = s.reference_delivery;
        cfg.simd_tally = s.use_simd;
        if (s.sparse_plane) {
            cfg.plane = net::PlaneMode::Sparse;
            cfg.sample_degree = s.sample_degree;
            cfg.sparse_seed = seeds.seed(adba::StreamPurpose::SparseTopology, s.sparse_seed);
            cfg.sparse_stream = s.sparse_stream;
        }
        cfg.watchdog_ms = s.watchdog_ms;
        if (s.use_shard) {
            const unsigned shards = sim::plan_intra_shards(s.intra_threads, s.n);
            if (shards > 1) {
                if (!pool_ || pool_->shards() != shards) {
                    dispatcher_.reset();
                    pool_ = std::make_unique<sim::ShardPool>(shards, sim::default_threads());
                    dispatcher_ = std::make_unique<TimingDispatcher>(*pool_, pool_->workers(),
                                                                     clock_, trace_);
                }
                cfg.intra = dispatcher_.get();
            }
        }

        batch_->wrap(std::move(bundle_.batch));
        adversary_.wrap(adversary.get());
        if (engine_)
            engine_->reset(cfg, std::move(batch_), adversary_);
        else
            engine_.emplace(cfg, std::move(batch_), adversary_);
        const std::uint64_t t_run = now_ns();
        const net::RunResult run = engine_->run();
        const std::uint64_t run_ns = now_ns() - t_run;
        batch_.reset(static_cast<TimedBatch*>(engine_->take_batch().release()));
        bundle_.batch = batch_->unwrap();

        sim::TrialResult res;
        res.agreement = run.agreement();
        res.agreed_value = run.agreed_value();
        res.validity_applicable = sim::unanimous(inputs_);
        res.validity_ok = !res.validity_applicable ||
                          (res.agreement && res.agreed_value &&
                           *res.agreed_value == inputs_.front());
        res.all_halted = run.all_halted;
        res.rounds = run.rounds;
        res.outcome = run.outcome;
        res.metrics = run.metrics;
        res.phases_configured = bundle_.phases;

        const double node_rounds = static_cast<double>(s.n) * run.rounds;
        trace_.trial_rounds += run.rounds;
        trace_.engine_node_rounds += node_rounds;
        trace_.engine_ns += run_ns;
        trace_.setup_ns += now_ns() - t_enter - run_ns;
        return res;
    }

    void run_fused(const std::uint64_t* trial_seeds, sim::TrialResult* out) {
        const std::uint64_t t_enter = now_ns();
        const sim::Scenario& s = plan_.scenario;
        const NodeId n = s.n;
        if (!fused_) {
            fused_ = std::make_unique<TimedFused>(plan_.protocol->make_fused(s), trace_);
            const sim::BudgetHint hint = plan_.protocol->budgets(s);
            fused_meta_.phases = hint.phases;
            fused_meta_.default_max_rounds = hint.max_rounds;
            if (plan_.protocol->schedule_of) fused_meta_.schedule = plan_.protocol->schedule_of(s);
        }

        lane_seeds_.clear();
        lane_seeds_.reserve(net::kFusedLanes);
        fused_inputs_.assign(n, 0);
        std::uint64_t unan = 0, front = 0;
        net::Adversary* advs[net::kFusedLanes];
        for (unsigned j = 0; j < net::kFusedLanes; ++j) {
            lane_seeds_.emplace_back(trial_seeds[j]);
            sim::make_inputs(s.inputs, n, lane_seeds_.back(), inputs_);
            for (NodeId v = 0; v < n; ++v)
                fused_inputs_[v] |= std::uint64_t{inputs_[v] & 1u} << j;
            if (sim::unanimous(inputs_)) unan |= std::uint64_t{1} << j;
            front |= std::uint64_t{inputs_.front() & 1u} << j;
            lane_advs_[j] = plan_.adversary->make_adversary(s, fused_meta_, lane_seeds_.back());
            lanes_[j].wrap(lane_advs_[j].get());
            advs[j] = &lanes_[j];
        }
        fused_->rearm(fused_inputs_.data(), lane_seeds_.data());

        const Round max_rounds =
            s.max_rounds_override ? s.max_rounds_override : fused_meta_.default_max_rounds;
        net::FusedLaneResult lanes[net::kFusedLanes];
        const std::uint64_t t_run = now_ns();
        block_.run(*fused_, advs, s.t, max_rounds, lanes);
        const std::uint64_t run_ns = now_ns() - t_run;

        const std::uint64_t* byz = block_.byz_plane();
        const std::uint64_t* val = fused_->value_plane();
        std::uint64_t any0 = 0, any1 = 0;
        for (NodeId v = 0; v < n; ++v) {
            any0 |= ~byz[v] & ~val[v];
            any1 |= ~byz[v] & val[v];
        }
        Round block_rounds = 0;
        std::uint64_t lane_rounds = 0;
        for (unsigned j = 0; j < net::kFusedLanes; ++j) {
            const std::uint64_t bit = std::uint64_t{1} << j;
            sim::TrialResult& res = out[j];
            res = sim::TrialResult{};
            res.agreement = (any0 & any1 & bit) == 0;
            if (res.agreement) res.agreed_value = static_cast<Bit>((any1 & bit) != 0 ? 1 : 0);
            res.validity_applicable = (unan & bit) != 0;
            res.validity_ok =
                !res.validity_applicable ||
                (res.agreement && res.agreed_value &&
                 *res.agreed_value == static_cast<Bit>((front & bit) != 0 ? 1 : 0));
            res.all_halted = lanes[j].all_halted;
            res.rounds = lanes[j].rounds;
            res.outcome = lanes[j].outcome;
            res.metrics = lanes[j].metrics;
            res.phases_configured = fused_meta_.phases;
            lane_advs_[j].reset();
            block_rounds = std::max(block_rounds, lanes[j].rounds);
            lane_rounds += lanes[j].rounds;
        }

        const double node_rounds = static_cast<double>(n) * static_cast<double>(lane_rounds);
        trace_.fused_trials += net::kFusedLanes;
        trace_.trial_rounds += lane_rounds;
        trace_.fused_node_rounds += node_rounds;
        trace_.lane_rounds += lane_rounds;
        trace_.lane_slots += std::uint64_t{net::kFusedLanes} * block_rounds;
        trace_.block_ns += run_ns;
        trace_.setup_ns += now_ns() - t_enter - run_ns;
    }

private:
    const sim::ScenarioPlan& plan_;
    LayerTrace& trace_;
    BeatClock clock_;
    AdversaryClock engine_adv_;
    AdversaryClock fused_adv_;

    std::vector<Bit> inputs_;
    sim::ProtocolBundle bundle_;
    bool have_bundle_ = false;
    std::unique_ptr<TimedBatch> batch_;  ///< null while the engine holds it
    TimedAdversary adversary_;
    std::unique_ptr<sim::ShardPool> pool_;
    std::unique_ptr<TimingDispatcher> dispatcher_;
    std::optional<net::Engine> engine_;

    std::unique_ptr<TimedFused> fused_;
    net::FusedBlock block_;
    sim::ProtocolBundle fused_meta_;
    std::vector<std::uint64_t> fused_inputs_;
    std::vector<adba::SeedTree> lane_seeds_;
    std::unique_ptr<net::Adversary> lane_advs_[net::kFusedLanes];
    std::vector<TimedAdversary> lanes_;
};

}  // namespace

sim::Aggregate run_traced(const sim::ScenarioPlan& plan, std::uint64_t base_seed,
                          Count trials, unsigned threads, LayerTrace& trace) {
    using W = sim::BinaryWorkload;
    ADBA_EXPECTS_MSG(sim::FaultInjector::active() == nullptr,
                     "the traced executor mirrors the fault-free chunk path only");
    const auto run_chunk = [&](Count begin, Count end, LayerTrace& lt) {
        sim::Aggregate part;
        part.trials = end - begin;
        W::reserve(part, end - begin);
        TracedArena arena(plan, lt);
        Count i = begin;
        if (arena.fused_active()) {
            std::uint64_t lane_seeds[net::kFusedLanes];
            sim::TrialResult lane_out[net::kFusedLanes];
            while (end - i >= net::kFusedLanes) {
                for (unsigned j = 0; j < net::kFusedLanes; ++j)
                    lane_seeds[j] = adba::mix64(base_seed + W::kSeedStride * (i + j));
                arena.run_fused(lane_seeds, lane_out);
                for (const sim::TrialResult& r : lane_out) W::accumulate(part, r);
                i += net::kFusedLanes;
            }
        }
        for (; i < end; ++i)
            W::accumulate(part, arena.run(adba::mix64(base_seed + W::kSeedStride * i)));
        lt.trials += end - begin;
        return part;
    };

    if (trials == 0) return {};
    const Count chunk = sim::detail::auto_chunk(trials);
    if (threads <= 1 || trials <= chunk) return run_chunk(0, trials, trace);

    const std::size_t num_chunks = (static_cast<std::size_t>(trials) + chunk - 1) / chunk;
    std::vector<std::optional<sim::Aggregate>> partials(num_chunks);
    std::vector<LayerTrace> traces(num_chunks);
    sim::detail::for_each_chunk(trials, chunk, threads,
                                [&](std::size_t ci, Count begin, Count end) {
                                    partials[ci].emplace(run_chunk(begin, end, traces[ci]));
                                });
    sim::Aggregate out = std::move(*partials.front());
    for (std::size_t ci = 1; ci < num_chunks; ++ci) out.merge(*partials[ci]);
    for (const LayerTrace& lt : traces) trace.merge(lt);
    return out;
}

}  // namespace perfbench
