// Delivery-plane tests: the flat RoundBuffer/RoundTally path must be
// BIT-IDENTICAL to the reference virtual-dispatch path (per-sender loops
// over a DeliverySource) for every compatible (protocol, adversary) registry
// pair, at any thread count; plus pattern-row mechanics and the halted-
// receiver message-accounting contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "net/engine.hpp"
#include "net/round_buffer.hpp"
#include "rand/rng.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "support/contracts.hpp"

namespace adba {
namespace {

using net::Message;
using net::MsgKind;

// ---------------------------------------------------------------------------
// Old-vs-new equivalence over the full registry cross product.

void expect_samples_eq(const Samples& a, const Samples& b, const char* what) {
    ASSERT_EQ(a.count(), b.count()) << what;
    const auto& xs = a.values();
    const auto& ys = b.values();
    for (std::size_t i = 0; i < xs.size(); ++i)
        ASSERT_EQ(xs[i], ys[i]) << what << " sample " << i;
}

void expect_aggregate_eq(const sim::Aggregate& a, const sim::Aggregate& b) {
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.agreement_failures, b.agreement_failures);
    EXPECT_EQ(a.validity_failures, b.validity_failures);
    EXPECT_EQ(a.not_halted, b.not_halted);
    expect_samples_eq(a.rounds, b.rounds, "rounds");
    expect_samples_eq(a.messages, b.messages, "messages");
    expect_samples_eq(a.bits, b.bits, "bits");
    expect_samples_eq(a.corruptions, b.corruptions, "corruptions");
}

/// Largest t the protocol's resilience predicate admits at n (0 if none).
Count max_t(const sim::ProtocolEntry& p, NodeId n) {
    Count t = (n - 1) / 3;
    while (t > 0 && !p.supports(n, t)) --t;
    return t;
}

TEST(DeliveryPlaneEquivalence, AllRegistryPairsFlatMatchesReference) {
    const NodeId n = 25;
    // ADBA_FORCE_SPARSE=1 (the sanitizer CI pass) reruns the cross product
    // with the sparse plane in dense oracle mode: the reference comparison
    // below then pins sparse == reference through an entirely different
    // receive path, under ASan/UBSan.
    const bool force_sparse = std::getenv("ADBA_FORCE_SPARSE") != nullptr;
    Count covered = 0;
    for (const sim::ProtocolEntry* p : sim::ProtocolRegistry::instance().list()) {
        for (const sim::AdversaryEntry* a : sim::AdversaryRegistry::instance().list()) {
            sim::Scenario s;
            s.protocol = p->kind;
            s.adversary = a->kind;
            s.n = n;
            s.t = max_t(*p, n);
            s.inputs = sim::InputPattern::Split;
            s.local_coin_phases = 12;  // keep the private-coin runs bounded
            // The scalar flat plane is the subject; fused blocks have their
            // own equivalence suite (test_fused_plane.cpp).
            s.use_fused = false;
            if (force_sparse) {
                s.sparse_plane = true;
                s.sample_degree = n;  // dense: bit-identical to flat
            }
            if (!sim::compatible(s)) continue;
            ++covered;
            SCOPED_TRACE(p->name + " vs " + a->name);

            const sim::ExecutorConfig serial{1, 0};
            const sim::Aggregate flat = sim::run_trials(s, 0xD1CE, 6, serial);

            sim::Scenario ref = s;
            ref.sparse_plane = false;  // sparse has no reference form
            ref.sample_degree = 0;
            ref.reference_delivery = true;
            const sim::Aggregate oracle = sim::run_trials(ref, 0xD1CE, 6, serial);
            expect_aggregate_eq(flat, oracle);

            // Thread-count invariance of the flat path (arena re-arming must
            // be exact across any chunking).
            const sim::Aggregate par = sim::run_trials(s, 0xD1CE, 6, {8, 2});
            expect_aggregate_eq(flat, par);
        }
    }
    // 9 protocols x 9 adversaries minus the schedule/targeting constraints
    // (8 sparse-capable protocols when the force flag drops sampling-majority).
    EXPECT_GE(covered, force_sparse ? 45u : 50u) << "registry coverage unexpectedly low";
}

TEST(DeliveryPlaneEquivalence, ArenaReuseMatchesFreshTrials) {
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::WorstCase;
    s.n = 28;
    s.t = 9;
    s.inputs = sim::InputPattern::Random;
    s.use_fused = false;  // the pooled scalar arena is the subject

    const Count trials = 10;
    const sim::Aggregate pooled = sim::run_trials(s, 0xABBA, trials, {1, 0});
    ASSERT_EQ(pooled.rounds.count(), trials);
    for (Count i = 0; i < trials; ++i) {
        // run_trial builds everything from scratch; the pooled arena must
        // reproduce it bit for bit at every index.
        const sim::TrialResult fresh =
            sim::run_trial(s, mix64(0xABBA + 0x100000001b3ULL * i));
        EXPECT_EQ(pooled.rounds.values()[i], static_cast<double>(fresh.rounds)) << i;
        EXPECT_EQ(pooled.messages.values()[i],
                  static_cast<double>(fresh.metrics.honest_messages))
            << i;
        EXPECT_EQ(pooled.corruptions.values()[i],
                  static_cast<double>(fresh.metrics.corruptions))
            << i;
    }
}

TEST(DeliveryPlaneEquivalence, ScenarioReferenceKeyRoundTrips) {
    sim::Scenario s;
    s.n = 16;
    s.t = 5;
    s.reference_delivery = true;
    const sim::Scenario parsed = sim::Scenario::parse(s.describe());
    EXPECT_EQ(parsed, s);
    EXPECT_FALSE(sim::Scenario::parse("n=16 t=5").reference_delivery);
}

// ---------------------------------------------------------------------------
// Tally queries: flat answers vs the per-sender executable spec, under
// randomized buffer contents (dense rows, pattern rows, garbage kinds).

TEST(DeliveryPlaneTally, RandomizedBufferMatchesAdapterSpec) {
    Xoshiro256 rng(2024);
    for (int iter = 0; iter < 50; ++iter) {
        const NodeId n = 6 + static_cast<NodeId>(rng.below(20));
        net::RoundBuffer buf;
        buf.reset(n);
        buf.begin_round();
        for (NodeId v = 0; v < n; ++v) {
            if (rng.bernoulli(0.2)) {  // Byzantine sender
                buf.corrupt(v);
                const double shape = rng.uniform01();
                Message m;
                m.kind = static_cast<MsgKind>(rng.below(8));
                m.phase = static_cast<Phase>(rng.below(3));
                m.val = static_cast<Bit>(rng.below(2));
                m.flag = static_cast<std::uint8_t>(rng.below(2));
                m.coin = static_cast<CoinSign>(static_cast<std::int64_t>(rng.below(5)) - 2);
                m.word = static_cast<net::Word>(rng.below(4));
                if (shape < 0.4) {  // pattern row
                    Message m2 = m;
                    m2.val = static_cast<Bit>(rng.below(2));
                    m2.coin = static_cast<CoinSign>(rng.below(3)) - 1;
                    m2.word = static_cast<net::Word>(rng.below(4));
                    buf.apply_pattern(v, &m, rng.bernoulli(0.7) ? &m2 : nullptr,
                                      static_cast<NodeId>(rng.below(n + 1)));
                } else if (shape < 0.8) {  // dense row
                    for (NodeId to = 0; to < n; ++to) {
                        if (!rng.bernoulli(0.6)) continue;
                        Message cell = m;
                        cell.val = static_cast<Bit>(rng.below(2));
                        cell.phase = static_cast<Phase>(rng.below(3));
                        buf.deliver(v, to, cell);
                    }
                }  // else: silent Byzantine
            } else if (rng.bernoulli(0.8)) {  // honest broadcast
                Message m;
                m.kind = rng.bernoulli(0.5) ? MsgKind::Vote2 : MsgKind::TCEcho;
                // Mixed phases per kind: exercises the multi-bucket merge in
                // the word queries (never produced by lockstep protocols).
                m.phase = static_cast<Phase>(rng.below(2));
                m.val = static_cast<Bit>(rng.below(2));
                m.flag = static_cast<std::uint8_t>(rng.below(2));
                m.coin = static_cast<CoinSign>(static_cast<std::int64_t>(rng.below(3)) - 1);
                m.word = static_cast<net::Word>(rng.below(4));
                buf.set_broadcast(v, m);
            }
        }

        net::RoundTally tally;
        tally.rebuild(buf);
        const net::RoundBufferSource src(buf);
        for (NodeId recv = 0; recv < n; ++recv) {
            const net::ReceiveView flat(buf, tally, recv);
            const net::ReceiveView spec(src, recv);
            for (NodeId u = 0; u < n; ++u) {
                const Message* a = flat.from(u);
                const Message* b = spec.from(u);
                ASSERT_EQ(a == nullptr, b == nullptr);
                if (a) ASSERT_EQ(*a, *b);
            }
            // Bulk iteration must visit exactly the non-silent senders, in
            // order, on both backends.
            std::vector<std::pair<NodeId, Message>> bulk_flat, bulk_spec;
            flat.for_each_delivery(
                [&](NodeId u, const Message& m) { bulk_flat.emplace_back(u, m); });
            spec.for_each_delivery(
                [&](NodeId u, const Message& m) { bulk_spec.emplace_back(u, m); });
            ASSERT_EQ(bulk_flat, bulk_spec);
            for (const MsgKind kind : {MsgKind::Vote1, MsgKind::Vote2, MsgKind::TCEcho}) {
                for (const Phase ph : {Phase{0}, Phase{1}}) {
                    ASSERT_EQ(flat.val_counts(kind, ph, false),
                              spec.val_counts(kind, ph, false));
                    ASSERT_EQ(flat.val_counts(kind, ph, true),
                              spec.val_counts(kind, ph, true));
                    const NodeId first = static_cast<NodeId>(rng.below(n));
                    const NodeId last =
                        first + static_cast<NodeId>(rng.below(n - first + 1));
                    ASSERT_EQ(flat.coin_sum(kind, ph, true, first, last),
                              spec.coin_sum(kind, ph, true, first, last));
                    ASSERT_EQ(flat.coin_sum(kind, ph, false, 0, n),
                              spec.coin_sum(kind, ph, false, 0, n));
                }
                ASSERT_EQ(flat.plurality_word(kind, false),
                          spec.plurality_word(kind, false));
                ASSERT_EQ(flat.plurality_word(kind, true),
                          spec.plurality_word(kind, true));
                // Quorum above n/2: two quorum words would need > n messages,
                // so the uniqueness contract cannot fire on random content.
                const Count q = n / 2 + 2;
                ASSERT_EQ(flat.quorum_word(kind, true, q), spec.quorum_word(kind, true, q));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pattern-row mechanics through the engine.

class InboxNode final : public net::HonestNode {
public:
    InboxNode(NodeId self, Round live) : self_(self), live_(live) {}

    std::optional<Message> round_send(Round r) override {
        Message m;
        m.kind = MsgKind::Vote1;
        m.val = static_cast<Bit>(self_ % 2);
        m.phase = r;
        return m;
    }
    void round_receive(Round r, const net::ReceiveView& view) override {
        inbox_.assign(view.n(), std::nullopt);
        for (NodeId u = 0; u < view.n(); ++u)
            if (const Message* m = view.from(u)) inbox_[u] = *m;
        if (r + 1 >= live_) halted_ = true;
    }
    bool halted() const override { return halted_; }
    Bit current_value() const override { return static_cast<Bit>(self_ % 2); }

    std::vector<std::optional<Message>> inbox_;

private:
    NodeId self_;
    Round live_;
    bool halted_ = false;
};

class ScriptAdversary final : public net::Adversary {
public:
    using Fn = std::function<void(net::RoundControl&)>;
    explicit ScriptAdversary(Fn fn) : fn_(std::move(fn)) {}
    void act(net::RoundControl& ctl) override { fn_(ctl); }

private:
    Fn fn_;
};

std::vector<std::unique_ptr<net::HonestNode>> inbox_nodes(NodeId n, Round live,
                                                          std::vector<InboxNode*>* raw) {
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    for (NodeId v = 0; v < n; ++v) {
        auto p = std::make_unique<InboxNode>(v, live);
        if (raw) raw->push_back(p.get());
        nodes.push_back(std::move(p));
    }
    return nodes;
}

TEST(DeliveryPlanePatterns, SplitAsDeliversThresholdEquivocation) {
    std::vector<InboxNode*> raw;
    ScriptAdversary adv([](net::RoundControl& ctl) {
        if (ctl.round() != 0) return;
        ctl.corrupt(3);
        Message low;
        low.kind = MsgKind::Vote2;
        low.val = 0;
        Message high = low;
        high.val = 1;
        ctl.split_as(3, low, high, 2);
    });
    net::Engine eng({5, 1, 1, false}, inbox_nodes(5, 1, &raw), adv);
    const net::RunResult res = eng.run();
    EXPECT_EQ(res.metrics.byzantine_messages, 5u);
    for (NodeId v = 0; v < 5; ++v) {
        if (v == 3) continue;  // the corrupted node takes no deliveries
        ASSERT_TRUE(raw[v]->inbox_[3].has_value());
        EXPECT_EQ(raw[v]->inbox_[3]->val, v < 2 ? 0 : 1) << "receiver " << v;
    }
}

TEST(DeliveryPlanePatterns, SplitWithSilentSideAndDenseMerge) {
    std::vector<InboxNode*> raw;
    ScriptAdversary adv([](net::RoundControl& ctl) {
        if (ctl.round() != 0) return;
        ctl.corrupt(0);
        Message m;
        m.kind = MsgKind::Vote1;
        m.val = 1;
        // Prefix-only delivery (crash shape): receivers 0..2 get m.
        ctl.split_as(0, m, std::nullopt, 3);
        // Dense overwrite on top of a pattern row must merge, not reset.
        Message late;
        late.kind = MsgKind::Vote2;
        late.val = 0;
        ctl.deliver_as(0, 4, late);
    });
    net::Engine eng({6, 1, 1, false}, inbox_nodes(6, 1, &raw), adv);
    const net::RunResult res = eng.run();
    EXPECT_EQ(res.metrics.byzantine_messages, 4u);  // 3 prefix + 1 late
    EXPECT_TRUE(raw[2]->inbox_[0].has_value());
    EXPECT_FALSE(raw[3]->inbox_[0].has_value());
    ASSERT_TRUE(raw[4]->inbox_[0].has_value());
    EXPECT_EQ(raw[4]->inbox_[0]->kind, MsgKind::Vote2);
}

TEST(DeliveryPlanePatterns, BroadcastAsCountsOnlyFreshSlots) {
    ScriptAdversary adv([](net::RoundControl& ctl) {
        if (ctl.round() != 0) return;
        ctl.corrupt(0);
        Message m;
        m.kind = MsgKind::Vote1;
        ctl.broadcast_as(0, m);
        ctl.broadcast_as(0, m);  // second blanket covers nothing new
    });
    net::Engine eng({4, 1, 1, false}, inbox_nodes(4, 1, nullptr), adv);
    const net::RunResult res = eng.run();
    EXPECT_EQ(res.metrics.byzantine_messages, 4u);
}

// ---------------------------------------------------------------------------
// Metrics: honest fanout excludes receivers that already terminated.

TEST(DeliveryPlaneMetrics, FanoutExcludesHaltedReceivers) {
    // Node v halts after round v+1's deliveries, so round r has (4 - r) live
    // senders and r halted receivers: fanout per sender is 3 - r.
    //   round 0: 4 senders x 3 = 12      round 2: 2 x 1 = 2
    //   round 1: 3 senders x 2 = 6       round 3: 1 x 0 = 0
    net::NullAdversary adv;
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    for (NodeId v = 0; v < 4; ++v) nodes.push_back(std::make_unique<InboxNode>(v, v + 1));
    net::Engine eng({4, 0, 8, false}, std::move(nodes), adv);
    const net::RunResult res = eng.run();
    EXPECT_TRUE(res.all_halted);
    EXPECT_EQ(res.rounds, 4u);
    EXPECT_EQ(res.metrics.honest_messages, 20u);
    // Vote1 at n=4 is 8 + ceil(log2 5) = 11 bits on the wire.
    EXPECT_EQ(res.metrics.honest_bits, 20u * 11u);
}

TEST(DeliveryPlaneMetrics, UniformLifetimesKeepFullFanout) {
    // No one halts before the last delivery beat: accounting must match the
    // classic n*(n-1) per round exactly (regression guard for the halted-
    // receiver fix not over-subtracting).
    net::NullAdversary adv;
    net::Engine eng({5, 0, 3, false}, inbox_nodes(5, 3, nullptr), adv);
    const net::RunResult res = eng.run();
    EXPECT_EQ(res.metrics.honest_messages, 3u * 5u * 4u);
}

// ---------------------------------------------------------------------------
// Engine reuse: reset() + take_nodes() must reproduce a fresh engine's run.

TEST(DeliveryPlaneReuse, ResetDropsTheObserver) {
    net::NullAdversary adv;
    net::Engine eng({3, 0, 2, false}, inbox_nodes(3, 2, nullptr), adv);
    int fired = 0;
    eng.set_round_observer([&](Round, const auto&, const auto&) { ++fired; });
    eng.run();
    EXPECT_EQ(fired, 2);
    // A pooled engine must not replay run-A's observer on run-B's state.
    eng.reset({3, 0, 2, false}, inbox_nodes(3, 2, nullptr), adv);
    eng.run();
    EXPECT_EQ(fired, 2);
}

TEST(DeliveryPlaneReuse, EngineResetReproducesFreshRun) {
    const auto mk = [] {
        sim::Scenario s;
        s.protocol = sim::ProtocolKind::Ours;
        s.adversary = sim::AdversaryKind::Static;
        s.n = 20;
        s.t = 6;
        s.use_fused = false;  // Engine::reset is the subject
        return s;
    };
    // Two one-shot runs with the same seed agree...
    const sim::TrialResult a = sim::run_trial(mk(), 99);
    const sim::TrialResult b = sim::run_trial(mk(), 99);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.metrics.honest_messages, b.metrics.honest_messages);
    // ...and a pooled sequence seeded identically at index 0 matches too
    // (run_trials routes through Engine::reset + reinit_nodes).
    const sim::Aggregate agg = sim::run_trials(mk(), 99, 3, {1, 0});
    EXPECT_EQ(agg.rounds.values()[0],
              static_cast<double>(sim::run_trial(mk(), mix64(99)).rounds));
}

}  // namespace
}  // namespace adba
