// Batch-plane tests: native SoA protocol stepping (registry make_batch)
// must be BIT-IDENTICAL to the per-node adapter path (scenario batch=false)
// for every compatible (protocol, adversary) registry pair, at any thread
// count — plus a randomized fuzz sweep over sampled pairs, seeds, and
// network sizes. The per-node nodes read their rounds through ReceiveView's
// tally-backed queries, which test_delivery_plane pins against the
// per-sender spec.
#include <gtest/gtest.h>

#include <vector>

#include "net/batch.hpp"
#include "net/engine.hpp"
#include "rand/rng.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "support/contracts.hpp"

namespace adba {
namespace {

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

// ---------------------------------------------------------------------------
// Every compatible registry pair with a native batch: batch == per-node,
// bit for bit, on the flat plane (threads 1 and 8).

TEST(BatchPlaneEquivalence, AllRegistryPairsBatchMatchesPerNode) {
    const NodeId n = 25;
    Count covered = 0;
    for (const sim::ProtocolEntry* p : sim::ProtocolRegistry::instance().list()) {
        if (p->make_batch == nullptr) continue;  // adapter-only protocol
        for (const sim::AdversaryEntry* a : sim::AdversaryRegistry::instance().list()) {
            sim::Scenario s;
            s.protocol = p->kind;
            s.adversary = a->kind;
            s.n = n;
            s.t = max_t(*p, n);
            s.inputs = sim::InputPattern::Split;
            s.local_coin_phases = 12;  // keep the private-coin runs bounded
            // The scalar native batch is the subject; fused blocks have
            // their own equivalence suite (test_fused_plane.cpp).
            s.use_fused = false;
            if (!sim::compatible(s)) continue;
            ++covered;
            SCOPED_TRACE(p->name + " vs " + a->name);

            const sim::ExecutorConfig serial{1, 0};
            sim::Scenario batched = s;
            batched.use_batch = true;
            sim::Scenario per_node = s;
            per_node.use_batch = false;

            const sim::Aggregate fast = sim::run_trials(batched, 0xBA7C4, 6, serial);
            const sim::Aggregate ref = sim::run_trials(per_node, 0xBA7C4, 6, serial);
            expect_aggregate_eq(fast, ref);

            // Thread-count invariance of the batch path (arena re-arming of
            // the pooled batch must be exact across any chunking).
            const sim::Aggregate par = sim::run_trials(batched, 0xBA7C4, 6, {8, 2});
            expect_aggregate_eq(fast, par);
        }
    }
    // 8 native-batch protocols x 9 adversaries minus constraints.
    EXPECT_GE(covered, 45u) << "batch registry coverage unexpectedly low";
}

// ---------------------------------------------------------------------------
// Randomized fuzz: sampled (protocol, adversary, inputs, n, seed) tuples,
// one-shot trials, full result comparison.

TEST(BatchPlaneEquivalence, FuzzRandomizedScenariosMatchBitIdentically) {
    const NodeId sizes[] = {4, 7, 33, 128};
    const sim::InputPattern patterns[] = {
        sim::InputPattern::AllZero, sim::InputPattern::AllOne,
        sim::InputPattern::Split, sim::InputPattern::Random};
    const auto protocols = sim::ProtocolRegistry::instance().list();
    const auto adversaries = sim::AdversaryRegistry::instance().list();

    Xoshiro256 rng(0xF022);
    Count checked = 0;
    for (int iter = 0; iter < 200 && checked < 48; ++iter) {
        const auto* p = protocols[rng.below(protocols.size())];
        if (p->make_batch == nullptr) continue;
        const auto* a = adversaries[rng.below(adversaries.size())];
        sim::Scenario s;
        s.protocol = p->kind;
        s.adversary = a->kind;
        s.n = sizes[rng.below(4)];
        s.t = max_t(*p, s.n);
        if (s.t > 0 && rng.bernoulli(0.3)) s.q = static_cast<Count>(rng.below(s.t + 1));
        s.inputs = patterns[rng.below(4)];
        s.local_coin_phases = 10;
        if (!sim::compatible(s)) continue;
        ++checked;
        const std::uint64_t seed = rng();
        SCOPED_TRACE(p->name + " vs " + a->name + " n=" + std::to_string(s.n) +
                     " seed=" + std::to_string(seed));

        sim::Scenario per_node = s;
        per_node.use_batch = false;
        const sim::TrialResult fast = sim::run_trial(s, seed);
        const sim::TrialResult ref = sim::run_trial(per_node, seed);

        EXPECT_EQ(fast.agreement, ref.agreement);
        EXPECT_EQ(fast.agreed_value, ref.agreed_value);
        EXPECT_EQ(fast.validity_applicable, ref.validity_applicable);
        EXPECT_EQ(fast.validity_ok, ref.validity_ok);
        EXPECT_EQ(fast.all_halted, ref.all_halted);
        EXPECT_EQ(fast.rounds, ref.rounds);
        EXPECT_EQ(fast.phases_configured, ref.phases_configured);
        EXPECT_EQ(fast.metrics.honest_messages, ref.metrics.honest_messages);
        EXPECT_EQ(fast.metrics.honest_bits, ref.metrics.honest_bits);
        EXPECT_EQ(fast.metrics.byzantine_messages, ref.metrics.byzantine_messages);
        EXPECT_EQ(fast.metrics.corruptions, ref.metrics.corruptions);
        EXPECT_EQ(fast.metrics.rounds, ref.metrics.rounds);
    }
    EXPECT_GE(checked, 32u) << "fuzz sweep sampled too few compatible scenarios";
}

// ---------------------------------------------------------------------------
// Registry + scenario plumbing.

TEST(BatchPlaneRegistry, HotProtocolsShipNativeBatches) {
    const auto& reg = sim::ProtocolRegistry::instance();
    for (const char* name : {"ours", "ours-las-vegas", "chor-coan-rushing",
                             "chor-coan-classic", "rabin-dealer", "local-coin",
                             "ben-or", "phase-king"}) {
        const sim::ProtocolEntry& e = reg.at(std::string(name));
        EXPECT_TRUE(e.make_batch != nullptr) << name;
        EXPECT_TRUE(e.reinit_batch != nullptr) << name;
    }
}

TEST(BatchPlaneRegistry, ScenarioBatchKeyRoundTrips) {
    sim::Scenario s;
    s.n = 16;
    s.t = 5;
    s.use_batch = false;
    const sim::Scenario parsed = sim::Scenario::parse(s.describe());
    EXPECT_EQ(parsed, s);
    EXPECT_TRUE(sim::Scenario::parse("n=16 t=5").use_batch);
    EXPECT_FALSE(sim::Scenario::parse("n=16 t=5 batch=off").use_batch);
    EXPECT_TRUE(sim::Scenario::parse("n=16 t=5 batch=on").use_batch);
}

// ---------------------------------------------------------------------------
// Engine-level batch pooling: take_batch + reset must reproduce fresh runs
// (this is what the Monte-Carlo arena does per trial).

TEST(BatchPlanePooling, ArenaReuseMatchesFreshTrials) {
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::WorstCase;
    s.n = 28;
    s.t = 9;
    s.inputs = sim::InputPattern::Random;
    s.use_fused = false;  // the pooled scalar arena is the subject

    const Count trials = 10;
    const sim::Aggregate pooled = sim::run_trials(s, 0xBEEF, trials, {1, 0});
    ASSERT_EQ(pooled.rounds.count(), trials);
    for (Count i = 0; i < trials; ++i) {
        const sim::TrialResult fresh =
            sim::run_trial(s, mix64(0xBEEF + 0x100000001b3ULL * i));
        EXPECT_EQ(pooled.rounds.values()[i], static_cast<double>(fresh.rounds)) << i;
        EXPECT_EQ(pooled.messages.values()[i],
                  static_cast<double>(fresh.metrics.honest_messages))
            << i;
        EXPECT_EQ(pooled.corruptions.values()[i],
                  static_cast<double>(fresh.metrics.corruptions))
            << i;
    }
}

TEST(BatchPlanePooling, TakeNodesRequiresPerNodeForm) {
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::Static;
    s.n = 10;
    s.t = 3;
    const sim::ScenarioPlan plan = sim::validate(s);
    const SeedTree seeds(7);
    std::vector<Bit> inputs(s.n, 0);
    sim::ProtocolBundle bundle = plan.protocol->make_batch(s, inputs, seeds);
    ASSERT_TRUE(bundle.batch != nullptr);
    EXPECT_TRUE(bundle.nodes.empty());
    auto adversary = plan.adversary->make_adversary(s, bundle, seeds);
    net::Engine eng({s.n, s.t, bundle.default_max_rounds},
                    std::move(bundle.batch), *adversary);
    EXPECT_THROW(eng.take_nodes(), ContractViolation);
    (void)eng.run();
    EXPECT_TRUE(eng.take_batch() != nullptr);
}

/// A RoundBuffer behind the virtual DeliverySource interface.
class RoundBufferSource final : public net::DeliverySource {
public:
    explicit RoundBufferSource(const net::RoundBuffer& buf) : buf_(buf) {}
    const net::Message* delivery(NodeId receiver, NodeId sender) const override {
        return buf_.from(receiver, sender);
    }
    NodeId n() const override { return buf_.n(); }

private:
    const net::RoundBuffer& buf_;
};

TEST(BatchPlanePooling, NoBatchStepsADeliverySource) {
    sim::Scenario s;
    s.n = 10;
    s.t = 3;
    const sim::ScenarioPlan plan = sim::validate(s);
    const SeedTree seeds(7);
    const std::vector<Bit> inputs(s.n, 0);
    const sim::ProtocolBundle native = plan.protocol->make_batch(s, inputs, seeds);
    net::PerNodeBatch adapter(plan.protocol->make_nodes(s, inputs, seeds).nodes);
    net::RoundBuffer buf;
    buf.reset(s.n);
    const RoundBufferSource src(buf);
    for (net::BatchProtocol* batch :
         {native.batch.get(), static_cast<net::BatchProtocol*>(&adapter)})
        EXPECT_THROW(batch->receive_all(0, buf, src), ContractViolation);
}

}  // namespace
}  // namespace adba
