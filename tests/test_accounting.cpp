// Honest-traffic accounting oracle. The engine charges each round in closed
// form (net::broadcast_fanout); every equivalence suite that compares two
// engine paths shares that code, so none of them can catch an accounting
// error. This suite keeps the per-sender loop the engine used to run as the
// reference, evaluates it every round from the post-corruption state the
// engine's accounting reads, and compares it with the engine round by round
// and over whole runs: Byzantine senders, honest-halted receivers,
// flush-halted senders, the word-carrying Turpin-Coan kinds (+32 bits), and
// the sub-dense sparse receiver cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/multivalued.hpp"
#include "net/engine.hpp"
#include "net/sparse_plane.hpp"
#include "rand/seed_tree.hpp"
#include "registry_trial.hpp"
#include "sim/registry.hpp"

namespace adba {
namespace {

struct Charge {
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
};

/// Which accounting cases the probed rounds exercised.
struct Coverage {
    Count byzantine = 0;         ///< rounds with a corrupted node
    Count halted_receivers = 0;  ///< rounds with an honest-halted node
    Count flush_halted = 0;      ///< rounds with a sender that halted while sending
    Count word_kinds = 0;        ///< rounds with a TCValue/TCEcho broadcast
    Count cap_binds = 0;         ///< sampled rounds where the degree cap bit
    Count cap_loose = 0;         ///< sampled rounds where it did not
};

struct Ledger {
    std::vector<Charge> rounds;
    Coverage seen;
};

/// The reference: the engine's former per-sender loop, read through the
/// RoundControl's per-node observers. Each live honest broadcast is charged
/// for the n-1 other nodes minus the honest-halted ones (a sender that
/// halted this round is one of those, so its own exclusion is put back),
/// capped at `cap` receivers, times the message's own wire size.
Charge reference_charge(const net::RoundControl& ctl, std::uint64_t cap, Coverage& seen) {
    const NodeId n = ctl.n();
    std::uint64_t halted_receivers = 0;
    bool byzantine = false;
    for (NodeId v = 0; v < n; ++v) {
        if (!ctl.is_honest(v))
            byzantine = true;
        else if (ctl.is_halted(v))
            ++halted_receivers;
    }
    Charge c;
    bool flush = false, words = false, binds = false;
    for (NodeId v = 0; v < n; ++v) {
        if (!ctl.is_honest(v)) continue;
        const net::Message* m = ctl.intended_broadcast(v);
        if (m == nullptr) continue;
        const std::uint64_t excluded = halted_receivers - (ctl.is_halted(v) ? 1 : 0);
        const std::uint64_t fanout = std::uint64_t{n} - 1 - excluded;
        binds |= fanout > cap;
        const std::uint64_t charged = std::min(fanout, cap);
        c.messages += charged;
        c.bits += charged * net::wire_bits(*m, n);
        flush |= ctl.is_halted(v);
        words |= net::carries_word(m->kind);
    }
    seen.byzantine += byzantine;
    seen.halted_receivers += halted_receivers > 0;
    seen.flush_halted += flush;
    seen.word_kinds += words;
    if (cap != net::kUncapped && c.messages > 0) (binds ? seen.cap_binds : seen.cap_loose) += 1;
    return c;
}

/// Adversary decorator: the strategy acts first (on the engine's own
/// control), then the round is charged by the reference from the state the
/// engine's accounting reads next.
class AccountingProbe final : public net::Adversary {
public:
    AccountingProbe(std::unique_ptr<net::Adversary> inner, std::uint64_t cap, Ledger& ledger)
        : inner_(std::move(inner)), cap_(cap), ledger_(ledger) {}
    void on_start(NodeId n, Count budget) override { inner_->on_start(n, budget); }
    void act(net::RoundControl& ctl) override {
        inner_->act(ctl);
        ledger_.rounds.push_back(reference_charge(ctl, cap_, ledger_.seen));
    }

private:
    std::unique_ptr<net::Adversary> inner_;
    std::uint64_t cap_;
    Ledger& ledger_;
};

/// Builds one trial's protocol and strategy, wrapped in a probe that writes
/// to the given ledger; `max_rounds` 0 keeps the protocol's own budget.
using TrialFactory = std::function<net::RunResult(Round max_rounds, Ledger& ledger)>;

/// Whole run, then its prefixes: the engine's cumulative charge after k
/// rounds must equal the reference's first k rounds — every k up to 32,
/// then doubling (a round-capped Las Vegas run lasts thousands of rounds).
void expect_engine_matches_reference(const TrialFactory& run, Coverage& total) {
    Ledger full;
    const net::RunResult whole = run(0, full);
    ASSERT_EQ(full.rounds.size(), whole.rounds);
    Charge sum;
    std::vector<Charge> prefix;
    for (const Charge& c : full.rounds) {
        sum.messages += c.messages;
        sum.bits += c.bits;
        prefix.push_back(sum);
    }
    EXPECT_EQ(whole.metrics.honest_messages, sum.messages);
    EXPECT_EQ(whole.metrics.honest_bits, sum.bits);
    for (Round k = 1; k < whole.rounds; k = k < 32 ? k + 1 : 2 * k) {
        Ledger part;
        const net::RunResult cut = run(k, part);
        ASSERT_EQ(cut.rounds, k);
        EXPECT_EQ(cut.metrics.honest_messages, prefix[k - 1].messages) << "after round " << k;
        EXPECT_EQ(cut.metrics.honest_bits, prefix[k - 1].bits) << "after round " << k;
    }
    total.byzantine += full.seen.byzantine;
    total.halted_receivers += full.seen.halted_receivers;
    total.flush_halted += full.seen.flush_halted;
    total.word_kinds += full.seen.word_kinds;
    total.cap_binds += full.seen.cap_binds;
    total.cap_loose += full.seen.cap_loose;
}

/// A registry binary trial (registry_trial.hpp) with its strategy wrapped
/// in the probe; a sub-dense sparse plane caps each broadcast at the degree.
TrialFactory binary_trial(const sim::Scenario& s, std::uint64_t seed) {
    return [s, seed](Round max_rounds, Ledger& ledger) {
        return testing::run_registry_trial(
            s, seed, max_rounds,
            [&ledger](std::unique_ptr<net::Adversary> inner, const net::EngineConfig& cfg) {
                std::uint64_t cap = net::kUncapped;
                if (cfg.plane == net::PlaneMode::Sparse) {
                    net::SparsePlane probe;
                    probe.reset(cfg.n, cfg.sample_degree, cfg.sparse_seed);
                    if (!probe.dense()) cap = probe.degree();
                }
                return std::make_unique<AccountingProbe>(std::move(inner), cap, ledger);
            });
    };
}

Count max_t(const sim::ProtocolEntry& p, NodeId n) {
    Count t = (n - 1) / 3;
    while (t > 0 && !p.supports(n, t)) --t;
    return t;
}

// ---------------------------------------------------------------------------

TEST(Accounting, EngineMatchesPerSenderReferenceAcrossTheRegistry) {
    Coverage seen;
    Count covered = 0;
    const NodeId n = 31;
    for (const sim::ProtocolEntry* p : sim::ProtocolRegistry::instance().list()) {
        for (const sim::AdversaryEntry* a : sim::AdversaryRegistry::instance().list()) {
            sim::Scenario s;
            s.protocol = p->kind;
            s.adversary = a->kind;
            s.n = n;
            s.t = max_t(*p, n);
            s.inputs = sim::InputPattern::Random;
            s.local_coin_phases = 6;
            if (!sim::compatible(s)) continue;
            ++covered;
            SCOPED_TRACE(p->name + " vs " + a->name);
            expect_engine_matches_reference(binary_trial(s, 0xACC0 + covered), seen);
        }
    }
    EXPECT_GE(covered, 40u);
    EXPECT_GT(seen.byzantine, 0u);
    EXPECT_GT(seen.halted_receivers, 0u);
    EXPECT_GT(seen.flush_halted, 0u);
}

TEST(Accounting, SubDenseSparseCapsEachBroadcastAtTheDegree) {
    Coverage seen;
    for (const sim::ProtocolEntry* p : sim::ProtocolRegistry::instance().list()) {
        if (p->make_batch == nullptr) continue;
        for (const Count degree : {Count{8}, Count{40}, Count{60}}) {
            sim::Scenario s;
            s.protocol = p->kind;
            s.adversary = sim::AdversaryKind::Static;
            s.n = 64;
            s.t = max_t(*p, s.n) / 2;  // clear of the quorum knife edge
            s.inputs = sim::InputPattern::AllOne;
            s.local_coin_phases = 6;
            s.sparse_plane = true;
            s.sample_degree = degree;
            if (!sim::compatible(s)) continue;
            SCOPED_TRACE(p->name + " degree=" + std::to_string(degree));
            expect_engine_matches_reference(binary_trial(s, 0x5A + degree), seen);
        }
    }
    EXPECT_GT(seen.cap_binds, 0u);
    EXPECT_GT(seen.cap_loose, 0u);
    EXPECT_GT(seen.halted_receivers, 0u);
}

TEST(Accounting, WholeRunsOfTheSparseAndWorstCaseScenarios) {
    Coverage seen;
    sim::Scenario s = sim::Scenario::parse(
        "protocol=ours adversary=worst-case inputs=split n=64 t=21 plane=sparse "
        "sample_degree=48");
    expect_engine_matches_reference(binary_trial(s, 11), seen);
    s = sim::Scenario::parse("protocol=ours adversary=worst-case inputs=split n=64 t=21");
    expect_engine_matches_reference(binary_trial(s, 12), seen);
    EXPECT_GT(seen.byzantine, 0u);
    EXPECT_GT(seen.cap_binds + seen.cap_loose, 0u);
}

/// The multi-valued stack: the Turpin-Coan prelude's TCValue/TCEcho rounds
/// carry the 32-bit word, then the wrapped Algorithm 3 runs under the
/// worst-case adversary.
TEST(Accounting, TurpinCoanWordKindsChargeTheWordPayload) {
    Coverage seen;
    for (const char* adversary : {"prelude+worst-case", "worst-case-inner", "chaos"}) {
        sim::MvScenario s = sim::MvScenario::parse(std::string("adversary=") + adversary +
                                                   " inputs=near-quorum n=40 t=13");
        const sim::MvScenarioPlan plan = sim::validate(s);
        SCOPED_TRACE(adversary);
        const TrialFactory run = [&plan](Round max_rounds, Ledger& ledger) {
            const sim::MvScenario& sc = plan.scenario;
            const SeedTree seeds(0x7C);
            const auto share = static_cast<NodeId>((6 * sc.n + 9) / 10);
            std::vector<net::Word> inputs(sc.n);
            for (NodeId v = 0; v < sc.n; ++v) inputs[v] = v < share ? 0xAAAA : 0x2000u + v;
            AccountingProbe adv(plan.adversary->make_adversary(sc, plan.params, seeds),
                                net::kUncapped, ledger);
            net::EngineConfig cfg;
            cfg.n = sc.n;
            cfg.budget = sc.t;
            cfg.max_rounds = max_rounds ? max_rounds : plan.cap;
            std::vector<std::unique_ptr<net::HonestNode>> nodes;
            core::arm_turpin_coan_nodes(plan.params, inputs, seeds, nodes);
            net::Engine eng(cfg, std::move(nodes), adv);
            return eng.run();
        };
        expect_engine_matches_reference(run, seen);
    }
    EXPECT_GT(seen.word_kinds, 0u);
    EXPECT_GT(seen.byzantine, 0u);
}

// ---------------------------------------------------------------------------
// The closed form itself, at its edges.

TEST(Accounting, ClosedFormEdges) {
    // Nothing sent, everything halted: zero (the wrapped n-1-H factor is
    // multiplied by zero).
    EXPECT_EQ(net::broadcast_fanout(0, 0, 10, 10), 0u);
    // Every sender flush-halts in the same round: each reaches n-H others.
    EXPECT_EQ(net::broadcast_fanout(10, 10, 10, 10), 0u);
    EXPECT_EQ(net::broadcast_fanout(4, 4, 4, 10), 4u * 6u);
    // Mixed, then capped term by term.
    EXPECT_EQ(net::broadcast_fanout(7, 2, 3, 10), 5u * 6u + 2u * 7u);
    EXPECT_EQ(net::broadcast_fanout(7, 2, 3, 10, 6), 5u * 6u + 2u * 6u);
    EXPECT_EQ(net::broadcast_fanout(7, 2, 3, 10, 2), 7u * 2u);
}

}  // namespace
}  // namespace adba
