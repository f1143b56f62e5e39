// RoundControl bulk-call spec: the engine's live-plane view() and its
// row-granular deliver_row_as() must be indistinguishable from the base
// forms every control inherits, which are built from the per-node
// virtuals alone. A pass-through control that forwards ONLY those virtuals
// makes a strategy take the base forms; running every registered adversary
// through it and directly must give bit-identical results. This is the
// single oracle for the live-plane path.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/engine.hpp"
#include "recording_adversary.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "support/contracts.hpp"

namespace adba {
namespace {

/// Hands the wrapped strategy a ForwardingControl every round, so its
/// bulk calls run their RoundControl base forms.
class PassThroughAdversary final : public net::Adversary {
public:
    explicit PassThroughAdversary(std::unique_ptr<net::Adversary> inner)
        : inner_(std::move(inner)) {}
    void on_start(NodeId n, Count budget) override { inner_->on_start(n, budget); }
    void act(net::RoundControl& ctl) override {
        testing::ForwardingControl base(ctl);
        inner_->act(base);
    }

private:
    std::unique_ptr<net::Adversary> inner_;
};

void expect_samples_eq(const Samples& a, const Samples& b, const char* what) {
    ASSERT_EQ(a.count(), b.count()) << what;
    for (std::size_t i = 0; i < a.values().size(); ++i)
        ASSERT_EQ(a.values()[i], b.values()[i]) << what << " sample " << i;
}

void expect_aggregate_eq(const sim::Aggregate& a, const sim::Aggregate& b) {
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.agreement_failures, b.agreement_failures);
    EXPECT_EQ(a.validity_failures, b.validity_failures);
    EXPECT_EQ(a.not_halted, b.not_halted);
    EXPECT_EQ(a.cap_exhausted, b.cap_exhausted);
    expect_samples_eq(a.rounds, b.rounds, "rounds");
    expect_samples_eq(a.messages, b.messages, "messages");
    expect_samples_eq(a.bits, b.bits, "bits");
    expect_samples_eq(a.corruptions, b.corruptions, "corruptions");
}

net::EngineConfig engine_config(NodeId n, Count budget, Round max_rounds) {
    net::EngineConfig cfg;
    cfg.n = n;
    cfg.budget = budget;
    cfg.max_rounds = max_rounds;
    return cfg;
}

Count max_t(const sim::ProtocolEntry& p, NodeId n) {
    Count t = (n - 1) / 3;
    while (t > 0 && !p.supports(n, t)) --t;
    return t;
}

// ---------------------------------------------------------------------------
// Every registered adversary x compatible binary protocol, at n in
// {7, 64, 256} and 1/8 trial threads: live planes == base forms, bit for bit.

TEST(RoundControlSpec, LivePlanesMatchBaseFormsAcrossTheRegistry) {
    Count covered = 0;
    bool worst_case_seen = false;
    for (const NodeId n : {NodeId{7}, NodeId{64}, NodeId{256}}) {
        const Count trials = n >= 256 ? 2 : n >= 64 ? 4 : 8;
        for (const sim::ProtocolEntry* p : sim::ProtocolRegistry::instance().list()) {
            for (const sim::AdversaryEntry* a : sim::AdversaryRegistry::instance().list()) {
                sim::Scenario s;
                s.protocol = p->kind;
                s.adversary = a->kind;
                s.n = n;
                s.t = max_t(*p, n);
                s.inputs = sim::InputPattern::Split;
                s.local_coin_phases = 8;  // keep the private-coin runs bounded
                // The engine's control is the subject: the fused plane's own
                // word-path vs bridge oracle is tests/test_fused_plane.cpp,
                // and a pass-through wrapper hides worst-case's block form,
                // which it needs there.
                s.use_fused = false;
                if (!sim::compatible(s)) continue;
                ++covered;
                worst_case_seen |= a->kind == sim::AdversaryKind::WorstCase;
                SCOPED_TRACE(p->name + " vs " + a->name + " n=" + std::to_string(n));

                const sim::ScenarioPlan live = sim::validate(s);
                sim::AdversaryEntry wrapped = *live.adversary;
                wrapped.make_adversary = [make = live.adversary->make_adversary](
                                             const sim::Scenario& sc,
                                             const sim::ProtocolBundle& bundle,
                                             const SeedTree& seeds)
                    -> std::unique_ptr<net::Adversary> {
                    return std::make_unique<PassThroughAdversary>(make(sc, bundle, seeds));
                };
                sim::ScenarioPlan base = live;
                base.adversary = &wrapped;

                for (const unsigned threads : {1u, 8u}) {
                    sim::ExecutorConfig exec;
                    exec.threads = threads;
                    exec.chunk = threads == 1 ? 0 : 1;
                    expect_aggregate_eq(
                        sim::run_trials(live, 0x5EC7, trials, exec),
                        sim::run_trials(base, 0x5EC7, trials, exec));
                }
                // Byzantine traffic is not in the aggregate: pin it per trial.
                const sim::TrialResult a1 = sim::run_trial(live, 0xB0B);
                const sim::TrialResult b1 = sim::run_trial(base, 0xB0B);
                EXPECT_EQ(a1.metrics.byzantine_messages, b1.metrics.byzantine_messages);
                EXPECT_EQ(a1.metrics.honest_bits, b1.metrics.honest_bits);
                EXPECT_EQ(a1.rounds, b1.rounds);
            }
        }
    }
    EXPECT_TRUE(worst_case_seen);
    EXPECT_GE(covered, 120u) << "registry coverage unexpectedly low";
}

// ---------------------------------------------------------------------------
// Row delivery merges with a sender's earlier rows exactly like n deliver_as
// calls: fresh-slot accounting and the cells every receiver ends up with.

/// Records every delivery it receives; broadcasts Vote1 every round.
class RecordingNode final : public net::HonestNode {
public:
    explicit RecordingNode(NodeId self) : self_(self) {}
    std::optional<net::Message> round_send(Round r) override {
        net::Message m;
        m.kind = net::MsgKind::Vote1;
        m.val = static_cast<Bit>(self_ & 1);
        m.phase = r;
        return m;
    }
    void round_receive(Round, const net::ReceiveView& view) override {
        for (NodeId u = 0; u < view.n(); ++u) {
            const net::Message* m = view.from(u);
            seen.push_back(m ? std::optional<net::Message>(*m) : std::nullopt);
        }
    }
    bool halted() const override { return false; }
    Bit current_value() const override { return static_cast<Bit>(self_ & 1); }

    std::vector<std::optional<net::Message>> seen;

private:
    NodeId self_;
};

/// Scripted attacker: every round, sender 0 gets a split pattern then a
/// row over it, sender 1 a few cells then a row, sender 2 a bare row.
class RowScript final : public net::Adversary {
public:
    void act(net::RoundControl& ctl) override {
        const NodeId n = ctl.n();
        if (ctl.round() == 0)
            for (NodeId v = 0; v < 3; ++v) ctl.corrupt(v);
        std::vector<net::Message> row(n);
        for (NodeId to = 0; to < n; ++to) {
            row[to].kind = net::MsgKind::Vote1;
            row[to].phase = ctl.round();
            row[to].val = static_cast<Bit>((to + ctl.round()) & 1);
            row[to].coin = static_cast<CoinSign>(to % 3 == 0 ? 1 : -1);
        }
        net::Message low;
        low.kind = net::MsgKind::Vote2;
        ctl.split_as(0, low, std::nullopt, n / 2);
        ctl.deliver_row_as(0, row);
        ctl.deliver_as(1, 1, low);
        ctl.deliver_as(1, n - 1, low);
        ctl.deliver_row_as(1, row);
        ctl.deliver_row_as(2, row);
        ctl.deliver_row_as(2, row);  // a second row over a full one: nothing fresh
    }
};

struct RowRun {
    net::RunResult result;
    std::vector<std::vector<std::optional<net::Message>>> seen;
};

RowRun run_row_script(bool through_base) {
    const NodeId n = 9;
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    std::vector<RecordingNode*> raw;
    for (NodeId v = 0; v < n; ++v) {
        auto node = std::make_unique<RecordingNode>(v);
        raw.push_back(node.get());
        nodes.push_back(std::move(node));
    }
    RowScript script;
    PassThroughAdversary base(std::make_unique<RowScript>());
    net::Engine eng(engine_config(n, 3, 3), std::move(nodes),
                    through_base ? static_cast<net::Adversary&>(base) : script);
    RowRun out;
    out.result = eng.run();
    for (RecordingNode* node : raw) out.seen.push_back(node->seen);
    return out;
}

TEST(RoundControlSpec, RowDeliveryMergesLikeCellDeliveries) {
    const RowRun live = run_row_script(false);
    const RowRun base = run_row_script(true);
    // 3 rounds x (sender 0: n from the row over a half pattern; sender 1: n;
    // sender 2: n, then 0 for the repeat row).
    EXPECT_EQ(live.result.metrics.byzantine_messages, 3u * 3u * 9u);
    EXPECT_EQ(live.result.metrics.byzantine_messages, base.result.metrics.byzantine_messages);
    EXPECT_EQ(live.seen, base.seen);
}

TEST(RoundControlSpec, RowDeliveryChecksItsArguments) {
    struct Bad final : net::Adversary {
        bool honest_sender = false;
        void act(net::RoundControl& ctl) override {
            std::vector<net::Message> row(ctl.n());
            if (honest_sender) {
                ctl.deliver_row_as(0, row);
            } else {
                ctl.corrupt(0);
                row.pop_back();
                ctl.deliver_row_as(0, row);  // one cell short
            }
        }
    };
    for (const bool honest_sender : {true, false}) {
        std::vector<std::unique_ptr<net::HonestNode>> nodes;
        for (NodeId v = 0; v < 4; ++v) nodes.push_back(std::make_unique<RecordingNode>(v));
        Bad bad;
        bad.honest_sender = honest_sender;
        net::Engine eng(engine_config(4, 1, 1), std::move(nodes), bad);
        EXPECT_THROW(eng.run(), ContractViolation) << honest_sender;
    }
}

}  // namespace
}  // namespace adba
