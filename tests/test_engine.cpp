// Engine semantics tests: delivery, rushing corruption, equivocation,
// budget enforcement, halting, metrics, round observation.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "net/engine.hpp"
#include "recording_adversary.hpp"
#include "support/contracts.hpp"

namespace adba::net {
namespace {

/// Test node: broadcasts Vote1{val = own id % 2} every round, records every
/// delivery, halts after `live_rounds` rounds.
class EchoNode final : public HonestNode {
public:
    EchoNode(NodeId self, Round live_rounds) : self_(self), live_(live_rounds) {}

    std::optional<Message> round_send(Round r) override {
        Message m;
        m.kind = MsgKind::Vote1;
        m.val = static_cast<Bit>(self_ % 2);
        m.phase = r;
        return m;
    }

    void round_receive(Round r, const ReceiveView& view) override {
        received_.emplace_back();
        auto& row = received_.back();
        row.resize(view.n());
        for (NodeId u = 0; u < view.n(); ++u) {
            const Message* m = view.from(u);
            row[u] = m ? std::optional<Message>(*m) : std::nullopt;
        }
        if (r + 1 >= live_) halted_ = true;
    }

    bool halted() const override { return halted_; }
    Bit current_value() const override { return static_cast<Bit>(self_ % 2); }

    std::vector<std::vector<std::optional<Message>>> received_;

private:
    NodeId self_;
    Round live_;
    bool halted_ = false;
};

/// Inline scriptable adversary.
class ScriptAdversary final : public Adversary {
public:
    using Fn = std::function<void(RoundControl&)>;
    explicit ScriptAdversary(Fn fn) : fn_(std::move(fn)) {}
    void act(RoundControl& ctl) override { fn_(ctl); }

private:
    Fn fn_;
};

std::vector<std::unique_ptr<HonestNode>> make_echo_nodes(NodeId n, Round live,
                                                         std::vector<EchoNode*>* raw) {
    std::vector<std::unique_ptr<HonestNode>> nodes;
    for (NodeId v = 0; v < n; ++v) {
        auto p = std::make_unique<EchoNode>(v, live);
        if (raw) raw->push_back(p.get());
        nodes.push_back(std::move(p));
    }
    return nodes;
}

TEST(Engine, HonestBroadcastReachesEveryoneIncludingSelf) {
    std::vector<EchoNode*> raw;
    NullAdversary adv;
    Engine eng({4, 0, 1}, make_echo_nodes(4, 1, &raw), adv);
    const RunResult res = eng.run();
    EXPECT_TRUE(res.all_halted);
    EXPECT_EQ(res.rounds, 1u);
    for (EchoNode* node : raw) {
        ASSERT_EQ(node->received_.size(), 1u);
        for (NodeId u = 0; u < 4; ++u) {
            ASSERT_TRUE(node->received_[0][u].has_value()) << "missing from " << u;
            EXPECT_EQ(node->received_[0][u]->val, u % 2);
            EXPECT_EQ(node->received_[0][u]->kind, MsgKind::Vote1);
        }
    }
}

TEST(Engine, CorruptionDiscardsBroadcastAndAllowsEquivocation) {
    std::vector<EchoNode*> raw;
    ScriptAdversary adv([](RoundControl& ctl) {
        if (ctl.round() != 0) return;
        const auto discarded = ctl.corrupt(2);
        ASSERT_TRUE(discarded.has_value());
        EXPECT_EQ(discarded->val, 0);  // node 2's honest intent
        Message m0;
        m0.kind = MsgKind::Vote1;
        m0.val = 0;
        Message m1 = m0;
        m1.val = 1;
        ctl.deliver_as(2, 0, m0);
        ctl.deliver_as(2, 1, m1);
        // receivers 2,3 get silence from the corrupted node
    });
    Engine eng({4, 1, 2}, make_echo_nodes(4, 2, &raw), adv);
    const RunResult res = eng.run();
    EXPECT_FALSE(res.honest[2]);
    EXPECT_TRUE(res.honest[0] && res.honest[1] && res.honest[3]);
    // Equivocated deliveries in round 0:
    EXPECT_EQ(raw[0]->received_[0][2]->val, 0);
    EXPECT_EQ(raw[1]->received_[0][2]->val, 1);
    EXPECT_FALSE(raw[3]->received_[0][2].has_value());
    // Round 1: corrupted node silent by default.
    EXPECT_FALSE(raw[0]->received_[1][2].has_value());
}

TEST(Engine, BudgetIsEnforced) {
    ScriptAdversary adv([](RoundControl& ctl) {
        if (ctl.round() != 0) return;
        EXPECT_EQ(ctl.budget_left(), 1u);
        ctl.corrupt(0);
        EXPECT_EQ(ctl.budget_left(), 0u);
        EXPECT_THROW(ctl.corrupt(1), ContractViolation);
    });
    Engine eng({4, 1, 1}, make_echo_nodes(4, 1, nullptr), adv);
    const RunResult res = eng.run();
    EXPECT_EQ(res.metrics.corruptions, 1u);
}

TEST(Engine, CannotCorruptTwice) {
    ScriptAdversary adv([](RoundControl& ctl) {
        if (ctl.round() != 0) return;
        ctl.corrupt(0);
        EXPECT_THROW(ctl.corrupt(0), ContractViolation);
    });
    Engine eng({4, 3, 1}, make_echo_nodes(4, 1, nullptr), adv);
    eng.run();
}

TEST(Engine, DeliverAsRequiresCorruptedSender) {
    ScriptAdversary adv([](RoundControl& ctl) {
        Message m;
        m.kind = MsgKind::Vote1;
        EXPECT_THROW(ctl.deliver_as(1, 0, m), ContractViolation);
    });
    Engine eng({3, 1, 1}, make_echo_nodes(3, 1, nullptr), adv);
    eng.run();
}

TEST(Engine, CannotCorruptHaltedNode) {
    ScriptAdversary adv([](RoundControl& ctl) {
        if (ctl.round() == 1) {
            // Every node halted after round 0 (live=1)... engine stops, so
            // this never runs; exercised instead via is_halted below.
            FAIL();
        }
        EXPECT_FALSE(ctl.is_halted(0));  // round 0: still live
    });
    Engine eng({3, 1, 4}, make_echo_nodes(3, 1, nullptr), adv);
    const RunResult res = eng.run();
    EXPECT_TRUE(res.all_halted);
    EXPECT_EQ(res.rounds, 1u);
}

TEST(Engine, StopsAtMaxRoundsWhenNodesNeverHalt) {
    NullAdversary adv;
    Engine eng({3, 0, 5}, make_echo_nodes(3, 100, nullptr), adv);
    const RunResult res = eng.run();
    EXPECT_FALSE(res.all_halted);
    EXPECT_EQ(res.rounds, 5u);
}

TEST(Engine, MetricsCountHonestTraffic) {
    NullAdversary adv;
    const NodeId n = 5;
    Engine eng({n, 0, 3}, make_echo_nodes(n, 3, nullptr), adv);
    const RunResult res = eng.run();
    // 3 rounds, 5 senders, fanout n-1 = 4.
    EXPECT_EQ(res.metrics.honest_messages, 3u * 5u * 4u);
    EXPECT_EQ(res.metrics.byzantine_messages, 0u);
    EXPECT_EQ(res.metrics.rounds, 3u);
    EXPECT_GT(res.metrics.honest_bits, res.metrics.honest_messages);  // >1 bit each
}

TEST(Engine, CorruptedSenderTrafficNotChargedToProtocol) {
    ScriptAdversary adv([](RoundControl& ctl) {
        if (ctl.round() == 0) {
            ctl.corrupt(0);
            Message m;
            m.kind = MsgKind::Vote1;
            ctl.broadcast_as(0, m);
        }
    });
    const NodeId n = 4;
    Engine eng({n, 1, 2}, make_echo_nodes(n, 2, nullptr), adv);
    const RunResult res = eng.run();
    // Round 0: 3 honest broadcast; round 1: 3 honest broadcast.
    EXPECT_EQ(res.metrics.honest_messages, (3u + 3u) * (n - 1));
    EXPECT_EQ(res.metrics.byzantine_messages, n);  // one broadcast_as
}

TEST(Engine, AgreementEvaluation) {
    NullAdversary adv;
    Engine eng({4, 0, 1}, make_echo_nodes(4, 1, nullptr), adv);
    RunResult res = eng.run();
    // EchoNode outputs id%2 -> no agreement.
    EXPECT_FALSE(res.agreement());
    EXPECT_FALSE(res.agreed_value().has_value());
    // Force agreement by editing outputs.
    res.outputs.assign(4, 1);
    EXPECT_TRUE(res.agreement());
    ASSERT_TRUE(res.agreed_value().has_value());
    EXPECT_EQ(*res.agreed_value(), 1);
    EXPECT_EQ(res.honest_count(), 4u);
}

TEST(Engine, AgreementIgnoresCorruptedNodes) {
    ScriptAdversary adv([](RoundControl& ctl) {
        if (ctl.round() == 0) ctl.corrupt(1);  // the only odd-valued node
    });
    Engine eng({3, 1, 1}, make_echo_nodes(3, 1, nullptr), adv);
    const RunResult res = eng.run();
    // Survivors are 0 and 2, both output 0.
    EXPECT_TRUE(res.agreement());
    EXPECT_EQ(res.honest_count(), 2u);
    EXPECT_EQ(*res.agreed_value(), 0);
}

TEST(Engine, RecordingControlSeesSendsAndCorruptions) {
    bool broadcast_seen = false;
    ScriptAdversary script([&](RoundControl& ctl) {
        if (ctl.round() == 0) broadcast_seen = ctl.intended_broadcast(2) != nullptr;
        if (ctl.round() == 1) ctl.corrupt(2);
    });
    adba::testing::RecordingAdversary adv(script);
    Engine eng({3, 1, 2}, make_echo_nodes(3, 2, nullptr), adv);
    std::vector<std::vector<bool>> honest_after;
    eng.set_round_observer([&](Round, const auto&, const std::vector<bool>& honest) {
        honest_after.push_back(honest);
    });
    eng.run();
    ASSERT_EQ(honest_after.size(), 2u);
    EXPECT_TRUE(honest_after[0][2]);
    EXPECT_TRUE(broadcast_seen);
    EXPECT_FALSE(honest_after[1][2]);
    EXPECT_EQ(adv.corruptions(), (adba::testing::CorruptionLog{{1, 2}}));
}

TEST(Engine, RoundObserverSeesEveryRound) {
    NullAdversary adv;
    Engine eng({3, 0, 4}, make_echo_nodes(3, 4, nullptr), adv);
    std::vector<Round> seen;
    eng.set_round_observer([&](Round r, const auto& nodes, const auto& honest) {
        seen.push_back(r);
        EXPECT_EQ(nodes.size(), 3u);
        EXPECT_EQ(honest.size(), 3u);
    });
    eng.run();
    ASSERT_EQ(seen.size(), 4u);
    EXPECT_EQ(seen.front(), 0u);
    EXPECT_EQ(seen.back(), 3u);
}

TEST(Engine, RunIsSingleShot) {
    NullAdversary adv;
    Engine eng({2, 0, 1}, make_echo_nodes(2, 1, nullptr), adv);
    eng.run();
    EXPECT_THROW(eng.run(), ContractViolation);
}

TEST(Engine, ConfigValidation) {
    NullAdversary adv;
    EXPECT_THROW(Engine({0, 0, 1},
                        std::vector<std::unique_ptr<HonestNode>>{}, adv),
                 ContractViolation);
    EXPECT_THROW(Engine({2, 0, 0}, make_echo_nodes(2, 1, nullptr), adv),
                 ContractViolation);
    EXPECT_THROW(Engine({3, 0, 1}, make_echo_nodes(2, 1, nullptr), adv),
                 ContractViolation);
}

TEST(Engine, WireBitsScaleWithLogN) {
    Message m;
    m.kind = MsgKind::Vote1;
    EXPECT_EQ(wire_bits(m, 2), 8u + 2u);
    EXPECT_EQ(wire_bits(m, 1024), 8u + ceil_log2(1025));
    EXPECT_LT(wire_bits(m, 1 << 20), 40u);  // CONGEST: O(log n) bits
    // Multi-valued prelude messages carry the word payload.
    Message tc;
    tc.kind = MsgKind::TCValue;
    EXPECT_EQ(wire_bits(tc, 1024), wire_bits(m, 1024) + 32u);
}

}  // namespace
}  // namespace adba::net
