// Fine-grained tests of the Rabin skeleton's receive paths (Algorithm 3's
// threshold cases) using hand-crafted delivery views — byte-level checks of
// the rules that the sweep tests exercise only end-to-end.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/params.hpp"
#include "core/skeleton.hpp"
#include "support/contracts.hpp"

namespace adba::core {
namespace {

/// Scriptable delivery source: one optional message per sender. Converts
/// implicitly to a ReceiveView over the virtual adapter backend, so call
/// sites hand it straight to round_receive.
class FakeView final : public net::DeliverySource {
public:
    FakeView(NodeId n, NodeId recv) : n_(n), recv_(recv), slots_(n) {}

    void put(NodeId from, net::Message m) { slots_[from] = m; }
    void clear(NodeId from) { slots_[from].reset(); }

    const net::Message* delivery(NodeId, NodeId sender) const override {
        return slots_[sender] ? &*slots_[sender] : nullptr;
    }
    NodeId n() const override { return n_; }

    operator net::ReceiveView() const { return net::ReceiveView(*this, recv_); }

private:
    NodeId n_;
    NodeId recv_;
    std::vector<std::optional<net::Message>> slots_;
};

net::Message vote1(Phase p, Bit val, bool decided = false) {
    net::Message m;
    m.kind = net::MsgKind::Vote1;
    m.phase = p;
    m.val = val;
    m.flag = decided ? 1 : 0;
    return m;
}

net::Message vote2(Phase p, Bit val, bool decided, CoinSign coin = 0) {
    net::Message m;
    m.kind = net::MsgKind::Vote2;
    m.phase = p;
    m.val = val;
    m.flag = decided ? 1 : 0;
    m.coin = coin;
    return m;
}

/// Algorithm 3's node: the skeleton with the params' committee coin.
RabinSkeletonNode algorithm3_node(const AgreementParams& params, NodeId self, Bit input,
                                  Xoshiro256 rng) {
    return RabinSkeletonNode({params.n, params.t, params.phases, AgreementMode::WhpFixedPhases},
                             {CoinSpec::Kind::Committee, params.schedule}, self, input, rng);
}

/// n=10, t=3 instance of Algorithm 3 node `self` with input 0.
RabinSkeletonNode make_node(NodeId self = 0, Bit input = 0) {
    return algorithm3_node(AgreementParams::compute(10, 3), self, input, Xoshiro256(42));
}

TEST(SkeletonRound1, QuorumSetsValAndDecided) {
    auto node = make_node();
    (void)node.round_send(0);
    FakeView view(10, 0);
    for (NodeId u = 0; u < 7; ++u) view.put(u, vote1(0, 1));  // n-t = 7 ones
    node.round_receive(0, view);
    EXPECT_EQ(node.current_value(), 1);
    EXPECT_TRUE(node.current_decided());
}

TEST(SkeletonRound1, OneShortOfQuorumLeavesUndecided) {
    auto node = make_node(0, /*input=*/1);
    (void)node.round_send(0);
    FakeView view(10, 0);
    for (NodeId u = 0; u < 6; ++u) view.put(u, vote1(0, 0));  // 6 < 7
    node.round_receive(0, view);
    EXPECT_FALSE(node.current_decided());
    EXPECT_EQ(node.current_value(), 1) << "val must be untouched below quorum";
}

TEST(SkeletonRound1, DecidedFlagOnVote1DoesNotMatter) {
    // Line 12 counts (i,1,b,*) regardless of the sender's decided flag.
    auto node = make_node();
    (void)node.round_send(0);
    FakeView view(10, 0);
    for (NodeId u = 0; u < 7; ++u) view.put(u, vote1(0, 1, u % 2 == 0));
    node.round_receive(0, view);
    EXPECT_TRUE(node.current_decided());
    EXPECT_EQ(node.current_value(), 1);
}

TEST(SkeletonRound1, WrongPhaseAndKindIgnored) {
    auto node = make_node();
    (void)node.round_send(0);
    FakeView view(10, 0);
    for (NodeId u = 0; u < 5; ++u) view.put(u, vote1(1, 1));       // stale phase
    for (NodeId u = 5; u < 9; ++u) view.put(u, vote2(0, 1, true)); // wrong kind
    node.round_receive(0, view);
    EXPECT_FALSE(node.current_decided());
}

TEST(SkeletonRound2, FinishAtQuorumDecided) {
    auto node = make_node();
    (void)node.round_send(0);
    node.round_receive(0, FakeView(10, 0));  // empty: undecided
    (void)node.round_send(1);
    FakeView view(10, 0);
    for (NodeId u = 0; u < 7; ++u) view.put(u, vote2(0, 0, true));
    node.round_receive(1, view);
    EXPECT_TRUE(node.current_decided());
    EXPECT_TRUE(node.finish_flag());
    ASSERT_TRUE(node.finish_phase().has_value());
    EXPECT_EQ(*node.finish_phase(), 0u);
    EXPECT_EQ(node.current_value(), 0);
}

TEST(SkeletonRound2, SuperminorityAdoptsWithoutFinish) {
    auto node = make_node();
    (void)node.round_send(0);
    node.round_receive(0, FakeView(10, 0));
    (void)node.round_send(1);
    FakeView view(10, 0);
    for (NodeId u = 0; u < 4; ++u) view.put(u, vote2(0, 1, true));  // t+1 = 4
    node.round_receive(1, view);
    EXPECT_TRUE(node.current_decided());
    EXPECT_FALSE(node.finish_flag());
    EXPECT_EQ(node.current_value(), 1);
}

TEST(SkeletonRound2, UndecidedMessagesDoNotCountTowardDecidedThresholds) {
    auto node = make_node();
    (void)node.round_send(0);
    node.round_receive(0, FakeView(10, 0));
    (void)node.round_send(1);
    FakeView view(10, 0);
    for (NodeId u = 0; u < 9; ++u) view.put(u, vote2(0, 1, false));  // no flags
    node.round_receive(1, view);
    EXPECT_FALSE(node.current_decided()) << "case 3 must fire";
}

TEST(SkeletonRound2, CoinAdoptedWhenNoDecidedQuorum) {
    // Committee of phase 0 is IDs [0, s). n=10, t=3 with alpha=4:
    // phases = max(min(4*1*4, ceil(36/4)), 8) = max(min(16,9),8) = 9 -> s=2.
    const auto params = AgreementParams::compute(10, 3);
    ASSERT_GE(params.schedule.block, 1u);
    auto node = make_node(/*self=*/9);  // not in committee 0 for s <= 5
    (void)node.round_send(0);
    node.round_receive(0, FakeView(10, 0));
    (void)node.round_send(1);
    FakeView view(10, 9);
    // Committee members all flip -1 -> coin 0.
    for (NodeId u = 0; u < params.schedule.block; ++u)
        view.put(u, vote2(0, 0, false, -1));
    node.round_receive(1, view);
    EXPECT_FALSE(node.current_decided());
    EXPECT_EQ(node.current_value(), 0);
}

TEST(SkeletonRound2, CoinTieBreaksToOne) {
    auto node = make_node(9);
    (void)node.round_send(0);
    node.round_receive(0, FakeView(10, 9));
    (void)node.round_send(1);
    node.round_receive(1, FakeView(10, 9));  // nobody speaks: sum 0 -> 1
    EXPECT_EQ(node.current_value(), 1);
}

TEST(SkeletonRound2, NonCommitteeCoinsIgnored) {
    const auto params = AgreementParams::compute(10, 3);
    auto node = make_node(9);
    (void)node.round_send(0);
    node.round_receive(0, FakeView(10, 9));
    (void)node.round_send(1);
    FakeView view(10, 9);
    // A flood of -1 coins from NON-committee senders must not outvote the
    // committee's +1s ("messages from byzantine nodes not in the committee
    // are ignored").
    const NodeId s = params.schedule.block;
    for (NodeId u = 0; u < s; ++u) view.put(u, vote2(0, 0, false, +1));
    for (NodeId u = s; u < 9; ++u) view.put(u, vote2(0, 0, false, -1));
    node.round_receive(1, view);
    EXPECT_EQ(node.current_value(), 1);
}

TEST(SkeletonCoinSum, ClampsWildCoinValues) {
    FakeView view(6, 0);
    auto wild = vote2(0, 0, false);
    wild.coin = 5;  // Byzantine garbage: must count as +1, not +5
    view.put(0, wild);
    auto wild2 = vote2(0, 0, false);
    wild2.coin = -7;
    view.put(1, wild2);
    EXPECT_EQ(committee_coin_sum(view, 0, 0, 6), 0);
}

TEST(SkeletonCoinSum, RespectsRangeAndPhase) {
    FakeView view(6, 0);
    view.put(0, vote2(0, 0, false, +1));
    view.put(1, vote2(1, 0, false, +1));  // wrong phase
    view.put(5, vote2(0, 0, false, +1));  // outside [0, 3)
    EXPECT_EQ(committee_coin_sum(view, 0, 0, 3), 1);
}

TEST(SkeletonFlush, FinisherBroadcastsOneFullPhaseThenHalts) {
    auto node = make_node();
    (void)node.round_send(0);
    node.round_receive(0, FakeView(10, 0));
    (void)node.round_send(1);
    FakeView view(10, 0);
    for (NodeId u = 0; u < 7; ++u) view.put(u, vote2(0, 1, true));
    node.round_receive(1, view);  // Finish fires
    ASSERT_TRUE(node.finish_flag());
    EXPECT_FALSE(node.halted());

    // Flush phase: both broadcasts still carry (val, decided).
    const auto m1 = node.round_send(2);
    ASSERT_TRUE(m1.has_value());
    EXPECT_EQ(m1->kind, net::MsgKind::Vote1);
    EXPECT_EQ(m1->val, 1);
    EXPECT_EQ(m1->flag, 1);
    EXPECT_FALSE(node.halted());
    node.round_receive(2, FakeView(10, 0));  // ignored while flushing

    const auto m2 = node.round_send(3);
    ASSERT_TRUE(m2.has_value());
    EXPECT_EQ(m2->kind, net::MsgKind::Vote2);
    EXPECT_EQ(m2->val, 1);
    EXPECT_EQ(m2->flag, 1);
    EXPECT_TRUE(node.halted()) << "halts right after the final broadcast";
    EXPECT_EQ(node.output(), 1);
}

TEST(SkeletonFlush, FlushIgnoresContradictoryDeliveries) {
    auto node = make_node();
    (void)node.round_send(0);
    node.round_receive(0, FakeView(10, 0));
    (void)node.round_send(1);
    FakeView finish_view(10, 0);
    for (NodeId u = 0; u < 7; ++u) finish_view.put(u, vote2(0, 0, true));
    node.round_receive(1, finish_view);
    ASSERT_TRUE(node.finish_flag());

    (void)node.round_send(2);
    FakeView poison(10, 0);
    for (NodeId u = 0; u < 10; ++u) poison.put(u, vote1(1, 1));
    node.round_receive(2, poison);
    EXPECT_EQ(node.current_value(), 0) << "flushing nodes are immutable";
}

TEST(SkeletonEnd, HaltsAtPhaseBudgetWithoutFinish) {
    const auto params = AgreementParams::compute(10, 3);
    auto node = make_node();
    for (Phase p = 0; p < params.phases; ++p) {
        (void)node.round_send(2 * p);
        node.round_receive(2 * p, FakeView(10, 0));
        (void)node.round_send(2 * p + 1);
        node.round_receive(2 * p + 1, FakeView(10, 0));
    }
    EXPECT_TRUE(node.halted());
}

TEST(SkeletonContracts, RejectsBadConfig) {
    const auto params = AgreementParams::compute(10, 3);
    EXPECT_THROW(algorithm3_node(params, 10, 0, Xoshiro256(1)),
                 ContractViolation);  // self out of range
    EXPECT_THROW(algorithm3_node(params, 0, 2, Xoshiro256(1)),
                 ContractViolation);  // non-binary input
}

TEST(SkeletonCommitteeFlip, MembersFlipNonMembersDoNot) {
    const auto params = AgreementParams::compute(12, 3);
    const NodeId s = params.schedule.block;
    // Member of committee 0:
    auto member = algorithm3_node(params, 0, 0, Xoshiro256(7));
    (void)member.round_send(0);
    const auto m = member.round_send(1);
    ASSERT_TRUE(m.has_value());
    EXPECT_NE(m->coin, 0);
    // Non-member (last node, committee != 0 when s < n):
    ASSERT_LT(s, 12u);
    auto outsider = algorithm3_node(params, 11, 0, Xoshiro256(8));
    (void)outsider.round_send(0);
    const auto o = outsider.round_send(1);
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(o->coin, 0);
}

}  // namespace
}  // namespace adba::core
