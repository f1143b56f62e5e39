// Fused trial plane tests: 64-trials-per-word execution (scenario fused=true)
// must be BIT-IDENTICAL to the scalar path — same aggregates, sample order
// included — for every fused-capable (protocol, adversary) registry pair, at
// any thread count, through partial blocks (trials % 64 != 0), per-lane
// early-decide divergence, and checkpoint kill/resume. The word-parallel
// act of lane-uniform adversaries must equal the per-lane bridge, contract
// failures included, and the default chunk must hold whole blocks. Plus the
// feasibility rules (why_incompatible must name every rejected
// combination), the scenario key round trip, and a LaneAdder unit check
// against popcount.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adversary/static_adversary.hpp"
#include "net/fused_plane.hpp"
#include "net/tally_kernels.hpp"
#include "rand/rng.hpp"
#include "sim/inputs.hpp"
#include "sim/multivalued_runner.hpp"
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
    EXPECT_EQ(a.cap_exhausted, b.cap_exhausted);
    EXPECT_EQ(a.watchdog_timeouts, b.watchdog_timeouts);
    EXPECT_EQ(a.faulted, b.faulted);
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

std::string temp_path(const char* name) {
    return (std::filesystem::temp_directory_path() / name).string();
}

/// Forwards on_start and act only, like a timing decorator that knows
/// nothing of lane_uniform: wrapping every lane forces a block onto the
/// per-lane bridge.
class BridgeOnly final : public net::Adversary {
public:
    explicit BridgeOnly(std::unique_ptr<net::Adversary> inner) : inner_(std::move(inner)) {}
    void on_start(NodeId n, Count budget) override { inner_->on_start(n, budget); }
    void act(net::RoundControl& ctl) override { inner_->act(ctl); }

private:
    std::unique_ptr<net::Adversary> inner_;
};

/// The row a ScriptedUniform sends: val `low_val` (coin +1) below n / div,
/// the other value (coin -1) from there up, with the flag set, in kind
/// `even` in even rounds and `odd` in odd ones.
struct Script {
    net::MsgKind even = net::MsgKind::Vote1;
    net::MsgKind odd = net::MsgKind::Vote2;
    Bit low_val = 1;
    NodeId div = 3;
};

/// A lane-uniform strategy with a scripted set that no on_start checks and a
/// scripted row; counts its act() calls into `*acts` when given one.
class ScriptedUniform final : public net::Adversary {
public:
    ScriptedUniform(std::vector<NodeId> set, Script script, int* acts = nullptr)
        : set_(std::move(set)), script_(script), acts_(acts) {}
    void act(net::RoundControl& ctl) override {
        if (acts_ != nullptr) ++*acts_;
        lane_uniform(ctl.round(), ctl.n())->play(ctl);
    }
    std::optional<net::LaneUniformRound> lane_uniform(Round r, NodeId n) const override {
        net::Message low;
        low.kind = r % 2 == 0 ? script_.even : script_.odd;
        low.phase = r / 2;
        low.flag = 1;
        low.val = script_.low_val;
        low.coin = 1;
        net::Message high = low;
        high.val = static_cast<Bit>(1 - script_.low_val);
        high.coin = -1;
        return net::LaneUniformRound{set_, net::SplitRow{low, high, n / script_.div}};
    }

private:
    std::vector<NodeId> set_;
    Script script_;
    int* acts_;
};

/// Everything a finished fused block reports.
struct BlockOutcome {
    net::FusedLaneResult lanes[net::kFusedLanes];
    std::vector<std::uint64_t> byz, val;
};

void expect_block_eq(const BlockOutcome& a, const BlockOutcome& b) {
    for (unsigned j = 0; j < net::kFusedLanes; ++j) {
        SCOPED_TRACE("lane " + std::to_string(j));
        EXPECT_EQ(a.lanes[j].rounds, b.lanes[j].rounds);
        EXPECT_EQ(a.lanes[j].all_halted, b.lanes[j].all_halted);
        EXPECT_EQ(a.lanes[j].outcome, b.lanes[j].outcome);
        EXPECT_EQ(a.lanes[j].metrics.honest_messages, b.lanes[j].metrics.honest_messages);
        EXPECT_EQ(a.lanes[j].metrics.honest_bits, b.lanes[j].metrics.honest_bits);
        EXPECT_EQ(a.lanes[j].metrics.byzantine_messages, b.lanes[j].metrics.byzantine_messages);
        EXPECT_EQ(a.lanes[j].metrics.corruptions, b.lanes[j].metrics.corruptions);
        EXPECT_EQ(a.lanes[j].metrics.rounds, b.lanes[j].metrics.rounds);
    }
    EXPECT_EQ(a.byz, b.byz);
    EXPECT_EQ(a.val, b.val);
}

/// Runs one fused block of `plan`'s protocol, as the binary arena does,
/// against the adversaries `make(j, lane seeds, metadata)` builds.
template <typename MakeAdversary>
BlockOutcome run_block(const sim::ScenarioPlan& plan, std::uint64_t base_seed,
                       MakeAdversary&& make) {
    const sim::Scenario& s = plan.scenario;
    const NodeId n = s.n;
    const std::unique_ptr<net::FusedProtocol> proto = plan.protocol->make_fused(s);
    sim::ProtocolBundle meta;
    const sim::BudgetHint hint = plan.protocol->budgets(s);
    meta.phases = hint.phases;
    meta.default_max_rounds = hint.max_rounds;
    if (plan.protocol->schedule_of) meta.schedule = plan.protocol->schedule_of(s);

    std::vector<SeedTree> seeds;
    seeds.reserve(net::kFusedLanes);
    std::vector<std::uint64_t> input_plane(n, 0);
    std::vector<Bit> inputs;
    std::vector<std::unique_ptr<net::Adversary>> owned;
    net::Adversary* advs[net::kFusedLanes];
    for (unsigned j = 0; j < net::kFusedLanes; ++j) {
        seeds.emplace_back(mix64(base_seed + j));
        sim::make_inputs(s.inputs, n, seeds.back(), inputs);
        for (NodeId v = 0; v < n; ++v) input_plane[v] |= std::uint64_t{inputs[v]} << j;
        owned.push_back(make(j, seeds.back(), meta));
        advs[j] = owned.back().get();
    }
    proto->rearm(input_plane.data(), seeds.data());
    net::FusedBlock block;
    BlockOutcome out;
    block.run(*proto, advs, s.t, s.max_rounds_override ? s.max_rounds_override
                                                        : meta.default_max_rounds,
              out.lanes);
    out.byz.assign(block.byz_plane(), block.byz_plane() + n);
    out.val.assign(proto->value_plane(), proto->value_plane() + n);
    return out;
}

/// The block against the registry adversary, direct and wrapped in
/// BridgeOnly.
std::pair<BlockOutcome, BlockOutcome> uniform_and_bridge(const sim::ScenarioPlan& plan,
                                                         std::uint64_t seed) {
    const auto registry = [&](bool bridge) {
        return [&plan, bridge](unsigned, const SeedTree& seeds,
                               const sim::ProtocolBundle& meta) {
            std::unique_ptr<net::Adversary> a =
                plan.adversary->make_adversary(plan.scenario, meta, seeds);
            if (bridge) a = std::make_unique<BridgeOnly>(std::move(a));
            return a;
        };
    };
    return {run_block(plan, seed, registry(false)), run_block(plan, seed, registry(true))};
}

/// The ContractViolation text a block run raises ("" when none).
template <typename MakeAdversary>
std::string block_error(const sim::ScenarioPlan& plan, MakeAdversary&& make) {
    try {
        (void)run_block(plan, 0x5EED, make);
    } catch (const ContractViolation& e) {
        return e.what();
    }
    return {};
}

// ---------------------------------------------------------------------------
// LaneAdder: bit-sliced column counts must equal per-lane popcounts.

TEST(FusedPlane, LaneAdderMatchesPerLanePopcount) {
    Xoshiro256 rng(0xADDE);
    for (int iter = 0; iter < 20; ++iter) {
        const unsigned rows = 1 + static_cast<unsigned>(rng.below(300));
        net::kern::LaneAdder adder;
        Count expect[net::kFusedLanes] = {};
        for (unsigned r = 0; r < rows; ++r) {
            const std::uint64_t w = rng();
            adder.add(w);
            for (unsigned j = 0; j < net::kFusedLanes; ++j)
                expect[j] += static_cast<Count>((w >> j) & 1u);
        }
        Count got[net::kFusedLanes];
        adder.counts(got);
        for (unsigned j = 0; j < net::kFusedLanes; ++j)
            ASSERT_EQ(got[j], expect[j]) << "rows=" << rows << " lane=" << j;
    }
}

// ---------------------------------------------------------------------------
// Every fused-capable registry pair: fused == scalar, bit for bit, through
// one whole block plus a partial remainder, serial and threaded.

TEST(FusedPlaneEquivalence, AllRegistryPairsFusedMatchesScalar) {
    const NodeId n = 25;
    const Count trials = 70;  // one 64-lane block + 6 scalar-remainder trials
    Count covered = 0;
    for (const sim::ProtocolEntry* p : sim::ProtocolRegistry::instance().list()) {
        if (p->make_fused == nullptr) continue;
        for (const sim::AdversaryEntry* a : sim::AdversaryRegistry::instance().list()) {
            if (!a->supports_fused) continue;
            sim::Scenario s;
            s.protocol = p->kind;
            s.adversary = a->kind;
            s.n = n;
            s.t = max_t(*p, n);
            s.inputs = sim::InputPattern::Split;
            s.local_coin_phases = 12;  // keep the private-coin runs bounded
            s.use_fused = true;
            if (!sim::compatible(s)) continue;
            ++covered;
            SCOPED_TRACE(p->name + " vs " + a->name);

            sim::Scenario scalar = s;
            scalar.use_fused = false;

            // One chunk holding the whole range: the fused path runs one
            // block plus the scalar remainder inside it.
            const sim::ExecutorConfig serial{1, trials};
            const sim::Aggregate fused = sim::run_trials(s, 0xBA7C5, trials, serial);
            const sim::Aggregate ref = sim::run_trials(scalar, 0xBA7C5, trials, serial);
            expect_aggregate_eq(fused, ref);

            // Thread/chunk invariance of the fused path: chunks below 64
            // trials degrade to all-scalar, at 64+ they fuse — either way
            // the merged aggregate is the same object.
            const sim::Aggregate par = sim::run_trials(s, 0xBA7C5, trials, {8, 64});
            expect_aggregate_eq(fused, par);
        }
    }
    // 8 fused protocols x 5 fused adversaries, minus the schedule
    // constraint (crash-targeted-coin needs a committee schedule: only
    // ours / ours-lv / chor-coan x2 qualify) = 8*4 + 4.
    EXPECT_GE(covered, 36u) << "fused registry coverage unexpectedly low";
}

// ---------------------------------------------------------------------------
// Divergence fuzz: random (protocol, adversary, inputs, n, seed) tuples at
// exactly one block, so lanes that decide in different rounds (early-decide
// divergence) exercise the active-mask retirement path.

TEST(FusedPlaneEquivalence, FuzzDivergentLanesMatchBitIdentically) {
    const NodeId sizes[] = {4, 7, 26, 61};
    const sim::InputPattern patterns[] = {
        sim::InputPattern::AllZero, sim::InputPattern::AllOne,
        sim::InputPattern::Split, sim::InputPattern::Random};
    const auto protocols = sim::ProtocolRegistry::instance().list();
    const auto adversaries = sim::AdversaryRegistry::instance().list();

    Xoshiro256 rng(0xF05ED);
    Count checked = 0;
    for (int iter = 0; iter < 300 && checked < 24; ++iter) {
        const auto* p = protocols[rng.below(protocols.size())];
        if (p->make_fused == nullptr) continue;
        const auto* a = adversaries[rng.below(adversaries.size())];
        if (!a->supports_fused) continue;
        sim::Scenario s;
        s.protocol = p->kind;
        s.adversary = a->kind;
        s.n = sizes[rng.below(4)];
        s.t = max_t(*p, s.n);
        if (s.t > 0 && rng.bernoulli(0.3)) s.q = static_cast<Count>(rng.below(s.t + 1));
        s.inputs = patterns[rng.below(4)];
        s.local_coin_phases = 10;
        s.use_fused = true;
        if (!sim::compatible(s)) continue;
        ++checked;
        const std::uint64_t seed = rng();
        SCOPED_TRACE(p->name + " vs " + a->name + " n=" + std::to_string(s.n) +
                     " seed=" + std::to_string(seed));

        sim::Scenario scalar = s;
        scalar.use_fused = false;
        const sim::ExecutorConfig serial{1, 64};
        expect_aggregate_eq(sim::run_trials(s, seed, 64, serial),
                            sim::run_trials(scalar, seed, 64, serial));
    }
    EXPECT_GE(checked, 16u) << "fuzz sweep sampled too few fused scenarios";
}

// ---------------------------------------------------------------------------
// Partial blocks: every remainder class around the 64-lane boundary runs
// the right mix of fused blocks and scalar tail trials.

TEST(FusedPlaneEquivalence, PartialBlockRemaindersMatchScalar) {
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::Static;
    s.n = 24;
    s.t = 7;
    s.inputs = sim::InputPattern::Split;
    s.use_fused = true;
    sim::Scenario scalar = s;
    scalar.use_fused = false;

    for (Count trials : {Count{1}, Count{63}, Count{64}, Count{65}, Count{130}}) {
        SCOPED_TRACE("trials=" + std::to_string(trials));
        const sim::ExecutorConfig serial{1, trials};
        expect_aggregate_eq(sim::run_trials(s, 0xFEED, trials, serial),
                            sim::run_trials(scalar, 0xFEED, trials, serial));
    }
}

// ---------------------------------------------------------------------------
// Checkpoint kill/resume: a fused journal cut after k chunks resumes to the
// same bytes the scalar path produces, at 1 and 8 threads.

TEST(FusedPlaneEquivalence, CheckpointResumeIsBitIdentical) {
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::SplitVote;
    s.n = 22;
    s.t = 7;
    s.inputs = sim::InputPattern::Random;
    s.use_fused = true;
    sim::Scenario scalar = s;
    scalar.use_fused = false;
    const Count trials = 192;  // 3 chunks of 64, each one whole fused block

    const sim::Aggregate expected =
        sim::run_trials(scalar, 0xC4E5, trials, sim::ExecutorConfig{1, 64});

    const std::string full = temp_path("fused_ck_full.bin");
    std::filesystem::remove(full);
    expect_aggregate_eq(
        sim::run_trials(s, 0xC4E5, trials, sim::ExecutorConfig{1, 64, full, false}),
        expected);

    // Cut the journal after its first record (header + one chunk) and
    // resume: recovered partial + freshly fused chunks must still equal the
    // scalar aggregate byte for byte.
    std::ifstream in(full, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_EQ(bytes.substr(0, 8), "ADBACKP1");
    // Header: magic | u64 | u64 | u32 | u32 | u32+len | u32+len, then
    // records of 20 bytes + payload (the frozen ADBACKP1 layout).
    const auto u32_at = [&](std::size_t at) {
        std::uint32_t v = 0;
        std::memcpy(&v, bytes.data() + at, sizeof v);
        return v;
    };
    std::size_t at = 8 + 8 + 8 + 4 + 4;
    at += 4 + u32_at(at);
    at += 4 + u32_at(at);
    const std::size_t first_record_end = at + 20 + u32_at(at + 8);

    for (unsigned threads : {1u, 8u}) {
        const std::string cut = temp_path("fused_ck_cut.bin");
        std::filesystem::remove(cut);
        {
            std::ofstream out(cut, std::ios::binary | std::ios::trunc);
            out << bytes.substr(0, first_record_end);
        }
        const sim::Aggregate resumed =
            sim::run_trials(s, 0xC4E5, trials, sim::ExecutorConfig{threads, 64, cut, true});
        expect_aggregate_eq(resumed, expected);
    }
}

// ---------------------------------------------------------------------------
// Lane-uniform adversaries act on 64-lane masks with one shared row; the
// per-lane bridge is the oracle. Every fused protocol x {none, static,
// split-vote}, q < t and q = t, split and unanimous inputs, n in {7, 64, 200}.

TEST(FusedLaneUniform, WordParallelActMatchesThePerLaneBridge) {
    Count covered = 0;
    bool divergent = false;
    for (const NodeId n : {NodeId{7}, NodeId{64}, NodeId{200}}) {
        for (const sim::ProtocolEntry* p : sim::ProtocolRegistry::instance().list()) {
            if (p->make_fused == nullptr) continue;
            for (const sim::AdversaryKind adv :
                 {sim::AdversaryKind::None, sim::AdversaryKind::Static,
                  sim::AdversaryKind::SplitVote}) {
                for (const bool full_q : {false, true}) {
                    for (const sim::InputPattern inputs :
                         {sim::InputPattern::Split, sim::InputPattern::AllOne}) {
                        sim::Scenario s;
                        s.protocol = p->kind;
                        s.adversary = adv;
                        s.n = n;
                        s.t = max_t(*p, n);
                        if (!full_q) s.q = s.t / 2;
                        s.inputs = inputs;
                        s.local_coin_phases = 8;  // keep the private-coin runs bounded
                        s.use_fused = true;
                        if (!sim::compatible(s)) continue;
                        ++covered;
                        SCOPED_TRACE(s.describe());
                        const auto [uniform, bridge] =
                            uniform_and_bridge(sim::validate(s), 0xA11 + n);
                        expect_block_eq(uniform, bridge);
                        for (unsigned j = 1; j < net::kFusedLanes; ++j)
                            divergent |= uniform.lanes[j].rounds != uniform.lanes[0].rounds;
                    }
                }
            }
        }
    }
    EXPECT_GE(covered, 130u) << "lane-uniform coverage unexpectedly low";
    EXPECT_TRUE(divergent) << "no block retired its lanes at different rounds";
}

TEST(FusedLaneUniform, LanesWithADifferentRowTakeTheBridgeRows) {
    // Lanes mix three lane-uniform strategies: the static split row (shared
    // from lane 0), a silent static set, and a scripted row at another
    // boundary that must go out as per-lane rows.
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::Static;
    s.n = 40;
    s.t = 13;
    s.inputs = sim::InputPattern::Split;
    s.use_fused = true;
    const sim::ScenarioPlan plan = sim::validate(s);
    const auto mixed = [](bool bridge) {
        return [bridge](unsigned j, const SeedTree& seeds, const sim::ProtocolBundle&) {
            std::unique_ptr<net::Adversary> a;
            if (j % 3 == 2)
                a = std::make_unique<ScriptedUniform>(std::vector<NodeId>{1, 5, 9, 30},
                                                      Script{});
            else
                a = std::make_unique<adv::StaticAdversary>(
                    j % 3 == 0 ? 13 : 7,
                    j % 3 == 0 ? adv::StaticBehavior::SplitVotes : adv::StaticBehavior::Silent,
                    seeds.stream(StreamPurpose::Adversary));
            if (bridge) a = std::make_unique<BridgeOnly>(std::move(a));
            return a;
        };
    };
    expect_block_eq(run_block(plan, 0x313, mixed(false)), run_block(plan, 0x313, mixed(true)));
}

TEST(FusedLaneUniform, RowsOfEveryProtocolKindFoldWithPerLaneWeights) {
    // The registry strategies send skeleton votes, which Ben-Or and
    // phase-king ignore; scripted rows in each protocol's own kinds make
    // their folds, the committee coin and the king probe read the shared
    // row. Lane j corrupts nodes 0..(j mod (t+1))-1 — the kings of the
    // first phases among them — so every lane weighs the row differently.
    struct Case {
        sim::ProtocolKind protocol;
        NodeId n;
        Count t;
        net::MsgKind even, odd;
    };
    const Case cases[] = {
        {sim::ProtocolKind::Ours, 40, 13, net::MsgKind::Vote1, net::MsgKind::Vote2},
        {sim::ProtocolKind::BenOr, 41, 8, net::MsgKind::BenOrReport, net::MsgKind::BenOrPropose},
        {sim::ProtocolKind::PhaseKing, 40, 9, net::MsgKind::PhaseKingSend,
         net::MsgKind::PhaseKingRuler},
    };
    for (const Case& c : cases) {
        sim::Scenario s;
        s.protocol = c.protocol;
        s.adversary = sim::AdversaryKind::Static;
        s.n = c.n;
        s.t = c.t;
        s.inputs = sim::InputPattern::Split;
        s.local_coin_phases = 8;
        s.use_fused = true;
        const sim::ScenarioPlan plan = sim::validate(s);
        for (const Bit low_val : {Bit{0}, Bit{1}}) {
            for (const NodeId div : {NodeId{2}, NodeId{3}}) {
                SCOPED_TRACE(s.describe() + " low_val=" + std::to_string(low_val) +
                             " div=" + std::to_string(div));
                const Script script{c.even, c.odd, low_val, div};
                const auto make = [&](bool bridge) {
                    return [&, bridge](unsigned j, const SeedTree&, const sim::ProtocolBundle&) {
                        std::vector<NodeId> set(j % (c.t + 1));
                        for (NodeId v = 0; v < set.size(); ++v) set[v] = v;
                        std::unique_ptr<net::Adversary> a =
                            std::make_unique<ScriptedUniform>(std::move(set), script);
                        if (bridge) a = std::make_unique<BridgeOnly>(std::move(a));
                        return a;
                    };
                };
                expect_block_eq(run_block(plan, 0x77 + div, make(false)),
                                run_block(plan, 0x77 + div, make(true)));
            }
        }
    }
}

TEST(FusedLaneUniform, SharedRowChargesEachLaneItsOwnSetSize) {
    // One shared split-vote row from 64 static sets of 64 distinct sizes
    // (37j mod 67, so lane 0's is empty) at n = 200, a partial last word.
    // Each lane's byzantine_messages and fold weights must come from its own
    // set size; one count charged to every lane would break the bridge
    // equality below.
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::SplitVote;
    s.n = 200;
    s.t = 66;
    s.inputs = sim::InputPattern::Split;
    s.use_fused = true;
    const sim::ScenarioPlan plan = sim::validate(s);
    const auto sized = [&s](bool bridge) {
        return [&s, bridge](unsigned j, const SeedTree& seeds, const sim::ProtocolBundle&) {
            std::unique_ptr<net::Adversary> a = std::make_unique<adv::StaticAdversary>(
                static_cast<Count>(37 * j % (s.t + 1)), adv::StaticBehavior::SplitVotes,
                seeds.stream(StreamPurpose::Adversary));
            if (bridge) a = std::make_unique<BridgeOnly>(std::move(a));
            return a;
        };
    };
    bool divergent = false;
    for (const std::uint64_t seed : {0x5A1u, 0x5A2u, 0x5A3u, 0x5A4u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        const BlockOutcome uniform = run_block(plan, seed, sized(false));
        expect_block_eq(uniform, run_block(plan, seed, sized(true)));
        EXPECT_EQ(uniform.lanes[0].metrics.byzantine_messages, 0u);
        for (unsigned j = 1; j < net::kFusedLanes; ++j) {
            EXPECT_EQ(uniform.lanes[j].metrics.corruptions, 37 * j % (s.t + 1));
            EXPECT_GT(uniform.lanes[j].metrics.byzantine_messages, 0u);
            divergent |= uniform.lanes[j].rounds != uniform.lanes[0].rounds;
        }
    }
    EXPECT_TRUE(divergent) << "no block retired its lanes at different rounds";
}

TEST(FusedLaneUniform, WordWiseContractsRaiseTheBridgeMessages) {
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::Static;
    s.n = 16;
    s.t = 3;
    s.inputs = sim::InputPattern::Split;
    s.use_fused = true;
    const sim::ScenarioPlan plan = sim::validate(s);
    // Lanes 3 and 9 get the scripted sets; every other lane corrupts {0}.
    int acts = 0;
    using Sets = std::pair<std::vector<NodeId>, std::vector<NodeId>>;
    const auto scripted = [&acts](const Sets& sets, bool bridge) {
        return [sets, bridge, &acts](unsigned j, const SeedTree&, const sim::ProtocolBundle&) {
            std::unique_ptr<net::Adversary> a = std::make_unique<ScriptedUniform>(
                j == 3 ? sets.first : j == 9 ? sets.second : std::vector<NodeId>{0},
                Script{}, &acts);
            if (bridge) a = std::make_unique<BridgeOnly>(std::move(a));
            return a;
        };
    };
    // The first failing (lane, node) in the bridge's order names the error.
    const std::pair<Sets, const char*> cases[] = {
        {{{0}, {2, 4, 6, 8}}, "corruption budget exhausted"},
        {{{0}, {2, 5, 2}}, "cannot corrupt an already-Byzantine node"},
        {{{0}, {3, 16}}, "v < frame_->n()"},
        {{{2, 4, 6, 8, 2}, {0}}, "corruption budget exhausted"},
        {{{2, 2, 4, 6, 8}, {3, 16}}, "cannot corrupt an already-Byzantine node"},
        {{{16}, {2, 5, 2}}, "v < frame_->n()"},
        {{{1, 2, 3}, {2, 4, 6, 8}}, "corruption budget exhausted"},
    };
    for (const auto& [sets, message] : cases) {
        SCOPED_TRACE(message);
        const std::string bridge = block_error(plan, scripted(sets, true));
        EXPECT_NE(bridge.find(message), std::string::npos) << bridge;
        EXPECT_EQ(block_error(plan, scripted(sets, false)), bridge);
    }
    // Sets within the budget run, both paths agree, and only the bridge
    // calls act(): the word-parallel path replaces every call.
    const Sets fit{{1, 2, 3}, {2, 4, 6}};
    acts = 0;
    const BlockOutcome uniform = run_block(plan, 0x5EED, scripted(fit, false));
    EXPECT_EQ(acts, 0);
    const BlockOutcome bridge = run_block(plan, 0x5EED, scripted(fit, true));
    EXPECT_GE(acts, static_cast<int>(net::kFusedLanes));
    expect_block_eq(uniform, bridge);
}

// ---------------------------------------------------------------------------
// Whole-block chunks: the default chunk of a fused plan is a multiple of 64,
// so only a run's last chunk can end in a scalar remainder.

sim::Scenario fused_ours(NodeId n, Count t) {
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::Static;
    s.n = n;
    s.t = t;
    s.inputs = sim::InputPattern::Split;
    s.use_fused = true;
    return s;
}

TEST(FusedPlaneChunks, DefaultChunkIsWholeBlocksOnlyWhenFused) {
    sim::Scenario s = fused_ours(32, 9);
    const sim::ScenarioPlan fused = sim::validate(s);
    s.use_fused = false;
    const sim::ScenarioPlan scalar = sim::validate(s);
    for (const Count trials : {Count{1}, Count{130}, Count{1000}, Count{64000}, Count{200000}}) {
        SCOPED_TRACE("trials=" + std::to_string(trials));
        const Count chunk = sim::plan_chunk<sim::BinaryWorkload>(fused, trials, {});
        EXPECT_EQ(chunk % net::kFusedLanes, 0u);
        EXPECT_GE(chunk, sim::detail::auto_chunk(trials));
        EXPECT_LT(chunk - sim::detail::auto_chunk(trials), net::kFusedLanes);
        EXPECT_EQ(sim::plan_chunk<sim::BinaryWorkload>(scalar, trials, {}),
                  sim::detail::auto_chunk(trials));
        EXPECT_EQ(sim::plan_chunk<sim::BinaryWorkload>(fused, trials, {1, 1000}), 1000u);
    }
    EXPECT_EQ(sim::plan_chunk<sim::BinaryWorkload>(fused, 64000, {}), 1024u);
}

TEST(FusedPlaneChunks, DefaultChunkMatchesExplicitChunkAndScalar) {
    const sim::Scenario s = fused_ours(20, 6);
    sim::Scenario scalar = s;
    scalar.use_fused = false;
    const Count trials = 3000;  // auto_chunk 46 -> 64; chunk 1000 = 15 blocks + 40
    const sim::Aggregate ref = sim::run_trials(scalar, 0xC0DE, trials, {1, 0});
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expect_aggregate_eq(sim::run_trials(s, 0xC0DE, trials, {threads, 0}), ref);
        expect_aggregate_eq(sim::run_trials(s, 0xC0DE, trials, {threads, 1000}), ref);
    }
}

TEST(FusedPlaneChunks, CiSmokeShapeRunsFusedBlocksAtEveryThreadCount) {
    // adba_sim's fused smoke: 130 trials, default chunk. Chunks of 64, 64
    // and 2: each whole-block chunk builds one fused protocol in its arena.
    const sim::Scenario s = fused_ours(32, 9);
    sim::Scenario scalar = s;
    scalar.use_fused = false;
    const sim::Aggregate ref = sim::run_trials(scalar, 3, 130, {1, 0});
    const sim::ScenarioPlan live = sim::validate(s);
    std::atomic<int> built{0};
    sim::ProtocolEntry counted = *live.protocol;
    counted.make_fused = [&built, make = live.protocol->make_fused](const sim::Scenario& sc) {
        ++built;
        return make(sc);
    };
    sim::ScenarioPlan plan = live;
    plan.protocol = &counted;
    for (const unsigned threads : {2u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        built = 0;
        expect_aggregate_eq(sim::run_trials(plan, 3, 130, {threads, 0}), ref);
        EXPECT_EQ(built.load(), 2);
    }
}

TEST(FusedPlaneChunks, KilledJournalResumesUnderTheDefaultChunk) {
    const sim::Scenario s = fused_ours(22, 7);
    sim::Scenario scalar = s;
    scalar.use_fused = false;
    const Count trials = 200;  // auto_chunk 3 -> 64: chunks of 64, 64, 64 and 8
    const sim::Aggregate expected = sim::run_trials(scalar, 0xD00D, trials, {1, 0});

    const std::string full = temp_path("fused_ck_default.bin");
    std::filesystem::remove(full);
    expect_aggregate_eq(sim::run_trials(s, 0xD00D, trials, {1, 0, full, false}), expected);
    std::ifstream in(full, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    const auto u32_at = [&](std::size_t at) {
        std::uint32_t v = 0;
        std::memcpy(&v, bytes.data() + at, sizeof v);
        return v;
    };
    // Header: magic | u64 seed | u64 stride | u32 trials | u32 chunk | ...
    EXPECT_EQ(u32_at(8 + 8 + 8 + 4), 64u) << "the journal pins the aligned chunk";
    std::size_t at = 8 + 8 + 8 + 4 + 4;
    at += 4 + u32_at(at);
    at += 4 + u32_at(at);
    const std::size_t first_record_end = at + 20 + u32_at(at + 8);

    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const std::string cut = temp_path("fused_ck_default_cut.bin");
        std::filesystem::remove(cut);
        {
            std::ofstream out(cut, std::ios::binary | std::ios::trunc);
            out << bytes.substr(0, first_record_end);
        }
        expect_aggregate_eq(sim::run_trials(s, 0xD00D, trials, {threads, 0, cut, true}),
                            expected);
    }
}

// ---------------------------------------------------------------------------
// Feasibility: every rejected combination states why, by name.

TEST(FusedPlaneRegistry, WhyIncompatibleNamesEveryRejection) {
    const auto why = [](sim::Scenario s) {
        const auto msg = sim::why_incompatible(s);
        return msg ? *msg : std::string{};
    };

    sim::Scenario base;
    base.protocol = sim::ProtocolKind::Ours;
    base.adversary = sim::AdversaryKind::Static;
    base.n = 16;
    base.t = 5;
    base.use_fused = true;
    ASSERT_TRUE(sim::compatible(base));

    // Protocol without a fused form (t set to its own resilience bound so
    // the fused rule, not the resilience rule, is what fires).
    sim::Scenario s = base;
    s.protocol = sim::ProtocolKind::SamplingMajority;
    s.t = max_t(sim::ProtocolRegistry::instance().at(s.protocol), s.n);
    EXPECT_NE(why(s).find("fused-capable protocol"), std::string::npos) << why(s);
    EXPECT_NE(why(s).find("ours"), std::string::npos) << why(s);

    // Adversaries outside the lane-masked split_as bridge. (Balancer and
    // king-killer carry requires_protocol rules that fire first, so the
    // generic sweep uses the unrestricted ones and king-killer is paired
    // with its own protocol below.)
    for (const auto kind :
         {sim::AdversaryKind::Chaos, sim::AdversaryKind::WorstCase}) {
        s = base;
        s.adversary = kind;
        EXPECT_NE(why(s).find("fused plane"), std::string::npos) << why(s);
        EXPECT_NE(why(s).find("static"), std::string::npos)
            << "rejection should list the fused-capable alternatives: " << why(s);
    }
    s = base;
    s.protocol = sim::ProtocolKind::PhaseKing;
    s.t = 3;
    s.adversary = sim::AdversaryKind::KingKiller;
    EXPECT_NE(why(s).find("fused plane"), std::string::npos) << why(s);

    // Plane/oracle/transcript/batch/watchdog conflicts.
    s = base;
    s.sparse_plane = true;
    EXPECT_NE(why(s).find("plane=sparse"), std::string::npos) << why(s);
    s = base;
    s.reference_delivery = true;
    EXPECT_NE(why(s).find("reference"), std::string::npos) << why(s);
    s = base;
    s.record_transcript = true;
    EXPECT_NE(why(s).find("transcript"), std::string::npos) << why(s);
    s = base;
    s.use_batch = false;
    EXPECT_NE(why(s).find("batch=false"), std::string::npos) << why(s);
    s = base;
    s.watchdog_ms = 5;
    EXPECT_NE(why(s).find("watchdog"), std::string::npos) << why(s);

    // The multi-valued stack has no fused key at all.
    EXPECT_THROW((void)sim::MvScenario::parse("n=16 t=5 fused=true"),
                 ContractViolation);
}

TEST(FusedPlaneRegistry, ScenarioFusedKeyRoundTrips) {
    sim::Scenario s;
    s.n = 16;
    s.t = 5;
    s.use_fused = true;
    EXPECT_NE(s.describe().find("fused=true"), std::string::npos);
    EXPECT_EQ(sim::Scenario::parse(s.describe()), s);
    EXPECT_FALSE(sim::Scenario::parse("n=16 t=5").use_fused);
    EXPECT_TRUE(sim::Scenario::parse("n=16 t=5 fused=on").use_fused);
    EXPECT_FALSE(sim::Scenario::parse("n=16 t=5 fused=off").use_fused);
}

TEST(FusedPlaneRegistry, FusedCapabilityFlagsMatchThePlan) {
    const auto& protocols = sim::ProtocolRegistry::instance();
    for (const char* name : {"ours", "ours-las-vegas", "chor-coan-rushing",
                             "chor-coan-classic", "rabin-dealer", "local-coin",
                             "ben-or", "phase-king"})
        EXPECT_TRUE(protocols.at(std::string(name)).make_fused != nullptr) << name;
    EXPECT_TRUE(protocols.at("sampling-majority").make_fused == nullptr);

    const auto& adversaries = sim::AdversaryRegistry::instance();
    for (const char* name :
         {"none", "static", "split-vote", "crash-random", "crash-targeted-coin"})
        EXPECT_TRUE(adversaries.at(std::string(name)).supports_fused) << name;
    for (const char* name : {"chaos", "worst-case", "king-killer", "balancer"})
        EXPECT_FALSE(adversaries.at(std::string(name)).supports_fused) << name;
}

}  // namespace
}  // namespace adba
