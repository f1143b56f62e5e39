// Registry tests: every name and alias resolves to the right entry,
// Scenario::parse/describe round-trips through the registries, and unknown
// or incompatible selections fail with actionable messages.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/coin_runner.hpp"
#include "sim/macro.hpp"
#include "sim/registry.hpp"
#include "sim/sweep.hpp"
#include "support/contracts.hpp"

namespace adba::sim {
namespace {

std::string thrown_message(const std::function<void()>& f) {
    try {
        f();
    } catch (const ContractViolation& e) {
        return e.what();
    }
    return "";
}

std::string upper(std::string s) {
    for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return s;
}

// --------------------------------------------------------------- resolution

TEST(Registry, EveryProtocolKindRegistered) {
    const auto& reg = ProtocolRegistry::instance();
    EXPECT_EQ(reg.list().size(), 9u);
    for (const auto kind :
         {ProtocolKind::Ours, ProtocolKind::OursLasVegas, ProtocolKind::ChorCoanRushing,
          ProtocolKind::ChorCoanClassic, ProtocolKind::RabinDealer,
          ProtocolKind::LocalCoin, ProtocolKind::BenOr, ProtocolKind::PhaseKing,
          ProtocolKind::SamplingMajority}) {
        const ProtocolEntry& e = reg.at(kind);
        EXPECT_EQ(e.kind, kind);
        EXPECT_TRUE(e.supports) << e.name;
        EXPECT_TRUE(e.make_nodes) << e.name;
        EXPECT_TRUE(e.budgets) << e.name;
        EXPECT_FALSE(e.resilience.empty()) << e.name;
    }
}

TEST(Registry, EveryAdversaryKindRegistered) {
    const auto& reg = AdversaryRegistry::instance();
    EXPECT_EQ(reg.list().size(), 9u);
    for (const auto kind :
         {AdversaryKind::None, AdversaryKind::Static, AdversaryKind::SplitVote,
          AdversaryKind::Chaos, AdversaryKind::CrashRandom,
          AdversaryKind::CrashTargetedCoin, AdversaryKind::WorstCase,
          AdversaryKind::KingKiller, AdversaryKind::Balancer}) {
        const AdversaryEntry& e = reg.at(kind);
        EXPECT_EQ(e.kind, kind);
        EXPECT_TRUE(e.make_adversary) << e.name;
    }
}

TEST(Registry, NamesAndAliasesResolveToSameEntry) {
    const auto& reg = ProtocolRegistry::instance();
    for (const ProtocolEntry* e : reg.list()) {
        EXPECT_EQ(&reg.at(e->name), e);
        for (const auto& alias : e->aliases)
            EXPECT_EQ(&reg.at(alias), e) << alias;
    }
    const auto& areg = AdversaryRegistry::instance();
    for (const AdversaryEntry* e : areg.list()) {
        EXPECT_EQ(&areg.at(e->name), e);
        for (const auto& alias : e->aliases)
            EXPECT_EQ(&areg.at(alias), e) << alias;
    }
    const auto& mreg = MvAdversaryRegistry::instance();
    for (const MvAdversaryEntry* e : mreg.list()) {
        EXPECT_EQ(&mreg.at(e->name), e);
        for (const auto& alias : e->aliases)
            EXPECT_EQ(&mreg.at(alias), e) << alias;
    }
}

TEST(Registry, LookupIsCaseInsensitive) {
    EXPECT_EQ(ProtocolRegistry::instance().at("OURS").kind, ProtocolKind::Ours);
    EXPECT_EQ(AdversaryRegistry::instance().at("Worst-Case").kind,
              AdversaryKind::WorstCase);
}

TEST(Registry, DisplayNamesMatchToString) {
    for (const ProtocolEntry* e : ProtocolRegistry::instance().list())
        EXPECT_EQ(to_string(e->kind), e->display);
    for (const AdversaryEntry* e : AdversaryRegistry::instance().list())
        EXPECT_EQ(to_string(e->kind), e->display);
    for (const MvAdversaryEntry* e : MvAdversaryRegistry::instance().list())
        EXPECT_EQ(to_string(e->kind), e->display);
}

TEST(Registry, UnknownNameThrowsWithKnownList) {
    const std::string msg = thrown_message(
        [] { ProtocolRegistry::instance().at("paxos"); });
    EXPECT_NE(msg.find("unknown protocol 'paxos'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ours"), std::string::npos) << msg;
    EXPECT_NE(msg.find("phase-king"), std::string::npos) << msg;
    EXPECT_EQ(AdversaryRegistry::instance().find("paxos"), nullptr);
}

TEST(Registry, StrongestAdversaryComesFromMetadata) {
    for (const ProtocolEntry* e : ProtocolRegistry::instance().list())
        EXPECT_EQ(strongest_adversary(e->kind), e->strongest) << e->name;
    // The pairing itself must be compatible at a feasible (n, t).
    for (const ProtocolEntry* e : ProtocolRegistry::instance().list()) {
        Scenario s;
        s.n = 64;
        s.t = 12;  // feasible for every registered resilience class
        s.protocol = e->kind;
        s.adversary = e->strongest;
        EXPECT_TRUE(compatible(s)) << e->name;
    }
}

// ------------------------------------------------------------- feasibility

TEST(Registry, SupportsMatchesResilienceBounds) {
    const auto& reg = ProtocolRegistry::instance();
    EXPECT_TRUE(reg.at("phase-king").supports(17, 4));
    EXPECT_FALSE(reg.at("phase-king").supports(16, 4));
    EXPECT_TRUE(reg.at("ben-or").supports(16, 3));
    EXPECT_FALSE(reg.at("ben-or").supports(15, 3));
    EXPECT_TRUE(reg.at("ours").supports(10, 3));
    EXPECT_FALSE(reg.at("ours").supports(9, 3));
}

TEST(Registry, IncompatiblePairsThrowActionably) {
    Scenario s;
    s.n = 64;
    s.t = 12;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::KingKiller;
    const std::string msg = thrown_message([&] { validate(s); });
    EXPECT_NE(msg.find("king-killer"), std::string::npos) << msg;
    EXPECT_NE(msg.find("phase-king"), std::string::npos) << msg;
    EXPECT_FALSE(compatible(s));

    s.protocol = ProtocolKind::PhaseKing;
    s.adversary = AdversaryKind::WorstCase;
    const std::string msg2 = thrown_message([&] { validate(s); });
    EXPECT_NE(msg2.find("committee-schedule"), std::string::npos) << msg2;
    EXPECT_NE(msg2.find("ours"), std::string::npos) << msg2;  // names the fix
    EXPECT_FALSE(compatible(s));
}

TEST(Registry, ResilienceViolationThrowsActionably) {
    Scenario s;
    s.n = 20;
    s.t = 5;  // 4t = n: outside phase-king's bound
    s.protocol = ProtocolKind::PhaseKing;
    s.adversary = AdversaryKind::KingKiller;
    const std::string msg = thrown_message([&] { validate(s); });
    EXPECT_NE(msg.find("t < n/4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("n=20"), std::string::npos) << msg;
    s.t = 4;
    EXPECT_TRUE(compatible(s));
}

TEST(Registry, AlphaBelowOneIsBadInput) {
    // Algorithm 3's committee count needs alpha >= 1: every workload that
    // computes it refuses a smaller alpha before any trial runs, naming the
    // key, its bound and the value. The Chor-Coan schedules have no such
    // bound.
    const std::string want = "alpha must be at least 1 (got alpha=0.5)";
    Scenario s;
    s.n = 64;
    s.t = 21;
    s.tuning.alpha = 0.5;
    for (const auto kind : {ProtocolKind::Ours, ProtocolKind::OursLasVegas}) {
        s.protocol = kind;
        EXPECT_EQ(why_incompatible(s), want);
        EXPECT_EQ(thrown_message([&] { validate(s); }), want);
    }
    s.protocol = ProtocolKind::ChorCoanRushing;
    EXPECT_TRUE(compatible(s));
    s.protocol = ProtocolKind::Ours;
    s.tuning.alpha = 1.0;
    EXPECT_TRUE(compatible(s));

    MvScenario mv;
    mv.n = 64;
    mv.t = 21;
    mv.tuning.alpha = 0.5;
    EXPECT_EQ(why_incompatible(mv), want);

    MacroScenario macro = MacroScenario::parse("n=4096 t=100 alpha=0.5");
    EXPECT_EQ(why_incompatible(macro), want);
    macro.schedule = MacroScheduleKind::ChorCoanRushing;
    EXPECT_TRUE(compatible(macro));
}

TEST(Registry, QExceedingTIsIncompatible) {
    Scenario s;
    s.n = 16;
    s.t = 5;
    s.q = 6;
    EXPECT_FALSE(compatible(s));
    EXPECT_THROW(validate(s), ContractViolation);
}

// ------------------------------------------------------- parse / describe

TEST(ScenarioSpec, ParseDescribeRoundTripsEveryCompatiblePair) {
    for (const ProtocolEntry* p : ProtocolRegistry::instance().list()) {
        for (const AdversaryEntry* a : AdversaryRegistry::instance().list()) {
            Scenario s;
            s.n = 64;
            s.t = 12;
            s.protocol = p->kind;
            s.adversary = a->kind;
            if (!compatible(s)) continue;
            EXPECT_EQ(Scenario::parse(s.describe()), s)
                << p->name << " vs " << a->name << ": " << s.describe();
        }
    }
}

/// `s` sets every key of `keys` off its default, so describe() writes each
/// one; alone off its default, each key round-trips and is written as
/// `key=value`, also when the spec spells the key in upper case.
template <typename S>
void expect_every_key_round_trips(const std::vector<SpecKey<S>>& keys, const S& s) {
    EXPECT_EQ(S::parse(s.describe()), s) << s.describe();
    for (const SpecKey<S>& key : keys) {
        EXPECT_FALSE(key.at_default(s)) << key.name << ": set it off its default";
        S one;
        key.parse(one, key.name, key.value(s));
        EXPECT_FALSE(key.at_default(one)) << key.name;
        EXPECT_EQ(S::parse(one.describe()), one) << one.describe();
        EXPECT_NE((" " + one.describe() + " ").find(" " + key.name + "=" + key.value(s) + " "),
                  std::string::npos)
            << one.describe();
        EXPECT_EQ(S::parse(upper(key.name) + "=" + key.value(s)), one) << key.name;
    }
}

TEST(ScenarioSpec, ParseDescribeRoundTripsNonDefaultFields) {
    Scenario s;
    s.n = 96;
    s.t = 21;
    s.q = 7;
    s.protocol = ProtocolKind::BenOr;
    s.adversary = AdversaryKind::SplitVote;
    s.inputs = InputPattern::Random;
    s.tuning.alpha = 2.5;
    s.tuning.gamma = 1.25;
    s.tuning.beta = 0.5;
    s.local_coin_phases = 17;
    s.sampling_kappa = 3.75;
    s.max_rounds_override = 99;
    s.reference_delivery = true;
    s.use_batch = false;
    s.use_simd = false;
    s.intra_threads = 3;
    s.sparse_plane = true;
    s.sample_degree = 48;
    s.sparse_seed = 11;
    s.use_fused = false;
    s.watchdog_ms = 500;
    EXPECT_EQ(scenario_keys().size(), 21u);
    expect_every_key_round_trips(scenario_keys(), s);

    MvScenario mv;
    mv.n = 96;
    mv.t = 21;
    mv.q = 7;
    mv.adversary = MvAdversaryKind::Chaos;
    mv.inputs = MvInputPattern::RandomTiny;
    mv.tuning.alpha = 2.5;
    mv.tuning.gamma = 1.25;
    mv.tuning.beta = 0.5;
    mv.fallback = 9;
    mv.las_vegas = true;
    mv.reference_delivery = true;
    mv.use_simd = false;
    mv.watchdog_ms = 500;
    EXPECT_EQ(mv_scenario_keys().size(), 13u);
    expect_every_key_round_trips(mv_scenario_keys(), mv);

    CoinScenario coin;
    coin.n = 64;
    coin.designated = 16;
    coin.f = 3;
    coin.attack = adv::CoinAttack::ForceBit;
    coin.forced_bit = 1;
    EXPECT_EQ(coin_scenario_keys().size(), 5u);
    expect_every_key_round_trips(coin_scenario_keys(), coin);
    EXPECT_EQ(coin.describe(), "n=64 k=16 f=3 attack=force-bit forced_bit=1");

    MacroScenario macro;
    macro.n = 4096;
    macro.t = 64;
    macro.q = 32;
    macro.schedule = MacroScheduleKind::ChorCoanClassic;
    macro.tuning.alpha = 2.5;
    macro.tuning.gamma = 1.25;
    macro.tuning.beta = 0.5;
    EXPECT_EQ(macro_scenario_keys().size(), 7u);
    expect_every_key_round_trips(macro_scenario_keys(), macro);
    EXPECT_EQ(macro.describe(),
              "n=4096 t=64 q=32 schedule=cc-classic alpha=2.5 gamma=1.25 beta=0.5");
}

TEST(ScenarioSpec, RealsPrintShortestAndRoundTripBitExact) {
    const std::pair<double, const char*> cases[] = {
        {0.1, "0.1"},       {0.3, "0.3"},       {1.1, "1.1"},
        {1e300, "1e+300"}, {5e-324, "5e-324"}, {std::nextafter(1.0, 2.0), "1.0000000000000002"},
    };
    for (const auto& [x, text] : cases) {
        Scenario s;
        s.n = 64;
        s.t = 21;
        s.tuning.gamma = x;
        const std::string spec = s.describe();
        EXPECT_NE(spec.find(std::string(" gamma=") + text), std::string::npos) << spec;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(Scenario::parse(spec).tuning.gamma),
                  std::bit_cast<std::uint64_t>(x))
            << spec;
    }
}

TEST(ScenarioSpec, UnsetQReadsAsT) {
    // describe() leaves an unset q out; its value, what --help shows, is t.
    const auto q_value = [](const auto& keys, const auto& s) {
        for (const auto& key : keys)
            if (key.name == "q") return key.value(s);
        return std::string("no q key");
    };
    const Scenario s = Scenario::parse("n=64 t=21");
    EXPECT_EQ(q_value(scenario_keys(), s), "21");
    EXPECT_EQ(s.describe().find("q="), std::string::npos);
    // q = t is the same experiment as an unset q, and describes the same.
    EXPECT_EQ(Scenario::parse("n=64 t=21 q=21").describe(), s.describe());
    EXPECT_EQ(MvScenario::parse("q=21 n=64 t=21").describe(),
              MvScenario::parse("n=64 t=21").describe());
    EXPECT_EQ(MacroScenario::parse("n=4096 t=64 q=64").describe(), "n=4096 t=64 schedule=ours");
    EXPECT_NE(Scenario::parse("n=64 t=21 q=20").describe().find(" q=20"), std::string::npos);
    EXPECT_EQ(q_value(mv_scenario_keys(), MvScenario::parse("n=64 t=21")), "21");
    const MacroScenario m = MacroScenario::parse("n=4096 t=64");
    EXPECT_FALSE(m.q.has_value());
    EXPECT_EQ(q_value(macro_scenario_keys(), m), "64");
    EXPECT_EQ(m.describe(), "n=4096 t=64 schedule=ours");
    EXPECT_EQ(run_macro_trials(m, 4, 6, ExecutorConfig{1}).corruptions.values(),
              run_macro_trials(MacroScenario::parse("n=4096 t=64 q=64"), 4, 6, ExecutorConfig{1})
                  .corruptions.values());
}

TEST(ScenarioSpec, CoinRejectsForcedBitOutsideZeroOne) {
    CoinScenario s = CoinScenario::parse("n=64 k=64 f=4 attack=force-bit forced_bit=7");
    const std::string message = thrown_message([&] { (void)run_coin_trials(s, 1, 4); });
    EXPECT_NE(message.find("forced_bit in {0, 1}"), std::string::npos) << message;
    s.forced_bit = 1;
    EXPECT_TRUE(compatible(s));
}

TEST(ScenarioSpec, ParseResolvesAliasesAndSeparators) {
    const Scenario s =
        Scenario::parse("protocol=alg3, adversary=rushing; inputs=all-one n=32 t=5");
    EXPECT_EQ(s.protocol, ProtocolKind::Ours);
    EXPECT_EQ(s.adversary, AdversaryKind::WorstCase);
    EXPECT_EQ(s.inputs, InputPattern::AllOne);
    EXPECT_EQ(s.n, 32u);
    EXPECT_EQ(s.t, 5u);
}

TEST(ScenarioSpec, UnknownKeysAndValuesThrowActionably) {
    const std::string msg =
        thrown_message([] { Scenario::parse("protcol=ours n=8"); });
    EXPECT_NE(msg.find("unknown scenario key 'protcol'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("protocol"), std::string::npos) << msg;

    EXPECT_THROW(Scenario::parse("protocol=raft n=8"), ContractViolation);
    EXPECT_THROW(Scenario::parse("n=eight"), ContractViolation);
    EXPECT_THROW(Scenario::parse("inputs=zebra"), ContractViolation);
    EXPECT_THROW(Scenario::parse("just-a-token"), ContractViolation);

    // Boolean keys accept true/1/yes/on and false/0/no/off only.
    const std::string bad_bool =
        thrown_message([] { Scenario::parse("n=64 t=21 fused=ture"); });
    EXPECT_NE(bad_bool.find("scenario key 'fused'"), std::string::npos) << bad_bool;
    EXPECT_NE(bad_bool.find("true/1/yes/on or false/0/no/off"), std::string::npos)
        << bad_bool;
    EXPECT_NE(bad_bool.find("'ture'"), std::string::npos) << bad_bool;
    EXPECT_THROW(Scenario::parse("batch=of"), ContractViolation);
    EXPECT_FALSE(Scenario::parse("batch=no").use_batch);
    EXPECT_TRUE(Scenario::parse("reference=1").reference_delivery);
    const std::string bad_mv =
        thrown_message([] { MvScenario::parse("n=16 t=5 las_vegas=maybe"); });
    EXPECT_NE(bad_mv.find("scenario key 'las_vegas'"), std::string::npos) << bad_mv;

    // Real-valued keys take finite numbers only: NaN and infinities would
    // reach a float-to-integer cast.
    for (const char* value : {"nan", "inf", "-inf"}) {
        for (const char* key : {"alpha", "gamma", "beta", "kappa"}) {
            const std::string spec = std::string("n=64 t=21 ") + key + "=" + value;
            const std::string message = thrown_message([&] { Scenario::parse(spec); });
            EXPECT_NE(message.find(std::string("scenario key '") + key +
                                   "' expects a finite number, got '" + value + "'"),
                      std::string::npos)
                << spec << ": " << message;
        }
        for (const char* key : {"alpha", "gamma", "beta"}) {
            const std::string spec = std::string("n=16 t=5 ") + key + "=" + value;
            const std::string message = thrown_message([&] { MvScenario::parse(spec); });
            EXPECT_NE(message.find(std::string("scenario key '") + key +
                                   "' expects a finite number, got '" + value + "'"),
                      std::string::npos)
                << spec << ": " << message;
        }
    }
    EXPECT_DOUBLE_EQ(Scenario::parse("gamma=2.5").tuning.gamma, 2.5);
}

TEST(ScenarioSpec, UnsignedKeysRejectSignsAndValuesPastTheirField) {
    // Each key names itself and its field's range; none wraps into it.
    const auto rejects = [](const std::function<void()>& parse, const std::string& key,
                            const std::string& max) {
        const std::string message = thrown_message(parse);
        EXPECT_NE(message.find("scenario key '" + key + "' expects an integer in [0, " + max + "]"),
                  std::string::npos)
            << message;
    };
    const std::string u32 = "4294967295", u64 = "18446744073709551615";
    rejects([] { Scenario::parse("protocol=ours n=4294967360 t=21"); }, "n", u32);
    rejects([] { Scenario::parse("n=64 t=-1"); }, "t", u32);
    rejects([] { Scenario::parse("n=64 max_rounds=-1"); }, "max_rounds", u32);
    rejects([] { Scenario::parse("sparse_seed=+7"); }, "sparse_seed", u64);
    rejects([] { Scenario::parse("sparse_seed=18446744073709551616"); }, "sparse_seed", u64);
    rejects([] { MvScenario::parse("n=-4 t=1"); }, "n", u32);
    rejects([] { MvScenario::parse("watchdog_ms=4294967296"); }, "watchdog_ms", u32);
    // The top of each field's range still parses.
    EXPECT_EQ(Scenario::parse("n=4294967295").n, 4294967295u);
    EXPECT_EQ(Scenario::parse("sparse_seed=18446744073709551615").sparse_seed,
              ~std::uint64_t{0});
    EXPECT_EQ(MvScenario::parse("fallback=4294967295").fallback, 4294967295u);
}

TEST(ScenarioSpec, ParsedScenarioRunsByName) {
    const Scenario s = Scenario::parse(
        "protocol=phase-king adversary=king-killer n=17 t=4 inputs=split");
    const TrialResult r = run_trial(s, 7);
    EXPECT_TRUE(r.agreement);
    EXPECT_TRUE(r.validity_ok);
}

TEST(ScenarioSpec, MvInputPatternsParse) {
    EXPECT_EQ(mv_input_patterns().at("near-quorum").kind, MvInputPattern::NearQuorum);
    EXPECT_EQ(mv_input_patterns().at("all-same").kind, MvInputPattern::AllSame);
    EXPECT_THROW(mv_input_patterns().at("nope"), ContractViolation);
    EXPECT_EQ(input_patterns().at("split").kind, InputPattern::Split);
    EXPECT_THROW(input_patterns().at("nope"), ContractViolation);
}

// ------------------------------------------------------------- name lookup

/// Every name and alias of `table` resolves to its entry, also in upper case.
template <typename Table>
void expect_every_name_parses_in_upper_case(const Table& table) {
    for (const auto* e : table.list()) {
        EXPECT_EQ(table.at(upper(e->name)).kind, e->kind) << e->name;
        for (const std::string& alias : e->aliases)
            EXPECT_EQ(table.at(upper(alias)).kind, e->kind) << alias;
    }
}

TEST(NameLookup, EveryNameOfEveryAxisParsesInUpperCase) {
    expect_every_name_parses_in_upper_case(ProtocolRegistry::instance());
    expect_every_name_parses_in_upper_case(AdversaryRegistry::instance());
    expect_every_name_parses_in_upper_case(MvAdversaryRegistry::instance());
    expect_every_name_parses_in_upper_case(workloads());
    expect_every_name_parses_in_upper_case(input_patterns());
    expect_every_name_parses_in_upper_case(mv_input_patterns());
    expect_every_name_parses_in_upper_case(delivery_planes());
    expect_every_name_parses_in_upper_case(coin_attacks());
    expect_every_name_parses_in_upper_case(macro_schedules());
    // So does every coin attack and macro schedule in a spec.
    for (const auto* e : coin_attacks().list()) {
        EXPECT_EQ(CoinScenario::parse("attack=" + upper(e->name)).attack, e->kind);
        for (const std::string& name : e->aliases)
            EXPECT_EQ(CoinScenario::parse("ATTACK=" + upper(name)).attack, e->kind) << name;
    }
    for (const auto* e : macro_schedules().list()) {
        EXPECT_EQ(MacroScenario::parse("schedule=" + upper(e->name)).schedule, e->kind);
        for (const std::string& name : e->aliases)
            EXPECT_EQ(MacroScenario::parse("SCHEDULE=" + upper(name)).schedule, e->kind) << name;
    }
    // Display names are unchanged, and parse back too.
    EXPECT_EQ(to_string(MvInputPattern::RandomTiny), "random(4)");
    EXPECT_EQ(to_string(MacroScheduleKind::Ours), "ours(macro)");
    EXPECT_EQ(macro_schedules().at("OURS(MACRO)").kind, MacroScheduleKind::Ours);
    EXPECT_TRUE(Scenario::parse("n=8 t=1 plane=SPARSE").sparse_plane);
}

TEST(NameLookup, NearMissGetsDidYouMean) {
    const auto expect_suggests = [](const std::function<void()>& lookup,
                                    const std::string& suggestion) {
        const std::string msg = thrown_message(lookup);
        EXPECT_NE(msg.find("did you mean '" + suggestion + "'?"), std::string::npos) << msg;
    };
    expect_suggests([] { (void)coin_attacks().at("forcebitt"); }, "forcebit");
    expect_suggests([] { (void)macro_schedules().at("ourz"); }, "ours");
    expect_suggests([] { (void)Scenario::parse("protocol=ourz"); }, "ours");
    expect_suggests([] { (void)Scenario::parse("protcol=ours"); }, "protocol");
    expect_suggests([] { (void)MvScenario::parse("inputs=two-block"); }, "two-blocks");
    const std::string msg = thrown_message([] { (void)macro_schedules().at("ourz"); });
    EXPECT_NE(msg.find("ours, cc-rushing, cc-classic"), std::string::npos) << msg;
}

// ---------------------------------------------------------------- plug-ins

TEST(Registry, DuplicateRegistrationThrows) {
    // A plug-in must not silently shadow an existing name or alias.
    AdversaryEntry dup;
    dup.kind = AdversaryKind::Chaos;
    dup.name = "chaos";
    dup.display = "chaos";
    dup.make_adversary = [](const Scenario&, const ProtocolBundle&, const SeedTree&)
        -> std::unique_ptr<net::Adversary> {
        return std::make_unique<net::NullAdversary>();
    };
    EXPECT_THROW(AdversaryRegistry::instance().add(std::move(dup)), ContractViolation);
}

TEST(Registry, BudgetsMatchTrialConfiguration) {
    Scenario s;
    s.n = 64;
    s.t = 12;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::None;
    const BudgetHint hint = ProtocolRegistry::instance().at(s.protocol).budgets(s);
    const TrialResult r = run_trial(s, 3);
    EXPECT_EQ(hint.phases, r.phases_configured);
    EXPECT_GE(hint.max_rounds, r.rounds);

    // The fused arena takes its round cap and schedule from budgets() and
    // schedule_of(), the scalar arena from the trial bundle, so fused/scalar
    // bit-identity needs the two to agree for every protocol and shape.
    const auto same_schedule = [](const core::BlockSchedule& a,
                                  const core::BlockSchedule& b) {
        return a.n == b.n && a.block == b.block && a.num_blocks == b.num_blocks;
    };
    std::size_t compared = 0;
    for (const ProtocolEntry* p : ProtocolRegistry::instance().list()) {
        for (const NodeId n : {7u, 16u, 64u, 200u, 1000u}) {
            const Count stride = n > 100 ? 17 : 1;
            for (Count t = 0; p->supports(n, t); t += stride) {
                Scenario sc;
                sc.protocol = p->kind;
                sc.n = n;
                sc.t = t;
                const BudgetHint b = p->budgets(sc);
                const std::vector<Bit> inputs(n, 0);
                for (const std::uint64_t seed : {1u, 99u}) {
                    const SeedTree seeds(seed);
                    std::vector<ProtocolBundle> bundles;
                    bundles.push_back(p->make_nodes(sc, inputs, seeds));
                    if (p->make_batch) bundles.push_back(p->make_batch(sc, inputs, seeds));
                    for (const ProtocolBundle& bundle : bundles) {
                        SCOPED_TRACE(sc.describe() + " seed=" + std::to_string(seed));
                        EXPECT_EQ(b.phases, bundle.phases);
                        EXPECT_EQ(b.max_rounds, bundle.default_max_rounds);
                        ASSERT_EQ(p->schedule_of != nullptr, bundle.schedule.has_value());
                        if (p->schedule_of)
                            EXPECT_TRUE(same_schedule(p->schedule_of(sc), *bundle.schedule));
                        ++compared;
                    }
                }
            }
        }
    }
    EXPECT_GT(compared, 1000u);
}

}  // namespace
}  // namespace adba::sim
