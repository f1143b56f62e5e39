// Golden fingerprints: a committed table of aggregate hashes (golden_table.inc)
// over every compatible (protocol, adversary) registry pair and a few
// multi-valued, coin and macro shapes. The equivalence suites pin each fast
// path against its oracle; this table pins both against the values they
// produced when the table was generated, so a fast path and its oracle
// cannot drift together in one change.
//
// Binary cells: every compatible pair at n in {7, 64, 256}, and every
// compatible pair with a 64-lane form at n = 1000, where each fused lane
// count takes the AVX-512F form's 64-word blocks plus a tail (the scalar-only
// pairs there are the costliest cells under the sanitizers and reach no
// counting form the smaller n miss). t is the largest the protocol admits,
// inputs are split and random, kTrials trials per cell. The default plan (fused blocks where the pair has them; sharded
// native batches under ADBA_INTRA_THREADS) and, up to n = 256, the per-node
// adapter (batch=false) must each reproduce the cell's hash. Eight more
// binary cells run the sparse plane below n senders per receiver, where the
// native batches' tie-breaks decide results.
//
// The hash is perfbench's aggregate fingerprint: FNV-1a over every sample
// of every sample series (each prefixed by its length) and then over the
// outcome counters. A mismatched or missing row prints the row the current
// code produces. Regenerate a row only for a change that is meant to alter
// results, and say so where the change is recorded.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sim/coin_runner.hpp"
#include "sim/macro.hpp"
#include "sim/multivalued_runner.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"

namespace adba {
namespace {

struct BinaryRow {
    const char* protocol;
    const char* adversary;
    NodeId n;
    const char* inputs;
    std::uint64_t hash;
};

struct SpecRow {
    const char* spec;  ///< workload-specific shape, see each test
    std::uint64_t hash;
};

#include "golden_table.inc"

constexpr std::uint64_t kSeed = 0x601DE2026ULL;
constexpr Count kTrials = 3;
constexpr NodeId kSizes[] = {7, 64, 256, 1000};
/// Above it, only pairs with a 64-lane form, and only their default plan.
constexpr NodeId kScalarMaxN = 256;
constexpr sim::InputPattern kInputs[] = {sim::InputPattern::Split, sim::InputPattern::Random};
const sim::ExecutorConfig kExec{2, 0};

class Fnv {
public:
    void mix(std::uint64_t x) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (x >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    void mix(const Samples& s) {
        mix(s.values().size());
        for (const double x : s.values()) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &x, sizeof bits);
            mix(bits);
        }
    }
    void mix(std::initializer_list<std::uint64_t> counters) {
        for (const std::uint64_t c : counters) mix(c);
    }
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint(const sim::Aggregate& a) {
    Fnv h;
    for (const Samples* s : {&a.rounds, &a.messages, &a.bits, &a.corruptions}) h.mix(*s);
    h.mix({a.trials, a.agreement_failures, a.validity_failures, a.not_halted,
           a.cap_exhausted, a.watchdog_timeouts, a.faulted});
    return h.value();
}

std::uint64_t fingerprint(const sim::MvAggregate& a) {
    Fnv h;
    h.mix(a.rounds);
    h.mix({a.trials, a.agreement_failures, a.validity_failures, a.not_halted,
           a.decided_real, a.cap_exhausted, a.watchdog_timeouts, a.faulted});
    return h.value();
}

std::uint64_t fingerprint(const sim::CoinAggregate& a) {
    Fnv h;
    h.mix({a.trials, a.common, a.common_ones, a.attack_feasible, a.faulted});
    return h.value();
}

std::uint64_t fingerprint(const sim::MacroAggregate& a) {
    Fnv h;
    for (const Samples* s : {&a.rounds, &a.phases, &a.corruptions}) h.mix(*s);
    h.mix({a.trials, a.agreement_failures, a.cap_exhausted, a.faulted});
    return h.value();
}

std::string hex(std::uint64_t h) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ULL", h);
    return buf;
}

/// Largest t the protocol's resilience predicate admits at n (0 if none).
Count max_t(const sim::ProtocolEntry& p, NodeId n) {
    Count t = (n - 1) / 3;
    while (t > 0 && !p.supports(n, t)) --t;
    return t;
}

sim::Scenario binary_cell(const std::string& protocol, const std::string& adversary,
                          NodeId n, const std::string& inputs) {
    const sim::ProtocolEntry& p = sim::ProtocolRegistry::instance().at(protocol);
    sim::Scenario s;
    s.protocol = p.kind;
    s.adversary = sim::AdversaryRegistry::instance().at(adversary).kind;
    s.n = n;
    s.t = max_t(p, n);
    s.inputs = sim::input_patterns().at(inputs).kind;
    return s;
}

sim::Scenario binary_cell(const BinaryRow& row) {
    return binary_cell(row.protocol, row.adversary, row.n, row.inputs);
}

std::uint64_t hash_of(const sim::Scenario& s) {
    return fingerprint(sim::run_trials(s, kSeed, kTrials, kExec));
}

std::string row_text(const std::string& protocol, const std::string& adversary, NodeId n,
                     const std::string& inputs, std::uint64_t hash) {
    return "{\"" + protocol + "\", \"" + adversary + "\", " + std::to_string(n) + ", \"" +
           inputs + "\", " + hex(hash) + "},";
}

std::string row_text(const BinaryRow& row, std::uint64_t hash) {
    return row_text(row.protocol, row.adversary, row.n, row.inputs, hash);
}

// ---------------------------------------------------------------- binary

/// The table holds exactly the grid's compatible cells. A cell without a
/// row fails and prints the row the current code produces for it.
TEST(GoldenFingerprints, TableCoversEveryCompatiblePair) {
    using Key = std::tuple<std::string, std::string, NodeId, std::string>;
    std::set<Key> grid;
    for (const sim::ProtocolEntry* p : sim::ProtocolRegistry::instance().list()) {
        for (const sim::AdversaryEntry* a : sim::AdversaryRegistry::instance().list()) {
            for (const NodeId n : kSizes) {
                if (n > kScalarMaxN && !(p->make_fused && a->supports_fused)) continue;
                for (const sim::InputPattern pattern : kInputs) {
                    const std::string inputs = sim::to_string(pattern);
                    const sim::Scenario s = binary_cell(p->name, a->name, n, inputs);
                    if (sim::compatible(s)) grid.insert({p->name, a->name, n, inputs});
                }
            }
        }
    }
    std::set<Key> table;
    for (const BinaryRow& row : kBinaryGolden) {
        const Key key{row.protocol, row.adversary, row.n, row.inputs};
        EXPECT_TRUE(table.insert(key).second) << "duplicate row " << row_text(row, row.hash);
        EXPECT_EQ(grid.count(key), 1u) << "row outside the grid " << row_text(row, row.hash);
    }
    for (const auto& [protocol, adversary, n, inputs] : grid) {
        if (table.count({protocol, adversary, n, inputs}) == 1) continue;
        ADD_FAILURE() << "missing row: "
                      << row_text(protocol, adversary, n, inputs,
                                  hash_of(binary_cell(protocol, adversary, n, inputs)));
    }
}

TEST(GoldenFingerprints, BinaryDefaultPlan) {
    for (const BinaryRow& row : kBinaryGolden) {
        const std::uint64_t h = hash_of(binary_cell(row));
        EXPECT_EQ(h, row.hash) << "actual row: " << row_text(row, h);
    }
}

TEST(GoldenFingerprints, BinaryPerNodeAdapter) {
    for (const BinaryRow& row : kBinaryGolden) {
        if (row.n > kScalarMaxN) continue;
        sim::Scenario s = binary_cell(row);
        s.use_batch = false;
        const std::uint64_t h = hash_of(s);
        EXPECT_EQ(h, row.hash) << "batch=false, actual row: " << row_text(row, h);
    }
}

/// Sub-dense sampling (plane=sparse below n senders): the only plane where
/// estimates can put both values past one threshold, so the rows pin the
/// native batches' tie-breaks, serial or sharded.
TEST(GoldenFingerprints, BinarySubDenseSampled) {
    for (const SpecRow& row : kSubDenseGolden) {
        const std::uint64_t h = hash_of(sim::Scenario::parse(row.spec));
        EXPECT_EQ(h, row.hash) << "actual row: {\"" << row.spec << "\", " << hex(h) << "},";
    }
}

// --------------------------------------------------- mv, coin and macro

TEST(GoldenFingerprints, MultiValued) {
    for (const SpecRow& row : kMvGolden) {
        const sim::MvAggregate agg =
            sim::run_mv_trials(sim::MvScenario::parse(row.spec), kSeed, 4, kExec);
        EXPECT_EQ(fingerprint(agg), row.hash)
            << "actual row: {\"" << row.spec << "\", " << hex(fingerprint(agg)) << "},";
    }
}

/// Coin spec: "n designated f attack forced_bit", attack 0 = split, 1 = force.
TEST(GoldenFingerprints, Coin) {
    for (const SpecRow& row : kCoinGolden) {
        unsigned n = 0, k = 0, f = 0, attack = 0, bit = 0;
        ASSERT_EQ(std::sscanf(row.spec, "%u %u %u %u %u", &n, &k, &f, &attack, &bit), 5)
            << row.spec;
        sim::CoinScenario s{n, k, f, attack == 0 ? adv::CoinAttack::Split
                                                 : adv::CoinAttack::ForceBit,
                            static_cast<Bit>(bit)};
        const sim::CoinAggregate agg = sim::run_coin_trials(s, kSeed, 64, kExec);
        EXPECT_EQ(fingerprint(agg), row.hash)
            << "actual row: {\"" << row.spec << "\", " << hex(fingerprint(agg)) << "},";
    }
}

/// Macro spec: "n t q schedule", schedule a macro_schedules() name.
TEST(GoldenFingerprints, Macro) {
    for (const SpecRow& row : kMacroGolden) {
        unsigned long long n = 0, t = 0, q = 0;
        char schedule[32] = {};
        ASSERT_EQ(std::sscanf(row.spec, "%llu %llu %llu %31s", &n, &t, &q, schedule), 4)
            << row.spec;
        sim::MacroScenario s;
        s.n = n;
        s.t = t;
        s.q = q;
        s.schedule = sim::macro_schedules().at(schedule).kind;
        const sim::MacroAggregate agg = sim::run_macro_trials(s, kSeed, 16, kExec);
        EXPECT_EQ(fingerprint(agg), row.hash)
            << "actual row: {\"" << row.spec << "\", " << hex(fingerprint(agg)) << "},";
    }
}

}  // namespace
}  // namespace adba
