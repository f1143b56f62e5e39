// Run-resilience tests: the fault-injection matrix over the ShardPool and
// the trial kernel's chunk-retry/degrade recovery ladder, the trial outcome
// taxonomy (Decided / RoundCapExhausted / WatchdogTimeout / Faulted) through
// all four workloads, the chunk-granular checkpoint journal (format pin,
// kill-at-arbitrary-boundary resume, meta mismatch refusal), the memory
// budget's flat->sparse degradation, and the crash-atomic CSV writer.
//
// The load-bearing property everywhere: an injected fault always ends in a
// DEFINED state — retried, degraded-to-serial, or a cleanly counted
// TrialOutcome — and transient faults leave aggregates bit-identical to an
// unarmed run at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/coin_runner.hpp"
#include "sim/faults.hpp"
#include "sim/macro.hpp"
#include "sim/multivalued_runner.hpp"
#include "sim/registry.hpp"
#include "sim/workload.hpp"
#include "support/contracts.hpp"
#include "support/table.hpp"

namespace adba::sim {
namespace {

void expect_samples_identical(const Samples& a, const Samples& b) {
    ASSERT_EQ(a.count(), b.count());
    const auto& xa = a.values();
    const auto& xb = b.values();
    for (std::size_t i = 0; i < xa.size(); ++i) EXPECT_EQ(xa[i], xb[i]) << "i=" << i;
}

void expect_aggregates_identical(const Aggregate& a, const Aggregate& b) {
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.agreement_failures, b.agreement_failures);
    EXPECT_EQ(a.validity_failures, b.validity_failures);
    EXPECT_EQ(a.not_halted, b.not_halted);
    EXPECT_EQ(a.cap_exhausted, b.cap_exhausted);
    EXPECT_EQ(a.watchdog_timeouts, b.watchdog_timeouts);
    EXPECT_EQ(a.faulted, b.faulted);
    expect_samples_identical(a.rounds, b.rounds);
    expect_samples_identical(a.messages, b.messages);
    expect_samples_identical(a.bits, b.bits);
    expect_samples_identical(a.corruptions, b.corruptions);
}

Scenario small_scenario() {
    Scenario s;
    s.n = 24;
    s.t = 6;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::Static;
    s.inputs = InputPattern::Split;
    return s;
}

std::string temp_path(const std::string& name) {
    return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// ------------------------------------------------ outcome taxonomy

TEST(OutcomeTaxonomy, RoundCapExhaustionIsFlaggedNeverSilent) {
    // A one-round cap against the worst-case adversary cannot decide: the
    // old kernel silently clamped rounds to the cap and counted the trial
    // like any other; now every such trial must land in cap_exhausted with
    // all_halted false.
    Scenario s = small_scenario();
    s.adversary = AdversaryKind::WorstCase;
    s.max_rounds_override = 1;
    const Count trials = 4;
    const Aggregate agg = run_trials(s, 0xCAFE, trials, ExecutorConfig{1});
    EXPECT_EQ(agg.trials, trials);
    EXPECT_EQ(agg.cap_exhausted, trials);
    EXPECT_EQ(agg.not_halted, trials);
    EXPECT_EQ(agg.watchdog_timeouts, 0u);
    EXPECT_EQ(agg.faulted, 0u);
    // Exhausted trials still paid for their rounds: samples are present and
    // the recorded round count is the cap, not a clamp artifact.
    ASSERT_EQ(agg.rounds.count(), trials);
    EXPECT_EQ(agg.rounds.max(), 1.0);

    const TrialResult one = run_trial(s, 1);
    EXPECT_EQ(one.outcome, TrialOutcome::RoundCapExhausted);
    EXPECT_FALSE(one.all_halted);
}

TEST(OutcomeTaxonomy, WatchdogTimeoutStopsTheTrial) {
    // Every round beat sleeps 25 ms against a 1 ms deadline, so the engine
    // must stop after its first deadline check with WatchdogTimeout — the
    // no-hang guarantee, not a timing measurement.
    FaultConfig fc;
    fc.beat_delay_rate = 1.0;
    fc.beat_delay_ms = 25;
    const ScopedFaultInjection arm(fc);

    Scenario s = small_scenario();
    s.adversary = AdversaryKind::WorstCase;
    s.watchdog_ms = 1;
    const TrialResult r = run_trial(s, 1);
    EXPECT_EQ(r.outcome, TrialOutcome::WatchdogTimeout);
    EXPECT_FALSE(r.all_halted);
    EXPECT_GE(r.rounds, 1u);
    EXPECT_GT(FaultInjector::stats().beat_delays, 0u);
}

TEST(OutcomeTaxonomy, WatchdogKeyRoundTripsThroughScenarioSpecs) {
    Scenario s = small_scenario();
    s.watchdog_ms = 250;
    EXPECT_EQ(Scenario::parse(s.describe()), s);

    MvScenario mv;
    mv.n = 16;
    mv.t = 5;
    mv.watchdog_ms = 250;
    EXPECT_EQ(MvScenario::parse(mv.describe()), mv);
}

TEST(OutcomeTaxonomy, PermanentTrialFaultsAreThreadCountInvariant) {
    FaultConfig fc;
    fc.seed = 9;
    fc.trial_rate = 0.5;
    const ScopedFaultInjection arm(fc);

    // The injector decides per trial INDEX, so the expected faulted set is
    // computable up front and must be reproduced at every thread count.
    const Count trials = 16;
    Count expected_faulted = 0;
    for (Count i = 0; i < trials; ++i)
        if (FaultInjector::active()->trial_faulted(i)) ++expected_faulted;
    ASSERT_GT(expected_faulted, 0u);
    ASSERT_LT(expected_faulted, trials);

    const Scenario s = small_scenario();
    const Aggregate serial = run_trials(s, 0xFA1, trials, ExecutorConfig{1, 3});
    EXPECT_EQ(serial.faulted, expected_faulted);
    // Faulted trials ran nothing: no samples, no agreement bookkeeping.
    EXPECT_EQ(serial.rounds.count(), trials - expected_faulted);
    EXPECT_EQ(serial.cap_exhausted + serial.watchdog_timeouts + serial.faulted +
                  serial.rounds.count(),
              trials);

    for (unsigned threads : {2u, 4u, 8u}) {
        const Aggregate agg = run_trials(s, 0xFA1, trials, ExecutorConfig{threads, 3});
        expect_aggregates_identical(agg, serial);
    }
}

TEST(OutcomeTaxonomy, FaultedColumnFlowsThroughEveryWorkloadCsv) {
    FaultConfig fc;
    fc.trial_rate = 1.0;  // every trial faults: the all-faulted edge case
    const ScopedFaultInjection arm(fc);
    const Count trials = 3;

    const auto faulted_cell = [](const std::vector<std::string>& header,
                                 const std::vector<std::string>& row) {
        EXPECT_EQ(row.size(), header.size());
        for (std::size_t c = 0; c < header.size(); ++c)
            if (header[c] == "faulted") return row[c];
        ADD_FAILURE() << "no faulted column";
        return std::string();
    };

    const Aggregate ba = run_trials(small_scenario(), 1, trials, ExecutorConfig{1});
    EXPECT_EQ(ba.faulted, trials);
    EXPECT_EQ(faulted_cell(BinaryWorkload::csv_header(), BinaryWorkload::csv_row(ba)),
              std::to_string(trials));

    MvScenario mv;
    mv.n = 16;
    mv.t = 5;
    const MvAggregate ma = run_mv_trials(mv, 1, trials, ExecutorConfig{1});
    EXPECT_EQ(ma.faulted, trials);
    EXPECT_EQ(faulted_cell(MvWorkload::csv_header(), MvWorkload::csv_row(ma)),
              std::to_string(trials));

    CoinScenario cs;
    cs.n = 16;
    cs.designated = 16;
    const CoinAggregate ca = run_coin_trials(cs, 1, trials, ExecutorConfig{1});
    EXPECT_EQ(ca.faulted, trials);
    EXPECT_EQ(faulted_cell(CoinWorkload::csv_header(), CoinWorkload::csv_row(ca)),
              std::to_string(trials));
    EXPECT_EQ(ca.p_common(), 0.0);  // faulted trials leave the estimate empty

    MacroScenario ms;
    ms.n = 64;
    ms.t = 12;
    ms.q = 12;
    const MacroAggregate xa = run_macro_trials(ms, 1, trials, ExecutorConfig{1});
    EXPECT_EQ(xa.faulted, trials);
    EXPECT_EQ(faulted_cell(MacroWorkload::csv_header(), MacroWorkload::csv_row(xa)),
              std::to_string(trials));
}

// ------------------------------------------------ fault-injection matrix

TEST(FaultMatrix, ShardPoolPropagatesInjectedFaultAndStaysUsable) {
    ShardPool pool(4, 1);
    EXPECT_THROW(
        pool.run_shards(256,
                        [](unsigned shard, NodeId, NodeId) {
                            if (shard == 2)
                                throw InjectedFault(InjectedFault::Site::ShardTask,
                                                    "injected shard death");
                        }),
        InjectedFault);
    // The pool must come back quiescent and reusable after the unwound
    // generation — a hung worker here is exactly the failure mode the
    // quiescence handshake exists to prevent.
    std::atomic<unsigned> ran{0};
    pool.run_shards(256, [&](unsigned, NodeId, NodeId) { ++ran; });
    EXPECT_EQ(ran.load(), 4u);
}

// Armed transient faults must be recovered by the chunk retry/degrade
// ladder without changing a single aggregate bit vs the unarmed run.
// Returns the stats captured while armed (disarm zeroes them).
FaultStats expect_transparent_recovery(const FaultConfig& fc, Count intra_shards) {
    Scenario s = small_scenario();
    s.intra_threads = intra_shards;
    const Count trials = 6;
    const Aggregate unarmed = run_trials(s, 0xDEAD, trials, ExecutorConfig{1, 3});

    const ScopedFaultInjection arm(fc);
    const Aggregate armed = run_trials(s, 0xDEAD, trials, ExecutorConfig{1, 3});
    expect_aggregates_identical(armed, unarmed);
    return FaultInjector::stats();
}

TEST(FaultMatrix, ShardDeathEveryTaskRecoversBitIdentical) {
    FaultConfig fc;
    fc.shard_death = 1.0;  // every shard task of every regular attempt dies
    fc.max_attempts = 2;
    const FaultStats st = expect_transparent_recovery(fc, 4);
    EXPECT_GT(st.shard_deaths, 0u);
    EXPECT_GT(st.chunk_retries, 0u);
    EXPECT_GT(st.degraded_chunks, 0u);  // rate 1 defeats every retry
}

TEST(FaultMatrix, TargetedFirstAndLastShardDeathRecoverBitIdentical) {
    for (const std::int64_t target : {std::int64_t{0}, std::int64_t{3}}) {
        FaultConfig fc;
        fc.shard_death = 1.0;
        fc.shard_death_shard = target;
        fc.max_attempts = 2;
        const FaultStats st = expect_transparent_recovery(fc, 4);
        EXPECT_GT(st.shard_deaths, 0u) << "shard " << target;
    }
}

TEST(FaultMatrix, ArenaAllocationFailureDegradesToSerialBitIdentical) {
    FaultConfig fc;
    fc.alloc_rate = 1.0;  // every regular attempt's arena fails to pool
    fc.max_attempts = 3;
    const FaultStats st = expect_transparent_recovery(fc, 0);
    EXPECT_GT(st.alloc_failures, 0u);
    EXPECT_GT(st.degraded_chunks, 0u);
}

TEST(FaultMatrix, StallsDelayButNeverChangeResults) {
    FaultConfig fc;
    fc.stall_rate = 1.0;
    fc.stall_ms = 1;
    const FaultStats st = expect_transparent_recovery(fc, 4);
    EXPECT_GT(st.stalls, 0u);
}

TEST(FaultMatrix, StalledShardsUnderWatchdogEndInDefinedStates) {
    // Stalled shard tasks + a tight per-trial watchdog: the run must finish
    // (no hang) with every trial accounted for in exactly one taxonomy
    // bucket. Wall-clock dependent by design, so only accounting is pinned.
    FaultConfig fc;
    fc.stall_rate = 1.0;
    fc.stall_ms = 2;
    const ScopedFaultInjection arm(fc);

    Scenario s = small_scenario();
    s.adversary = AdversaryKind::WorstCase;
    s.intra_threads = 4;
    s.watchdog_ms = 1;
    const Count trials = 4;
    const Aggregate agg = run_trials(s, 7, trials, ExecutorConfig{1, 2});
    EXPECT_EQ(agg.trials, trials);
    EXPECT_EQ(agg.faulted, 0u);
    EXPECT_EQ(agg.rounds.count(), trials);  // timed-out trials keep samples
    const Count decided =
        trials - agg.cap_exhausted - agg.watchdog_timeouts - agg.faulted;
    EXPECT_LE(decided, trials);
}

TEST(FaultMatrix, ConfigSpecRoundTripsAndRejectsUnknownKeys) {
    FaultConfig fc;
    fc.seed = 42;
    fc.shard_death = 0.25;
    fc.shard_death_shard = 2;
    fc.stall_rate = 0.125;
    fc.stall_ms = 3;
    fc.alloc_rate = 0.5;
    fc.trial_rate = 0.0625;
    fc.beat_delay_rate = 1.0;
    fc.beat_delay_ms = 7;
    fc.max_attempts = 5;
    EXPECT_EQ(FaultConfig::parse(fc.describe()), fc);
    EXPECT_THROW(FaultConfig::parse("shard_deth=1"), ContractViolation);
    // Bad values are input errors that name the key, not internal faults.
    for (const auto& [spec, key] : {std::pair{"trial_rate=1.5", "fault key 'trial_rate'"},
                                    std::pair{"shard_death=2", "fault key 'shard_death'"},
                                    std::pair{"max_attempts=0", "fault key 'max_attempts'"}}) {
        try {
            (void)FaultConfig::parse(spec);
            ADD_FAILURE() << spec << " parsed";
        } catch (const ContractViolation& e) {
            EXPECT_EQ(std::string(e.what()).find(key), 0u) << e.what();
        }
    }
}

// ------------------------------------------------ checkpoint/resume

struct JournalImage {
    std::string bytes;
    std::size_t header_end = 0;
    std::vector<std::size_t> record_ends;  // absolute offsets, in file order
};

JournalImage parse_journal(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    JournalImage img;
    img.bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());

    const auto u32_at = [&](std::size_t at) {
        std::uint32_t v = 0;
        std::memcpy(&v, img.bytes.data() + at, sizeof v);
        return v;
    };
    // Header: magic | u64 seed | u64 stride | u32 trials | u32 chunk
    //         | u32 len + workload | u32 len + scope   (the frozen format)
    EXPECT_EQ(img.bytes.substr(0, 8), "ADBACKP1");
    std::size_t at = 8 + 8 + 8 + 4 + 4;
    const std::uint32_t wl_len = u32_at(at);
    at += 4 + wl_len;
    const std::uint32_t scope_len = u32_at(at);
    at += 4 + scope_len;
    img.header_end = at;
    // Records: u32 "RKCA" | u32 chunk_index | u32 payload_len | u64 checksum
    //          | payload
    while (at + 20 <= img.bytes.size()) {
        EXPECT_EQ(u32_at(at), 0x41434b52u) << "record magic at " << at;
        const std::uint32_t payload_len = u32_at(at + 8);
        at += 20 + payload_len;
        EXPECT_LE(at, img.bytes.size());
        img.record_ends.push_back(at);
    }
    EXPECT_EQ(at, img.bytes.size());
    return img;
}

TEST(Checkpoint, JournalFormatIsPinnedAndRunIsUnchanged) {
    const std::string path = temp_path("ck_format.bin");
    std::filesystem::remove(path);
    const Scenario s = small_scenario();
    const Count trials = 10;

    const Aggregate plain = run_trials(s, 0xBEEF, trials, ExecutorConfig{1, 3});
    const Aggregate journaled =
        run_trials(s, 0xBEEF, trials, ExecutorConfig{1, 3, path, false});
    expect_aggregates_identical(journaled, plain);

    const JournalImage img = parse_journal(path);
    ASSERT_EQ(img.record_ends.size(), 4u);  // ceil(10 / 3) chunks

    std::uint64_t seed = 0, stride = 0;
    std::uint32_t t = 0, c = 0, wl_len = 0;
    std::memcpy(&seed, img.bytes.data() + 8, 8);
    std::memcpy(&stride, img.bytes.data() + 16, 8);
    std::memcpy(&t, img.bytes.data() + 24, 4);
    std::memcpy(&c, img.bytes.data() + 28, 4);
    std::memcpy(&wl_len, img.bytes.data() + 32, 4);
    EXPECT_EQ(seed, 0xBEEFu);
    EXPECT_EQ(stride, BinaryWorkload::kSeedStride);
    EXPECT_EQ(t, trials);
    EXPECT_EQ(c, 3u);
    EXPECT_EQ(img.bytes.substr(36, wl_len), "binary");
}

TEST(Checkpoint, KillAtAnyChunkBoundaryResumesBitIdentical) {
    const std::string full_path = temp_path("ck_full.bin");
    std::filesystem::remove(full_path);
    const Scenario s = small_scenario();
    const Count trials = 10;
    const Aggregate expected = run_trials(s, 0x5EED, trials, ExecutorConfig{1, 3});
    (void)run_trials(s, 0x5EED, trials, ExecutorConfig{1, 3, full_path, false});
    const JournalImage img = parse_journal(full_path);
    ASSERT_EQ(img.record_ends.size(), 4u);

    // Simulate a SIGKILL after k completed chunks — including mid-append: a
    // torn half-record tail rides along and must be truncated, not trusted.
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
        for (const bool torn_tail : {false, true}) {
            const std::string path = temp_path("ck_cut.bin");
            std::filesystem::remove(path);
            const std::size_t cut = k == 0 ? img.header_end : img.record_ends[k - 1];
            std::string prefix = img.bytes.substr(0, cut);
            if (torn_tail) prefix += std::string("RKCA\x02\x00\x00\x00garbage", 15);
            {
                std::ofstream out(path, std::ios::binary | std::ios::trunc);
                out << prefix;
            }
            for (unsigned threads : {1u, 8u}) {
                std::string run_path = temp_path("ck_run.bin");
                std::filesystem::remove(run_path);
                std::filesystem::copy_file(path, run_path);
                const Aggregate resumed = run_trials(
                    s, 0x5EED, trials, ExecutorConfig{threads, 3, run_path, true});
                expect_aggregates_identical(resumed, expected);
                // The resumed journal is complete again: all 4 records, no
                // leftover torn bytes.
                EXPECT_EQ(parse_journal(run_path).record_ends.size(), 4u)
                    << "k=" << k << " torn=" << torn_tail << " threads=" << threads;
            }
        }
    }
}

// A killed parallel run can leave any set of chunks journaled, not only a
// prefix: here chunks 1 and 3 of 4. Their recovered partials fold between
// the re-run chunks 0 and 2.
TEST(Checkpoint, NonPrefixJournalResumesBitIdentical) {
    const std::string full_path = temp_path("ck_gaps_full.bin");
    std::filesystem::remove(full_path);
    const Scenario s = small_scenario();
    const Count trials = 10;
    const Aggregate expected = run_trials(s, 0x5EED, trials, ExecutorConfig{1, 3});
    (void)run_trials(s, 0x5EED, trials, ExecutorConfig{1, 3, full_path, false});
    const JournalImage img = parse_journal(full_path);
    ASSERT_EQ(img.record_ends.size(), 4u);
    // A serial run journals its chunks in index order.
    const auto record = [&img](std::size_t ci) {
        const std::size_t from = ci == 0 ? img.header_end : img.record_ends[ci - 1];
        std::uint32_t index = 0;
        std::memcpy(&index, img.bytes.data() + from + 4, sizeof index);
        EXPECT_EQ(index, ci);
        return img.bytes.substr(from, img.record_ends[ci] - from);
    };
    const std::string gaps = img.bytes.substr(0, img.header_end) + record(1) + record(3);

    for (unsigned threads : {1u, 8u}) {
        const std::string path = temp_path("ck_gaps_run.bin");
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << gaps;
        }
        const Aggregate resumed =
            run_trials(s, 0x5EED, trials, ExecutorConfig{threads, 3, path, true});
        expect_aggregates_identical(resumed, expected);
        // Only chunks 0 and 2 ran again.
        EXPECT_EQ(parse_journal(path).record_ends.size(), 4u) << threads;
    }
}

TEST(Checkpoint, ResumeRefusesMismatchedMeta) {
    const std::string path = temp_path("ck_meta.bin");
    std::filesystem::remove(path);
    const Scenario s = small_scenario();
    (void)run_trials(s, 11, 6, ExecutorConfig{1, 3, path, false});

    // Different base seed, chunking, or scenario: the journaled partials
    // belong to another sweep and must be refused, not merged.
    EXPECT_THROW((void)run_trials(s, 12, 6, ExecutorConfig{1, 3, path, true}),
                 ContractViolation);
    EXPECT_THROW((void)run_trials(s, 11, 6, ExecutorConfig{1, 2, path, true}),
                 ContractViolation);
    Scenario other = s;
    other.n = 32;
    other.t = 9;
    EXPECT_THROW((void)run_trials(other, 11, 6, ExecutorConfig{1, 3, path, true}),
                 ContractViolation);
    // So does any other result-changing key: another q, the sparse plane.
    other = s;
    other.q = 3;
    EXPECT_THROW((void)run_trials(other, 11, 6, ExecutorConfig{1, 3, path, true}),
                 ContractViolation);
    other = Scenario::parse(s.describe() + " plane=sparse");
    EXPECT_THROW((void)run_trials(other, 11, 6, ExecutorConfig{1, 3, path, true}),
                 ContractViolation);
    // The matching meta still resumes cleanly after all those refusals.
    (void)run_trials(s, 11, 6, ExecutorConfig{1, 3, path, true});
}

TEST(Checkpoint, UncreatableJournalIsAnInputError) {
    const std::string path = temp_path("no_such_dir") + "/journal.bin";
    const std::string want = "cannot create checkpoint journal '" + path + "'";
    try {
        (void)run_trials(small_scenario(), 11, 6, ExecutorConfig{1, 3, path, false});
        ADD_FAILURE() << "a journal was created at " << path;
    } catch (const ContractViolation& e) {
        EXPECT_EQ(std::string(e.what()).find(want), 0u) << e.what();
    }
    // The same refusal while the flags are read, before any run.
    try {
        ensure_journal_path(path);
        ADD_FAILURE() << "ensure_journal_path accepted " << path;
    } catch (const ContractViolation& e) {
        EXPECT_EQ(std::string(e.what()).find(want), 0u) << e.what();
    }
    // A creatable path is left as it was: absent, or untouched.
    const std::string fresh = temp_path("ck_probe.bin");
    std::filesystem::remove(fresh);
    ensure_journal_path(fresh);
    EXPECT_FALSE(std::filesystem::exists(fresh));
    {
        std::ofstream out(fresh, std::ios::binary);
        out << "journal";
    }
    ensure_journal_path(fresh);
    EXPECT_EQ(std::filesystem::file_size(fresh), 7u);
}

std::string hex(const std::string& bytes) {
    std::string out;
    char buf[3];
    for (unsigned char c : bytes) {
        std::snprintf(buf, sizeof buf, "%02x", c);
        out += buf;
    }
    return out;
}

/// The payload of `agg` is `pinned` (hex), and decoding it reproduces
/// `agg`'s payload exactly; a trailing byte is refused.
template <typename A>
void expect_payload_round_trips(const A& agg, const std::string& pinned,
                                const std::string& workload) {
    SCOPED_TRACE(workload);
    std::string payload;
    encode_fields(agg, payload);
    if (!pinned.empty()) EXPECT_EQ(hex(payload), pinned);
    A back;
    decode_fields(payload, back, workload);
    std::string again;
    encode_fields(back, again);
    EXPECT_EQ(again, payload);
    EXPECT_EQ(back.trials, agg.trials);
    const std::string message = [&] {
        try {
            A bad;
            decode_fields(payload + "x", bad, workload);
        } catch (const ContractViolation& e) {
            return std::string(e.what());
        }
        return std::string();
    }();
    EXPECT_NE(message.find(workload + " checkpoint payload has trailing bytes"),
              std::string::npos)
        << message;
}

TEST(Checkpoint, EncodeDecodeRoundTripsEveryWorkloadAggregate) {
    // One small fixed aggregate per workload, its payload bytes as the
    // hand-written codecs wrote them before the field lists: a journal from
    // before resumes bit-identically.
    Aggregate b;
    b.trials = 7;
    b.agreement_failures = 1;
    b.validity_failures = 2;
    b.not_halted = 3;
    b.cap_exhausted = 4;
    b.watchdog_timeouts = 5;
    b.faulted = 6;
    b.rounds.add(1.5);
    b.rounds.add(2);
    b.messages.add(3);
    b.corruptions.add(-0.25);
    b.corruptions.add(1e300);
    expect_payload_round_trips(
        b,
        "0700000001000000020000000300000004000000050000000600000002000000000000000000"
        "00000000f83f000000000000004001000000000000000000000000000840000000000000000002"
        "00000000000000000000000000d0bf9c7500883ce4377e",
        "binary");

    CoinAggregate c;
    c.trials = 7;
    c.common = 1;
    c.common_ones = 2;
    c.attack_feasible = 3;
    c.faulted = 4;
    expect_payload_round_trips(c, "0700000001000000020000000300000004000000", "coin");

    MvAggregate m;
    m.trials = 9;
    m.agreement_failures = 1;
    m.validity_failures = 2;
    m.not_halted = 3;
    m.decided_real = 4;
    m.cap_exhausted = 5;
    m.watchdog_timeouts = 6;
    m.faulted = 7;
    m.rounds.add(8);
    m.rounds.add(9.75);
    expect_payload_round_trips(
        m,
        "09000000010000000200000003000000040000000500000006000000070000000200000000000000"
        "00000000000020400000000000802340",
        "mv");

    MacroAggregate x;
    x.trials = 7;
    x.agreement_failures = 1;
    x.cap_exhausted = 2;
    x.faulted = 3;
    x.rounds.add(10);
    x.corruptions.add(0.125);
    x.corruptions.add(3);
    expect_payload_round_trips(
        x,
        "07000000010000000200000003000000010000000000000000000000000024400000000000000000"
        "0200000000000000000000000000c03f0000000000000840",
        "macro");

    // Aggregates a run produced round-trip too, every field bit for bit.
    const Aggregate run = run_trials(small_scenario(), 3, 5, ExecutorConfig{1});
    std::string payload;
    encode_fields(run, payload);
    Aggregate back;
    decode_fields(payload, back, "binary");
    expect_aggregates_identical(back, run);
    CoinScenario cs;
    cs.n = 16;
    cs.designated = 16;
    cs.f = 2;
    expect_payload_round_trips(run_coin_trials(cs, 3, 5, ExecutorConfig{1}), "", "coin");
    MvScenario ms;
    ms.n = 16;
    ms.t = 5;
    expect_payload_round_trips(run_mv_trials(ms, 3, 5, ExecutorConfig{1}), "", "mv");
    MacroScenario xs;
    xs.n = 64;
    xs.t = 12;
    expect_payload_round_trips(run_macro_trials(xs, 3, 5, ExecutorConfig{1}), "", "macro");
}

TEST(Checkpoint, CoinAndMacroScopesRefuseAnotherExperiment) {
    // The macro scope writes alpha exactly, through the key table: a journal
    // written at alpha = 4 is refused at alpha = 4.0000004 (whose six-decimal
    // rendering is the same) and resumes at alpha = 4.0.
    const std::string path = temp_path("ck_macro_alpha.bin");
    std::filesystem::remove(path);
    MacroScenario ms = MacroScenario::parse("n=4096 t=64 alpha=4");
    const MacroAggregate full = run_macro_trials(ms, 9, 8, ExecutorConfig{1, 4, path, false});
    MacroScenario near = ms;
    near.tuning.alpha = 4.0000004;
    EXPECT_THROW((void)run_macro_trials(near, 9, 8, ExecutorConfig{1, 4, path, true}),
                 ContractViolation);
    const MacroAggregate resumed = run_macro_trials(
        MacroScenario::parse("n=4096 t=64 alpha=4.0"), 9, 8, ExecutorConfig{1, 4, path, true});
    EXPECT_EQ(resumed.rounds.values(), full.rounds.values());
    EXPECT_EQ(resumed.corruptions.values(), full.corruptions.values());

    // A coin journal is refused under another attack.
    const std::string coin_path = temp_path("ck_coin_attack.bin");
    std::filesystem::remove(coin_path);
    CoinScenario cs = CoinScenario::parse("n=32 k=32 f=2 attack=split");
    (void)run_coin_trials(cs, 5, 8, ExecutorConfig{1, 4, coin_path, false});
    cs.attack = adv::CoinAttack::ForceBit;
    EXPECT_THROW((void)run_coin_trials(cs, 5, 8, ExecutorConfig{1, 4, coin_path, true}),
                 ContractViolation);
    cs.attack = adv::CoinAttack::Split;
    (void)run_coin_trials(cs, 5, 8, ExecutorConfig{1, 4, coin_path, true});
}

TEST(Checkpoint, QEqualToTResumesAcrossAnUnsetQ) {
    // q = t and an unset q are one experiment, so the binary, mv and macro
    // scopes are the same bytes: a journal written under either resumes
    // under the other to the same aggregate, and another q is refused.
    const auto check = [](const auto& unset, const auto& run, const std::string& name) {
        SCOPED_TRACE(name);
        const std::string path = temp_path("ck_q_" + name + ".bin");
        auto at_t = unset;
        at_t.q = at_t.t;
        auto below = unset;
        below.q = unset.t - 1;
        for (const bool write_unset : {true, false}) {
            std::filesystem::remove(path);
            const auto full = run(write_unset ? unset : at_t, ExecutorConfig{1, 4, path, false});
            const auto resumed =
                run(write_unset ? at_t : unset, ExecutorConfig{2, 4, path, true});
            EXPECT_EQ(resumed.trials, full.trials);
            EXPECT_EQ(resumed.rounds.values(), full.rounds.values());
            EXPECT_THROW((void)run(below, ExecutorConfig{1, 4, path, true}), ContractViolation);
        }
    };
    check(Scenario::parse("protocol=ours adversary=static n=64 t=21"),
          [](const Scenario& s, const ExecutorConfig& e) { return run_trials(s, 7, 8, e); },
          "binary");
    check(MvScenario::parse("n=32 t=9"),
          [](const MvScenario& s, const ExecutorConfig& e) { return run_mv_trials(s, 7, 8, e); },
          "mv");
    check(MacroScenario::parse("n=4096 t=64"),
          [](const MacroScenario& s, const ExecutorConfig& e) {
              return run_macro_trials(s, 7, 8, e);
          },
          "macro");
}

TEST(Checkpoint, JournaledFaultyRunStillMatchesUnarmedResult) {
    // Transient faults + checkpointing together: the journal records the
    // RECOVERED partials, so even a resume of a faulty run reproduces the
    // unarmed aggregate bit-for-bit.
    const Scenario s = small_scenario();
    const Count trials = 6;
    const Aggregate unarmed = run_trials(s, 0xAB, trials, ExecutorConfig{1, 2});

    FaultConfig fc;
    fc.alloc_rate = 0.5;
    fc.max_attempts = 2;
    const ScopedFaultInjection arm(fc);
    const std::string path = temp_path("ck_faulty.bin");
    std::filesystem::remove(path);
    const Aggregate armed =
        run_trials(s, 0xAB, trials, ExecutorConfig{1, 2, path, false});
    expect_aggregates_identical(armed, unarmed);
    const Aggregate resumed =
        run_trials(s, 0xAB, trials, ExecutorConfig{4, 2, path, true});
    expect_aggregates_identical(resumed, unarmed);
}

// ------------------------------------------------ memory budget

TEST(MemoryBudget, FlatPlaneFallsBackToSparseWithinBudget) {
    // n=32768 flat needs ~3 MiB (> 2 MiB budget); sparse ~1.75 MiB fits.
    const ScopedMemBudget budget(2);
    Scenario s = small_scenario();
    s.n = 32768;
    s.t = 3000;
    s.q = 256;
    Scenario adjusted = s;
    const auto warning = apply_memory_budget(adjusted);
    ASSERT_TRUE(warning.has_value());
    EXPECT_NE(warning->find("plane=sparse"), std::string::npos);
    EXPECT_TRUE(adjusted.sparse_plane);
    Scenario unchanged = adjusted;  // already sparse: fits, no second warning
    EXPECT_FALSE(apply_memory_budget(unchanged).has_value());
}

TEST(MemoryBudget, RejectsWhenNoFallbackExists) {
    const ScopedMemBudget budget(2);
    Scenario s = small_scenario();
    s.n = 32768;
    s.use_batch = false;  // per-node path: not sparse-capable
    Scenario adjusted = s;
    EXPECT_THROW((void)apply_memory_budget(adjusted), ContractViolation);

    MvScenario mv;  // Turpin-Coan has no sparse fallback at all
    mv.n = 32768;
    mv.t = 3000;
    EXPECT_THROW(enforce_memory_budget(mv), ContractViolation);
}

TEST(MemoryBudget, SmallScenariosPassUntouched) {
    const ScopedMemBudget budget(2);
    Scenario s = small_scenario();
    Scenario adjusted = s;
    EXPECT_FALSE(apply_memory_budget(adjusted).has_value());
    EXPECT_EQ(adjusted, s);
    // And the estimate itself is monotone in n and cheaper under sparse.
    EXPECT_LT(estimate_trial_arena_bytes(1024, false),
              estimate_trial_arena_bytes(2048, false));
    EXPECT_LT(estimate_trial_arena_bytes(1 << 20, true),
              estimate_trial_arena_bytes(1 << 20, false));
}

// ------------------------------------------------ crash-atomic CSV

TEST(AtomicCsv, WriteLeavesNoTempFileAndCompleteContent) {
    const std::string dir = temp_path("csv_out");
    std::filesystem::remove_all(dir);
    Table t("atomic");
    t.set_header({"a", "b"});
    t.add_row({"1", "2"});
    const std::string path = write_csv(t, dir, "atomic_test");
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "a,b\n1,2\n");
}

}  // namespace
}  // namespace adba::sim
