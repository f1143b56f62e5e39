// Unit tests for src/support: contracts, math helpers, statistics, table
// rendering, CLI parsing.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/math.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/types.hpp"

namespace adba {
namespace {

// ---------------------------------------------------------------- contracts

TEST(Contracts, ExpectsThrowsContractViolation) {
    EXPECT_THROW(ADBA_EXPECTS(1 == 2), ContractViolation);
}

TEST(Contracts, ExpectsPassesOnTrue) {
    EXPECT_NO_THROW(ADBA_EXPECTS(2 + 2 == 4));
}

TEST(Contracts, MessageIsPreserved) {
    try {
        ADBA_EXPECTS_MSG(false, "the reason");
        FAIL() << "should have thrown";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("the reason"), std::string::npos);
    }
}

TEST(Contracts, EnsuresThrows) { EXPECT_THROW(ADBA_ENSURES(false), ContractViolation); }

// --------------------------------------------------------------------- math

TEST(Math, CeilDiv) {
    EXPECT_EQ(ceil_div(10, 3), 4u);
    EXPECT_EQ(ceil_div(9, 3), 3u);
    EXPECT_EQ(ceil_div(1, 1), 1u);
    EXPECT_EQ(ceil_div(0, 5), 0u);
    EXPECT_EQ(ceil_div(1000001, 1000), 1001u);
}

TEST(Math, CeilLog2) {
    EXPECT_EQ(ceil_log2(1), 0u);
    EXPECT_EQ(ceil_log2(2), 1u);
    EXPECT_EQ(ceil_log2(3), 2u);
    EXPECT_EQ(ceil_log2(4), 2u);
    EXPECT_EQ(ceil_log2(5), 3u);
    EXPECT_EQ(ceil_log2(1024), 10u);
    EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Math, FloorLog2) {
    EXPECT_EQ(floor_log2(1), 0u);
    EXPECT_EQ(floor_log2(2), 1u);
    EXPECT_EQ(floor_log2(3), 1u);
    EXPECT_EQ(floor_log2(1024), 10u);
    EXPECT_EQ(floor_log2(1535), 10u);
}

TEST(Math, Isqrt) {
    EXPECT_EQ(isqrt(0), 0u);
    EXPECT_EQ(isqrt(1), 1u);
    EXPECT_EQ(isqrt(3), 1u);
    EXPECT_EQ(isqrt(4), 2u);
    EXPECT_EQ(isqrt(15), 3u);
    EXPECT_EQ(isqrt(16), 4u);
    EXPECT_EQ(isqrt(1ULL << 40), 1ULL << 20);
    EXPECT_EQ(isqrt((1ULL << 40) - 1), (1ULL << 20) - 1);
}

TEST(Math, IsqrtIsMonotone) {
    std::uint64_t prev = 0;
    for (std::uint64_t x = 0; x < 5000; ++x) {
        const auto r = isqrt(x);
        EXPECT_GE(r, prev);
        EXPECT_LE(r * r, x);
        EXPECT_GT((r + 1) * (r + 1), x);
        prev = r;
    }
}

TEST(Math, SafeLog2ClampsToOne) {
    EXPECT_DOUBLE_EQ(safe_log2(1.0), 1.0);
    EXPECT_DOUBLE_EQ(safe_log2(2.0), 1.0);
    EXPECT_DOUBLE_EQ(safe_log2(1024.0), 10.0);
    EXPECT_THROW(safe_log2(0.5), ContractViolation);
}

// -------------------------------------------------------------------- stats

TEST(RunningStats, MeanAndVariance) {
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleValue) {
    RunningStats s;
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, EmptyMinThrows) {
    RunningStats s;
    EXPECT_THROW(s.min(), ContractViolation);
}

TEST(Samples, QuantilesExactOnSmallSet) {
    Samples s;
    for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Samples, QuantileInterpolates) {
    Samples s;
    s.add(0.0);
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.35), 3.5);
}

TEST(Samples, StatsMatchRunningStats) {
    RunningStats r;
    Samples s;
    for (int i = 0; i < 100; ++i) {
        const double x = static_cast<double>((i * 37) % 101);
        r.add(x);
        s.add(x);
    }
    EXPECT_NEAR(r.mean(), s.mean(), 1e-9);
    EXPECT_NEAR(r.stddev(), s.stddev(), 1e-9);
    EXPECT_DOUBLE_EQ(r.min(), s.min());
    EXPECT_DOUBLE_EQ(r.max(), s.max());
}

TEST(Samples, AddAfterQuantileKeepsConsistency) {
    Samples s;
    s.add(5.0);
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    s.add(0.5);  // must re-sort lazily
    EXPECT_DOUBLE_EQ(s.min(), 0.5);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Samples, MergeMatchesSingleStream) {
    // Splitting one observation stream into consecutive chunks and merging
    // the chunk Samples in order must reproduce the single-stream statistics
    // EXACTLY (same buffer, same summation order) — the executor relies on it.
    const std::vector<double> xs = {3.0, 1.5, 4.25, 1.0, 5.5, 9.0, 2.75, 6.0, 5.0};
    Samples single;
    for (double x : xs) single.add(x);

    Samples merged, chunk_a, chunk_b, chunk_c;
    for (std::size_t i = 0; i < 3; ++i) chunk_a.add(xs[i]);
    for (std::size_t i = 3; i < 7; ++i) chunk_b.add(xs[i]);
    for (std::size_t i = 7; i < xs.size(); ++i) chunk_c.add(xs[i]);
    merged.merge(chunk_a);
    merged.merge(chunk_b);
    merged.merge(chunk_c);

    ASSERT_EQ(merged.count(), single.count());
    EXPECT_EQ(merged.values(), single.values());
    EXPECT_EQ(merged.mean(), single.mean());
    EXPECT_EQ(merged.stddev(), single.stddev());
    EXPECT_EQ(merged.min(), single.min());
    EXPECT_EQ(merged.max(), single.max());
    EXPECT_EQ(merged.quantile(0.9), single.quantile(0.9));
    EXPECT_EQ(merged.median(), single.median());
}

TEST(Samples, MergeWithEmptySidesIsIdentity) {
    Samples a;
    a.add(2.0);
    a.add(7.0);
    Samples empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 4.5);
}

TEST(RunningStats, MergeMatchesSingleStream) {
    RunningStats single, left, right;
    for (int i = 0; i < 40; ++i) {
        const double x = static_cast<double>((i * 53) % 97) / 3.0;
        single.add(x);
        (i < 17 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), single.count());
    EXPECT_NEAR(left.mean(), single.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), single.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), single.min());
    EXPECT_DOUBLE_EQ(left.max(), single.max());
    EXPECT_NEAR(left.sum(), single.sum(), 1e-12);
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
    RunningStats a, empty;
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

// -------------------------------------------------------------------- table

TEST(Table, MarkdownShape) {
    Table t("Demo");
    t.set_header({"a", "long-column"});
    t.add_row({"1", "x"});
    t.add_row({"22", "yy"});
    const std::string md = t.to_markdown();
    EXPECT_NE(md.find("### Demo"), std::string::npos);
    EXPECT_NE(md.find("| a "), std::string::npos);
    EXPECT_NE(md.find("long-column"), std::string::npos);
    // Header separator present.
    EXPECT_NE(md.find("|--"), std::string::npos);
}

TEST(Table, RowArityEnforced) {
    Table t("x");
    t.set_header({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, HeaderAfterRowsRejected) {
    Table t("x");
    t.set_header({"a"});
    t.add_row({"1"});
    EXPECT_THROW(t.set_header({"b"}), ContractViolation);
}

TEST(Table, CsvEscaping) {
    Table t("x");
    t.set_header({"name", "value"});
    t.add_row({"with,comma", "with\"quote"});
    const std::string csv = t.to_csv();
    EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, NumFormatting) {
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
    EXPECT_EQ(Table::num(1.0, 0), "1");
}

TEST(Table, WriteCsvCreatesMissingDirectories) {
    const auto dir = std::filesystem::temp_directory_path() /
                     "adba_csv_test" / "nested";
    std::filesystem::remove_all(dir.parent_path());
    Table t("x");
    t.set_header({"a", "b"});
    t.add_row({"1", "2"});
    const std::string path = write_csv(t, dir.string(), "demo");
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "a,b");
    std::filesystem::remove_all(dir.parent_path());
}

TEST(Table, WriteCsvFailsLoudlyWhenDirectoryIsAFile) {
    const auto blocker = std::filesystem::temp_directory_path() / "adba_csv_blocker";
    std::ofstream(blocker.string()) << "not a directory";
    Table t("x");
    t.set_header({"a"});
    t.add_row({"1"});
    // The target "directory" is a regular file: creation must throw, not
    // silently drop the table.
    EXPECT_THROW(write_csv(t, (blocker / "sub").string(), "demo"), ContractViolation);
    std::filesystem::remove(blocker);
}

// ---------------------------------------------------------------------- cli

TEST(Cli, ParsesEqualsForm) {
    const char* argv[] = {"prog", "--n=256", "--alpha=2.5", "--verbose"};
    Cli cli(4, const_cast<char**>(argv));
    EXPECT_EQ(cli.get_int("n", 0), 256);
    EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 2.5);
    EXPECT_TRUE(cli.get_bool("verbose", false));
    EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, ParsesSpaceForm) {
    const char* argv[] = {"prog", "--trials", "50"};
    Cli cli(3, const_cast<char**>(argv));
    EXPECT_EQ(cli.get_int("trials", 0), 50);
}

TEST(Cli, IntList) {
    const char* argv[] = {"prog", "--t=1,2,30"};
    Cli cli(2, const_cast<char**>(argv));
    const auto xs = cli.get_int_list("t", {});
    ASSERT_EQ(xs.size(), 3u);
    EXPECT_EQ(xs[0], 1);
    EXPECT_EQ(xs[1], 2);
    EXPECT_EQ(xs[2], 30);
}

TEST(Cli, BenchmarkFlagsPassThrough) {
    const char* argv[] = {"prog", "--benchmark_filter=all", "--n=4"};
    Cli cli(3, const_cast<char**>(argv));
    EXPECT_EQ(cli.get_int("n", 0), 4);
    ASSERT_EQ(cli.passthrough().size(), 2u);
    EXPECT_EQ(cli.passthrough()[1], "--benchmark_filter=all");
}

TEST(Cli, CheckUnusedPassesWhenEveryFlagWasQueried) {
    const char* argv[] = {"prog", "--n=4", "--trials=9"};
    Cli cli(3, const_cast<char**>(argv));
    cli.get_int("n", 0);
    cli.get_int("trials", 0);
    cli.get_int("threads", 1);  // queried-but-absent flags are fine
    EXPECT_NO_THROW(cli.check_unused());
}

TEST(Cli, CheckUnusedFailsLoudlyOnTypo) {
    const char* argv[] = {"prog", "--trails=50"};
    Cli cli(2, const_cast<char**>(argv));
    cli.get_int("trials", 20);
    try {
        cli.check_unused();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--trails"), std::string::npos) << msg;
        EXPECT_NE(msg.find("did you mean --trials?"), std::string::npos) << msg;
    }
}

TEST(Cli, CheckUnusedIgnoresBenchmarkFlags) {
    const char* argv[] = {"prog", "--benchmark_filter=all", "--benchmark_repetitions=2"};
    Cli cli(3, const_cast<char**>(argv));
    EXPECT_NO_THROW(cli.check_unused());
    EXPECT_EQ(cli.passthrough().size(), 3u);
}

TEST(Cli, RefusesPositionalArguments) {
    // A stray word, and the second key of an unquoted --scenario spec, are
    // refused by name before any flag is read.
    for (const std::string stray : {"bogus", "simd=off", "-n"}) {
        const char* argv[] = {"prog", "--scenario=n=32", stray.c_str()};
        try {
            Cli cli(3, const_cast<char**>(argv));
            FAIL() << "expected ContractViolation for '" << stray << "'";
        } catch (const ContractViolation& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("unexpected argument '" + stray + "'"), std::string::npos) << msg;
        }
    }
    // The value of a spaced flag is not positional.
    const char* argv[] = {"prog", "--trials", "50", "--benchmark_filter=NONE"};
    EXPECT_NO_THROW(Cli(4, const_cast<char**>(argv)));
}

TEST(Cli, CheckUnusedListsAllOffenders) {
    const char* argv[] = {"prog", "--alpha=1", "--bogus=2", "--wrong=3"};
    Cli cli(4, const_cast<char**>(argv));
    cli.get_double("alpha", 0.0);
    try {
        cli.check_unused();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--bogus"), std::string::npos) << msg;
        EXPECT_NE(msg.find("--wrong"), std::string::npos) << msg;
        EXPECT_EQ(msg.find("--alpha=1"), std::string::npos) << msg;
    }
}

TEST(Cli, HelpListsTheQueriedFlagsWithTheirDefaults) {
    const char* argv[] = {"some/dir/prog", "--help", "--n=4"};
    Cli cli(3, const_cast<char**>(argv));
    EXPECT_EQ(cli.get_int("n", 256), 4);  // values still parse under --help
    cli.get_bool("batch", true);
    cli.has("scenario");
    try {
        cli.check_unused();
        FAIL() << "expected HelpRequested";
    } catch (const HelpRequested& help) {
        const std::string text = help.what();
        EXPECT_NE(text.find("usage: prog "), std::string::npos) << text;
        EXPECT_NE(text.find("  --n=256\n"), std::string::npos) << text;
        EXPECT_NE(text.find("  --batch=on\n"), std::string::npos) << text;
        EXPECT_NE(text.find("  --scenario\n"), std::string::npos) << text;
        EXPECT_EQ(text.find("--help"), std::string::npos) << text;
    }
}

TEST(Cli, MalformedNumbersNameTheFlag) {
    const char* argv[] = {"prog", "--threads=abc", "--alpha=1.5x", "--t=4,x",
                          "--fused=onn", "--batch=off", "--resume",
                          "--gamma=nan", "--kappa=inf", "--beta=-inf"};
    Cli cli(10, const_cast<char**>(argv));
    const auto message_of = [](auto&& read) {
        try {
            read();
        } catch (const ContractViolation& e) {
            return std::string(e.what());
        }
        return std::string("no throw");
    };
    EXPECT_EQ(message_of([&] { cli.get_int("threads", 1); }),
              "--threads expects an integer, got 'abc'");
    EXPECT_EQ(message_of([&] { cli.get_double("alpha", 0.0); }),
              "--alpha expects a finite number, got '1.5x'");
    // A non-finite value must not reach a float-to-integer cast.
    EXPECT_EQ(message_of([&] { cli.get_double("gamma", 1.0); }),
              "--gamma expects a finite number, got 'nan'");
    EXPECT_EQ(message_of([&] { cli.get_double("kappa", 1.0); }),
              "--kappa expects a finite number, got 'inf'");
    EXPECT_EQ(message_of([&] { cli.get_double("beta", 1.0); }),
              "--beta expects a finite number, got '-inf'");
    EXPECT_EQ(message_of([] { (void)parse_double("--x", "1e999"); }),
              "--x expects a finite number, got '1e999'");
    EXPECT_DOUBLE_EQ(parse_double("--x", "-2.5e3"), -2500.0);
    EXPECT_EQ(parse_double("--x", "5e-324"), 5e-324);  // subnormal: finite
    EXPECT_EQ(message_of([&] { cli.get_int_list("t", {}); }),
              "--t expects an integer, got 'x'");
    // A misspelled toggle must not silently read as false.
    EXPECT_EQ(message_of([&] { cli.get_bool("fused", false); }),
              "--fused expects true/1/yes/on or false/0/no/off, got 'onn'");
    EXPECT_FALSE(cli.get_bool("batch", true));
    EXPECT_TRUE(cli.get_bool("resume", false));  // bare flag
    EXPECT_EQ(message_of([&] { (void)parse_bool("--x", ""); }),
              "--x expects true/1/yes/on or false/0/no/off, got ''");
    for (const char* yes : {"true", "1", "yes", "on"}) EXPECT_TRUE(parse_bool("--x", yes));
    for (const char* no : {"false", "0", "no", "off"}) EXPECT_FALSE(parse_bool("--x", no));
}

TEST(Cli, UnsignedFlagsRejectSignsAndValuesPastTheirField) {
    const char* argv[] = {"prog", "--trials=-1", "--n=4294967360", "--chunk=+4", "--q= 3",
                          "--seed=18446744073709551615", "--t=4294967295", "--bit=256",
                          "--phases=12"};
    Cli cli(9, const_cast<char**>(argv));
    const auto message_of = [](auto&& read) {
        try {
            read();
        } catch (const ContractViolation& e) {
            return std::string(e.what());
        }
        return std::string("no throw");
    };
    EXPECT_EQ(message_of([&] { cli.get_uint<Count>("trials", 20); }),
              "--trials expects an integer in [0, 4294967295], got '-1'");
    EXPECT_EQ(message_of([&] { cli.get_uint<NodeId>("n", 64); }),
              "--n expects an integer in [0, 4294967295], got '4294967360'");
    EXPECT_EQ(message_of([&] { cli.get_uint<Count>("chunk", 0); }),
              "--chunk expects an integer in [0, 4294967295], got '+4'");
    EXPECT_EQ(message_of([&] { cli.get_uint<Count>("q", 0); }),
              "--q expects an integer in [0, 4294967295], got ' 3'");
    EXPECT_EQ(message_of([&] { cli.get_uint<Bit>("bit", 0); }),
              "--bit expects an integer in [0, 255], got '256'");
    // The top of each field's range, an ordinary value and the fallback.
    EXPECT_EQ(cli.get_uint<std::uint64_t>("seed", 1), ~std::uint64_t{0});
    EXPECT_EQ(cli.get_uint<Count>("t", 0), 4294967295u);
    EXPECT_EQ(cli.get_uint<Count>("phases", 64), 12u);
    EXPECT_EQ(cli.get_uint<Count>("absent", 7), 7u);
    EXPECT_EQ(message_of([] { (void)parse_uint("--x", "", 9); }),
              "--x expects an integer in [0, 9], got ''");
    EXPECT_EQ(parse_uint("--x", "9", 9), 9u);
    EXPECT_EQ(message_of([] { (void)parse_uint("--x", "10", 9); }),
              "--x expects an integer in [0, 9], got '10'");
}

TEST(Cli, RunMainMapsOutcomesToExitStatus) {
    const auto status = [](std::vector<const char*> args, int body_status,
                           bool body_throws = false) {
        args.insert(args.begin(), "prog");
        return run_main(static_cast<int>(args.size()), const_cast<char**>(args.data()),
                        [&](const Cli& cli) {
                            cli.get_int("n", 1);
                            cli.check_unused();
                            if (body_throws) throw std::runtime_error("boom");
                            return body_status;
                        });
    };
    EXPECT_EQ(status({"--n=3"}, 7), 7);
    EXPECT_EQ(status({"--nope"}, 7), 2);
    EXPECT_EQ(status({"--n=x"}, 7), 2);
    EXPECT_EQ(status({"--help"}, 7), 0);
    EXPECT_EQ(status({"--nope", "--help"}, 7), 0);
    EXPECT_EQ(status({}, 0, true), 2);
}

}  // namespace
}  // namespace adba
