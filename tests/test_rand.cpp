// Unit and statistical tests for src/rand: splitmix64 reference values,
// xoshiro256** behaviour, bounded sampling, and seed-tree independence.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "rand/rng.hpp"
#include "rand/seed_tree.hpp"
#include "support/contracts.hpp"

namespace adba {
namespace {

TEST(SplitMix, ReferenceSequenceFromSeedZero) {
    // Published reference outputs of splitmix64 seeded with 0.
    std::uint64_t s = 0;
    EXPECT_EQ(splitmix64_next(s), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(splitmix64_next(s), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(splitmix64_next(s), 0x06c45d188009454fULL);
}

TEST(SplitMix, Mix64IsStateless) {
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
}

TEST(Xoshiro, DeterministicForSameSeed) {
    Xoshiro256 a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
    Xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b()) ++same;
    EXPECT_LE(same, 1);
}

TEST(Xoshiro, FirstOutputMatchesAFreshStream) {
    // The fused committee coin reads a stream's first output without
    // building it; seed 0 and the all-ones seed included.
    Xoshiro256 seeds(0xF1257u);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t seed = i == 0 ? 0 : i == 1 ? ~std::uint64_t{0} : seeds();
        Xoshiro256 g(seed);
        ASSERT_EQ(Xoshiro256::first_output(seed), g()) << "seed " << seed;
    }
}

TEST(Xoshiro, BelowStaysInRange) {
    Xoshiro256 r(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 33) + 7}) {
        for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Xoshiro, BelowOneIsAlwaysZero) {
    Xoshiro256 r(9);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Xoshiro, BelowZeroRejected) {
    Xoshiro256 r(9);
    EXPECT_THROW(r.below(0), ContractViolation);
}

TEST(Xoshiro, BelowCoversAllResidues) {
    Xoshiro256 r(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) seen.insert(r.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

/// below() as it computed the rejection limit before every draw: two
/// divisions per call.
std::uint64_t below_two_divisions(Xoshiro256& g, std::uint64_t bound) {
    if ((bound & (bound - 1)) == 0) return g() & (bound - 1);
    const std::uint64_t limit = (~0ULL / bound) * bound;
    std::uint64_t x = g();
    while (x >= limit) x = g();
    return x % bound;
}

TEST(Xoshiro, BelowMatchesTheTwoDivisionForm) {
    // Bounds above 2^63 reject about half their draws, so the path that
    // computes the limit runs too.
    std::vector<std::uint64_t> bounds = {1ULL,
                                         2ULL,
                                         3ULL,
                                         63ULL,
                                         64ULL,
                                         65ULL,
                                         (1ULL << 32) - 1,
                                         (1ULL << 32) + 1,
                                         (1ULL << 63) - 1,
                                         (1ULL << 63) + 1,
                                         ~0ULL - 1,
                                         ~0ULL};
    Xoshiro256 pick(0xB0D5);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t x = pick();
        bounds.push_back((x >> (pick() % 64)) | 1);
    }
    for (const std::uint64_t bound : bounds) {
        Xoshiro256 a(bound ^ 0x5EED), b(bound ^ 0x5EED);
        for (int i = 0; i < 300; ++i)
            ASSERT_EQ(a.below(bound), below_two_divisions(b, bound)) << "bound " << bound;
        EXPECT_EQ(a.state(), b.state()) << "bound " << bound;
    }
}

TEST(Xoshiro, BelowRoughlyUniform) {
    Xoshiro256 r(13);
    constexpr int kBuckets = 8;
    constexpr int kDraws = 80000;
    int counts[kBuckets] = {};
    for (int i = 0; i < kDraws; ++i) ++counts[r.below(kBuckets)];
    // Each bucket expectation 10000, sd ~ 94; allow 6 sigma.
    for (int c : counts) EXPECT_NEAR(c, kDraws / kBuckets, 600);
}

TEST(Xoshiro, Uniform01Bounds) {
    Xoshiro256 r(17);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double x = r.uniform01();
        ASSERT_GE(x, 0.0);
        ASSERT_LT(x, 1.0);
        sum += x;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Xoshiro, FairBit) {
    Xoshiro256 r(19);
    int ones = 0;
    constexpr int kDraws = 40000;
    for (int i = 0; i < kDraws; ++i) ones += r.bit();
    EXPECT_NEAR(ones, kDraws / 2, 700);  // ~7 sigma
}

TEST(Xoshiro, FairSign) {
    Xoshiro256 r(23);
    std::int64_t sum = 0;
    constexpr int kDraws = 40000;
    for (int i = 0; i < kDraws; ++i) sum += r.sign();
    EXPECT_NEAR(static_cast<double>(sum), 0.0, 1400.0);
    // Signs are exactly ±1.
    for (int i = 0; i < 100; ++i) {
        const auto s = r.sign();
        EXPECT_TRUE(s == 1 || s == -1);
    }
}

TEST(Xoshiro, BernoulliEdgeCases) {
    Xoshiro256 r(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
    }
    EXPECT_THROW(r.bernoulli(-0.1), ContractViolation);
    EXPECT_THROW(r.bernoulli(1.1), ContractViolation);
}

TEST(Xoshiro, BernoulliRate) {
    Xoshiro256 r(31);
    int hits = 0;
    constexpr int kDraws = 50000;
    for (int i = 0; i < kDraws; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits, 15000, 700);
}

// ---------------------------------------------------------------- seed tree

TEST(SeedTree, DeterministicDerivation) {
    SeedTree a(99), b(99);
    EXPECT_EQ(a.seed(StreamPurpose::NodeProtocol, 5),
              b.seed(StreamPurpose::NodeProtocol, 5));
}

TEST(SeedTree, ChildSeedOfThePurposeHashIsTheSeed) {
    for (const std::uint64_t master : {std::uint64_t{0}, std::uint64_t{42}, ~std::uint64_t{0}}) {
        const SeedTree tree(master);
        for (const auto purpose : {StreamPurpose::NodeProtocol, StreamPurpose::Adversary,
                                   StreamPurpose::SparseTopology})
            for (std::uint64_t index = 0; index < 300; ++index)
                ASSERT_EQ(SeedTree::child_seed(tree.purpose_hash(purpose), index),
                          tree.seed(purpose, index));
    }
}

TEST(SeedTree, PurposesAreIndependent) {
    SeedTree t(1);
    EXPECT_NE(t.seed(StreamPurpose::NodeProtocol, 0),
              t.seed(StreamPurpose::Adversary, 0));
    EXPECT_NE(t.seed(StreamPurpose::NodeProtocol, 0),
              t.seed(StreamPurpose::InputAssignment, 0));
}

TEST(SeedTree, IndicesAreIndependent) {
    SeedTree t(1);
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seeds.insert(t.seed(StreamPurpose::NodeProtocol, i));
    EXPECT_EQ(seeds.size(), 1000u);  // no collisions among small indices
}

TEST(SeedTree, MastersAreIndependent) {
    std::set<std::uint64_t> seeds;
    for (std::uint64_t m = 0; m < 1000; ++m)
        seeds.insert(SeedTree(m).seed(StreamPurpose::NodeProtocol, 0));
    EXPECT_EQ(seeds.size(), 1000u);
}

TEST(SeedTree, StreamsDecorrelated) {
    // Adjacent node streams must not produce correlated sign sequences.
    SeedTree t(7);
    auto a = t.stream(StreamPurpose::NodeProtocol, 0);
    auto b = t.stream(StreamPurpose::NodeProtocol, 1);
    int match = 0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) match += (a.bit() == b.bit()) ? 1 : 0;
    EXPECT_NEAR(match, kDraws / 2, 600);
}

}  // namespace
}  // namespace adba
