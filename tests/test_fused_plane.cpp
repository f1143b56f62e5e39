// Fused trial plane tests: 64-trials-per-word execution (scenario fused=true)
// must be BIT-IDENTICAL to the scalar path — same aggregates, sample order
// included — for every fused-capable (protocol, adversary) registry pair, at
// any thread count, through partial blocks (trials % 64 != 0), per-lane
// early-decide divergence, and checkpoint kill/resume. The block-level
// forms of `none` and `static` must equal the per-lane bridge, contract
// failures included, a block mixing strategies must take the bridge, and
// the default chunk must hold whole blocks. The worst-case adversary's
// block-level form must equal 64 scalar engine runs block by block, and
// stateless committee draws must hold across committee
// revisits. Each protocol's receive beat must equal a per-(lane, receiver)
// oracle on synthetic frames, and arenas that re-arm their adversaries
// across blocks must still equal the scalar path. Plus the fused policy
// (fused engages where the plan can, and every skip names its reason), the
// scenario key round trip, the per-lane counting and compare kernels
// against their portable forms, and the input plane against per-lane
// inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "adversary/static_adversary.hpp"
#include "adversary/worst_case.hpp"
#include "baselines/phase_king.hpp"
#include "baselines/rabin_dealer.hpp"
#include "core/params.hpp"
#include "net/engine.hpp"
#include "net/fused_plane.hpp"
#include "net/tally_kernels.hpp"
#include "rand/rng.hpp"
#include "sim/inputs.hpp"
#include "sim/multivalued_runner.hpp"
#include "sim/faults.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"
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

/// Sets the process-wide intra-trial shard default for one scope. Fused
/// scenarios in this file pin `intra_threads = 1` instead: an explicit
/// shard count > 1, including a process default such as the sharded CI
/// passes' ADBA_INTRA_THREADS=4, keeps a run scalar (why_not_fused).
class ScopedIntraDefault {
public:
    explicit ScopedIntraDefault(unsigned shards) : saved_(sim::default_intra_threads()) {
        sim::set_default_intra_threads(shards);
    }
    ~ScopedIntraDefault() { sim::set_default_intra_threads(saved_); }
    ScopedIntraDefault(const ScopedIntraDefault&) = delete;
    ScopedIntraDefault& operator=(const ScopedIntraDefault&) = delete;

private:
    unsigned saved_;
};

/// Forwards on_start and act only, like a timing decorator that knows
/// nothing of block_form: wrapping every lane forces a block onto the
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

    friend bool operator==(const Script&, const Script&) = default;
};

/// A static strategy with a scripted set and row: act() corrupts the set in
/// round 0 and has every member send the row each round. Its block-level
/// form folds every lane's set into one lane mask (corrupt_lanes) and sends
/// the row once as the frame's shared row (share_row), as `static` does.
/// Counts its act() calls into `*acts` when given one.
class ScriptedUniform final : public net::Adversary, private net::BlockStrategy {
public:
    ScriptedUniform(std::vector<NodeId> set, Script script, int* acts = nullptr)
        : set_(std::move(set)), script_(script), acts_(acts) {}
    void act(net::RoundControl& ctl) override {
        if (acts_ != nullptr) ++*acts_;
        if (ctl.round() == 0)
            for (const NodeId v : set_) ctl.corrupt(v);
        const net::SplitRow r = row(ctl.round(), ctl.n());
        for (const NodeId v : set_) ctl.split_as(v, r.low, r.high, r.boundary);
    }
    bool same_strategy(const net::Adversary& other) const override {
        const auto* o = dynamic_cast<const ScriptedUniform*>(&other);
        return o != nullptr && o->script_ == script_;
    }
    net::BlockStrategy* block_form() override { return this; }

private:
    net::SplitRow row(Round r, NodeId n) const {
        net::Message low;
        low.kind = r % 2 == 0 ? script_.even : script_.odd;
        low.phase = r / 2;
        low.flag = 1;
        low.val = script_.low_val;
        low.coin = 1;
        net::Message high = low;
        high.val = static_cast<Bit>(1 - script_.low_val);
        high.coin = -1;
        return net::SplitRow{low, high, n / script_.div};
    }
    void act_block(net::FusedLaneControl& ctl, const net::Adversary* const* advs) override {
        const net::FusedFrame& f = ctl.frame();
        if (ctl.round() == 0) {
            mask_.assign(f.n(), 0);
            for (std::uint64_t lanes = f.active; lanes != 0; lanes &= lanes - 1) {
                const auto* lane =
                    static_cast<const ScriptedUniform*>(advs[std::countr_zero(lanes)]);
                for (const NodeId v : lane->set_) mask_[v] |= lanes & -lanes;
            }
            ctl.corrupt_lanes(mask_.data(), sizes_);
        }
        ctl.share_row(row(ctl.round(), f.n()), mask_.data(), f.active, sizes_);
    }

    std::vector<NodeId> set_;
    Script script_;
    int* acts_;
    std::vector<std::uint64_t> mask_;  ///< block form: lanes whose set holds node v
    Count sizes_[net::kFusedLanes] = {};
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
/// against the adversaries `make(j, lane seeds, metadata)` builds, in the
/// lanes of `in_block` (the others' results are left default).
template <typename MakeAdversary>
BlockOutcome run_block(const sim::ScenarioPlan& plan, std::uint64_t base_seed,
                       MakeAdversary&& make, std::uint64_t in_block = ~std::uint64_t{0}) {
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
              out.lanes, in_block);
    out.byz.assign(block.byz_plane(), block.byz_plane() + n);
    out.val.assign(proto->value_plane(), proto->value_plane() + n);
    return out;
}

/// The block against the registry adversary, direct and wrapped in
/// BridgeOnly.
std::pair<BlockOutcome, BlockOutcome> direct_and_bridge(const sim::ScenarioPlan& plan,
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
// lane_counts: K columns of per-lane counts in one pass must equal per-lane
// popcounts of the same words, at any range offset, tail length after the
// last full group of 8 (and block of 64), and density; words(v, w) runs
// once per v, ascending. Every case runs through the dispatched form and
// the carry-save form, and, on an AVX-512F host, the AVX-512F form called
// directly at every length, below its crossover too.
// lane_digits_to_counts: the load-time dispatched form equals the portable
// one.

/// Word k of node v under `density`: sparse (~1/8 of bits), half, dense
/// (~3/4) or all ones.
enum class Density { Sparse, Half, Dense, AllOnes };

std::uint64_t test_word(std::uint64_t seed, NodeId v, unsigned k, Density density) {
    const std::uint64_t h = seed ^ (std::uint64_t{v} << 3 | k);
    const std::uint64_t a = mix64(h), b = mix64(h + 1), c = mix64(h + 2);
    switch (density) {
        case Density::Sparse: return a & b & c;
        case Density::Half: return a;
        case Density::Dense: return a | b;
        case Density::AllOnes: return ~std::uint64_t{0};
    }
    return 0;
}

/// Which lane_counts form a case calls: the dispatched one, the carry-save
/// one, or the AVX-512F one (callers skip it on other hosts).
enum class Form { Dispatched, Portable, Wide };

template <unsigned K, typename Words>
void lane_counts_by(Form form, NodeId lo, NodeId hi, Words&& words,
                    Count (*out)[net::kFusedLanes]) {
    switch (form) {
        case Form::Dispatched:
            net::kern::lane_counts<K>(lo, hi, words, out);
            return;
        case Form::Portable:
            net::kern::lane_counts_portable<K>(lo, hi, words, out);
            return;
        case Form::Wide:
#if defined(__x86_64__)
            net::kern::lane_counts_avx512<K>(lo, hi, words, out);
#endif
            return;
    }
}

/// True when the host can run Form::Wide.
bool has_wide_form() {
#if defined(__x86_64__)
    return net::kern::has_avx512f();
#else
    return false;
#endif
}

template <unsigned K>
void expect_lane_counts(Form form, NodeId lo, NodeId len, std::uint64_t seed, Density density) {
    Count expect[K][net::kFusedLanes] = {};
    for (NodeId v = lo; v < lo + len; ++v)
        for (unsigned k = 0; k < K; ++k) {
            const std::uint64_t w = test_word(seed, v, k, density);
            for (unsigned j = 0; j < net::kFusedLanes; ++j)
                expect[k][j] += static_cast<Count>((w >> j) & 1u);
        }
    NodeId next = lo;
    bool in_order = true;
    std::uint64_t calls = 0;
    Count got[K][net::kFusedLanes];
    lane_counts_by<K>(form, lo, lo + len, [&](NodeId v, std::uint64_t* w) {
        in_order = in_order && v == next;
        next = v + 1;
        ++calls;
        for (unsigned k = 0; k < K; ++k) w[k] = test_word(seed, v, k, density);
    }, got);
    const int f = static_cast<int>(form);
    ASSERT_TRUE(in_order) << "words must run once per v, ascending; form=" << f;
    ASSERT_EQ(calls, len) << "K=" << K << " lo=" << lo << " form=" << f;
    for (unsigned k = 0; k < K; ++k)
        for (unsigned j = 0; j < net::kFusedLanes; ++j)
            ASSERT_EQ(got[k][j], expect[k][j]) << "K=" << K << " lo=" << lo << " len=" << len
                                               << " density=" << static_cast<int>(density)
                                               << " column=" << k << " lane=" << j
                                               << " form=" << f;
}

/// Lengths 8 * groups + tail: groups 7-9 put the wide form's 64-word
/// block edge inside the table (56-79 words), 16 its second (128-135).
template <unsigned K>
void expect_lane_counts_everywhere(Form form) {
    for (const NodeId lo : {NodeId{0}, NodeId{1}, NodeId{37}})
        for (const NodeId groups : {0u, 1u, 2u, 7u, 8u, 9u, 16u, 33u, 125u})
            for (NodeId tail = 0; tail < 8; ++tail)
                for (const Density d :
                     {Density::Sparse, Density::Half, Density::Dense, Density::AllOnes})
                    expect_lane_counts<K>(form, lo, 8 * groups + tail, 0xC0FFEEu + lo + tail, d);
}

void expect_lane_counts_everywhere_for_every_k(Form form) {
    expect_lane_counts_everywhere<1>(form);
    expect_lane_counts_everywhere<2>(form);
    expect_lane_counts_everywhere<3>(form);
    expect_lane_counts_everywhere<4>(form);
}

void expect_seventeen_digits(Form form) {
    // 2^17 all-ones words: every lane counts 2^17, an 18-digit count whose
    // low 17 digits are all zero, so each carry walks the whole stack.
    const NodeId len = NodeId{1} << 17;
    Count got[2][net::kFusedLanes];
    std::uint64_t calls = 0;
    lane_counts_by<2>(form, 5, 5 + len, [&](NodeId v, std::uint64_t* w) {
        ++calls;
        w[0] = ~std::uint64_t{0};
        w[1] = std::uint64_t{1} << (v % 64);  // one lane per word, round robin
    }, got);
    EXPECT_EQ(calls, len);
    for (unsigned j = 0; j < net::kFusedLanes; ++j) {
        ASSERT_EQ(got[0][j], len) << "lane " << j << " form=" << static_cast<int>(form);
        ASSERT_EQ(got[1][j], len / 64) << "lane " << j << " form=" << static_cast<int>(form);
    }
    expect_lane_counts<3>(form, 3, len + 5, 0xD1617u, Density::Dense);
}

TEST(FusedPlane, LaneCountsMatchPerLanePopcounts) {
    expect_lane_counts_everywhere_for_every_k(Form::Dispatched);
    expect_lane_counts_everywhere_for_every_k(Form::Portable);
}

TEST(FusedPlane, LaneCountsFillSeventeenDigits) {
    expect_seventeen_digits(Form::Dispatched);
    expect_seventeen_digits(Form::Portable);
}

TEST(FusedPlane, LaneCountsWideFormMatchesPerLanePopcounts) {
    // The AVX-512F form called directly, below the crossover length too;
    // lane_counts reaches it only from kWideLaneCountsFrom words.
    if (!has_wide_form()) GTEST_SKIP() << "the host CPU lacks AVX-512F";
    expect_lane_counts_everywhere_for_every_k(Form::Wide);
    expect_seventeen_digits(Form::Wide);
}

TEST(FusedPlane, CommitteeFlipsWideFormMatchesPortable) {
    // The AVX-512F/DQ flip form called directly, and the dispatched one,
    // against the portable loop, on random purpose hashes at the NodeId
    // extremes and at random members; the portable loop against each lane's
    // own generator (first sign() of Xoshiro256(child_seed)).
#if defined(__x86_64__)
    if (!net::kern::has_avx512dq()) GTEST_SKIP() << "the host CPU lacks AVX-512F/DQ";
    Xoshiro256 rng(0xF11Bu);
    for (int rep = 0; rep < 500; ++rep) {
        std::uint64_t purpose[net::kFusedLanes];
        for (std::uint64_t& h : purpose) h = rng();
        for (const NodeId v : {NodeId{0}, NodeId{1}, NodeId{1} << 31, ~NodeId{0},
                               static_cast<NodeId>(rng())}) {
            const std::uint64_t portable = net::kern::first_flips_portable(purpose, v);
            ASSERT_EQ(net::kern::first_flips_avx512(purpose, v), portable)
                << "rep " << rep << " v=" << v;
            ASSERT_EQ(net::kern::first_flips(purpose, v), portable) << "rep " << rep << " v=" << v;
            if (rep >= 8) continue;
            for (unsigned j = 0; j < net::kFusedLanes; ++j) {
                Xoshiro256 g(SeedTree::child_seed(purpose[j], v));
                ASSERT_EQ(g.sign() > 0, (portable >> j & 1) != 0) << "v=" << v << " lane " << j;
            }
        }
    }
#else
    GTEST_SKIP() << "the wide flip form is x86-64 only";
#endif
}

// fisher_yates_targets: a static adversary's partial Fisher-Yates draws for
// up to 64 lanes at once must be below()'s, checked here against a
// rejection sampler written from its definition.

/// x % bound of the first draw of g below the largest multiple of bound in
/// [0, 2^64), drawing again above it: Xoshiro256::below's contract.
std::uint64_t reference_below(Xoshiro256& g, std::uint64_t bound) {
    const unsigned __int128 multiple = ((static_cast<unsigned __int128>(1) << 64) / bound) * bound;
    std::uint64_t x = g();
    while (x >= multiple) x = g();
    return x % bound;
}

/// The state whose next output is x: the xoshiro256** scrambler
/// rotl(s1 * 5, 7) * 9 is a bijection of s1 (5 and 9 are odd).
std::array<std::uint64_t, 4> state_with_output(std::uint64_t x, std::uint64_t other) {
    constexpr std::uint64_t kInverse5 = 0xCCCCCCCCCCCCCCCDULL, kInverse9 = 0x8E38E38E38E38E39ULL;
    static_assert(5 * kInverse5 == 1 && 9 * kInverse9 == 1);
    const std::uint64_t s1 = std::rotr(x * kInverse9, 7) * kInverse5;
    return {other | 1, s1, other * 3, other ^ 0xA5A5};
}

/// The state one Xoshiro256 step before `a`.
std::array<std::uint64_t, 4> state_before(const std::array<std::uint64_t, 4>& a) {
    // A step maps (s0, s1, s2, s3) to (s0 ^ s3 ^ s1, s1 ^ s2 ^ s0,
    // s2 ^ s0 ^ (s1 << 17), rotl(s3 ^ s1, 45)).
    const std::uint64_t n3 = std::rotr(a[3], 45);          // s3 ^ s1
    const std::uint64_t c = a[1] ^ a[2];                   // s1 ^ (s1 << 17)
    const std::uint64_t s1 = c ^ (c << 17) ^ (c << 34) ^ (c << 51);
    const std::uint64_t s0 = a[0] ^ n3;
    const std::uint64_t s2 = a[1] ^ s1 ^ s0;
    return {s0, s1, s2, n3 ^ s1};
}

enum class TargetsForm { Dispatched, Portable, Wide };

/// One kernel form's targets and end states against reference_below, lane
/// by lane, for the generators `gens` in the lanes of `lanes`; entries of
/// other lanes and past a lane's q must stay unwritten.
void expect_targets_replay_below(TargetsForm form, const std::vector<Xoshiro256>& gens,
                                 const Count* q, std::uint64_t lanes, NodeId n) {
    Count most = 0;
    for (unsigned j = 0; j < net::kFusedLanes; ++j) most = std::max(most, q[j]);
    constexpr NodeId kUnwritten = 0xDEADBEEF;
    std::vector<NodeId> targets(std::size_t{most} * net::kFusedLanes + 1, kUnwritten);
    std::vector<Xoshiro256> drawn = gens;
    switch (form) {
        case TargetsForm::Dispatched:
            net::kern::fisher_yates_targets(drawn.data(), q, lanes, n, targets.data());
            break;
        case TargetsForm::Portable:
            net::kern::fisher_yates_targets_portable(drawn.data(), q, lanes, n, targets.data());
            break;
        case TargetsForm::Wide:
#if defined(__x86_64__)
            net::kern::fisher_yates_targets_avx512(drawn.data(), q, lanes, n, targets.data());
#endif
            break;
    }
    for (unsigned j = 0; j < net::kFusedLanes; ++j) {
        SCOPED_TRACE("lane " + std::to_string(j) + " q=" + std::to_string(q[j]));
        const bool in = (lanes >> j & 1) != 0;
        Xoshiro256 ref = gens[j];
        for (Count i = 0; i < most; ++i) {
            const NodeId got = targets[std::size_t{net::kFusedLanes} * i + j];
            if (in && i < q[j])
                ASSERT_EQ(got, i + reference_below(ref, n - i)) << "draw " << i;
            else
                ASSERT_EQ(got, kUnwritten) << "draw " << i;
        }
        ASSERT_EQ(drawn[j].state(), ref.state());
    }
}

void expect_targets_replay_below_everywhere(TargetsForm form) {
    Xoshiro256 rng(0xF15Au);
    std::vector<Xoshiro256> gens(net::kFusedLanes);
    Count q[net::kFusedLanes];
    for (int rep = 0; rep < 300; ++rep) {
        const NodeId sizes[] = {1, 2, 3, 5, 64, 65, 100, 128, 200, 1024, 1 << 20, ~NodeId{0},
                                static_cast<NodeId>(1 + rng() % 3000)};
        const NodeId n = sizes[rep % std::size(sizes)];
        // All lanes, a partial block's first lanes, or a random mask.
        const std::uint64_t lanes = rep % 3 == 0   ? ~std::uint64_t{0}
                                    : rep % 3 == 1 ? (std::uint64_t{1} << (1 + rep % 63)) - 1
                                                   : rng();
        const Count cap = std::min<NodeId>(n, 300);  // keep the huge-n cases short
        for (unsigned j = 0; j < net::kFusedLanes; ++j) {
            gens[j] = Xoshiro256(rng());
            const Count choices[] = {0, 1, cap - 1, cap, static_cast<Count>(rng() % (cap + 1))};
            q[j] = choices[(j + rep) % std::size(choices)];
        }
        SCOPED_TRACE("rep " + std::to_string(rep) + " n=" + std::to_string(n));
        expect_targets_replay_below(form, gens, q, lanes, n);
    }
    // Crafted draws past 2^64 - 1 - bound, where below() tests for
    // rejection unless the bound is a power of two: 2^64 - 1, which it then
    // redraws, and 2^64 - bound, which it keeps. Two lanes in three are
    // crafted, at the first draw, later in the first chunk of 32 draws and
    // in the second.
    for (const NodeId n : {NodeId{3}, NodeId{64}, NodeId{100}, NodeId{255}, NodeId{1000}}) {
        for (const Count at : {Count{0}, Count{1}, Count{5}, Count{40}}) {
            if (at >= n) continue;
            const std::uint64_t bound = n - at;
            for (const std::uint64_t x : {~std::uint64_t{0}, 0 - bound}) {
                SCOPED_TRACE("n=" + std::to_string(n) + " draw " + std::to_string(at) +
                             " x=" + std::to_string(x));
                for (unsigned j = 0; j < net::kFusedLanes; ++j) {
                    std::array<std::uint64_t, 4> st = state_with_output(x, rng());
                    for (Count back = 0; back < at; ++back) st = state_before(st);
                    gens[j] = j % 3 == 1 ? Xoshiro256(rng()) : Xoshiro256::from_state(st);
                    q[j] = std::min<Count>(n, at + 1 + j % 4);
                }
                // Lane 0's state does reach x at draw `at`.
                Xoshiro256 probe = gens[0];
                for (Count i = 0; i < at; ++i) (void)reference_below(probe, n - i);
                ASSERT_EQ(probe(), x);
                expect_targets_replay_below(form, gens, q, ~std::uint64_t{0} >> (x & 7), n);
            }
        }
    }
}

TEST(FusedPlane, FisherYatesTargetsReplayBelow) {
    expect_targets_replay_below_everywhere(TargetsForm::Portable);
    expect_targets_replay_below_everywhere(TargetsForm::Dispatched);
}

TEST(FusedPlane, FisherYatesTargetsWideFormReplaysBelow) {
#if defined(__x86_64__)
    if (!net::kern::has_avx512f()) GTEST_SKIP() << "the host CPU lacks AVX-512F";
    expect_targets_replay_below_everywhere(TargetsForm::Wide);
#else
    GTEST_SKIP() << "the wide Fisher-Yates form is x86-64 only";
#endif
}

TEST(FusedPlane, LaneDigitsToCountsMatchesPortableForm) {
    // The dispatched form (AVX-512F when the host has it) against the
    // portable one and a handwritten sum of 2^i, over random digit stacks
    // of every height. On an AVX-512 host this is the only place the
    // portable form runs.
    Xoshiro256 rng(0xD161u);
    for (unsigned k = 1; k <= net::kern::kMaxLaneDigits; ++k) {
        for (int rep = 0; rep < 8; ++rep) {
            std::uint64_t digits[net::kern::kMaxLaneDigits] = {};
            for (unsigned i = 0; i < k; ++i)
                digits[i] = rep == 0 ? ~std::uint64_t{0} : rep == 1 ? rng() & rng() : rng();
            Count expect[net::kFusedLanes] = {};
            for (unsigned i = 0; i < k; ++i)
                for (unsigned j = 0; j < net::kFusedLanes; ++j)
                    expect[j] += static_cast<Count>((digits[i] >> j) & 1u) * (Count{1} << i);
            Count got[net::kFusedLanes], portable[net::kFusedLanes];
            net::kern::lane_digits_to_counts(digits, k, got);
            net::kern::lane_digits_to_counts_portable(digits, k, portable);
            for (unsigned j = 0; j < net::kFusedLanes; ++j) {
                ASSERT_EQ(portable[j], expect[j]) << "k=" << k << " rep=" << rep << " lane=" << j;
                ASSERT_EQ(got[j], portable[j]) << "k=" << k << " rep=" << rep << " lane=" << j;
            }
        }
    }
}

TEST(FusedPlane, LanesGreaterMatchesPortableForm) {
    // The dispatched compares (AVX-512F when the host has it) against the
    // portable ones and a handwritten compare, over random vectors salted
    // with the int32 extremes; on an AVX-512 host this is the only place the
    // portable forms run.
    Xoshiro256 rng(0x6A7u);
    const std::int32_t extremes[] = {INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX - 1,
                                     INT32_MAX};
    const auto draw = [&] {
        return rng.below(4) == 0 ? extremes[rng.below(std::size(extremes))]
                                 : static_cast<std::int32_t>(rng() >> (rng.below(2) == 0 ? 32 : 58)) -
                                       (rng.below(2) == 0 ? 16 : 0);
    };
    for (int rep = 0; rep < 2000; ++rep) {
        std::int32_t a[net::kFusedLanes], b[net::kFusedLanes];
        for (unsigned j = 0; j < net::kFusedLanes; ++j) {
            a[j] = draw();
            b[j] = rep % 3 == 0 ? a[j] : draw();  // equal lanes are not greater
        }
        const std::int32_t c = draw();
        std::uint64_t expect_ab = 0, expect_ac = 0;
        for (unsigned j = 0; j < net::kFusedLanes; ++j) {
            expect_ab |= std::uint64_t{a[j] > b[j]} << j;
            expect_ac |= std::uint64_t{a[j] > c} << j;
        }
        ASSERT_EQ(net::kern::lanes_greater_portable(a, b), expect_ab) << "rep " << rep;
        ASSERT_EQ(net::kern::lanes_greater(a, b), expect_ab) << "rep " << rep;
        ASSERT_EQ(net::kern::lanes_greater_portable(a, c), expect_ac) << "rep " << rep;
        ASSERT_EQ(net::kern::lanes_greater(a, c), expect_ac) << "rep " << rep;
    }
}

TEST(FusedPlane, InputPlaneMatchesPerLaneInputs) {
    // The broadcast plane of the seed-free patterns and the per-lane draws
    // of `random`, for whole and partial blocks: bit j of plane[v] is what
    // make_inputs gives lane j's trial, and the lane masks are unanimous()
    // and the front input, lane by lane; lanes past the block stay 0.
    const sim::InputPattern patterns[] = {sim::InputPattern::AllZero, sim::InputPattern::AllOne,
                                          sim::InputPattern::Split, sim::InputPattern::Random};
    std::vector<SeedTree> seeds;
    for (unsigned j = 0; j < net::kFusedLanes; ++j) seeds.emplace_back(mix64(0x1A9u + j));
    std::vector<std::uint64_t> plane(3, 0xFFu);  // stale contents are overwritten
    std::vector<Bit> inputs;
    for (const sim::InputPattern pattern : patterns)
        for (const NodeId n : {NodeId{1}, NodeId{2}, NodeId{7}, NodeId{64}, NodeId{130}})
            for (const unsigned lanes : {1u, 5u, 63u, 64u}) {
                SCOPED_TRACE(sim::to_string(pattern) + " n=" + std::to_string(n) +
                             " lanes=" + std::to_string(lanes));
                const sim::InputPlaneLanes got =
                    sim::make_input_plane(pattern, n, seeds.data(), lanes, plane);
                ASSERT_EQ(plane.size(), n);
                std::vector<std::uint64_t> expect(n, 0);
                std::uint64_t unanimous = 0, front = 0;
                for (unsigned j = 0; j < lanes; ++j) {
                    sim::make_inputs(pattern, n, seeds[j], inputs);
                    for (NodeId v = 0; v < n; ++v) expect[v] |= std::uint64_t{inputs[v]} << j;
                    unanimous |= std::uint64_t{sim::unanimous(inputs)} << j;
                    front |= std::uint64_t{inputs.front()} << j;
                }
                EXPECT_EQ(plane, expect);
                EXPECT_EQ(got.unanimous, unanimous);
                EXPECT_EQ(got.front, front);
            }
}

// ---------------------------------------------------------------------------
// The fold against a per-(lane, receiver) oracle. Synthetic frames carry
// honest planes with per-lane densities, per-lane rows at per-lane
// boundaries (0, n, and boundaries shared across lanes), a shared row and a
// coin-sign row; each protocol's receive must equal the scalar threshold
// rule applied to what each receiver sees, contract failures included.

/// What receiver v sees in lane j, counted the scalar way from each
/// sender's message: its coin-sign row, the shared row or a row of its own
/// when Byzantine, its broadcast when honest.
struct Seen {
    Count c[2] = {};
    std::int64_t coin = 0;
};

Seen oracle_seen(const net::FusedFrame& f, const net::FoldQuery& q, unsigned j, NodeId v) {
    const std::uint64_t bit = std::uint64_t{1} << j;
    Seen seen;
    for (NodeId u = 0; u < f.n(); ++u) {
        std::optional<net::Message> m;
        if ((f.byz[u] & bit) != 0) {
            if (f.has_sign && (f.sign_lanes & bit) != 0 && u >= f.sign_first &&
                u < f.sign_last) {
                m = f.sign_msg;
                m->coin = (f.sign[v] & bit) != 0 ? CoinSign{1} : CoinSign{-1};
            } else {
                const net::FusedRow* row =
                    f.has_shared && (f.shared[u] & bit) != 0 ? &f.shared_row : nullptr;
                for (const net::FusedRow& own : f.rows(j))
                    if (own.sender == u) row = &own;
                if (row != nullptr && (v < row->boundary ? row->has_low : row->has_high))
                    m = v < row->boundary ? row->low : row->high;
            }
        } else if ((f.sent[u] & bit) != 0) {
            m.emplace();
            m->kind = f.kind;
            m->phase = f.phase;
            m->val = (f.val[u] & bit) != 0 ? 1 : 0;
            m->flag = (f.flag[u] & bit) != 0 ? 1 : 0;
            m->coin = (f.coinp[u] & bit) != 0 ? CoinSign{1}
                      : (f.coinn[u] & bit) != 0 ? CoinSign{-1}
                                                : CoinSign{0};
        }
        if (!m || m->kind != q.kind || m->phase != q.phase) continue;
        if (u >= q.from_first && u < q.from_last && (!q.require_flag || m->flag != 0))
            ++seen.c[m->val & 1];
        if (u >= q.coin_first && u < q.coin_last)
            seen.coin += m->coin > 0 ? 1 : m->coin < 0 ? -1 : 0;
    }
    return seen;
}

/// A word whose bit j is set with probability eighths[j] / 8.
std::uint64_t lane_density_word(Xoshiro256& rng, const unsigned* eighths) {
    std::uint64_t w = 0;
    for (unsigned j = 0; j < net::kFusedLanes; ++j)
        w |= std::uint64_t{rng.below(8) < eighths[j]} << j;
    return w;
}

/// Overwrites the honest planes send_round left in `f` (its kind and phase
/// stay) with per-lane densities, and adds Byzantine traffic of every form
/// the fold reads: at most t corrupted nodes per lane, each sending the
/// shared row, a coin-sign row (when `sign`) or a row of its own, at
/// boundaries 0, n, ones shared across lanes, or its own. Under
/// `one_value`, each lane's honest senders all hold one value. Each node of
/// [focus_first, focus_last) is among a lane's first picks with
/// probability 1/2, so that the committee is corrupted often.
void randomize_frame(net::FusedFrame& f, Xoshiro256& rng, Count t, bool sign, bool one_value,
                     NodeId focus_first, NodeId focus_last) {
    const NodeId n = f.n();
    unsigned val_density[net::kFusedLanes], flag_density[net::kFusedLanes];
    const unsigned densities[] = {0, 1, 2, 4, 6, 7, 8};
    for (unsigned j = 0; j < net::kFusedLanes; ++j) {
        val_density[j] = one_value ? 8 * rng.bit() : densities[rng.below(std::size(densities))];
        flag_density[j] = densities[rng.below(std::size(densities))];
    }
    std::fill(f.byz.begin(), f.byz.end(), 0);
    std::vector<NodeId> ids(n);
    for (unsigned j = 0; j < net::kFusedLanes; ++j) {
        const std::uint64_t bit = std::uint64_t{1} << j;
        const Count k = static_cast<Count>(rng.below(t + 1));
        Count picked = 0;
        for (NodeId u = focus_first; u < focus_last && picked < k; ++u)
            if (rng.bit() != 0) {
                f.byz[u] |= bit;
                ++picked;
            }
        std::iota(ids.begin(), ids.end(), NodeId{0});
        for (NodeId i = 0; picked < k; ++i) {
            std::swap(ids[i], ids[i + rng.below(n - i)]);
            if ((f.byz[ids[i]] & bit) != 0) continue;
            f.byz[ids[i]] |= bit;
            ++picked;
        }
    }
    for (NodeId v = 0; v < n; ++v) {
        f.sent[v] = (rng() | rng() | rng()) & ~f.byz[v];
        f.val[v] = lane_density_word(rng, val_density);
        f.flag[v] = lane_density_word(rng, flag_density);
        f.coinp[v] = rng();
        f.coinn[v] = rng() & ~f.coinp[v];
    }

    const auto message = [&] {
        net::Message m;
        m.kind = rng.below(4) != 0 ? f.kind : net::MsgKind::Coin;
        m.phase = rng.below(4) != 0 ? f.phase : f.phase + 1;
        m.val = rng.bit();
        m.flag = rng.below(3) != 0 ? 1 : 0;
        m.coin = static_cast<CoinSign>(static_cast<int>(rng.below(3)) - 1);
        return m;
    };
    const NodeId shared_cuts[] = {0, n, n / 2, n / 3};
    const auto boundary = [&] {
        return rng.below(3) != 0 ? shared_cuts[rng.below(4)]
                                 : static_cast<NodeId>(rng.below(n + 1));
    };
    const auto fill_row = [&](net::FusedRow& row) {
        row.boundary = boundary();
        row.has_low = rng.below(4) != 0;
        row.has_high = rng.below(4) != 0;
        row.low = message();
        row.high = message();
    };

    // The coin-sign row's senders send nothing else in its lanes.
    f.has_sign = sign && rng.below(2) == 0;
    std::vector<std::uint64_t> signing(n, 0);
    if (f.has_sign) {
        const bool whole = rng.bit() != 0;  // then it surely covers the committee
        f.sign_first = whole ? 0 : static_cast<NodeId>(rng.below(n));
        f.sign_last =
            whole ? n : f.sign_first + static_cast<NodeId>(rng.below(n - f.sign_first + 1));
        f.sign_lanes = rng() | rng();
        f.sign_msg = message();
        f.sign.resize(n);
        for (NodeId v = 0; v < n; ++v) f.sign[v] = rng();
        std::fill(std::begin(f.sign_senders), std::end(f.sign_senders), Count{0});
        for (NodeId u = f.sign_first; u < f.sign_last; ++u) {
            signing[u] = f.byz[u] & f.sign_lanes;
            for (unsigned j = 0; j < net::kFusedLanes; ++j)
                f.sign_senders[j] += static_cast<Count>(signing[u] >> j & 1);
        }
    }
    f.has_shared = rng.below(4) != 0;
    std::fill(f.shared.begin(), f.shared.end(), 0);
    std::fill(std::begin(f.shared_senders), std::end(f.shared_senders), Count{0});
    if (f.has_shared) {
        fill_row(f.shared_row);
        const std::uint64_t lanes = rng() | rng();
        for (NodeId u = 0; u < n; ++u) {
            f.shared[u] = f.byz[u] & ~signing[u] & lanes & (rng() | rng());
            for (unsigned j = 0; j < net::kFusedLanes; ++j)
                f.shared_senders[j] += static_cast<Count>(f.shared[u] >> j & 1);
        }
    }
    for (std::uint64_t lanes = f.active; lanes != 0; lanes &= lanes - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
        for (NodeId u = 0; u < n; ++u)
            if (((f.byz[u] & ~signing[u] & ~f.shared[u]) >> j & 1) != 0 && rng.below(2) == 0)
                fill_row(f.add_row(j, u));
    }
}

/// A receive beat's inputs and the planes it leaves: runs send_round(r)
/// on a fresh frame over `active`, randomizes it, and snapshots the
/// protocol's planes before receive_round.
struct FoldBeat {
    net::FusedFrame frame;
    std::vector<std::uint64_t> val, decided, halted;  ///< before the receive

    void send(net::FusedProtocol& proto, Round r, std::uint64_t active, Xoshiro256& rng,
              Count t, bool sign, bool one_value = false, NodeId focus_first = 0,
              NodeId focus_last = 0) {
        const NodeId n = proto.n();
        frame.reset(n);
        frame.active = active;
        frame.begin_round(net::MsgKind::None, 0);
        proto.send_round(r, frame);
        randomize_frame(frame, rng, t, sign, one_value, focus_first, focus_last);
        val.assign(proto.value_plane(), proto.value_plane() + n);
        decided.assign(proto.decided_plane(), proto.decided_plane() + n);
        halted.assign(proto.halted_plane(), proto.halted_plane() + n);
    }
};

/// Runs receive_round and checks it against the oracle's planes, or — when
/// the oracle found a receiver that sees both values past the rule's bound
/// in a live lane — that it throws `violation`. Returns true when it ran.
bool expect_receive(net::FusedProtocol& proto, Round r, const FoldBeat& beat, bool violated,
                    const std::string& violation, const std::vector<std::uint64_t>& val,
                    const std::vector<std::uint64_t>& decided,
                    const std::vector<std::uint64_t>& halted) {
    if (violated) {
        try {
            proto.receive_round(r, beat.frame);
            ADD_FAILURE() << "expected a contract failure: " << violation;
        } catch (const ContractViolation& e) {
            EXPECT_NE(std::string(e.what()).find(violation), std::string::npos) << e.what();
        }
        return false;
    }
    proto.receive_round(r, beat.frame);
    // Lanes outside the active mask are never observed again.
    const auto live = [&](const std::uint64_t* plane) {
        std::vector<std::uint64_t> out(plane, plane + proto.n());
        for (std::uint64_t& w : out) w &= beat.frame.active;
        return out;
    };
    EXPECT_EQ(live(proto.value_plane()), live(val.data()));
    EXPECT_EQ(live(proto.decided_plane()), live(decided.data()));
    EXPECT_EQ(live(proto.halted_plane()), live(halted.data()));
    return true;
}

/// Phase budget of the private-coin protocols in the fold tests.
constexpr Count kFoldPhases = 5;

/// A fused protocol of registry entry `name` at (n, t), re-armed with
/// random inputs under `seeds`; `s` receives its scenario.
std::unique_ptr<net::FusedProtocol> fold_protocol(const std::string& name, NodeId n, Count t,
                                                  const std::vector<SeedTree>& seeds,
                                                  sim::Scenario& s, Xoshiro256& rng) {
    s.protocol = sim::ProtocolRegistry::instance().at(name).kind;
    s.adversary = sim::AdversaryKind::None;
    s.n = n;
    s.t = t;
    s.local_coin_phases = kFoldPhases;
    std::unique_ptr<net::FusedProtocol> proto =
        sim::ProtocolRegistry::instance().at(name).make_fused(s);
    std::vector<std::uint64_t> inputs(n);
    for (auto& w : inputs) w = rng();
    proto->rearm(inputs.data(), seeds.data());
    return proto;
}

std::vector<SeedTree> fold_seeds(std::uint64_t base) {
    std::vector<SeedTree> seeds;
    for (unsigned j = 0; j < net::kFusedLanes; ++j) seeds.emplace_back(mix64(base + j));
    return seeds;
}

TEST(FusedFold, SkeletonReceiveMatchesTheScalarRuleAtEveryReceiver) {
    // The committee coin (ours, with coin-sign rows), the dealer's and the
    // private one; round 1, round 2, and the last phase's round 2, whose
    // halts show which receivers finished.
    const NodeId n = 40;
    const Count t = 13;
    const auto& registry = sim::ProtocolRegistry::instance();
    Xoshiro256 rng(0xF01Du);
    Count ran = 0, failed = 0;
    for (const char* name : {"ours", "rabin-dealer", "local-coin"}) {
        for (int rep = 0; rep < (std::string(name) == "ours" ? 40 : 12); ++rep) {
            const std::vector<SeedTree> seeds = fold_seeds(rng());
            sim::Scenario s;
            const auto probe = fold_protocol(name, n, t, seeds, s, rng);
            const sim::ProtocolEntry& entry = registry.at(name);
            const Count phases = entry.budgets(s).phases;
            const bool committee = entry.schedule_of != nullptr;
            for (const Round r : {Round{0}, Round{1}, Round{2 * phases - 1}}) {
                SCOPED_TRACE(std::string(name) + " rep " + std::to_string(rep) + " round " +
                             std::to_string(r));
                auto proto = fold_protocol(name, n, t, seeds, s, rng);
                const Phase p = r / 2;
                const bool round2 = r % 2 != 0;
                net::FoldQuery q{round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1, p, round2};
                if (round2 && committee) {
                    const core::BlockSchedule sched = entry.schedule_of(s);
                    std::tie(q.coin_first, q.coin_last) = sched.range(sched.committee_of_phase(p));
                }
                FoldBeat beat;
                beat.send(*proto, r, rng() | rng(), rng, t, committee, false, q.coin_first,
                          q.coin_last);
                const bool last = round2 && p + 1 == phases;
                std::vector<std::uint64_t> val = beat.val, decided = beat.decided,
                                           halted = beat.halted;
                bool violated = false;
                for (std::uint64_t lanes = beat.frame.active; lanes != 0; lanes &= lanes - 1) {
                    const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
                    const std::uint64_t bit = std::uint64_t{1} << j;
                    for (NodeId v = 0; v < n; ++v) {
                        const Seen seen = oracle_seen(beat.frame, q, j, v);
                        const bool q0 = seen.c[0] >= n - t, q1 = seen.c[1] >= n - t;
                        const bool s0 = seen.c[0] >= t + 1, s1 = seen.c[1] >= t + 1;
                        violated |= round2 ? s0 && s1 : q0 && q1;
                        if ((beat.frame.byz[v] & bit) != 0) continue;
                        const auto set = [&](std::vector<std::uint64_t>& plane, bool on) {
                            plane[v] = on ? plane[v] | bit : plane[v] & ~bit;
                        };
                        if (!round2) {
                            if (q0 || q1) set(val, q1);
                            set(decided, q0 || q1);
                            continue;
                        }
                        bool coin = false;
                        if (committee)
                            coin = seen.coin >= 0;
                        else if (std::string(name) == "rabin-dealer")
                            coin = base::dealer_coin(seeds[j].seed(StreamPurpose::DealerCoin),
                                                     p) != 0;
                        else
                            coin = seeds[j].stream(StreamPurpose::NodeProtocol, v).bit() != 0;
                        set(val, s0 || s1 ? s1 : coin);
                        set(decided, s0 || s1);
                        if (last && !(q0 || q1)) set(halted, true);
                    }
                }
                const bool ok = expect_receive(
                    *proto, r, beat, violated,
                    round2 ? "Lemma 3 violated" : "two n-t quorums cannot coexist", val, decided,
                    halted);
                (ok ? ran : failed) += 1;
            }
        }
    }
    EXPECT_GE(ran, 60u);
    EXPECT_GE(failed, 1u) << "no frame reached a contract failure";
}

TEST(FusedFold, BenOrReceiveMatchesTheScalarRuleAtEveryReceiver) {
    // The report round, whose proposals the next send shows, and the
    // propose round, plain and as the last phase.
    const NodeId n = 41;
    const Count t = 8;
    Xoshiro256 rng(0xBE0Du);
    Count ran = 0, failed = 0;
    for (int rep = 0; rep < 24; ++rep) {
        const std::vector<SeedTree> seeds = fold_seeds(rng());
        for (const Round r : {Round{0}, Round{1}, Round{2 * kFoldPhases - 1}}) {
            SCOPED_TRACE("rep " + std::to_string(rep) + " round " + std::to_string(r));
            sim::Scenario s;
            auto proto = fold_protocol("ben-or", n, t, seeds, s, rng);
            const Phase p = r / 2;
            const bool round2 = r % 2 != 0;
            const net::FoldQuery q{round2 ? net::MsgKind::BenOrPropose : net::MsgKind::BenOrReport,
                                   p, round2};
            // Conflicting proposals need both values past t: rarely so when
            // every lane's honest senders agree.
            FoldBeat beat;
            beat.send(*proto, r, rng() | rng(), rng, t, true, rep % 3 != 0);
            const bool last = round2 && p + 1 >= kFoldPhases;
            std::vector<std::uint64_t> val = beat.val, decided = beat.decided,
                                       halted = beat.halted;
            std::vector<std::uint64_t> proposing(n, 0), proposal(n, 0);
            bool violated = false;
            for (std::uint64_t lanes = beat.frame.active; lanes != 0; lanes &= lanes - 1) {
                const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
                const std::uint64_t bit = std::uint64_t{1} << j;
                for (NodeId v = 0; v < n; ++v) {
                    const Seen seen = oracle_seen(beat.frame, q, j, v);
                    const Count c0 = seen.c[0], c1 = seen.c[1];
                    violated |= round2 && c0 > t && c1 > t;
                    if ((beat.frame.byz[v] & bit) != 0) continue;
                    const auto set = [&](std::vector<std::uint64_t>& plane, bool on) {
                        plane[v] = on ? plane[v] | bit : plane[v] & ~bit;
                    };
                    if (!round2) {
                        const bool p0 = 2 * c0 > n + t, p1 = 2 * c1 > n + t;
                        set(proposing, p0 || p1);
                        set(proposal, p1);
                        continue;
                    }
                    const bool fin = c0 > 2 * t || c1 > 2 * t;
                    set(val, c0 > t   ? false
                             : c1 > t ? true
                                      : seeds[j].stream(StreamPurpose::NodeProtocol, v).bit() != 0);
                    if (fin) set(decided, true);
                    if (last && !fin) set(halted, true);
                }
            }
            const bool ok = expect_receive(*proto, r, beat, violated,
                                           "conflicting Ben-Or proposals above t", val, decided,
                                           halted);
            (ok ? ran : failed) += 1;
            if (!ok || round2) continue;
            // The propose round's send shows the proposals: val = proposal,
            // flag = proposing (a live lane's bits only; the rest start 0).
            FoldBeat next;
            next.frame.reset(n);
            next.frame.active = beat.frame.active;
            next.frame.begin_round(net::MsgKind::None, 0);
            proto->send_round(r + 1, next.frame);
            for (NodeId v = 0; v < n; ++v) {
                EXPECT_EQ(next.frame.val[v] & beat.frame.active, proposal[v]) << "node " << v;
                EXPECT_EQ(next.frame.flag[v] & beat.frame.active, proposing[v]) << "node " << v;
            }
        }
    }
    EXPECT_GE(ran, 50u);
    EXPECT_GE(failed, 1u) << "no frame reached a contract failure";
}

TEST(FusedFold, PhaseKingReceiveMatchesTheScalarRuleAtEveryReceiver) {
    // Both rounds of a phase on one protocol object — round 2 reads the
    // majorities round 1 left — for the first phase and the last; round 2
    // counts the king alone, whatever the other senders send.
    const NodeId n = 41;
    const Count t = 10;
    const base::PhaseKingParams params{n, t};
    Xoshiro256 rng(0x4B1Du);
    for (int rep = 0; rep < 24; ++rep) {
        const std::vector<SeedTree> seeds = fold_seeds(rng());
        for (const Phase k : {Phase{0}, Phase{params.phases() - 1}}) {
            SCOPED_TRACE("rep " + std::to_string(rep) + " phase " + std::to_string(k));
            sim::Scenario s;
            auto proto = fold_protocol("phase-king", n, t, seeds, s, rng);
            const std::uint64_t active = rng() | rng();
            FoldBeat round1;
            round1.send(*proto, 2 * k, active, rng, t, true);
            std::vector<std::uint64_t> maj(n, 0), strong(n, 0);
            const net::FoldQuery q1{net::MsgKind::PhaseKingSend, k};
            for (std::uint64_t lanes = active; lanes != 0; lanes &= lanes - 1) {
                const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
                const std::uint64_t bit = std::uint64_t{1} << j;
                for (NodeId v = 0; v < n; ++v) {
                    if ((round1.frame.byz[v] & bit) != 0) continue;
                    const Seen seen = oracle_seen(round1.frame, q1, j, v);
                    const bool m = seen.c[1] > seen.c[0];
                    if (m) maj[v] |= bit;
                    if (2 * static_cast<std::uint64_t>(seen.c[m ? 1 : 0]) > n + 2 * t)
                        strong[v] |= bit;
                }
            }
            proto->receive_round(2 * k, round1.frame);

            FoldBeat round2;
            round2.send(*proto, 2 * k + 1, active, rng, t, true);
            const NodeId king = params.king_of(k);
            const net::FoldQuery q2{net::MsgKind::PhaseKingRuler, k, false, 0, 0, king, king + 1};
            std::vector<std::uint64_t> val = round2.val, halted = round2.halted;
            for (std::uint64_t lanes = active; lanes != 0; lanes &= lanes - 1) {
                const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
                const std::uint64_t bit = std::uint64_t{1} << j;
                for (NodeId v = 0; v < n; ++v) {
                    if ((round2.frame.byz[v] & bit) != 0) continue;
                    const bool king_val = oracle_seen(round2.frame, q2, j, v).c[1] > 0;
                    const bool nv = (strong[v] & bit) != 0 ? (maj[v] & bit) != 0 : king_val;
                    val[v] = nv ? val[v] | bit : val[v] & ~bit;
                    if (k + 1 == params.phases()) halted[v] |= bit;
                }
            }
            // Round 1's nodes that round 2 corrupts keep the majority they
            // took; only round 2's live receivers are compared.
            expect_receive(*proto, 2 * k + 1, round2, false, "", val, round2.decided, halted);
        }
    }
}

// ---------------------------------------------------------------------------
// Every fused-capable registry pair: fused == scalar, bit for bit, through
// one whole block plus a partial block, serial and threaded.

TEST(FusedPlaneEquivalence, AllRegistryPairsFusedMatchesScalar) {
    const NodeId n = 25;
    const Count trials = 70;  // one 64-lane block + a 6-lane partial block
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
            s.intra_threads = 1;
            if (!sim::compatible(s)) continue;
            ++covered;
            SCOPED_TRACE(p->name + " vs " + a->name);

            sim::Scenario scalar = s;
            scalar.use_fused = false;

            // One chunk holding the whole range: the fused path runs one
            // block plus a partial block inside it.
            const sim::ExecutorConfig serial{1, trials};
            const sim::Aggregate fused = sim::run_trials(s, 0xBA7C5, trials, serial);
            const sim::Aggregate ref = sim::run_trials(scalar, 0xBA7C5, trials, serial);
            expect_aggregate_eq(fused, ref);

            // Thread/chunk invariance of the fused path: chunks of 64 and
            // 6 run one whole and one partial block — either way
            // the merged aggregate is the same object.
            const sim::Aggregate par = sim::run_trials(s, 0xBA7C5, trials, {8, 64});
            expect_aggregate_eq(fused, par);
        }
    }
    // 8 fused protocols x 6 fused adversaries, minus the schedule
    // constraint (crash-targeted-coin and worst-case need a committee
    // schedule: only ours / ours-lv / chor-coan x2 qualify) = 8*4 + 2*4.
    EXPECT_GE(covered, 40u) << "fused registry coverage unexpectedly low";
}

TEST(FusedPlaneEquivalence, RearmedAdversariesMatchScalarAcrossBlocks) {
    // One arena runs three whole blocks and a partial one, so every lane's
    // adversary is re-armed in place at least twice (the scalar arena
    // re-arms its one per trial), under random inputs and under a corrupt
    // set smaller than t.
    const NodeId n = 19;
    const Count trials = 3 * net::kFusedLanes + 3;
    Count covered = 0;
    for (const sim::ProtocolEntry* p : sim::ProtocolRegistry::instance().list()) {
        if (p->make_fused == nullptr) continue;
        for (const sim::AdversaryEntry* a : sim::AdversaryRegistry::instance().list()) {
            if (!a->supports_fused) continue;
            for (const bool below_t : {false, true}) {
                sim::Scenario s;
                s.protocol = p->kind;
                s.adversary = a->kind;
                s.n = n;
                s.t = max_t(*p, n);
                if (below_t) s.q = s.t / 2;
                s.inputs = below_t ? sim::InputPattern::Split : sim::InputPattern::Random;
                s.local_coin_phases = 8;  // keep the private-coin runs bounded
                s.use_fused = true;
                s.intra_threads = 1;
                if (!sim::compatible(s)) continue;
                ++covered;
                SCOPED_TRACE(p->name + " vs " + a->name + (below_t ? " q<t" : " random inputs"));
                sim::Scenario scalar = s;
                scalar.use_fused = false;
                sim::ExecutorConfig one_arena;
                one_arena.threads = 1;
                one_arena.chunk = trials;
                expect_aggregate_eq(sim::run_trials(s, 0xA12E, trials, one_arena),
                                    sim::run_trials(scalar, 0xA12E, trials, one_arena));
            }
        }
    }
    EXPECT_GE(covered, 80u) << "fused registry coverage unexpectedly low";
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
    Count checked = 0, worst_case = 0;
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
        s.intra_threads = 1;
        if (!sim::compatible(s)) continue;
        ++checked;
        worst_case += a->kind == sim::AdversaryKind::WorstCase ? 1 : 0;
        const std::uint64_t seed = rng();
        SCOPED_TRACE(p->name + " vs " + a->name + " n=" + std::to_string(s.n) +
                     " seed=" + std::to_string(seed));

        sim::Scenario scalar = s;
        scalar.use_fused = false;
        const sim::ExecutorConfig serial{1, 64};
        expect_aggregate_eq(sim::run_trials(s, seed, 64, serial),
                            sim::run_trials(scalar, seed, 64, serial));
    }
    EXPECT_GE(checked, 20u) << "fuzz sweep sampled too few fused scenarios";
    EXPECT_GE(worst_case, 1u) << "fuzz sweep never sampled the worst-case adversary";
}

// ---------------------------------------------------------------------------
// Partial blocks: every remainder class around the 64-lane boundary runs
// the right mix of whole and partial fused blocks (runs below one block
// run scalar).

TEST(FusedPlaneEquivalence, PartialBlockRemaindersMatchScalar) {
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::Static;
    s.n = 24;
    s.t = 7;
    s.inputs = sim::InputPattern::Split;
    s.use_fused = true;
    s.intra_threads = 1;
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
    s.intra_threads = 1;
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
// Block-level forms act on 64-lane masks: `static` with one shared row,
// `none` not at all; the per-lane bridge is the oracle. Every fused
// protocol x {none, static, split-vote}, q < t and q = t, split and
// unanimous inputs, n in {7, 64, 200}.

TEST(FusedBlockForm, WordParallelActMatchesThePerLaneBridge) {
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
                        s.intra_threads = 1;
                        if (!sim::compatible(s)) continue;
                        ++covered;
                        SCOPED_TRACE(s.describe());
                        const auto [block, bridge] =
                            direct_and_bridge(sim::validate(s), 0xA11 + n);
                        expect_block_eq(block, bridge);
                        for (unsigned j = 1; j < net::kFusedLanes; ++j)
                            divergent |= block.lanes[j].rounds != block.lanes[0].rounds;
                    }
                }
            }
        }
    }
    EXPECT_GE(covered, 130u) << "block-form coverage unexpectedly low";
    EXPECT_TRUE(divergent) << "no block retired its lanes at different rounds";
}

TEST(FusedBlockForm, LanesWithADifferentRowTakeTheBridgeRows) {
    // Lanes mix three strategies with block-level forms: the static split
    // row and two scripted rows at other boundaries. No one form answers
    // for them all, so every lane's act() runs through the bridge and
    // patterns its own rows, as in a block of BridgeOnly lanes.
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::Static;
    s.n = 40;
    s.t = 13;
    s.inputs = sim::InputPattern::Split;
    s.use_fused = true;
    s.intra_threads = 1;
    const sim::ScenarioPlan plan = sim::validate(s);
    int acts = 0;
    const auto mixed = [&acts](bool bridge) {
        return [bridge, &acts](unsigned j, const SeedTree& seeds, const sim::ProtocolBundle&) {
            const Script scripts[] = {Script{},
                                      Script{net::MsgKind::Vote1, net::MsgKind::Vote2, 0, 2}};
            std::unique_ptr<net::Adversary> a;
            if (j % 3 == 0)
                a = std::make_unique<adv::StaticAdversary>(13,
                                                           seeds.stream(StreamPurpose::Adversary));
            else
                a = std::make_unique<ScriptedUniform>(std::vector<NodeId>{1, 5, 9, 30},
                                                      scripts[j % 3 - 1], &acts);
            if (bridge) a = std::make_unique<BridgeOnly>(std::move(a));
            return a;
        };
    };
    const BlockOutcome block = run_block(plan, 0x313, mixed(false));
    const int block_acts = acts;
    acts = 0;
    expect_block_eq(block, run_block(plan, 0x313, mixed(true)));
    EXPECT_GT(block_acts, 0) << "the mixed block did not take the bridge";
    EXPECT_EQ(block_acts, acts);
}

TEST(FusedBlockForm, RowsOfEveryProtocolKindFoldWithPerLaneWeights) {
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
        s.intra_threads = 1;
        const sim::ScenarioPlan plan = sim::validate(s);
        for (const Bit low_val : {Bit{0}, Bit{1}}) {
            for (const NodeId div : {NodeId{2}, NodeId{3}}) {
                SCOPED_TRACE(s.describe() + " low_val=" + std::to_string(low_val) +
                             " div=" + std::to_string(div));
                const Script script{c.even, c.odd, low_val, div};
                int acts = 0;
                const auto make = [&](bool bridge) {
                    return [&, bridge](unsigned j, const SeedTree&, const sim::ProtocolBundle&) {
                        std::vector<NodeId> set(j % (c.t + 1));
                        for (NodeId v = 0; v < set.size(); ++v) set[v] = v;
                        std::unique_ptr<net::Adversary> a =
                            std::make_unique<ScriptedUniform>(std::move(set), script, &acts);
                        if (bridge) a = std::make_unique<BridgeOnly>(std::move(a));
                        return a;
                    };
                };
                const BlockOutcome block = run_block(plan, 0x77 + div, make(false));
                EXPECT_EQ(acts, 0) << "the block did not take the block form";
                expect_block_eq(block, run_block(plan, 0x77 + div, make(true)));
            }
        }
    }
}

TEST(FusedBlockForm, SharedRowChargesEachLaneItsOwnSetSize) {
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
    s.intra_threads = 1;
    const sim::ScenarioPlan plan = sim::validate(s);
    const auto sized = [&s](bool bridge) {
        return [&s, bridge](unsigned j, const SeedTree& seeds, const sim::ProtocolBundle&) {
            std::unique_ptr<net::Adversary> a = std::make_unique<adv::StaticAdversary>(
                static_cast<Count>(37 * j % (s.t + 1)), seeds.stream(StreamPurpose::Adversary));
            if (bridge) a = std::make_unique<BridgeOnly>(std::move(a));
            return a;
        };
    };
    bool divergent = false;
    for (const std::uint64_t seed : {0x5A1u, 0x5A2u, 0x5A3u, 0x5A4u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        const BlockOutcome block = run_block(plan, seed, sized(false));
        expect_block_eq(block, run_block(plan, seed, sized(true)));
        EXPECT_EQ(block.lanes[0].metrics.byzantine_messages, 0u);
        for (unsigned j = 1; j < net::kFusedLanes; ++j) {
            EXPECT_EQ(block.lanes[j].metrics.corruptions, 37 * j % (s.t + 1));
            EXPECT_GT(block.lanes[j].metrics.byzantine_messages, 0u);
            divergent |= block.lanes[j].rounds != block.lanes[0].rounds;
        }
    }
    EXPECT_TRUE(divergent) << "no block retired its lanes at different rounds";
}

/// The human-readable part of a ContractViolation's text: what follows the
/// failed expression and its source location.
std::string contract_message(const std::string& what) {
    const std::size_t at = what.find(" — ");
    return at == std::string::npos ? what : what.substr(at + std::string(" — ").size());
}

TEST(FusedBlockForm, WordWiseContractsRaiseTheBridgeMessages) {
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::Static;
    s.n = 16;
    s.t = 3;
    s.inputs = sim::InputPattern::Split;
    s.use_fused = true;
    s.intra_threads = 1;
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
    // A set over the budget t = 3, in lane 9, lane 3 or both: corrupt_lanes
    // checks every lane's count before it corrupts and raises the message
    // the bridge's corrupt() does.
    const Sets over_budget[] = {
        {{0}, {2, 4, 6, 8}},
        {{2, 4, 6, 8}, {0}},
        {{1, 2, 3}, {2, 4, 6, 8}},
    };
    for (const Sets& sets : over_budget) {
        const std::string bridge = block_error(plan, scripted(sets, true));
        EXPECT_EQ(contract_message(bridge), "corruption budget exhausted") << bridge;
        const std::string block = block_error(plan, scripted(sets, false));
        EXPECT_EQ(contract_message(block), contract_message(bridge)) << block;
    }
    // Sets a lane mask cannot express, a member named twice or one past n,
    // reach only the bridge, whose corrupt() raises Engine::Ctl's messages.
    const std::pair<Sets, const char*> bridge_only[] = {
        {{{0}, {2, 5, 2}}, "cannot corrupt an already-Byzantine node"},
        {{{16}, {3}}, "v < frame_->n()"},
    };
    for (const auto& [sets, message] : bridge_only) {
        const std::string bridge = block_error(plan, scripted(sets, true));
        EXPECT_NE(bridge.find(message), std::string::npos) << bridge;
    }
    // Sets within the budget run, both paths agree, and only the bridge
    // calls act(): the block form replaces every call.
    const Sets fit{{1, 2, 3}, {2, 4, 6}};
    acts = 0;
    const BlockOutcome block = run_block(plan, 0x5EED, scripted(fit, false));
    EXPECT_EQ(acts, 0);
    const BlockOutcome bridge = run_block(plan, 0x5EED, scripted(fit, true));
    EXPECT_GE(acts, static_cast<int>(net::kFusedLanes));
    expect_block_eq(block, bridge);
}

// ---------------------------------------------------------------------------
// Whole-block chunks: the default chunk of a fused plan is a multiple of 64,
// so only a run's last chunk can end in a partial block.

sim::Scenario fused_ours(NodeId n, Count t) {
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::Static;
    s.n = n;
    s.t = t;
    s.inputs = sim::InputPattern::Split;
    s.use_fused = true;
    s.intra_threads = 1;
    return s;
}

TEST(FusedPlaneChunks, DefaultChunkIsWholeBlocksOnlyWhenFused) {
    sim::Scenario s = fused_ours(32, 9);
    const sim::ScenarioPlan fused = sim::validate(s);
    s.use_fused = false;
    const sim::ScenarioPlan scalar = sim::validate(s);
    for (const Count trials : {Count{1}, Count{63}, Count{64}, Count{130}, Count{1000},
                               Count{64000}, Count{200000}}) {
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
    // and 2: each builds one fused protocol in its arena, and the last runs
    // a 2-lane partial block.
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
        EXPECT_EQ(built.load(), 3);
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
    // Every former fused rejection is now a skip reason: the scenario stays
    // compatible and runs scalar, and why_not_fused names why.
    const auto why = [](sim::Scenario s) {
        EXPECT_FALSE(sim::why_incompatible(s).has_value()) << s.describe();
        const auto msg = sim::why_not_fused(s);
        return msg ? *msg : std::string{};
    };

    sim::Scenario base;
    base.protocol = sim::ProtocolKind::Ours;
    base.adversary = sim::AdversaryKind::Static;
    base.n = 16;
    base.t = 5;
    base.use_fused = true;
    base.intra_threads = 1;
    ASSERT_TRUE(sim::compatible(base));
    ASSERT_FALSE(sim::why_not_fused(base).has_value());

    // Protocol without a fused form (t set to its own resilience bound so
    // the fused rule, not the resilience rule, is what fires).
    sim::Scenario s = base;
    s.protocol = sim::ProtocolKind::SamplingMajority;
    s.t = max_t(sim::ProtocolRegistry::instance().at(s.protocol), s.n);
    EXPECT_NE(why(s).find("fused-capable protocol"), std::string::npos) << why(s);
    EXPECT_NE(why(s).find("ours"), std::string::npos) << why(s);

    // Adversaries with no fused form. (Balancer and king-killer carry
    // requires_protocol rules, so each is paired with its own protocol.)
    s = base;
    s.adversary = sim::AdversaryKind::Chaos;
    EXPECT_NE(why(s).find("fused plane"), std::string::npos) << why(s);
    EXPECT_NE(why(s).find("static"), std::string::npos)
        << "the reason should list the fused-capable alternatives: " << why(s);
    EXPECT_NE(why(s).find("worst-case"), std::string::npos) << why(s);
    s = base;
    s.protocol = sim::ProtocolKind::PhaseKing;
    s.t = 3;
    s.adversary = sim::AdversaryKind::KingKiller;
    EXPECT_NE(why(s).find("fused plane"), std::string::npos) << why(s);
    s = base;
    s.protocol = sim::ProtocolKind::SamplingMajority;
    s.t = max_t(sim::ProtocolRegistry::instance().at(s.protocol), s.n);
    s.adversary = sim::AdversaryKind::Balancer;
    EXPECT_NE(why(s).find("fused-capable protocol"), std::string::npos) << why(s);

    // Plane/batch/watchdog conflicts.
    s = base;
    s.sparse_plane = true;
    EXPECT_NE(why(s).find("plane=sparse"), std::string::npos) << why(s);
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
    s.use_fused = false;
    EXPECT_NE(s.describe().find("fused=false"), std::string::npos);
    EXPECT_EQ(sim::Scenario::parse(s.describe()), s);
    s.use_fused = true;  // the default: elided
    EXPECT_EQ(s.describe().find("fused"), std::string::npos);
    EXPECT_EQ(sim::Scenario::parse(s.describe()), s);
    EXPECT_TRUE(sim::Scenario::parse("n=16 t=5").use_fused);
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
    for (const char* name : {"none", "static", "split-vote", "crash-random",
                             "crash-targeted-coin", "worst-case"})
        EXPECT_TRUE(adversaries.at(std::string(name)).supports_fused) << name;
    for (const char* name : {"chaos", "king-killer", "balancer"})
        EXPECT_FALSE(adversaries.at(std::string(name)).supports_fused) << name;
}

// ---------------------------------------------------------------------------
// The worst-case adversary's block-level form against 64 scalar engine runs
// of the same trials, block by block.

/// One scalar engine run of the trial a fused lane seeded with `seeds` runs.
net::RunResult scalar_lane(const sim::ScenarioPlan& plan, const SeedTree& seeds) {
    const sim::Scenario& s = plan.scenario;
    std::vector<Bit> inputs;
    sim::make_inputs(s.inputs, s.n, seeds, inputs);
    sim::ProtocolBundle bundle = plan.protocol->make_batch(s, inputs, seeds);
    const std::unique_ptr<net::Adversary> adversary =
        plan.adversary->make_adversary(s, bundle, seeds);
    net::EngineConfig cfg;
    cfg.n = s.n;
    cfg.budget = s.t;
    cfg.max_rounds = bundle.default_max_rounds;
    net::Engine engine(cfg, std::move(bundle.batch), *adversary);
    return engine.run();
}

void expect_block_matches_scalar(const BlockOutcome& block,
                                 const std::vector<net::RunResult>& lanes, NodeId n) {
    for (unsigned j = 0; j < net::kFusedLanes; ++j) {
        SCOPED_TRACE("lane " + std::to_string(j));
        const net::RunResult& r = lanes[j];
        const net::FusedLaneResult& f = block.lanes[j];
        EXPECT_EQ(f.rounds, r.rounds);
        EXPECT_EQ(f.all_halted, r.all_halted);
        EXPECT_EQ(f.outcome, r.outcome);
        EXPECT_EQ(f.metrics.honest_messages, r.metrics.honest_messages);
        EXPECT_EQ(f.metrics.honest_bits, r.metrics.honest_bits);
        EXPECT_EQ(f.metrics.byzantine_messages, r.metrics.byzantine_messages);
        EXPECT_EQ(f.metrics.corruptions, r.metrics.corruptions);
        EXPECT_EQ(f.metrics.rounds, r.metrics.rounds);
        NodeId wrong = 0;
        for (NodeId v = 0; v < n; ++v) {
            const bool byz = (block.byz[v] >> j & 1) != 0;
            if (byz != !r.honest[v] || (!byz && (block.val[v] >> j & 1) != r.outputs[v])) ++wrong;
        }
        EXPECT_EQ(wrong, 0u) << "nodes whose byz or value bit differs from the scalar run";
    }
}

TEST(FusedWorstCase, BlocksMatchSixtyFourScalarEngineRuns) {
    Count covered = 0;
    bool divergent = false, coin_rows = false;
    for (const NodeId n : {NodeId{7}, NodeId{64}, NodeId{256}}) {
        for (const sim::ProtocolKind protocol :
             {sim::ProtocolKind::Ours, sim::ProtocolKind::OursLasVegas,
              sim::ProtocolKind::ChorCoanRushing, sim::ProtocolKind::ChorCoanClassic}) {
            for (const bool full_q : {false, true}) {
                for (const sim::InputPattern inputs :
                     {sim::InputPattern::Split, sim::InputPattern::AllOne,
                      sim::InputPattern::Random}) {
                    sim::Scenario s;
                    s.protocol = protocol;
                    s.adversary = sim::AdversaryKind::WorstCase;
                    s.n = n;
                    s.t = max_t(sim::ProtocolRegistry::instance().at(protocol), n);
                    if (!full_q) s.q = s.t / 2;
                    s.inputs = inputs;
                    s.intra_threads = 1;
                    const sim::ScenarioPlan plan = sim::validate(s);
                    ASSERT_TRUE(plan.scenario.use_fused) << *sim::why_not_fused(plan.scenario);
                    ++covered;
                    SCOPED_TRACE(s.describe());
                    const std::uint64_t seed = 0x3C0 + covered;
                    const BlockOutcome block = run_block(
                        plan, seed,
                        [&plan](unsigned, const SeedTree& seeds, const sim::ProtocolBundle& meta) {
                            return plan.adversary->make_adversary(plan.scenario, meta, seeds);
                        });
                    std::vector<net::RunResult> lanes;
                    for (unsigned j = 0; j < net::kFusedLanes; ++j)
                        lanes.push_back(scalar_lane(plan, SeedTree(mix64(seed + j))));
                    expect_block_matches_scalar(block, lanes, n);

                    for (unsigned j = 0; j < net::kFusedLanes; ++j) {
                        divergent |= block.lanes[j].rounds != block.lanes[0].rounds;
                        // The strategy's only Byzantine deliveries are coin rows.
                        coin_rows |= block.lanes[j].metrics.byzantine_messages > 0;
                    }
                }
            }
        }
    }
    EXPECT_EQ(covered, 72u);
    EXPECT_TRUE(divergent) << "no block retired its lanes at different rounds";
    EXPECT_TRUE(coin_rows) << "no lane sent a coin row";
}

// ---------------------------------------------------------------------------
// The block-level form against act() on random planes: decided sets of any
// size, halted nodes and partial active masks, which registry runs never
// reach. (In registry runs every live receiver sees the same honest counts,
// so nodes decide all together and reducing them to t is never affordable:
// OPPOSITE never sends there.)

/// A FusedProtocol that only holds the planes a block-level strategy reads.
class PlaneProtocol final : public net::FusedProtocol {
public:
    explicit PlaneProtocol(NodeId n) : halted(n, 0), decided(n, 0), value(n, 0) {}
    NodeId n() const override { return static_cast<NodeId>(halted.size()); }
    void rearm(const std::uint64_t*, const SeedTree*) override {}
    void send_round(Round, net::FusedFrame&) override {}
    void receive_round(Round, const net::FusedFrame&) override {}
    const std::uint64_t* value_plane() const override { return value.data(); }
    const std::uint64_t* decided_plane() const override { return decided.data(); }
    const std::uint64_t* halted_plane() const override { return halted.data(); }

    std::vector<std::uint64_t> halted, decided, value;
};

/// One lane of a FusedLaneControl for a scalar act(): observation and
/// corrupt() go to the lane, each sender's delivered row is recorded.
class LaneRowRecorder final : public net::RoundControl {
public:
    explicit LaneRowRecorder(net::FusedLaneControl& lane) : lane_(lane) {}
    Round round() const override { return lane_.round(); }
    NodeId n() const override { return lane_.n(); }
    Count budget_left() const override { return lane_.budget_left(); }
    bool is_honest(NodeId v) const override { return lane_.is_honest(v); }
    bool is_halted(NodeId v) const override { return lane_.is_halted(v); }
    const net::Message* intended_broadcast(NodeId v) const override {
        return lane_.intended_broadcast(v);
    }
    Bit current_value(NodeId v) const override { return lane_.current_value(v); }
    bool current_decided(NodeId v) const override { return lane_.current_decided(v); }
    std::optional<net::Message> corrupt(NodeId v) override { return lane_.corrupt(v); }
    void deliver_as(NodeId, NodeId, const net::Message&) override {
        ADD_FAILURE() << "the worst-case strategy delivers whole rows only";
    }
    void split_as(NodeId from, const std::optional<net::Message>& low,
                  const std::optional<net::Message>& high, NodeId boundary) override {
        EXPECT_TRUE(low && !high && boundary == n()) << "OPPOSITE is a broadcast";
        rows[from].assign(n(), *low);
        opposite = true;
    }
    void deliver_row_as(NodeId from, std::span<const net::Message> cells) override {
        rows[from].assign(cells.begin(), cells.end());
        split = true;
    }

    std::map<NodeId, std::vector<net::Message>> rows;
    bool split = false, opposite = false;

private:
    net::FusedLaneControl& lane_;
};

TEST(FusedWorstCase, BlockFormMatchesActOnRandomPlanes) {
    const NodeId n = 40;
    const Count t = 13;
    const auto schedule = core::BlockSchedule::make(n, 10);
    Xoshiro256 rng(0xB10C);
    const auto bits = [&rng](double p) {  // each lane's bit set with probability p
        std::uint64_t w = 0;
        for (unsigned j = 0; j < net::kFusedLanes; ++j)
            if (rng.bernoulli(p)) w |= std::uint64_t{1} << j;
        return w;
    };
    Count split_lanes = 0, opposite_lanes = 0, unaffordable_lanes = 0;
    bool mixed = false;
    for (int run = 0; run < 24; ++run) {
        const adv::WorstCaseConfig cfg{t, run % 2 == 0 ? t : t / 2, schedule, true};
        adv::WorstCaseAdversary block_adv(cfg);
        block_adv.on_start(n, t);
        std::vector<std::unique_ptr<adv::WorstCaseAdversary>> lane_advs;
        const net::Adversary* lane_ptrs[net::kFusedLanes];
        for (unsigned j = 0; j < net::kFusedLanes; ++j) {
            lane_advs.push_back(std::make_unique<adv::WorstCaseAdversary>(cfg));
            lane_advs.back()->on_start(n, t);
            lane_ptrs[j] = lane_advs.back().get();
        }
        ASSERT_NE(block_adv.block_form(), nullptr);
        PlaneProtocol proto(n);
        net::FusedFrame block_frame, lane_frame;
        block_frame.reset(n);
        lane_frame.reset(n);
        net::FusedLaneControl block_ctl, lane_ctl;
        block_ctl.rearm(&block_frame, &proto, t);
        lane_ctl.rearm(&lane_frame, &proto, t);
        std::uint64_t expected_msgs[net::kFusedLanes] = {};

        for (Round r = 0; r < 8; ++r) {
            SCOPED_TRACE("run " + std::to_string(run) + " round " + std::to_string(r));
            ASSERT_EQ(block_frame.byz, lane_frame.byz);
            // A random round: lane j votes 1 with probability ~j/64 and is
            // decided with probability (j mod 4)/3; a few honest nodes are
            // halted, some of them still sending their flush broadcast.
            const bool round2 = r % 2 == 1;
            const auto [first, last] = schedule.range(schedule.committee_of_phase(r / 2));
            block_frame.begin_round(round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1, r / 2);
            block_frame.active = ~bits(0.1);
            for (NodeId v = 0; v < n; ++v) {
                const std::uint64_t honest = ~block_frame.byz[v];
                proto.halted[v] = honest & bits(0.08);
                std::uint64_t decided = 0, value = 0;
                for (unsigned j = 0; j < net::kFusedLanes; ++j) {
                    if (rng.bernoulli((j % 4) / 3.0)) decided |= std::uint64_t{1} << j;
                    if (rng.bernoulli(0.35 + 0.65 * j / 64.0)) value |= std::uint64_t{1} << j;
                }
                proto.decided[v] = decided;
                proto.value[v] = value;
                block_frame.sent[v] = honest & (~proto.halted[v] | bits(0.5));
                block_frame.val[v] = value;
                block_frame.flag[v] = decided;
                // Coins flip in the round's committee only, and are zero
                // elsewhere (the FusedFrame contract a protocol keeps).
                const bool flips = round2 && v >= first && v < last;
                const std::uint64_t plus = flips ? bits(0.5) : 0;
                block_frame.coinp[v] = flips ? block_frame.sent[v] & plus : 0;
                block_frame.coinn[v] = flips ? block_frame.sent[v] & ~plus : 0;
            }
            lane_frame.begin_round(block_frame.kind, block_frame.phase);
            lane_frame.active = block_frame.active;
            lane_frame.sent = block_frame.sent;
            lane_frame.val = block_frame.val;
            lane_frame.flag = block_frame.flag;
            lane_frame.coinp = block_frame.coinp;
            lane_frame.coinn = block_frame.coinn;

            block_ctl.set_round(r);
            block_adv.block_form()->act_block(block_ctl, lane_ptrs);
            lane_ctl.set_round(r);
            bool split = false, opposite = false;
            for (std::uint64_t lanes = block_frame.active; lanes != 0; lanes &= lanes - 1) {
                const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
                SCOPED_TRACE("lane " + std::to_string(j));
                lane_ctl.set_lane(j);
                if (round2) {
                    // A decided reduction the lane cannot afford: the block
                    // form picks no victims for it, and act() spends nothing.
                    Count d = 0;
                    for (NodeId v = 0; v < n; ++v)
                        d += (~block_frame.byz[v] & ~proto.halted[v] & proto.decided[v]) >> j & 1;
                    const Count remaining = std::min<Count>(
                        lane_ctl.budget_left(), cfg.max_corruptions - lane_advs[j]->corruptions_used());
                    unaffordable_lanes += d > t && d - t > remaining ? 1 : 0;
                }
                LaneRowRecorder lane(lane_ctl);
                lane_advs[j]->act(lane);
                EXPECT_EQ(block_ctl.corruptions(j), lane_ctl.corruptions(j));
                split |= lane.split;
                opposite |= lane.opposite;
                split_lanes += lane.split ? 1 : 0;
                opposite_lanes += lane.opposite ? 1 : 0;

                // The block's coin-sign row, read back as per-sender rows.
                const bool sends = block_frame.has_sign && (block_frame.sign_lanes >> j & 1) != 0;
                std::map<NodeId, std::vector<net::Message>> rows;
                for (NodeId u = sends ? block_frame.sign_first : 0;
                     sends && u < block_frame.sign_last; ++u) {
                    if ((block_frame.byz[u] >> j & 1) == 0) continue;
                    std::vector<net::Message>& row = rows[u];
                    for (NodeId v = 0; v < n; ++v) {
                        net::Message m = block_frame.sign_msg;
                        m.coin = (block_frame.sign[v] >> j & 1) != 0 ? CoinSign{1} : CoinSign{-1};
                        row.push_back(m);
                    }
                }
                if (sends) {
                    EXPECT_EQ(block_frame.sign_senders[j], rows.size());
                }
                ASSERT_EQ(rows.size(), lane.rows.size());
                for (const auto& [u, row] : lane.rows) {
                    ASSERT_EQ(rows.count(u), 1u) << "sender " << u;
                    for (NodeId v = 0; v < n; ++v) {
                        const net::Message& want = row[v];
                        const net::Message& got = rows[u][v];
                        EXPECT_EQ(got.kind, want.kind);
                        EXPECT_EQ(got.phase, want.phase);
                        EXPECT_EQ(got.val, want.val);
                        EXPECT_EQ(got.flag, want.flag);
                        ASSERT_EQ(got.coin, want.coin) << "sender " << u << " receiver " << v;
                    }
                }
                expected_msgs[j] += std::uint64_t{n} * lane.rows.size();
                EXPECT_EQ(block_ctl.byzantine_messages(j), expected_msgs[j]);
            }
            mixed |= split && opposite;
        }
        ASSERT_EQ(block_frame.byz, lane_frame.byz);
    }
    EXPECT_GT(split_lanes, 0u);
    EXPECT_GT(opposite_lanes, 0u);
    EXPECT_GT(unaffordable_lanes, 0u);
    EXPECT_TRUE(mixed) << "no round sent SPLIT in one lane and OPPOSITE in another";
}

// ---------------------------------------------------------------------------
// The receive side of coin-sign rows. The worst-case SPLIT targets every
// live receiver by parity, which makes a run symmetric under flipping every
// value: a receiver that read the sign plane the wrong way round would still
// match the scalar runs. A scripted strategy whose signs depend on the
// receiver's own value breaks that symmetry.

/// Round 0 corrupts, in each lane, every third node below `limit` whose
/// input is 1. In round 2 of every phase, each Byzantine committee member
/// sends every receiver v a coin +1 iff pattern(v, r) differs from v's value
/// (0 for a Byzantine v). act() sends the same rows through deliver_row_as.
/// Every round it appends a hash of the values it observes to its lane's
/// trace (traces[0] for act(), traces[j] for lane j of a block), so that
/// every receive beat's outcome is compared, not only the run's end: the
/// protocol overwrites its values each phase, which can hide a wrong one.
class ScriptedSignRows final : public net::Adversary, private net::BlockStrategy {
public:
    ScriptedSignRows(NodeId limit, core::BlockSchedule schedule,
                     std::vector<std::uint64_t>* traces)
        : limit_(limit), schedule_(schedule), traces_(traces) {}

    bool same_strategy(const net::Adversary& other) const override {
        const auto* o = dynamic_cast<const ScriptedSignRows*>(&other);
        return o != nullptr && o->limit_ == limit_ && o->schedule_ == schedule_;
    }
    net::BlockStrategy* block_form() override { return this; }

    void act(net::RoundControl& ctl) override {
        const Round r = ctl.round();
        std::uint64_t h = kFnvBasis;
        for (NodeId v = 0; v < ctl.n(); ++v)
            h = fnv(h, ctl.is_honest(v) ? ctl.current_value(v) : 2);
        traces_[0].push_back(h);
        if (r == 0) {
            for (NodeId v = 0; v < limit_; v += 3)
                if (ctl.current_value(v) != 0) ctl.corrupt(v);
            return;
        }
        if (r % 2 == 0) return;
        const auto [first, last] = schedule_.range(schedule_.committee_of_phase(r / 2));
        std::vector<net::Message> row(ctl.n(), header(r));
        for (NodeId v = 0; v < ctl.n(); ++v) {
            const Bit value = ctl.is_honest(v) ? ctl.current_value(v) : Bit{0};
            row[v].coin = pattern(v, r) != value ? CoinSign{1} : CoinSign{-1};
        }
        for (NodeId u = first; u < last; ++u)
            if (!ctl.is_honest(u)) ctl.deliver_row_as(u, row);
    }

private:
    static constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
    static std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
        return (h ^ x) * 0x100000001b3ULL;
    }
    static Bit pattern(NodeId v, Round r) { return (7 * v + r) % 3 == 0 ? 1 : 0; }
    static net::Message header(Round r) {
        net::Message m;
        m.kind = net::MsgKind::Vote2;
        m.phase = r / 2;
        return m;
    }

    void act_block(net::FusedLaneControl& ctl, const net::Adversary* const*) override {
        const net::FusedFrame& f = ctl.frame();
        const std::uint64_t* value = ctl.protocol().value_plane();
        const Round r = ctl.round();
        for (std::uint64_t lanes = f.active; lanes != 0; lanes &= lanes - 1) {
            const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
            std::uint64_t h = kFnvBasis;
            for (NodeId v = 0; v < f.n(); ++v)
                h = fnv(h, (f.byz[v] >> j & 1) != 0 ? 2 : value[v] >> j & 1);
            traces_[j].push_back(h);
        }
        if (r == 0) {
            std::vector<std::uint64_t> mask(f.n(), 0);
            for (NodeId v = 0; v < limit_; v += 3) mask[v] = value[v];
            Count counted[net::kFusedLanes];
            ctl.corrupt_lanes(mask.data(), counted);
            return;
        }
        if (r % 2 == 0) return;
        const auto [first, last] = schedule_.range(schedule_.committee_of_phase(r / 2));
        std::uint64_t* const sign = ctl.sign_row(header(r), first, last, f.active);
        for (NodeId v = 0; v < f.n(); ++v)
            sign[v] = (pattern(v, r) != 0 ? ~std::uint64_t{0} : 0) ^ (~f.byz[v] & value[v]);
    }

    NodeId limit_;
    core::BlockSchedule schedule_;
    std::vector<std::uint64_t>* traces_;
};

TEST(FusedWorstCase, BridgeOnlyBlockFailsAtItsFirstSplitRow) {
    // worst-case acts on the fused plane only through its block form. A
    // decorator that forwards on_start/act alone (BridgeOnly, like
    // perfbench's timing wrapper) sends the block down the per-lane
    // bridge, where act()'s SPLIT row goes through deliver_row_as's base
    // form to per-cell deliver_as, which has no lane form: the run fails
    // loudly instead of folding a wrong row.
    const sim::ScenarioPlan plan =
        sim::validate(sim::Scenario::parse(
            "protocol=ours adversary=worst-case n=64 t=21 intra_threads=1"));
    ASSERT_TRUE(plan.scenario.use_fused);
    const std::string err = block_error(
        plan, [&plan](unsigned, const SeedTree& seeds, const sim::ProtocolBundle& meta) {
            return std::unique_ptr<net::Adversary>(std::make_unique<BridgeOnly>(
                plan.adversary->make_adversary(plan.scenario, meta, seeds)));
        });
    EXPECT_NE(err.find("per-cell deliver_as has no lane form"), std::string::npos) << err;
}

TEST(FusedWorstCase, CoinSignRowsFoldLikeScalarDenseRows) {
    Count covered = 0, sign_rounds = 0;
    for (const NodeId n : {NodeId{16}, NodeId{64}}) {
        for (const sim::ProtocolKind protocol :
             {sim::ProtocolKind::Ours, sim::ProtocolKind::OursLasVegas,
              sim::ProtocolKind::ChorCoanRushing, sim::ProtocolKind::ChorCoanClassic}) {
            sim::Scenario s;
            s.protocol = protocol;
            s.adversary = sim::AdversaryKind::WorstCase;
            s.n = n;
            s.t = max_t(sim::ProtocolRegistry::instance().at(protocol), n);
            s.inputs = sim::InputPattern::Random;
            const sim::ScenarioPlan plan = sim::validate(s);
            ++covered;
            SCOPED_TRACE(s.describe());
            const std::uint64_t seed = 0x5160 + covered;
            const NodeId limit = 3 * s.t;  // at most t corruptions
            std::vector<std::uint64_t> block_traces[net::kFusedLanes];
            const BlockOutcome block = run_block(
                plan, seed,
                [limit, &block_traces](unsigned, const SeedTree&, const sim::ProtocolBundle& meta) {
                    return std::make_unique<ScriptedSignRows>(limit, *meta.schedule, block_traces);
                });
            std::vector<net::RunResult> lanes;
            for (unsigned j = 0; j < net::kFusedLanes; ++j) {
                const SeedTree seeds(mix64(seed + j));
                std::vector<Bit> inputs;
                sim::make_inputs(s.inputs, n, seeds, inputs);
                sim::ProtocolBundle bundle = plan.protocol->make_batch(s, inputs, seeds);
                std::vector<std::uint64_t> trace;
                ScriptedSignRows adversary(limit, *bundle.schedule, &trace);
                net::EngineConfig cfg;
                cfg.n = n;
                cfg.budget = s.t;
                cfg.max_rounds = bundle.default_max_rounds;
                net::Engine engine(cfg, std::move(bundle.batch), adversary);
                lanes.push_back(engine.run());
                EXPECT_EQ(block_traces[j], trace) << "lane " << j << ": values seen per round";
                sign_rounds += lanes.back().metrics.byzantine_messages / n;
            }
            expect_block_matches_scalar(block, lanes, n);
        }
    }
    EXPECT_EQ(covered, 8u);
    EXPECT_GT(sign_rounds, 0u) << "no lane sent a coin-sign row";
}

// ---------------------------------------------------------------------------
// Stateless committee draws: a member's phase-p flip is output p / num_blocks
// of its stream. Fused runs long enough to revisit a committee must still
// equal the scalar path, for every committee-coin protocol x fused adversary.

TEST(FusedWorstCase, StatelessCommitteeDrawsHoldAcrossCommitteeRevisits) {
    Count compared = 0, revisited = 0;
    for (const sim::ProtocolKind protocol :
         {sim::ProtocolKind::Ours, sim::ProtocolKind::OursLasVegas,
          sim::ProtocolKind::ChorCoanRushing, sim::ProtocolKind::ChorCoanClassic}) {
        for (const sim::AdversaryEntry* a : sim::AdversaryRegistry::instance().list()) {
            if (!a->supports_fused) continue;
            for (const NodeId n : {NodeId{4}, NodeId{7}, NodeId{16}, NodeId{25}, NodeId{64},
                                   NodeId{100}}) {
                for (const sim::InputPattern inputs :
                     {sim::InputPattern::Split, sim::InputPattern::Random}) {
                    sim::Scenario s;
                    s.protocol = protocol;
                    s.adversary = a->kind;
                    s.n = n;
                    s.t = max_t(sim::ProtocolRegistry::instance().at(protocol), n);
                    s.inputs = inputs;
                    s.intra_threads = 1;
                    if (!sim::compatible(s)) continue;
                    SCOPED_TRACE(s.describe());
                    sim::Scenario scalar = s;
                    scalar.use_fused = false;
                    const sim::Aggregate fused = sim::run_trials(s, 0xD4A + n, 128, {1, 0});
                    expect_aggregate_eq(fused, sim::run_trials(scalar, 0xD4A + n, 128, {1, 0}));
                    // The scalar batch draws statelessly too; the per-node
                    // nodes step their own streams.
                    scalar.use_batch = false;
                    expect_aggregate_eq(fused, sim::run_trials(scalar, 0xD4A + n, 128, {1, 0}));
                    ++compared;
                    // Phase p visits committee p mod num_blocks.
                    if (fused.rounds.max() > 2.0 * sim::schedule_of(s)->num_blocks) ++revisited;
                }
            }
        }
    }
    EXPECT_EQ(compared, 4u * 6u * 6u * 2u);
    EXPECT_GT(revisited, 0u) << "no run revisited a committee";
}

// ---------------------------------------------------------------------------
// `static`'s block start draws every lane's set at once; each lane's
// on_start, and the per-lane bridge, are its oracles. A protocol that does
// nothing and a budget of n let q reach n.

TEST(FusedBlockForm, StaticBlockStartDrawsEachLanesOnStartSet) {
    Xoshiro256 rng(0x57A7u);
    for (int rep = 0; rep < 60; ++rep) {
        const NodeId sizes[] = {1, 2, 7, 63, 64, 65, 128, 200, static_cast<NodeId>(1 + rng() % 700)};
        const NodeId n = sizes[rep % std::size(sizes)];
        const std::uint64_t in_block = rep % 3 == 0   ? ~std::uint64_t{0}
                                       : rep % 3 == 1 ? (std::uint64_t{1} << (1 + rep % 63)) - 1
                                                      : rng() | 1;
        std::uint64_t seed[net::kFusedLanes];
        Count q[net::kFusedLanes];
        for (unsigned j = 0; j < net::kFusedLanes; ++j) {
            seed[j] = rng();
            const Count choices[] = {0, 1, n - 1, n, static_cast<Count>(rng() % (n + 1))};
            q[j] = choices[(j + rep) % std::size(choices)];
        }
        SCOPED_TRACE("rep " + std::to_string(rep) + " n=" + std::to_string(n));
        const auto run = [&](bool bridge) {
            std::vector<std::unique_ptr<net::Adversary>> owned(net::kFusedLanes);
            net::Adversary* advs[net::kFusedLanes] = {};
            for (std::uint64_t l = in_block; l != 0; l &= l - 1) {
                const unsigned j = static_cast<unsigned>(std::countr_zero(l));
                owned[j] = std::make_unique<adv::StaticAdversary>(q[j], Xoshiro256(seed[j]));
                if (bridge) owned[j] = std::make_unique<BridgeOnly>(std::move(owned[j]));
                advs[j] = owned[j].get();
            }
            PlaneProtocol proto(n);
            net::FusedBlock block;
            BlockOutcome out;
            block.run(proto, advs, n, 2, out.lanes, in_block);
            out.byz.assign(block.byz_plane(), block.byz_plane() + n);
            return out;
        };
        const BlockOutcome block = run(false);
        for (unsigned j = 0; j < net::kFusedLanes; ++j) {
            std::vector<NodeId> lane_set;
            for (NodeId v = 0; v < n; ++v)
                if ((block.byz[v] >> j & 1) != 0) lane_set.push_back(v);
            if ((in_block >> j & 1) == 0) {
                EXPECT_TRUE(lane_set.empty()) << "lane " << j << " is not in the block";
                continue;
            }
            adv::StaticAdversary scalar(q[j], Xoshiro256(seed[j]));
            scalar.on_start(n, n);
            ASSERT_EQ(lane_set, scalar.corrupted()) << "lane " << j << " q=" << q[j];
        }
        const BlockOutcome bridge = run(true);
        EXPECT_EQ(block.byz, bridge.byz);
        for (std::uint64_t l = in_block; l != 0; l &= l - 1) {
            const unsigned j = static_cast<unsigned>(std::countr_zero(l));
            EXPECT_EQ(block.lanes[j].rounds, bridge.lanes[j].rounds) << "lane " << j;
            EXPECT_EQ(block.lanes[j].metrics.corruptions, q[j]) << "lane " << j;
            EXPECT_EQ(block.lanes[j].metrics.corruptions, bridge.lanes[j].metrics.corruptions);
            EXPECT_EQ(block.lanes[j].metrics.byzantine_messages,
                      bridge.lanes[j].metrics.byzantine_messages)
                << "lane " << j;
            EXPECT_EQ(block.lanes[j].metrics.honest_messages,
                      bridge.lanes[j].metrics.honest_messages)
                << "lane " << j;
        }
    }
}

TEST(FusedBlockForm, StaticBlocksWithADifferentQPerLaneMatchTheBridge) {
    // Registry protocols at q in {0, 1, t/2, t} by lane, whole and partial
    // blocks: the block start and shared rows against the per-lane bridge.
    for (const sim::ProtocolKind protocol :
         {sim::ProtocolKind::Ours, sim::ProtocolKind::BenOr, sim::ProtocolKind::PhaseKing}) {
        for (const NodeId n : {NodeId{64}, NodeId{97}}) {
            sim::Scenario s;
            s.protocol = protocol;
            s.adversary = sim::AdversaryKind::Static;
            s.n = n;
            s.t = max_t(sim::ProtocolRegistry::instance().at(protocol), n);
            s.inputs = sim::InputPattern::Split;
            s.local_coin_phases = 8;
            s.use_fused = true;
            s.intra_threads = 1;
            const sim::ScenarioPlan plan = sim::validate(s);
            const Count qs[] = {0, 1, s.t / 2, s.t};
            const auto by_lane = [&qs](bool bridge) {
                return [&qs, bridge](unsigned j, const SeedTree& seeds, const sim::ProtocolBundle&) {
                    std::unique_ptr<net::Adversary> a = std::make_unique<adv::StaticAdversary>(
                        qs[j % 4], seeds.stream(StreamPurpose::Adversary));
                    if (bridge) a = std::make_unique<BridgeOnly>(std::move(a));
                    return a;
                };
            };
            for (const std::uint64_t in_block : {~std::uint64_t{0}, (std::uint64_t{1} << 37) - 1}) {
                SCOPED_TRACE(s.describe() + " lanes=" + std::to_string(std::popcount(in_block)));
                const BlockOutcome block = run_block(plan, 0xB10 + n, by_lane(false), in_block);
                expect_block_eq(block, run_block(plan, 0xB10 + n, by_lane(true), in_block));
                for (unsigned j = 0; j < 37; ++j)
                    EXPECT_EQ(block.lanes[j].metrics.corruptions, qs[j % 4]) << "lane " << j;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The fused policy: fused engages where the plan can, and every skip says why.

TEST(FusedPolicy, EngagesForTheWorstCaseShapeFromTwoTrials) {
    const sim::ScenarioPlan live = sim::validate(
        sim::Scenario::parse("protocol=ours adversary=worst-case n=256 t=85 intra_threads=1"));
    EXPECT_TRUE(live.scenario.use_fused);
    EXPECT_FALSE(sim::why_not_fused(live.scenario).has_value());
    // The paper benches' 25-60-trial cells are one partial block.
    for (const Count trials : {Count{2}, Count{25}, Count{60}, Count{64}, Count{1000}})
        EXPECT_FALSE(sim::fused_skip_reason(live, trials).has_value()) << trials;
    EXPECT_FALSE(sim::fused_skip_reason(live, 1000, {1, 2}).has_value());
    const auto reason = [&live](Count trials, sim::ExecutorConfig exec) {
        return sim::fused_skip_reason(live, trials, exec).value_or("");
    };
    EXPECT_NE(reason(1, {}).find("one trial"), std::string::npos);
    EXPECT_NE(reason(1000, {1, 1}).find("chunk=1"), std::string::npos);
    {
        sim::FaultConfig faults;
        faults.trial_rate = 0.5;
        const sim::ScopedFaultInjection armed(faults);
        EXPECT_NE(reason(1000, {}).find("fault injection"), std::string::npos);
    }

    // The reason decides the path: a one-trial run never builds the fused
    // protocol, a 25-trial run builds it once (one chunk, one partial
    // block), and the aggregates match the scalar oracle.
    std::atomic<int> built{0};
    sim::ProtocolEntry counted = *live.protocol;
    counted.make_fused = [&built, make = live.protocol->make_fused](const sim::Scenario& sc) {
        ++built;
        return make(sc);
    };
    sim::ScenarioPlan plan = live;
    plan.protocol = &counted;
    sim::ScenarioPlan scalar = live;
    scalar.scenario.use_fused = false;
    expect_aggregate_eq(sim::run_trials(plan, 5, 1, {2, 0}),
                        sim::run_trials(scalar, 5, 1, {2, 0}));
    EXPECT_EQ(built.load(), 0);
    expect_aggregate_eq(sim::run_trials(plan, 5, 25, {2, 0}),
                        sim::run_trials(scalar, 5, 25, {2, 0}));
    EXPECT_EQ(built.load(), 1);
}

TEST(FusedPolicy, EngagesAtEveryNWithoutAnExplicitShardCount) {
    // No n bound: at n >= 2048 the auto shard policy yields to fused blocks,
    // which match the scalar (auto-sharded) oracle.
    const ScopedIntraDefault auto_policy(0);
    for (const NodeId n : {NodeId{2048}, NodeId{4096}}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        sim::Scenario s = sim::Scenario::parse("protocol=ours adversary=static");
        s.n = n;
        s.t = (n - 1) / 3;
        EXPECT_TRUE(sim::validate(s).scenario.use_fused);
        sim::Scenario scalar = s;
        scalar.use_fused = false;
        expect_aggregate_eq(sim::run_trials(s, 0x2048, 3, {1, 0}),
                            sim::run_trials(scalar, 0x2048, 3, {1, 0}));
    }
}

TEST(FusedPolicy, EverySkipNamesItsReason) {
    const ScopedIntraDefault auto_policy(0);
    const auto skip = [](sim::Scenario s) {
        if (s.t == 0) s.t = max_t(sim::ProtocolRegistry::instance().at(s.protocol), s.n);
        const sim::ScenarioPlan plan = sim::validate(s);
        EXPECT_FALSE(plan.scenario.use_fused) << s.describe();
        // The resolved scenario names the same reason as the one asked.
        EXPECT_EQ(sim::why_not_fused(plan.scenario), sim::why_not_fused(s));
        return sim::fused_skip_reason(plan, 1000).value_or("");
    };
    const std::pair<const char*, const char*> cases[] = {
        {"protocol=sampling-majority adversary=balancer n=64", "fused-capable protocol"},
        {"protocol=ours adversary=chaos n=64", "fused plane"},
        {"protocol=phase-king adversary=king-killer n=64", "fused plane"},
        {"protocol=ours adversary=worst-case n=64 plane=sparse", "plane=sparse"},
        {"protocol=ours adversary=worst-case n=64 batch=false", "batch=false"},
        {"protocol=ours adversary=worst-case n=64 watchdog_ms=5", "watchdog"},
        {"protocol=ours adversary=worst-case n=64 intra_threads=4", "intra_threads=4"},
        {"protocol=ours adversary=worst-case n=64 fused=off", "fused=off"},
        // A structural reason wins over fused=off.
        {"protocol=ours adversary=chaos n=64 fused=off", "fused plane"},
    };
    for (const auto& [spec, reason] : cases) {
        SCOPED_TRACE(spec);
        const std::string why = skip(sim::Scenario::parse(spec));
        EXPECT_NE(why.find(reason), std::string::npos) << why;
    }
    // One intra-trial shard is no sharding: fused still engages.
    const sim::Scenario one = sim::Scenario::parse(
        "protocol=ours adversary=worst-case n=64 t=21 intra_threads=1");
    EXPECT_TRUE(sim::validate(one).scenario.use_fused);

    // The process default (--intra_threads, ADBA_INTRA_THREADS) shards
    // every scenario that does not set the key, exactly as
    // plan_intra_shards reads it.
    {
        const ScopedIntraDefault forced(4);
        const sim::Scenario unset =
            sim::Scenario::parse("protocol=ours adversary=worst-case n=64 t=21");
        const std::string why = skip(unset);
        EXPECT_NE(why.find("ADBA_INTRA_THREADS=4"), std::string::npos) << why;
        EXPECT_TRUE(sim::validate(one).scenario.use_fused);
    }

    // Under a memory budget, fused blocks engage only where their arena
    // fits: n = 4096 fits 8 MiB as a flat trial arena, not as 64 lanes.
    {
        const sim::ScopedMemBudget budget(8);
        sim::Scenario s = sim::Scenario::parse("protocol=ours adversary=static n=4096 t=1365");
        const sim::ScenarioPlan plan = sim::BinaryWorkload::make_plan(s);
        EXPECT_FALSE(plan.scenario.sparse_plane);
        const std::string mem = skip(s);
        EXPECT_NE(mem.find("memory budget"), std::string::npos) << mem;
        s.n = 64;
        s.t = 21;
        EXPECT_TRUE(sim::validate(s).scenario.use_fused);
    }
}

TEST(FusedPolicy, DefaultFlatPlanOverTheMemoryBudgetFallsBackToSparse) {
    // A fused-capable default plan (fused=true by default) over the budget
    // still falls back: fused blocks hold 64 trials on the flat planes, so
    // they do not fit either, and on the sparse plane they stay off.
    const sim::ScopedMemBudget budget(2);
    sim::Scenario s = sim::Scenario::parse("protocol=ours adversary=static n=32768 t=3000 q=256");
    ASSERT_TRUE(s.use_fused);
    const sim::ScenarioPlan plan = sim::BinaryWorkload::make_plan(s);
    EXPECT_TRUE(plan.scenario.sparse_plane);
    EXPECT_FALSE(plan.scenario.use_fused);
}

/// A copy of the journal at `full` cut after its first chunk record.
std::string cut_after_first_record(const std::string& full, const char* name) {
    std::ifstream in(full, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const auto u32_at = [&](std::size_t at) {
        std::uint32_t v = 0;
        std::memcpy(&v, bytes.data() + at, sizeof v);
        return v;
    };
    std::size_t at = 8 + 8 + 8 + 4 + 4;
    at += 4 + u32_at(at);
    at += 4 + u32_at(at);
    const std::size_t first_record_end = at + 20 + u32_at(at + 8);
    const std::string cut = temp_path(name);
    std::ofstream out(cut, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, first_record_end);
    return cut;
}

TEST(FusedPolicy, JournalResumesAcrossTheFusedSettingUnderOneChunk) {
    // The checkpoint scope leaves out the result-invariant fused key: a
    // journal written with fused=off resumes under the default (fused
    // blocks) when the chunk matches, to the same bytes.
    sim::Scenario scalar = sim::Scenario::parse(
        "protocol=ours adversary=worst-case inputs=random n=22 t=7 intra_threads=1");
    scalar.use_fused = false;
    sim::Scenario fused = scalar;
    fused.use_fused = true;
    const Count trials = 192;
    const sim::Aggregate expected = sim::run_trials(scalar, 0xAB, trials, {1, 64});

    const std::string full = temp_path("fused_policy_ck.bin");
    std::filesystem::remove(full);
    (void)sim::run_trials(scalar, 0xAB, trials, {1, 64, full, false});
    const std::string cut = cut_after_first_record(full, "fused_policy_ck_cut.bin");
    expect_aggregate_eq(sim::run_trials(fused, 0xAB, trials, {2, 64, cut, true}), expected);

    // The same holds for every result-invariant (Execution) key: a journal
    // cut under one off its default resumes under the defaults (whose
    // aggregate `expected` is: intra_threads=1 is one too).
    const std::string base = "protocol=ours adversary=worst-case inputs=random n=22 t=7";
    for (const char* key : {"batch=false", "intra_threads=2", "fused=off"}) {
        std::filesystem::remove(full);
        (void)sim::run_trials(sim::Scenario::parse(base + " " + key), 0xAB, trials,
                              {1, 64, full, false});
        SCOPED_TRACE(key);
        expect_aggregate_eq(sim::run_trials(sim::Scenario::parse(base), 0xAB, trials,
                                            {2, 64, cut_after_first_record(full, "key_cut.bin"),
                                             true}),
                            expected);
    }
}

}  // namespace
}  // namespace adba
