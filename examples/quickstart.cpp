// Quickstart: run Algorithm 3 (Dufoulon-Pandurangan PODC 2025) on a
// 64-node network against the worst-case adaptive rushing adversary.
//
// Shows both API levels:
//   1. the low-level building blocks (params -> nodes -> adversary ->
//      engine), which is what you would use to embed the protocol in your
//      own simulation; and
//   2. the one-call experiment runner used by the benches.
//
// Usage: quickstart [--n=64] [--t=21] [--seed=1]
#include <cstdio>

#include "adversary/worst_case.hpp"
#include "core/skeleton.hpp"
#include "net/engine.hpp"
#include "sim/runner.hpp"
#include "support/cli.hpp"

static int run(const adba::Cli& cli) {
    using namespace adba;
    const auto n = cli.get_uint<NodeId>("n", 64);
    const auto t = cli.get_uint<Count>("t", (n - 1) / 3);
    const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
    cli.check_unused();

    std::printf("== Byzantine agreement under an adaptive rushing adversary ==\n");
    std::printf("n=%u nodes, t=%u tolerated Byzantine (t < n/3), seed=%llu\n\n", n, t,
                static_cast<unsigned long long>(seed));

    // ---- Level 1: explicit wiring -------------------------------------
    // Committee parameters per the paper: c = min(α⌈t²/n⌉log n, 3αt/log n)
    // committees of s = n/c nodes each.
    const auto params = core::AgreementParams::compute(n, t);
    std::printf("committees: %u phases, committee size %u (schedule over node-ID blocks)\n",
                params.phases, params.schedule.block);

    // Every node starts with a worst-case split input: 0,1,0,1,...
    const SeedTree seeds(seed);
    std::vector<Bit> inputs(n);
    for (NodeId v = 0; v < n; ++v) inputs[v] = static_cast<Bit>(v & 1);

    // Algorithm 3 is the Rabin phase skeleton with the committee coin.
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    core::arm_skeleton_nodes({n, t, params.phases, core::AgreementMode::WhpFixedPhases},
                             {core::CoinSpec::Kind::Committee, params.schedule}, inputs,
                             seeds, nodes);

    // The strongest attack we know for this protocol family: rushing
    // observation of committee coin flips, greedy corruption to split or
    // flip the coin, decided-quorum suppression.
    adv::WorstCaseAdversary adversary({t, t, params.schedule, true});

    net::Engine engine({n, t, core::max_rounds_whp(params), false}, std::move(nodes),
                       adversary);
    const net::RunResult result = engine.run();

    std::printf("\nrun finished: %u rounds (%u phases of 2 rounds + termination)\n",
                result.rounds, result.rounds / 2);
    std::printf("adversary corrupted %llu nodes, ruined %u phase coins\n",
                static_cast<unsigned long long>(result.metrics.corruptions),
                adversary.phases_ruined());
    if (result.agreement()) {
        std::printf("agreement reached: every honest node output %d\n",
                    static_cast<int>(*result.agreed_value()));
    } else {
        std::printf("AGREEMENT FAILED (probability <= 1/poly(n) per Theorem 2)\n");
    }
    std::printf("honest traffic: %llu messages, %llu bits (CONGEST: O(log n)/msg)\n",
                static_cast<unsigned long long>(result.metrics.honest_messages),
                static_cast<unsigned long long>(result.metrics.honest_bits));

    // ---- Level 2: the experiment runner --------------------------------
    // A scenario is a value; here it is parsed from the same string spec the
    // `adba_sim` driver and the sweep layer use (names resolved through the
    // protocol/adversary registries).
    const sim::Scenario s = sim::Scenario::parse(
        "protocol=ours adversary=worst-case inputs=split n=" + std::to_string(n) +
        " t=" + std::to_string(t));
    std::printf("\n== same trial via the one-call runner ==\nscenario: %s\n",
                s.describe().c_str());
    const sim::TrialResult r = sim::run_trial(s, seed);
    std::printf("agreement=%s rounds=%u corruptions=%llu\n",
                r.agreement ? "yes" : "NO", r.rounds,
                static_cast<unsigned long long>(r.metrics.corruptions));
    return r.agreement ? 0 : 1;
}

int main(int argc, char** argv) { return adba::run_main(argc, argv, run); }
