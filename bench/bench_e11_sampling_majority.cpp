// E11 — the sqrt(n) frontier of sampling-majority (paper §1.3, Augustine-
// Pandurangan-Robinson 2013): convergence survives Byzantine counts up to
// ~sqrt(n) and stalls beyond, the same anti-concentration economics as the
// paper's committee coin (drift per round ~ sqrt(n) = the price of one
// round of enforced balance for the adversary).
//
// Measured: final agreement rate and the first round of full honest
// agreement, as the balancer's budget sweeps through sqrt(n).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>

#include "adversary/balancer.hpp"
#include "baselines/sampling_majority.hpp"
#include "bench/common.hpp"
#include "net/engine.hpp"
#include "sim/inputs.hpp"
#include "sim/runner.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace adba;

// Per-cell aggregate for the custom (observer-instrumented) trial loop —
// runs on the executor via parallel_reduce like every standard runner.
struct E11Agg {
    Count trials = 0;
    Count agreements = 0;
    Samples first_agree;

    void merge(const E11Agg& other) {
        trials += other.trials;
        agreements += other.agreements;
        first_agree.merge(other.first_agree);
    }
};

E11Agg run_cell(NodeId n, Count t, Count trials) {
    return sim::parallel_reduce<E11Agg>(trials, {}, [&](Count begin, Count end) {
        E11Agg part;
        part.trials = end - begin;
        for (Count i = begin; i < end; ++i) {
            const SeedTree seeds(0xE11 + n * 1009ULL + t * 31ULL + i);
            const auto params = base::SamplingMajorityParams::compute(n, t, 4.0);
            std::vector<std::unique_ptr<net::HonestNode>> nodes;
            base::arm_sampling_majority_nodes(
                params, sim::make_inputs(sim::InputPattern::Split, n, seeds), seeds, nodes);
            adv::MajorityBalancerAdversary adversary({t, 0});
            net::Engine eng({n, t, params.rounds + 1}, std::move(nodes),
                            adversary);
            Round first = params.rounds;
            bool found = false;
            eng.set_round_observer([&](Round r, const auto& live, const auto& honest) {
                if (found) return;
                std::optional<Bit> v;
                for (NodeId u = 0; u < live.size(); ++u) {
                    if (!honest[u]) continue;
                    const Bit b = live[u]->current_value();
                    if (!v) {
                        v = b;
                    } else if (*v != b) {
                        return;
                    }
                }
                first = r;
                found = true;
            });
            const auto res = eng.run();
            if (res.agreement()) ++part.agreements;
            part.first_agree.add(static_cast<double>(first));
        }
        return part;
    });
}

void experiment(const Cli& cli) {
    const auto trials = sim::read_trials(cli, 15);
    benchutil::finish_flags(cli);
    std::printf("E11: sampling-majority vs the drift-cancelling balancer "
                "(%u trials/cell).\n", trials);

    Table tab("E11: convergence vs balancer budget (split inputs)");
    tab.set_header({"n", "t", "t/sqrt(n)", "agree %", "mean 1st-agree round",
                    "p90 1st-agree"});
    for (NodeId n : {256u, 1024u}) {
        const double sq = std::sqrt(static_cast<double>(n));
        for (double ratio : {0.0, 0.5, 1.0, 2.0, 4.0}) {
            auto t = static_cast<Count>(std::lround(ratio * sq));
            if (3 * t >= n) t = (n - 1) / 3;
            const E11Agg cell = run_cell(n, t, trials);
            tab.add_row({Table::num(std::uint64_t{n}), Table::num(std::uint64_t{t}),
                         Table::num(ratio, 1),
                         Table::num(100.0 * cell.agreements / cell.trials, 1),
                         Table::num(cell.first_agree.mean(), 1),
                         Table::num(cell.first_agree.quantile(0.9), 1)});
        }
    }
    tab.print(std::cout);
    benchutil::maybe_write_csv(cli, tab, "e11_sampling_majority");
    std::printf(
        "Shape check vs paper §1.3: below the sqrt(n) scale the balancer only\n"
        "buys a handful of balanced rounds (its per-round bill is the Θ(sqrt n)\n"
        "drift), so convergence is barely delayed; well above sqrt(n) the first-\n"
        "agree round grows — the same frontier Theorem 3 defends with the\n"
        "Paley-Zygmund bound, appearing in a completely different protocol.\n");
}

void BM_sampling_trial(benchmark::State& state) {
    sim::Scenario s;
    s.n = 256;
    s.t = 16;
    s.protocol = sim::ProtocolKind::SamplingMajority;
    s.adversary = sim::AdversaryKind::Balancer;
    s.inputs = sim::InputPattern::Split;
    std::uint64_t seed = 0;
    for (auto _ : state) benchmark::DoNotOptimize(sim::run_trial(s, seed++));
}
BENCHMARK(BM_sampling_trial);

}  // namespace

int main(int argc, char** argv) {
    return adba::run_main(argc, argv, [](const adba::Cli& cli) {
        adba::benchutil::init_threads(cli);
        experiment(cli);
        adba::benchutil::run_benchmark_tail(cli);
        return 0;
    });
}
