// adba_sim — the one entry point for every registered scenario.
//
// Runs any workload the kernel knows about (--workload=binary|coin|mv|macro,
// aliases accepted) with any (protocol x adversary x input) combination the
// registries know about, selected by name, instead of recompiling one of
// the bespoke bench binaries:
//
//   adba_sim --list
//   adba_sim --protocol=ours --adversary=worst-case --n=128 --t=40 --trials=50
//   adba_sim --protocol=phase-king --n=33               # adversary defaults to
//                                                       # the protocol's strongest
//   adba_sim --scenario="protocol=ours adversary=chaos n=64 t=21 q=10"
//   adba_sim --workload=mv --adversary=prelude+worst-case \
//            --inputs=near-quorum --n=96 --t=31         # multi-valued stack
//   adba_sim --workload=mv --scenario="adversary=inner inputs=two-blocks n=64 t=21"
//   adba_sim --workload=coin --n=256 --k=64 --f=4       # standalone common coin
//   adba_sim --workload=macro --n=65536 --t=256         # asymptotic simulator
//   adba_sim --workload=macro --scenario="n=16384 t=128 alpha=4"
//
// Every workload runs through one path (run_workload): every scenario key
// is also a flag (`--n=64`, `--batch=off`), read through the workload's key
// table (sim/spec_keys.hpp) on top of `--scenario`, and the result is the
// workload's CSV schema; only the defaults (PerWorkload) differ per
// workload. `--help` lists the flags the selected workload reads, each
// with the value this run uses. Unknown flags (including another
// workload's) and names exit 2 with did-you-mean suggestions (Cli strict
// mode + the name lookup).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "sim/faults.hpp"
#include "sim/macro.hpp"
#include "sim/registry.hpp"
#include "sim/report.hpp"
#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/table.hpp"

namespace {

using namespace adba;

std::string join(const std::vector<std::string>& parts) {
    std::string out;
    for (const auto& p : parts) out += (out.empty() ? "" : ", ") + p;
    return out.empty() ? "-" : out;
}

int list_capabilities() {
    const auto& protocols = sim::ProtocolRegistry::instance();
    const auto& adversaries = sim::AdversaryRegistry::instance();

    Table wt("Workloads (--workload=...)");
    wt.set_header({"name", "aliases", "scenario", "sweep grid", "summary"});
    for (const auto* w : sim::workloads().list())
        wt.add_row({w->name, join(w->aliases), w->scenario, w->grid, w->summary});
    wt.print(std::cout);

    Table pt("Registered protocols (--workload=binary)");
    pt.set_header({"name", "aliases", "resilience", "strongest adversary", "schedule",
                   "summary"});
    for (const auto* e : protocols.list())
        pt.add_row({e->name, join(e->aliases), e->resilience,
                    adversaries.at(e->strongest).name, e->schedule_of ? "yes" : "no",
                    e->summary});
    pt.print(std::cout);

    Table at("Registered adversaries");
    at.set_header({"name", "aliases", "adaptive", "rushing", "constraint", "summary"});
    for (const auto* e : adversaries.list()) {
        std::string constraint = "-";
        if (e->requires_protocol)
            constraint = "requires " + protocols.at(*e->requires_protocol).name;
        else if (e->needs_schedule)
            constraint = "needs committee schedule";
        at.add_row({e->name, join(e->aliases), e->adaptive, e->rushing, constraint,
                    e->summary});
    }
    at.print(std::cout);

    Table mt("Multi-valued adversaries (--workload=mv)");
    mt.set_header({"name", "aliases", "summary"});
    for (const auto* e : sim::MvAdversaryRegistry::instance().list())
        mt.add_row({e->name, join(e->aliases), e->summary});
    mt.print(std::cout);

    std::printf("Input patterns: %s (multi-valued: %s).\n"
                "Coin attacks (--workload=coin): %s. Macro schedules (--workload=macro): %s.\n",
                sim::input_patterns().known_names().c_str(),
                sim::mv_input_patterns().known_names().c_str(),
                sim::coin_attacks().known_names().c_str(),
                sim::macro_schedules().known_names().c_str());
    return 0;
}

/// The run flags every workload reads after its scenario's: --trials,
/// --seed, the executor knobs (--chunk fixes the work unit, 0 = auto;
/// --checkpoint=path arms the chunk journal; --resume loads completed
/// chunks from it instead of re-running them) and --csv_dir. Then the
/// strict-mode check and the csv directory, so typos, flags the workload
/// does not read and a --csv_dir that cannot be created fail BEFORE any
/// trial time is spent.
struct RunFlags {
    Count trials = 0;
    std::uint64_t seed = 1;
    sim::ExecutorConfig exec;
    std::string csv_dir;
};

RunFlags run_flags(const Cli& cli, Count default_trials) {
    RunFlags f{cli.get_uint<Count>("trials", default_trials),
               cli.get_uint<std::uint64_t>("seed", 1)};
    f.exec.chunk = cli.get_uint<Count>("chunk", 0);
    f.exec.checkpoint = cli.get("checkpoint", "");
    f.exec.resume = cli.get_bool("resume", false);
    if (f.exec.resume && f.exec.checkpoint.empty())
        throw ContractViolation(
            "--resume resumes a chunk journal and needs --checkpoint=path "
            "pointing at the journal of the interrupted run");
    f.csv_dir = cli.get("csv_dir", "");
    cli.check_unused();
    if (!f.csv_dir.empty()) ensure_csv_dir(f.csv_dir);
    return f;
}

/// What stays per workload: the value an absent key runs at, the default
/// trial count, and the run entry point.
template <typename W>
struct PerWorkload;

template <>
struct PerWorkload<sim::BinaryWorkload> {
    static constexpr Count kTrials = 20;
    /// n = 64; without a spec, the protocol's strongest adversary and the
    /// largest t its resilience predicate admits at n.
    static void defaults(const Cli& cli, sim::Scenario& s) {
        if (!cli.has("n") && s.n == 0) s.n = 64;
        if (cli.has("scenario")) return;
        const sim::ProtocolEntry& proto = sim::ProtocolRegistry::instance().at(s.protocol);
        if (!cli.has("adversary")) s.adversary = proto.strongest;
        if (!cli.has("t")) {
            s.t = (s.n - 1) / 3;
            while (s.t > 0 && !proto.supports(s.n, s.t)) --s.t;
        }
    }
    static sim::Aggregate run(const sim::Scenario& s, std::uint64_t seed, Count trials,
                              const sim::ExecutorConfig& exec) {
        const sim::ScenarioPlan plan = sim::BinaryWorkload::make_plan(s);
        const sim::BudgetHint budget = plan.protocol->budgets(s);
        std::printf("phase budget %u, round cap %u\n", budget.phases, budget.max_rounds);
        // On stderr: the CI smokes diff stdout across --fused=on|off.
        const auto fused_skip = sim::fused_skip_reason(plan, trials, exec);
        std::fprintf(stderr, "fused: %s\n",
                     fused_skip ? ("off (" + *fused_skip + ")").c_str() : "on");
        return sim::run_trials(plan, seed, trials, exec);
    }
};

template <>
struct PerWorkload<sim::MvWorkload> {
    static constexpr Count kTrials = 20;
    /// n = 96; without a spec, t = (n - 1) / 3.
    static void defaults(const Cli& cli, sim::MvScenario& s) {
        if (!cli.has("n") && s.n == 0) s.n = 96;
        if (!cli.has("scenario") && !cli.has("t")) s.t = (s.n - 1) / 3;
    }
    static constexpr auto run = &sim::run_mv_trials;
};

template <>
struct PerWorkload<sim::CoinWorkload> {
    static constexpr Count kTrials = 2000;
    /// n = 256 and k = n designated flippers (Algorithm 1).
    static void defaults(const Cli& cli, sim::CoinScenario& s) {
        if (!cli.has("n") && s.n == 0) s.n = 256;
        if (!cli.has("k") && s.designated == 0) s.designated = s.n;
    }
    static constexpr auto run = &sim::run_coin_trials;
};

template <>
struct PerWorkload<sim::MacroWorkload> {
    static constexpr Count kTrials = 50;
    /// n = 2^16; without a spec, t = 256.
    static void defaults(const Cli& cli, sim::MacroScenario& s) {
        if (!cli.has("n") && s.n == 0) s.n = std::uint64_t{1} << 16;
        if (!cli.has("scenario") && !cli.has("t")) s.t = 256;
    }
    static constexpr auto run = &sim::run_macro_trials;
};

/// The one run path: the scenario from --scenario and one flag per key,
/// the workload's defaults, the run flags, the scenario line, the run, and the
/// workload's CSV schema (sim::csv_table, what --csv_dir writes) as the
/// result. Exits 1 when a binary or mv run violates validity.
template <typename W>
int run_workload(const Cli& cli, const sim::WorkloadInfo& info) {
    using S = typename W::Scenario;
    const std::vector<sim::SpecKey<S>>& keys = W::keys();
    // --intra_threads keeps its process-wide meaning (init_intra_threads in
    // run()): the shard default of every scenario, not this key.
    const auto flag_key = [](const sim::SpecKey<S>& key) { return key.name != "intra_threads"; };
    S s = cli.has("scenario") ? S::parse(cli.get("scenario", "")) : S{};
    for (const sim::SpecKey<S>& key : keys)
        if (flag_key(key) && cli.has(key.name)) key.parse(s, "--" + key.name, cli.get(key.name, ""));
    PerWorkload<W>::defaults(cli, s);
    // --help lists each key with the value this run uses.
    for (const sim::SpecKey<S>& key : keys)
        if (flag_key(key)) cli.get(key.name, key.value(s));
    const auto [trials, seed, exec, csv_dir] = run_flags(cli, PerWorkload<W>::kTrials);

    // An infeasible scenario exits with its why_incompatible message alone.
    if (const auto why = sim::why_incompatible(s)) throw ContractViolation(*why);
    // The spec round-trips through S::parse (pinned in tests).
    // The default workload's line has no prefix.
    const std::string echo = info.kind == sim::WorkloadKind::Binary ? "" : info.name + " ";
    std::printf("%sscenario: %s\n", echo.c_str(), s.describe().c_str());
    std::printf("%u trials, %u threads\n", trials, sim::default_threads());

    const typename W::Aggregate agg = PerWorkload<W>::run(s, seed, trials, exec);
    // The row label is the Identity keys alone, so the result is the same
    // text under every key that only changes how the run executes.
    const std::string label = sim::describe_spec(keys, s, sim::KeyRole::Identity);
    const Table table = sim::csv_table("adba_sim: " + info.name + " result", {{label, agg}});
    table.print(std::cout);
    if (!csv_dir.empty())
        std::printf("wrote %s\n", write_csv(table, csv_dir, "adba_sim_" + info.name).c_str());
    if constexpr (requires { agg.validity_failures; })
        return agg.validity_failures == 0 ? 0 : 1;
    return 0;
}

}  // namespace

static int run(const Cli& cli) {
    sim::init_threads(cli);
    sim::init_intra_threads(cli);
    const bool faults_armed = sim::init_faults(cli);
    sim::init_mem_budget(cli);
    if (cli.get_bool("list", false)) {
        cli.check_unused();
        return list_capabilities();
    }
    using Kind = sim::WorkloadKind;
    const sim::WorkloadInfo* info = &sim::workloads().at(cli.get("workload", "binary"));
    // Back-compat: --protocol=<a name of the mv workload> (turpin-coan,
    // multivalued, mv) selected the mv stack before --workload existed.
    // Query --protocol only when routing to the binary workload, which
    // reads it — passing it to the coin/macro/mv workloads must fail
    // strict-mode, not be dropped.
    if (info->kind == Kind::Binary) {
        const auto* named = sim::workloads().find(cli.get("protocol", ""));
        if (named != nullptr && named->kind == Kind::Mv) info = named;
    }
    cli.get("workload", info->name);  // --help lists the workload this run uses
    const int rc = info->kind == Kind::Mv     ? run_workload<sim::MvWorkload>(cli, *info)
                   : info->kind == Kind::Coin ? run_workload<sim::CoinWorkload>(cli, *info)
                   : info->kind == Kind::Macro
                       ? run_workload<sim::MacroWorkload>(cli, *info)
                       : run_workload<sim::BinaryWorkload>(cli, *info);
    if (faults_armed)
        std::printf("%s\n", sim::FaultInjector::stats_line().c_str());
    return rc;
}

int main(int argc, char** argv) { return adba::run_main(argc, argv, run); }
