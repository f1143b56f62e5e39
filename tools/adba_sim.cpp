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
//
// Every scenario key is also a flag (`--n=64`, `--batch=off`), read through
// the key tables (sim/spec_keys.hpp) on top of `--scenario`; `--help` lists
// the flags the selected workload reads. Unknown flags and names exit 2
// with did-you-mean suggestions (Cli strict mode + the name lookup).
#include <cstdio>
#include <iostream>
#include <string>

#include "sim/faults.hpp"
#include "sim/macro.hpp"
#include "sim/registry.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
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

void maybe_csv(const Cli& cli, const Table& table, const std::string& slug) {
    const std::string dir = cli.get("csv_dir", "");
    if (dir.empty()) return;
    std::printf("wrote %s\n", write_csv(table, dir, slug).c_str());
}

double pct(Count good, Count total) {
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(good) / total;
}

/// The run flags every workload reads after its scenario's: --trials,
/// --seed, and the executor knobs (--chunk fixes the work unit, 0 = auto;
/// --checkpoint=path arms the chunk journal; --resume loads completed
/// chunks from it instead of re-running them). Then the strict-mode check,
/// so typos fail BEFORE any trial time is spent.
struct RunFlags {
    Count trials = 0;
    std::uint64_t seed = 1;
    sim::ExecutorConfig exec;
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
    cli.get("csv_dir", "");  // queried late by maybe_csv; recognize it now
    cli.check_unused();
    return f;
}

/// Sets each key of `keys` given as a flag (`--n=64`, `--batch=off`) on
/// `s`; --help shows each with its value in `s`.
template <typename S>
void apply_key_flags(const Cli& cli, const std::vector<sim::SpecKey<S>>& keys, S& s) {
    for (const sim::SpecKey<S>& key : keys) {
        // --intra_threads keeps its process-wide meaning (init_intra_threads
        // in run()): the shard default of every scenario, not this key.
        if (key.name == "intra_threads") continue;
        const std::string value = cli.get(key.name, key.value(s));
        if (cli.has(key.name)) key.parse(s, "--" + key.name, value);
    }
}

int run_multivalued(const Cli& cli) {
    if (cli.has("fused"))
        throw ContractViolation(
            "--fused co-executes 64 binary trials per machine word; the "
            "multi-valued stack has no fused plane (the Turpin-Coan word "
            "histograms do not bit-slice) — drop the flag or use "
            "--workload=binary");
    if (cli.has("batch") || cli.has("plane") || cli.has("sample_degree"))
        throw ContractViolation(
            "--batch/--plane/--sample_degree select how the binary stack steps and "
            "delivers; the multi-valued stack always steps its per-node Turpin-Coan "
            "nodes on the flat plane — drop the flag or use --workload=binary");
    sim::MvScenario s;
    if (cli.has("scenario")) s = sim::MvScenario::parse(cli.get("scenario", ""));
    if (s.n == 0) s.n = 96;
    apply_key_flags(cli, sim::mv_scenario_keys(), s);
    if (!cli.has("t") && !cli.has("scenario")) s.t = (s.n - 1) / 3;
    const auto [trials, seed, exec] = run_flags(cli, 20);

    // The spec round-trips: parse(describe(s)) == s (pinned in tests).
    std::printf("mv scenario: %s\n", s.describe().c_str());
    std::printf("turpin-coan over alg3, %u trials, %u threads\n", trials,
                sim::default_threads());

    // Infeasible scenarios throw the why_incompatible message here.
    const sim::MvAggregate agg = sim::run_mv_trials(s, seed, trials, exec);
    // Faulted trials ran no protocol: exclude them from every rate's
    // denominator and guard the Samples reads (empty when all faulted).
    const Count ran = agg.trials - agg.faulted;
    const bool have = !agg.rounds.empty();
    Table table("adba_sim: multi-valued result");
    table.set_header({"inputs", "adversary", "agree %", "validity", "real-value %",
                      "mean rounds", "max rounds"});
    table.add_row({sim::to_string(s.inputs), sim::to_string(s.adversary),
                   Table::num(pct(ran - agg.agreement_failures, ran), 1),
                   agg.validity_failures == 0 ? "ok" : "VIOLATED",
                   Table::num(pct(agg.decided_real, ran), 1),
                   Table::num(have ? agg.rounds.mean() : 0.0, 1),
                   Table::num(have ? agg.rounds.max() : 0.0, 0)});
    table.print(std::cout);
    maybe_csv(cli, sim::csv_table("adba_sim: multi-valued result",
                                  {{s.describe(), agg}}),
              "adba_sim_mv");
    return agg.validity_failures == 0 ? 0 : 1;
}

int run_coin(const Cli& cli) {
    if (cli.has("plane") || cli.has("sample_degree"))
        throw ContractViolation(
            "--plane/--sample_degree select the binary stack's delivery plane; "
            "the standalone coin workload has no delivery plane (drop the flag "
            "or use --workload=binary)");
    if (cli.has("fused"))
        throw ContractViolation(
            "--fused selects the binary stack's 64-lane trial plane; the "
            "standalone coin workload has no fused plane (drop the flag or "
            "use --workload=binary)");
    sim::CoinScenario s;
    s.n = cli.get_uint<NodeId>("n", 256);
    s.designated = cli.get_uint<NodeId>("k", s.n);  // == n: Algorithm 1
    s.f = cli.get_uint<Count>("f", 0);
    s.attack = sim::coin_attacks().at(cli.get("attack", "split")).kind;
    s.forced_bit = cli.get_uint<Bit>("forced_bit", 0);
    const auto [trials, seed, exec] = run_flags(cli, 2000);

    std::string label = "n=" + std::to_string(s.n) + " k=" +
                        std::to_string(s.designated) + " f=" + std::to_string(s.f) +
                        " attack=" + sim::to_string(s.attack);
    if (s.attack == adv::CoinAttack::ForceBit)
        label += " forced_bit=" + std::to_string(int(s.forced_bit));
    std::printf("coin scenario: %s, %u trials, %u threads\n", label.c_str(), trials,
                sim::default_threads());

    // Infeasible (n, k) throws the why_incompatible message here.
    const sim::CoinAggregate agg = sim::run_coin_trials(s, seed, trials, exec);
    Table table("adba_sim: common-coin result");
    table.set_header({"n", "k", "f", "attack", "P(common)", "P(1|common)",
                      "attack feasible %"});
    table.add_row({Table::num(static_cast<std::uint64_t>(s.n)),
                   Table::num(static_cast<std::uint64_t>(s.designated)),
                   Table::num(static_cast<std::uint64_t>(s.f)),
                   sim::to_string(s.attack), Table::num(agg.p_common(), 3),
                   Table::num(agg.p_one_given_common(), 3),
                   Table::num(pct(agg.attack_feasible, agg.trials - agg.faulted), 1)});
    table.print(std::cout);
    maybe_csv(cli, sim::csv_table("adba_sim: common-coin result", {{label, agg}}),
              "adba_sim_coin");
    return 0;
}

int run_macro(const Cli& cli) {
    if (cli.has("fused"))
        throw ContractViolation(
            "--fused selects the binary stack's 64-lane trial plane; the "
            "macro asymptotic simulator steps counts, not bit planes (drop "
            "the flag or use --workload=binary)");
    sim::MacroScenario s;
    s.n = cli.get_uint<std::uint64_t>("n", 1 << 16);
    s.t = cli.get_uint<std::uint64_t>("t", 256);
    s.q = cli.has("q") ? cli.get_uint<std::uint64_t>("q", 0) : s.t;
    s.schedule = sim::macro_schedules().at(cli.get("schedule", "ours")).kind;
    const auto [trials, seed, exec] = run_flags(cli, 50);

    const std::string label = "n=" + std::to_string(s.n) + " t=" +
                              std::to_string(s.t) + " q=" + std::to_string(s.q) +
                              " " + sim::to_string(s.schedule);
    std::printf("macro scenario: %s, %u trials, %u threads\n", label.c_str(), trials,
                sim::default_threads());

    const sim::MacroAggregate agg = sim::run_macro_trials(s, seed, trials, exec);
    const Count ran = agg.trials - agg.faulted;
    const bool have = !agg.rounds.empty();
    Table table("adba_sim: macro result");
    table.set_header({"schedule", "agree %", "mean rounds", "p90 rounds",
                      "mean phases", "mean corruptions"});
    table.add_row({sim::to_string(s.schedule),
                   Table::num(pct(ran - agg.agreement_failures, ran), 1),
                   Table::num(have ? agg.rounds.mean() : 0.0, 1),
                   Table::num(have ? agg.rounds.quantile(0.9) : 0.0, 1),
                   Table::num(have ? agg.phases.mean() : 0.0, 1),
                   Table::num(have ? agg.corruptions.mean() : 0.0, 1)});
    table.print(std::cout);
    maybe_csv(cli, sim::csv_table("adba_sim: macro result", {{label, agg}}),
              "adba_sim_macro");
    return 0;
}

int run_binary(const Cli& cli) {
    const auto& protocols = sim::ProtocolRegistry::instance();

    sim::Scenario s;
    if (cli.has("scenario")) s = sim::Scenario::parse(cli.get("scenario", ""));
    if (s.n == 0) s.n = 64;
    apply_key_flags(cli, sim::scenario_keys(), s);
    if (!cli.has("scenario")) {
        const sim::ProtocolEntry& proto = protocols.at(s.protocol);
        if (!cli.has("adversary")) s.adversary = proto.strongest;  // default pairing
        if (!cli.has("t")) {
            // Largest budget the protocol's resilience predicate admits at n.
            s.t = (s.n - 1) / 3;
            while (s.t > 0 && !proto.supports(s.n, s.t)) --s.t;
        }
    }

    const auto [trials, seed, exec] = run_flags(cli, 20);

    const sim::ScenarioPlan plan = sim::BinaryWorkload::make_plan(s);
    const sim::BudgetHint budget = plan.protocol->budgets(s);
    std::printf("scenario: %s\n", s.describe().c_str());
    std::printf("phase budget %u, round cap %u, %u trials, %u threads\n", budget.phases,
                budget.max_rounds, trials, sim::default_threads());
    // On stderr: the CI smokes diff stdout across --fused=on|off.
    const auto fused_skip = sim::fused_skip_reason(plan, trials, exec);
    std::fprintf(stderr, "fused: %s\n",
                 fused_skip ? ("off (" + *fused_skip + ")").c_str() : "on");

    const sim::Aggregate agg = sim::run_trials(plan, seed, trials, exec);
    // Faulted trials ran no protocol: exclude them from every rate's
    // denominator and guard the Samples reads (empty when all faulted).
    const Count ran = agg.trials - agg.faulted;
    const bool have = !agg.rounds.empty();
    Table table("adba_sim: " + plan.protocol->name + " vs " + plan.adversary->name);
    table.set_header({"protocol", "adversary", "agree %", "validity", "mean rounds",
                      "p90 rounds", "max rounds", "mean msgs", "mean corruptions"});
    table.add_row({sim::to_string(s.protocol), sim::to_string(s.adversary),
                   Table::num(pct(ran - agg.agreement_failures, ran), 1),
                   agg.validity_failures == 0 ? "ok" : "VIOLATED",
                   Table::num(have ? agg.rounds.mean() : 0.0, 1),
                   Table::num(have ? agg.rounds.quantile(0.9) : 0.0, 1),
                   Table::num(have ? agg.rounds.max() : 0.0, 0),
                   Table::num(have ? agg.messages.mean() : 0.0, 0),
                   Table::num(have ? agg.corruptions.mean() : 0.0, 1)});
    table.print(std::cout);
    maybe_csv(cli, sim::csv_table("adba_sim: " + plan.protocol->name + " vs " +
                                      plan.adversary->name,
                                  {{s.describe(), agg}}),
              "adba_sim_" + plan.protocol->name + "_" + plan.adversary->name);
    return agg.validity_failures == 0 ? 0 : 1;
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
    Kind kind = sim::workloads().at(cli.get("workload", "binary")).kind;
    // Back-compat: --protocol=<a name of the mv workload> (turpin-coan,
    // multivalued, mv) selected the mv stack before --workload existed.
    // Only run_binary reads --protocol, so query it only when routing
    // there — passing it to the coin/macro/mv workloads must fail
    // strict-mode, not be dropped.
    if (kind == Kind::Binary) {
        const auto* named = sim::workloads().find(cli.get("protocol", ""));
        if (named != nullptr && named->kind == Kind::Mv) kind = Kind::Mv;
    }
    const int rc = kind == Kind::Mv      ? run_multivalued(cli)
                   : kind == Kind::Coin  ? run_coin(cli)
                   : kind == Kind::Macro ? run_macro(cli)
                                         : run_binary(cli);
    if (faults_armed)
        std::printf("%s\n", sim::FaultInjector::stats_line().c_str());
    return rc;
}

int main(int argc, char** argv) { return adba::run_main(argc, argv, run); }
