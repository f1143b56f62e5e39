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
// Flags: --workload --protocol --adversary --inputs --n --t --q --trials
//        --seed --threads --intra_threads --csv_dir --scenario --alpha
//        --gamma --beta --phases --kappa --max_rounds --transcript
//        --reference --batch=on|off --shard=on|off --simd=on|off
//        --plane=flat|sparse --sample_degree --sparse_seed
//        --sparse_stream=chain|counter --fused=on|off --las_vegas --fallback
//        --k --f --attack --forced_bit --schedule --list
//        --watchdog_ms --chunk --checkpoint --resume
//        --faults="key=value ..." --mem_budget_mb --help
// Unknown flags (and unknown workload/protocol/adversary names) exit 2 with
// did-you-mean suggestions (Cli strict mode + registry lookups); --help
// lists the flags the selected workload reads.
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
    for (const auto& w : sim::workloads())
        wt.add_row({w.name, join(w.aliases), w.scenario, w.grid, w.summary});
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

    std::printf("Input patterns: all-zero, all-one, split, random "
                "(multi-valued: all-same, two-blocks, all-distinct, random, "
                "near-quorum).\n"
                "Coin attacks (--workload=coin): split, force-bit. "
                "Macro schedules (--workload=macro): ours, cc-rushing, "
                "cc-classic.\n");
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

/// Per-run executor knobs shared by every driver: --chunk fixes the work
/// unit (0 = auto), --checkpoint=path arms the chunk journal, --resume
/// loads completed chunks from it instead of re-running them.
sim::ExecutorConfig exec_config(const Cli& cli) {
    sim::ExecutorConfig exec;
    exec.chunk = cli.get_uint<Count>("chunk", 0);
    exec.checkpoint = cli.get("checkpoint", "");
    exec.resume = cli.get_bool("resume", false);
    if (exec.resume && exec.checkpoint.empty())
        throw ContractViolation(
            "--resume resumes a chunk journal and needs --checkpoint=path "
            "pointing at the journal of the interrupted run");
    return exec;
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
    if (cli.has("n") || s.n == 0) s.n = cli.get_uint<NodeId>("n", 96);
    if (cli.has("t"))
        s.t = cli.get_uint<Count>("t", 0);
    else if (!cli.has("scenario"))
        s.t = (s.n - 1) / 3;
    if (cli.has("q")) s.q = cli.get_uint<Count>("q", 0);
    if (cli.has("inputs")) s.inputs = sim::parse_mv_input_pattern(cli.get("inputs", ""));
    if (cli.has("adversary"))
        s.adversary =
            sim::MvAdversaryRegistry::instance().at(cli.get("adversary", "")).kind;
    if (cli.has("alpha")) s.tuning.alpha = cli.get_double("alpha", s.tuning.alpha);
    if (cli.has("gamma")) s.tuning.gamma = cli.get_double("gamma", s.tuning.gamma);
    if (cli.has("beta")) s.tuning.beta = cli.get_double("beta", s.tuning.beta);
    if (cli.has("las_vegas")) s.las_vegas = cli.get_bool("las_vegas", false);
    if (cli.has("fallback"))
        s.fallback = cli.get_uint<net::Word>("fallback", 0);
    if (cli.has("reference")) s.reference_delivery = cli.get_bool("reference", false);
    if (cli.has("simd")) s.use_simd = cli.get_bool("simd", true);
    if (cli.has("watchdog_ms"))
        s.watchdog_ms = cli.get_uint<std::uint32_t>("watchdog_ms", 0);
    const auto trials = cli.get_uint<Count>("trials", 20);
    const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
    const sim::ExecutorConfig exec = exec_config(cli);
    cli.get("csv_dir", "");  // queried late by maybe_csv; recognize it now
    cli.check_unused();      // fail on typos BEFORE burning trial time

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
    s.attack = sim::parse_coin_attack(cli.get("attack", "split"));
    s.forced_bit = cli.get_uint<Bit>("forced_bit", 0);
    const auto trials = cli.get_uint<Count>("trials", 2000);
    const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
    const sim::ExecutorConfig exec = exec_config(cli);
    cli.get("csv_dir", "");
    cli.check_unused();

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
    s.schedule = sim::parse_macro_schedule(cli.get("schedule", "ours"));
    const auto trials = cli.get_uint<Count>("trials", 50);
    const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
    const sim::ExecutorConfig exec = exec_config(cli);
    cli.get("csv_dir", "");
    cli.check_unused();

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
    if (cli.has("protocol")) s.protocol = protocols.at(cli.get("protocol", "")).kind;
    const sim::ProtocolEntry& proto = protocols.at(s.protocol);
    if (cli.has("adversary"))
        s.adversary = sim::AdversaryRegistry::instance().at(cli.get("adversary", "")).kind;
    else if (!cli.has("scenario"))
        s.adversary = proto.strongest;  // per-protocol default pairing
    if (cli.has("inputs")) s.inputs = sim::parse_input_pattern(cli.get("inputs", ""));
    if (cli.has("n") || s.n == 0) s.n = cli.get_uint<NodeId>("n", 64);
    if (cli.has("t")) {
        s.t = cli.get_uint<Count>("t", 0);
    } else if (!cli.has("scenario")) {
        // Largest budget the protocol's resilience predicate admits at n.
        s.t = (s.n - 1) / 3;
        while (s.t > 0 && !proto.supports(s.n, s.t)) --s.t;
    }
    if (cli.has("q")) s.q = cli.get_uint<Count>("q", 0);
    if (cli.has("alpha")) s.tuning.alpha = cli.get_double("alpha", s.tuning.alpha);
    if (cli.has("gamma")) s.tuning.gamma = cli.get_double("gamma", s.tuning.gamma);
    if (cli.has("beta")) s.tuning.beta = cli.get_double("beta", s.tuning.beta);
    if (cli.has("phases"))
        s.local_coin_phases = cli.get_uint<Count>("phases", 64);
    if (cli.has("kappa")) s.sampling_kappa = cli.get_double("kappa", s.sampling_kappa);
    if (cli.has("max_rounds"))
        s.max_rounds_override = cli.get_uint<Round>("max_rounds", 0);
    if (cli.has("transcript"))
        s.record_transcript = cli.get_bool("transcript", false);
    if (cli.has("reference")) s.reference_delivery = cli.get_bool("reference", false);
    // --batch=on|off: native SoA batch stepping vs the per-node reference
    // path (mirrors the scenario key `batch`). --shard / --simd are the
    // same shape for the intra-trial shard and packed-tally toggles;
    // --intra_threads (read in main via init_intra_threads) sets the
    // process-wide shard-count default the scenario key can override.
    if (cli.has("batch")) s.use_batch = cli.get_bool("batch", true);
    if (cli.has("shard")) s.use_shard = cli.get_bool("shard", true);
    if (cli.has("simd")) s.use_simd = cli.get_bool("simd", true);
    // --plane=flat|sparse selects the delivery plane; --sample_degree sets
    // the per-receiver sampled senders under sparse (0 = plane default);
    // --sparse_seed picks the topology stream and --sparse_stream the
    // frozen sample-derivation version (mirroring the scenario keys).
    if (cli.has("plane")) s.sparse_plane = sim::parse_plane_name(cli.get("plane", ""));
    if (cli.has("sample_degree"))
        s.sample_degree = cli.get_uint<Count>("sample_degree", 0);
    if (cli.has("sparse_seed"))
        s.sparse_seed = cli.get_uint<std::uint64_t>("sparse_seed", 0);
    if (cli.has("sparse_stream"))
        s.sparse_stream = sim::parse_sparse_stream_name(cli.get("sparse_stream", ""));
    // --fused=on|off: co-execute 64 trials per machine word through the
    // fused trial plane where the plan can (scenario key `fused`, on by
    // default); off keeps the scalar oracle. The decision and its reason go
    // to stderr below.
    if (cli.has("fused")) s.use_fused = cli.get_bool("fused", true);
    if (cli.has("watchdog_ms"))
        s.watchdog_ms = cli.get_uint<std::uint32_t>("watchdog_ms", 0);

    const auto trials = cli.get_uint<Count>("trials", 20);
    const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
    const sim::ExecutorConfig exec = exec_config(cli);
    cli.get("csv_dir", "");  // queried late by maybe_csv; recognize it now
    cli.check_unused();      // fail on typos BEFORE burning trial time

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
    std::string name = sim::workload_at(cli.get("workload", "binary")).name;
    // Back-compat: --protocol=turpin-coan/multivalued/mv selected the mv
    // stack before --workload existed. Only run_binary reads --protocol,
    // so query it only when routing there — passing it to the coin/macro/
    // mv workloads must fail strict-mode, not be dropped.
    if (name == "binary") {
        const std::string protocol = cli.get("protocol", "");
        if (protocol == "turpin-coan" || protocol == "multivalued" ||
            protocol == "mv")
            name = "mv";
    }
    int rc;
    if (name == "mv") rc = run_multivalued(cli);
    else if (name == "coin") rc = run_coin(cli);
    else if (name == "macro") rc = run_macro(cli);
    else rc = run_binary(cli);
    if (faults_armed)
        std::printf("%s\n", sim::FaultInjector::stats_line().c_str());
    return rc;
}

int main(int argc, char** argv) { return adba::run_main(argc, argv, run); }
