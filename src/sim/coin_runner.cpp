#include "sim/coin_runner.hpp"

#include <optional>
#include <utility>

#include "core/common_coin.hpp"
#include "net/engine.hpp"
#include "rand/seed_tree.hpp"
#include "support/contracts.hpp"
#include "support/table.hpp"

namespace adba::sim {

/// Per-chunk reusable coin-trial state (pooled nodes + engine); run() is
/// bit-identical to the one-shot run_coin_trial path.
class CoinWorkload::Arena {
public:
    explicit Arena(const CoinScenario& s) : s_(s) {
        ADBA_EXPECTS(s.designated >= 1 && s.designated <= s.n);
    }

    CoinTrial run(std::uint64_t seed) {
        const SeedTree seeds(seed);
        core::arm_coin_nodes({s_.n, s_.designated}, seeds, nodes_);

        adv::CoinRuinAdversary adversary(
            adv::CoinRuinConfig{s_.designated, s_.f, s_.attack, s_.forced_bit});

        net::EngineConfig ecfg;
        ecfg.n = s_.n;
        ecfg.budget = s_.f;
        ecfg.max_rounds = 1;
        if (engine_) {
            engine_->reset(ecfg, std::move(nodes_), adversary);
        } else {
            engine_.emplace(ecfg, std::move(nodes_), adversary);
        }
        const net::RunResult run = engine_->run();
        nodes_ = engine_->take_nodes();

        CoinTrial out;
        out.common = run.agreement();
        if (out.common) {
            if (const auto v = run.agreed_value()) out.value = *v;
        }
        out.attack_feasible = adversary.attack_feasible();
        // Coin nodes self-halt after their single round, so the engine can
        // only report Decided here; carry it anyway so the taxonomy flows
        // through this workload like every other.
        out.outcome = run.outcome;
        return out;
    }

private:
    CoinScenario s_;
    std::vector<std::unique_ptr<net::HonestNode>> nodes_;
    std::optional<net::Engine> engine_;
};

void CoinWorkload::accumulate(CoinAggregate& agg, const CoinTrial& r) {
    if (r.outcome == TrialOutcome::Faulted) {
        ++agg.faulted;
        return;
    }
    if (r.common) {
        ++agg.common;
        if (r.value == 1) ++agg.common_ones;
    }
    if (r.attack_feasible) ++agg.attack_feasible;
}

std::vector<std::string> CoinWorkload::csv_header() {
    return {"trials", "faulted", "p_common", "p_one_given_common",
            "attack_feasible_pct"};
}

std::vector<std::string> CoinWorkload::csv_row(const CoinAggregate& agg) {
    const Count ran = agg.trials - agg.faulted;
    const double feasible =
        ran == 0 ? 0.0
                 : 100.0 * static_cast<double>(agg.attack_feasible) /
                       static_cast<double>(ran);
    return {Table::num(static_cast<std::uint64_t>(agg.trials)),
            Table::num(static_cast<std::uint64_t>(agg.faulted)),
            Table::num(agg.p_common(), 4), Table::num(agg.p_one_given_common(), 4),
            Table::num(feasible, 2)};
}

std::optional<std::string> why_incompatible(const CoinScenario& s) {
    if (s.n == 0) return std::string("coin scenario needs n > 0");
    if (s.designated < 1 || s.designated > s.n)
        return "coin scenario needs 1 <= k <= n designated flippers (got k=" +
               std::to_string(s.designated) + ", n=" + std::to_string(s.n) +
               "); drop k to default to n (Algorithm 1)";
    if (s.f > s.n)
        return "coin scenario needs f <= n corruptions (got f=" + std::to_string(s.f) +
               ", n=" + std::to_string(s.n) + ")";
    if (s.forced_bit > 1)
        return "coin scenario needs forced_bit in {0, 1} (got forced_bit=" +
               std::to_string(s.forced_bit) + ")";
    return std::nullopt;
}

bool compatible(const CoinScenario& s) { return !why_incompatible(s).has_value(); }

CoinTrial run_coin_trial(const CoinScenario& s, std::uint64_t seed) {
    if (const auto why = why_incompatible(s)) throw ContractViolation(*why);
    return run_one_trial<CoinWorkload>(s, seed);
}

CoinAggregate run_coin_trials(const CoinScenario& s, std::uint64_t base_seed,
                              Count trials, const ExecutorConfig& exec) {
    if (const auto why = why_incompatible(s)) throw ContractViolation(*why);
    return run_trials<CoinWorkload>(s, base_seed, trials, exec);
}

double CoinAggregate::p_common() const {
    const Count ran = trials - faulted;  // faulted trials flipped no coin
    return ran == 0 ? 0.0 : static_cast<double>(common) / ran;
}

double CoinAggregate::p_one_given_common() const {
    return common == 0 ? 0.0 : static_cast<double>(common_ones) / common;
}

const Names<adv::CoinAttack>& coin_attacks() {
    static const Names<adv::CoinAttack> table(
        "coin attack", {{adv::CoinAttack::Split, "split"},
                        {adv::CoinAttack::ForceBit, "force-bit", {"forcebit", "force"}}});
    return table;
}

std::string to_string(adv::CoinAttack attack) { return coin_attacks().at(attack).display; }

const std::vector<SpecKey<CoinScenario>>& coin_scenario_keys() {
    using S = CoinScenario;
    using R = KeyRole;
    static const std::vector<SpecKey<S>> keys = {
        spec_field("n", R::Identity, &S::n),
        spec_field("k", R::Identity, &S::designated),
        spec_field("f", R::Identity, &S::f),
        spec_name("attack", R::Identity, &S::attack, &coin_attacks),
        spec_field("forced_bit", R::Result, &S::forced_bit),
    };
    return keys;
}

CoinScenario CoinScenario::parse(const std::string& spec) {
    return parse_spec(coin_scenario_keys(), "coin scenario", spec);
}

std::string CoinScenario::describe() const { return describe_spec(coin_scenario_keys(), *this); }

}  // namespace adba::sim
