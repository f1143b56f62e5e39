#include "sim/sweep.hpp"

#include <cmath>
#include <optional>

#include "sim/registry.hpp"
#include "support/contracts.hpp"
#include "support/table.hpp"

namespace adba::sim {

namespace {

using detail::GridAxis;
using detail::GridValue;

/// Independent axis helper: a fixed value list (or the base value when the
/// list is empty — not swept), each choice setting one field and labeling
/// via `label_of` (empty result = silent). Pass `swept` explicitly when the
/// not-swept case still supplies a one-element value list (the q axis).
template <typename Row, typename T, typename Set, typename Label>
GridAxis<Row> fixed_axis(const std::vector<T>& values, T base_value, Set set,
                         Label label_of,
                         std::optional<bool> swept_override = std::nullopt) {
    const bool swept = swept_override.value_or(!values.empty());
    std::vector<GridValue<Row>> choices;
    for (const T& v : values.empty() ? std::vector<T>{base_value} : values)
        choices.push_back({[set, v](Row& r) { set(r, v); }, label_of(v)});
    return {[choices](const Row&) { return choices; }, swept};
}

/// Runs each row's trials at its stable seed, in enumeration order — the one
/// sweep loop behind run_sweep / run_coin_sweep.
template <typename Outcome, typename Row, typename Runner>
std::vector<Outcome> run_rows(const std::vector<Row>& rows, std::uint64_t base_seed,
                              Count trials, const ExecutorConfig& exec,
                              const Runner& runner) {
    std::vector<Outcome> out;
    out.reserve(rows.size());
    for (const Row& row : rows)
        out.push_back(
            Outcome{row, runner(row.scenario, row_seed(base_seed, row.index), trials,
                                exec)});
    return out;
}

}  // namespace

std::uint64_t row_seed(std::uint64_t base_seed, std::size_t row_index) {
    return mix64(base_seed ^ mix64(0x5157454550ULL + row_index));  // "SWEEP"
}

AdversaryKind strongest_adversary(ProtocolKind protocol) {
    return ProtocolRegistry::instance().at(protocol).strongest;
}

std::vector<SweepRow> SweepGrid::rows() const {
    using Row = SweepRow;
    std::vector<GridAxis<Row>> axes;

    axes.push_back(fixed_axis<Row>(
        ns, base.n, [](Row& r, NodeId n) { r.scenario.n = n; },
        [](NodeId n) { return "n=" + std::to_string(n); }));

    // t axis: derived per n when t_of_n is set, a fixed list otherwise.
    if (t_of_n) {
        const auto derive = t_of_n;
        axes.push_back({[derive](const Row& row) {
                            const Count t = derive(row.scenario.n);
                            return std::vector<GridValue<Row>>{
                                {[t](Row& r) { r.scenario.t = t; },
                                 "t=" + std::to_string(t)}};
                        },
                        true});
    } else {
        axes.push_back(fixed_axis<Row>(
            ts, base.t, [](Row& r, Count t) { r.scenario.t = t; },
            [](Count t) { return "t=" + std::to_string(t); }));
    }

    // q axis: empty = inherit base.q once (silently).
    std::vector<std::optional<Count>> q_values;
    if (qs.empty()) {
        q_values.push_back(base.q);
    } else {
        for (const Count q : qs) q_values.emplace_back(q);
    }
    axes.push_back(fixed_axis<Row>(
        q_values, base.q, [](Row& r, std::optional<Count> q) { r.scenario.q = q; },
        [](std::optional<Count> q) {
            return q ? "q=" + std::to_string(*q) : std::string();
        },
        /*swept=*/!qs.empty()));

    axes.push_back(fixed_axis<Row>(
        protocols, base.protocol,
        [](Row& r, ProtocolKind p) { r.scenario.protocol = p; },
        [](ProtocolKind p) { return to_string(p); }));

    // adversary axis: derived per protocol when adversary_of is set.
    if (adversary_of) {
        const auto derive = adversary_of;
        axes.push_back({[derive](const Row& row) {
                            const AdversaryKind a = derive(row.scenario.protocol);
                            return std::vector<GridValue<Row>>{
                                {[a](Row& r) { r.scenario.adversary = a; },
                                 to_string(a)}};
                        },
                        true});
    } else {
        axes.push_back(fixed_axis<Row>(
            adversaries, base.adversary,
            [](Row& r, AdversaryKind a) { r.scenario.adversary = a; },
            [](AdversaryKind a) { return to_string(a); }));
    }

    axes.push_back(fixed_axis<Row>(
        inputs, base.inputs, [](Row& r, InputPattern i) { r.scenario.inputs = i; },
        [](InputPattern i) { return to_string(i); }));

    axes.push_back(fixed_axis<Row>(
        tunings, base.tuning,
        [](Row& r, const core::Tuning& u) { r.scenario.tuning = u; },
        [](const core::Tuning& u) {
            return "alpha=" + Table::num(u.alpha, 1) + ",gamma=" +
                   Table::num(u.gamma, 1);
        }));

    Row base_row;
    base_row.scenario = base;
    const auto& keep = filter;
    return detail::enumerate_grid(base_row, axes, [&keep](const Row& r) {
        return !keep || keep(r.scenario);
    });
}

std::vector<SweepOutcome> run_sweep(const SweepGrid& grid, std::uint64_t base_seed,
                                    Count trials, const ExecutorConfig& exec) {
    return run_rows<SweepOutcome>(
        grid.rows(), base_seed, trials, exec,
        [](const Scenario& s, std::uint64_t seed, Count n, const ExecutorConfig& e) {
            return run_trials(s, seed, n, e);
        });
}

std::vector<CoinSweepRow> CoinSweepGrid::rows() const {
    using Row = CoinSweepRow;
    ADBA_EXPECTS_MSG(!ns.empty(), "coin sweep needs at least one network size");
    ADBA_EXPECTS_MSG(!f_ratios.empty() || !fs.empty(),
                     "coin sweep needs a budget axis (f_ratios or fs)");
    ADBA_EXPECTS_MSG(f_ratios.empty() || fs.empty(),
                     "give the budget either as ratios or explicit values, not both");

    std::vector<GridAxis<Row>> axes;
    axes.push_back(fixed_axis<Row>(
        ns, NodeId{0}, [](Row& r, NodeId n) { r.scenario.n = n; },
        [](NodeId n) { return "n=" + std::to_string(n); }));

    // k axis: empty = all n nodes flip (Algorithm 1) — derived from n.
    const std::vector<NodeId>& ks_ref = ks;
    axes.push_back({[&ks_ref](const Row& row) {
                        std::vector<GridValue<Row>> choices;
                        const std::vector<NodeId> k_values =
                            ks_ref.empty() ? std::vector<NodeId>{row.scenario.n}
                                           : ks_ref;
                        for (const NodeId k : k_values)
                            choices.push_back(
                                {[k](Row& r) { r.scenario.designated = k; },
                                 "k=" + std::to_string(k)});
                        return choices;
                    },
                    true});

    // Budget axis: ratios scale with sqrt(k) of the committee the k axis
    // chose; explicit budgets are used verbatim (f_ratio back-derived).
    const std::vector<double>& ratios_ref = f_ratios;
    const std::vector<Count>& fs_ref = fs;
    axes.push_back({[&ratios_ref, &fs_ref](const Row& row) {
                        const double sqrt_k =
                            std::sqrt(static_cast<double>(row.scenario.designated));
                        std::vector<GridValue<Row>> choices;
                        if (ratios_ref.empty()) {
                            for (const Count f : fs_ref) {
                                const double ratio = sqrt_k > 0.0 ? f / sqrt_k : 0.0;
                                choices.push_back({[f, ratio](Row& r) {
                                                       r.scenario.f = f;
                                                       r.f_ratio = ratio;
                                                   },
                                                   "f=" + std::to_string(f)});
                            }
                        } else {
                            for (const double ratio : ratios_ref) {
                                const auto f = static_cast<Count>(
                                    std::lround(ratio * sqrt_k));
                                choices.push_back({[f, ratio](Row& r) {
                                                       r.scenario.f = f;
                                                       r.f_ratio = ratio;
                                                   },
                                                   "f=" + std::to_string(f)});
                            }
                        }
                        return choices;
                    },
                    true});

    Row base_row;
    base_row.scenario.attack = attack;
    base_row.scenario.forced_bit = forced_bit;
    // k > n rows are skipped, but their index slots are consumed.
    return detail::enumerate_grid(base_row, axes, [](const Row& r) {
        return r.scenario.designated <= r.scenario.n;
    });
}

std::vector<CoinSweepOutcome> run_coin_sweep(const CoinSweepGrid& grid,
                                             std::uint64_t base_seed, Count trials,
                                             const ExecutorConfig& exec) {
    return run_rows<CoinSweepOutcome>(
        grid.rows(), base_seed, trials, exec,
        [](const CoinScenario& s, std::uint64_t seed, Count n,
           const ExecutorConfig& e) { return run_coin_trials(s, seed, n, e); });
}

}  // namespace adba::sim
