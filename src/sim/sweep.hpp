// Declarative scenario sweeps: a grid over Scenario axes (and the coin
// analogue) that yields labeled scenario rows in a fixed
// enumeration order and feeds them through the workload-generic kernel.
//
// This replaces the copy-pasted nested loops of the bench binaries: a bench
// states WHICH axes it sweeps; enumeration order, labeling, per-row seeding,
// and parallel trial execution live here. Row seeds are derived from
// (base_seed, row index in the FULL cross product), so adding a filter or
// reading only part of the outcomes never shifts another row's randomness.
//
// Both typed grids (SweepGrid, CoinSweepGrid) are thin axis declarations
// over ONE generic enumerator (detail::enumerate_grid):
// an axis yields its value choices from the partially-built row — which is
// how derived axes (t_of_n, adversary_of, ratio budgets that scale with the
// committee) read what outer axes already set — and each choice mutates the
// row and contributes a label part when the axis is swept.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/coin_runner.hpp"
#include "sim/executor.hpp"
#include "sim/runner.hpp"

namespace adba::sim {

/// Deterministic per-row seed: avalanche of the base seed and the row's
/// position in the unfiltered cross product.
std::uint64_t row_seed(std::uint64_t base_seed, std::size_t row_index);

namespace detail {

/// One value choice of a grid axis: mutates the row (scenario fields and/or
/// row metadata like CoinSweepRow::f_ratio) and contributes a label part
/// (empty = nothing to say, e.g. an unset optional).
template <typename Row>
struct GridValue {
    std::function<void(Row&)> set;
    std::string label;
};

/// One axis: yields the choices for a row given everything outer axes
/// already set. `swept` controls whether the choices' labels are appended.
template <typename Row>
struct GridAxis {
    std::function<std::vector<GridValue<Row>>(const Row&)> values;
    bool swept = true;
};

/// THE grid enumerator: fixed-order cross product over `axes` (axis 0
/// outermost) with stable indices. Every leaf of the FULL product consumes
/// an index slot; rows for which `keep` returns false are dropped without
/// shifting any other row's index (and thus seed). Swept axes append their
/// label parts in axis order, space-separated.
template <typename Row, typename Filter>
std::vector<Row> enumerate_grid(const Row& base,
                                const std::vector<GridAxis<Row>>& axes,
                                const Filter& keep) {
    std::vector<Row> out;
    std::size_t index = 0;
    auto rec = [&](auto&& self, std::size_t depth, const Row& row) -> void {
        if (depth == axes.size()) {
            Row leaf = row;
            leaf.index = index++;
            if (!keep(leaf)) return;
            out.push_back(std::move(leaf));
            return;
        }
        for (const GridValue<Row>& v : axes[depth].values(row)) {
            Row next = row;
            if (v.set) v.set(next);
            if (axes[depth].swept && !v.label.empty()) {
                if (!next.label.empty()) next.label += ' ';
                next.label += v.label;
            }
            self(self, depth + 1, next);
        }
    };
    rec(rec, 0, base);
    return out;
}

}  // namespace detail

// ------------------------------------------------------------ engine sweeps

struct SweepRow {
    Scenario scenario;
    std::string label;      ///< swept-axis values, e.g. "n=256 t=16 ours(alg3)"
    std::size_t index = 0;  ///< position in the full (unfiltered) enumeration
};

/// Cross product over Scenario axes. Empty axes pin the base scenario's
/// value; `t_of_n` / `adversary_of` derive one axis from another (e.g. each
/// protocol against its strongest adversary). Enumeration order is fixed:
/// n (outermost) -> t -> q -> protocol -> adversary -> inputs -> tuning.
struct SweepGrid {
    Scenario base;

    std::vector<NodeId> ns;
    std::vector<Count> ts;
    std::function<Count(NodeId)> t_of_n;  ///< overrides ts when set
    std::vector<Count> qs;                ///< actual-corruption axis
    std::vector<ProtocolKind> protocols;
    std::vector<AdversaryKind> adversaries;
    std::function<AdversaryKind(ProtocolKind)> adversary_of;  ///< overrides adversaries
    std::vector<InputPattern> inputs;
    std::vector<core::Tuning> tunings;

    /// Rows for which this returns false are dropped (their index — and thus
    /// every other row's seed — is unaffected).
    std::function<bool(const Scenario&)> filter;

    std::vector<SweepRow> rows() const;
};

struct SweepOutcome {
    SweepRow row;
    Aggregate agg;
};

/// Runs `trials` per row on the executor; rows execute in enumeration order.
std::vector<SweepOutcome> run_sweep(const SweepGrid& grid, std::uint64_t base_seed,
                                    Count trials, const ExecutorConfig& exec = {});

/// The strongest implemented adversary for each protocol, read from the
/// protocol registry's capability metadata (registry.hpp).
AdversaryKind strongest_adversary(ProtocolKind protocol);

// -------------------------------------------------------------- coin sweeps

struct CoinSweepRow {
    CoinScenario scenario;
    std::string label;
    double f_ratio = 0.0;   ///< f / sqrt(k) when the ratio axis produced f
    std::size_t index = 0;  ///< position in the full enumeration
};

/// Grid over the common-coin experiments: network size n, committee size k
/// (empty = all n nodes flip), and the corruption budget, given either as
/// f = round(ratio * sqrt(k)) — the paper's natural parameterization — or as
/// explicit budgets. Rows with k > n are skipped. Enumeration order:
/// n -> k -> budget.
struct CoinSweepGrid {
    std::vector<NodeId> ns;
    std::vector<NodeId> ks;        ///< empty = {n} (Algorithm 1)
    std::vector<double> f_ratios;  ///< f = lround(ratio * sqrt(k))
    std::vector<Count> fs;         ///< explicit budgets; used when f_ratios empty
    adv::CoinAttack attack = adv::CoinAttack::Split;
    Bit forced_bit = 0;

    std::vector<CoinSweepRow> rows() const;
};

struct CoinSweepOutcome {
    CoinSweepRow row;
    CoinAggregate agg;
};

std::vector<CoinSweepOutcome> run_coin_sweep(const CoinSweepGrid& grid,
                                             std::uint64_t base_seed, Count trials,
                                             const ExecutorConfig& exec = {});

}  // namespace adba::sim
