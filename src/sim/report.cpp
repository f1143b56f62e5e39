#include "sim/report.hpp"

namespace adba::sim {

namespace {

/// The one schema: label column + the workload's columns, one row per
/// entry. `label_of`/`agg_of` read each entry in place — no aggregate
/// copies at CSV-write time.
template <typename W, typename Rows, typename LabelOf, typename AggOf>
Table build_table(const std::string& title, const Rows& rows, LabelOf label_of,
                  AggOf agg_of) {
    Table t(title);
    std::vector<std::string> header{"label"};
    const std::vector<std::string> cols = W::csv_header();
    header.insert(header.end(), cols.begin(), cols.end());
    t.set_header(std::move(header));
    for (const auto& entry : rows) {
        std::vector<std::string> row{label_of(entry)};
        const std::vector<std::string> vals = W::csv_row(agg_of(entry));
        row.insert(row.end(), vals.begin(), vals.end());
        t.add_row(std::move(row));
    }
    return t;
}

template <typename W, typename Outcome>
Table outcome_table(const std::string& title, const std::vector<Outcome>& outcomes) {
    return build_table<W>(
        title, outcomes, [](const Outcome& o) { return o.row.label; },
        [](const Outcome& o) -> const auto& { return o.agg; });
}

template <typename W>
Table pair_table(const std::string& title,
                 const std::vector<std::pair<std::string,
                                             typename W::Aggregate>>& rows) {
    using Pair = std::pair<std::string, typename W::Aggregate>;
    return build_table<W>(
        title, rows, [](const Pair& p) { return p.first; },
        [](const Pair& p) -> const auto& { return p.second; });
}

}  // namespace

Table sweep_csv_table(const std::string& title,
                      const std::vector<SweepOutcome>& outcomes) {
    return outcome_table<BinaryWorkload>(title, outcomes);
}

Table sweep_csv_table(const std::string& title,
                      const std::vector<CoinSweepOutcome>& outcomes) {
    return outcome_table<CoinWorkload>(title, outcomes);
}

Table csv_table(const std::string& title,
                const std::vector<std::pair<std::string, Aggregate>>& rows) {
    return pair_table<BinaryWorkload>(title, rows);
}

Table csv_table(const std::string& title,
                const std::vector<std::pair<std::string, CoinAggregate>>& rows) {
    return pair_table<CoinWorkload>(title, rows);
}

Table csv_table(const std::string& title,
                const std::vector<std::pair<std::string, MvAggregate>>& rows) {
    return pair_table<MvWorkload>(title, rows);
}

Table csv_table(const std::string& title,
                const std::vector<std::pair<std::string, MacroAggregate>>& rows) {
    return pair_table<MacroWorkload>(title, rows);
}

}  // namespace adba::sim
