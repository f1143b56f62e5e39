// Uniform CSV schema for workload aggregates.
//
// Every bench used to hand-format its own CSV rows; now all four workload
// aggregates (binary, coin, mv, macro) route through ONE schema helper, so
// a sweep's --csv_dir output has the same columns no matter which bench
// produced it: `label` followed by the workload's csv_header() columns
// (declared on the workload trait next to accumulate(), defined in the
// workload's .cpp). Display tables keep their bespoke bench-specific
// columns; this is the machine-readable face.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sim/macro.hpp"
#include "sim/multivalued_runner.hpp"
#include "sim/sweep.hpp"
#include "support/table.hpp"

namespace adba::sim {

/// One row per sweep outcome; columns = label + the workload schema.
Table sweep_csv_table(const std::string& title,
                      const std::vector<SweepOutcome>& outcomes);
Table sweep_csv_table(const std::string& title,
                      const std::vector<CoinSweepOutcome>& outcomes);

/// (label, aggregate) form for benches that loop without a sweep grid
/// (e.g. E4's macro regime tables, E12's mv table).
Table csv_table(const std::string& title,
                const std::vector<std::pair<std::string, Aggregate>>& rows);
Table csv_table(const std::string& title,
                const std::vector<std::pair<std::string, CoinAggregate>>& rows);
Table csv_table(const std::string& title,
                const std::vector<std::pair<std::string, MvAggregate>>& rows);
Table csv_table(const std::string& title,
                const std::vector<std::pair<std::string, MacroAggregate>>& rows);

}  // namespace adba::sim
