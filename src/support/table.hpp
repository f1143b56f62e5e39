// Plain-text table rendering for experiment output.
//
// Every bench binary prints its reproduction table through this class so the
// repository's tables share one format (aligned columns, optional CSV dump),
// making the paper-vs-measured comparison mechanical (PAPER.md's "Main
// results" table names the bench behind each claim).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace adba {

/// Column-aligned table with a title; renders as GitHub-flavored Markdown
/// (also valid aligned plain text) or CSV.
class Table {
public:
    explicit Table(std::string title) : title_(std::move(title)) {}

    /// Sets the header row. Must be called before any add_row.
    void set_header(std::vector<std::string> header);

    /// Appends a data row; must have the same arity as the header.
    void add_row(std::vector<std::string> row);

    /// Formats a double with the given precision (fixed notation).
    static std::string num(double v, int precision = 2);
    /// Formats an integer-valued count.
    static std::string num(std::uint64_t v);

    std::size_t rows() const { return rows_.size(); }
    const std::string& title() const { return title_; }

    /// Renders as an aligned Markdown table.
    std::string to_markdown() const;
    /// Renders as CSV (no title line).
    std::string to_csv() const;
    /// Prints Markdown rendering to the stream, surrounded by blank lines.
    void print(std::ostream& os) const;

private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/// Writes `table.to_csv()` to `<dir>/<slug>.csv`, creating `dir` (including
/// parents) when absent. Returns the written path. Throws ContractViolation
/// when the directory or the file cannot be created — a reproduction table
/// must never be dropped silently.
std::string write_csv(const Table& table, const std::string& dir,
                      const std::string& slug);

}  // namespace adba
