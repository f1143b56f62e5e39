#include "support/table.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/contracts.hpp"

namespace adba {

void Table::set_header(std::vector<std::string> header) {
    ADBA_EXPECTS_MSG(rows_.empty(), "header must be set before rows");
    ADBA_EXPECTS(!header.empty());
    header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
    ADBA_EXPECTS_MSG(row.size() == header_.size(), "row arity must match header");
    rows_.push_back(std::move(row));
}

std::string Table::num(double v, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string Table::num(std::uint64_t v) { return std::to_string(v); }

std::string Table::to_markdown() const {
    ADBA_EXPECTS_MSG(!header_.empty(), "table needs a header");
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

    auto emit_row = [&](std::ostringstream& os, const std::vector<std::string>& row) {
        os << "|";
        for (std::size_t c = 0; c < row.size(); ++c)
            os << " " << std::setw(static_cast<int>(width[c])) << std::left << row[c] << " |";
        os << "\n";
    };

    std::ostringstream os;
    os << "### " << title_ << "\n\n";
    emit_row(os, header_);
    os << "|";
    for (std::size_t c = 0; c < header_.size(); ++c) os << std::string(width[c] + 2, '-') << "|";
    os << "\n";
    for (const auto& row : rows_) emit_row(os, row);
    return os.str();
}

std::string Table::to_csv() const {
    ADBA_EXPECTS_MSG(!header_.empty(), "table needs a header");
    auto escape = [](const std::string& s) {
        if (s.find_first_of(",\"\n") == std::string::npos) return s;
        std::string out = "\"";
        for (char ch : s) {
            if (ch == '"') out += '"';
            out += ch;
        }
        out += '"';
        return out;
    };
    std::ostringstream os;
    for (std::size_t c = 0; c < header_.size(); ++c)
        os << (c ? "," : "") << escape(header_[c]);
    os << "\n";
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) os << (c ? "," : "") << escape(row[c]);
        os << "\n";
    }
    return os.str();
}

void Table::print(std::ostream& os) const { os << "\n" << to_markdown() << "\n"; }

void ensure_csv_dir(const std::string& dir) {
    ADBA_EXPECTS(!dir.empty());
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // a non-directory at dir sets ec
    if (ec) throw ContractViolation("cannot create csv directory '" + dir + "': " + ec.message());
}

std::string write_csv(const Table& table, const std::string& dir,
                      const std::string& slug) {
    ADBA_EXPECTS(!slug.empty());
    ensure_csv_dir(dir);
    std::error_code ec;
    const std::string path = (std::filesystem::path(dir) / (slug + ".csv")).string();
    // Crash-atomic: write the full document to a sibling temp file, then
    // rename over the target. A sweep killed mid-write can leave a stale
    // .tmp behind but never a truncated .csv.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        ADBA_ENSURES_MSG(out.is_open(),
                         "cannot open csv file '" + tmp + "' for writing");
        out << table.to_csv();
        out.flush();
        ADBA_ENSURES_MSG(out.good(), "write failed for csv file '" + tmp + "'");
    }
    std::filesystem::rename(tmp, path, ec);
    ADBA_ENSURES_MSG(!ec, "cannot rename '" + tmp + "' over '" + path +
                              "': " + ec.message());
    return path;
}

}  // namespace adba
