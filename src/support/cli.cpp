#include "support/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace adba {

namespace {

// Edit distance for "--trails -> did you mean --trials?" suggestions.
std::size_t levenshtein(const std::string& a, const std::string& b) {
    std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

/// Parses a setting's whole value with `convert` (std::stoll / std::stod),
/// which clears `used` to reject a value: a malformed or partly numeric
/// value names the setting (`what`, e.g. "--t") instead of escaping as a
/// bare std::invalid_argument or being silently truncated.
template <typename Convert>
auto parse_number(const std::string& what, const std::string& text, const char* expected,
                  Convert convert) {
    std::size_t used = 0;
    decltype(convert(text, &used)) value{};
    try {
        value = convert(text, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used == 0 || used != text.size())
        throw ContractViolation(what + " expects " + expected + ", got '" + text + "'");
    return value;
}

/// argv[0] without its directory.
std::string program_name(const std::string& argv0) {
    return argv0.substr(argv0.find_last_of('/') + 1);
}

}  // namespace

std::string closest_match(const std::string& key,
                          const std::vector<std::string>& candidates) {
    std::string best;
    std::size_t best_dist = 3;  // only suggest close matches
    for (const auto& candidate : candidates) {
        const std::size_t d = levenshtein(key, candidate);
        if (d < best_dist) {
            best_dist = d;
            best = candidate;
        }
    }
    return best;
}

bool parse_bool(const std::string& what, const std::string& value) {
    if (value == "true" || value == "1" || value == "yes" || value == "on") return true;
    if (value == "false" || value == "0" || value == "no" || value == "off") return false;
    throw ContractViolation(what + " expects true/1/yes/on or false/0/no/off, got '" +
                            value + "'");
}

std::int64_t parse_int(const std::string& what, const std::string& value) {
    return parse_number(what, value, "an integer", [](const std::string& s, std::size_t* used) {
        return static_cast<std::int64_t>(std::stoll(s, used));
    });
}

double parse_double(const std::string& what, const std::string& value) {
    return parse_number(what, value, "a finite number", [](const std::string& s, std::size_t* used) {
        // strtod, not stod: a subnormal such as 5e-324 sets ERANGE yet is finite.
        char* end = nullptr;
        const double v = std::strtod(s.c_str(), &end);
        *used = std::isfinite(v) ? static_cast<std::size_t>(end - s.c_str()) : 0;
        return v;
    });
}

std::string format_double(double v) {
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    ADBA_ENSURES(ec == std::errc{});
    return {buf, end};
}

std::uint64_t parse_uint(const std::string& what, const std::string& value, std::uint64_t max) {
    std::uint64_t v = 0;
    bool ok = !value.empty();
    for (const char c : value) {
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (c < '0' || c > '9' || v > (max - digit) / 10) {
            ok = false;
            break;
        }
        v = v * 10 + digit;
    }
    if (!ok)
        throw ContractViolation(what + " expects an integer in [0, " + std::to_string(max) +
                                "], got '" + value + "'");
    return v;
}

Cli::Cli(int argc, char** argv) {
    if (argc > 0) passthrough_.emplace_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            throw ContractViolation("unexpected argument '" + arg +
                                    "': flags take the form --name=value (quote a --scenario "
                                    "spec that holds spaces)");
        if (arg.rfind("--benchmark", 0) == 0) {
            passthrough_.push_back(std::move(arg));
            continue;
        }
        std::string body = arg.substr(2);
        const auto eq = body.find('=');
        if (body.substr(0, eq) == "help") {
            help_ = true;
            continue;
        }
        if (eq != std::string::npos) {
            kv_[body.substr(0, eq)] = body.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            kv_[body] = argv[++i];
        } else {
            kv_[body] = "true";  // bare boolean flag
        }
    }
}

bool Cli::has(const std::string& key) const {
    queried_.emplace(key, "");  // a later typed read records its default
    return kv_.count(key) > 0;
}

std::string Cli::get(const std::string& key, const std::string& fallback) const {
    queried_[key] = fallback;
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
    queried_[key] = std::to_string(fallback);
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    return parse_int("--" + key, it->second);
}

std::uint64_t Cli::read_uint(const std::string& key, std::uint64_t fallback,
                             std::uint64_t max) const {
    queried_[key] = std::to_string(fallback);
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    return parse_uint("--" + key, it->second, max);
}

double Cli::get_double(const std::string& key, double fallback) const {
    char text[32];
    std::snprintf(text, sizeof text, "%g", fallback);
    queried_[key] = text;
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    return parse_double("--" + key, it->second);
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
    queried_[key] = fallback ? "on" : "off";
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    return parse_bool("--" + key, it->second);
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& key,
                                            std::vector<std::int64_t> fallback) const {
    std::string shown;
    for (const std::int64_t x : fallback) {
        if (!shown.empty()) shown += ',';
        shown += std::to_string(x);
    }
    queried_[key] = shown;
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    std::vector<std::int64_t> out;
    const std::string& s = it->second;
    std::size_t pos = 0;
    while (pos < s.size()) {
        auto comma = s.find(',', pos);
        if (comma == std::string::npos) comma = s.size();
        out.push_back(parse_int("--" + key, s.substr(pos, comma - pos)));
        pos = comma + 1;
    }
    ADBA_ENSURES_MSG(!out.empty(), "empty list for --" + key);
    return out;
}

std::string Cli::usage() const {
    const std::string prog = program_name(passthrough_.empty() ? "adba" : passthrough_.front());
    std::string text =
        "usage: " + prog + " [--flag=value ...]\nRecognized flags, with their defaults:\n";
    for (const auto& [key, fallback] : queried_)
        text += "  --" + key + (fallback.empty() ? "" : "=" + fallback) + "\n";
    return text;
}

void Cli::check_unused() const {
    if (help_) throw HelpRequested(usage());
    std::vector<std::string> known_keys;
    for (const auto& [key, fallback] : queried_) known_keys.push_back(key);
    std::string msg;
    for (const auto& [key, value] : kv_) {
        if (queried_.count(key)) continue;
        if (!msg.empty()) msg += "; ";
        msg += "unrecognized flag --" + key;
        const std::string best = closest_match(key, known_keys);
        if (!best.empty()) msg += " (did you mean --" + best + "?)";
    }
    if (msg.empty()) return;
    std::string known;
    for (const auto& key : known_keys) known += (known.empty() ? "--" : ", --") + key;
    throw ContractViolation(msg + ". Recognized flags: " +
                            (known.empty() ? "(none)" : known) + " (--help lists them)");
}

int run_main(int argc, char** argv, const std::function<int(const Cli&)>& body) {
    const std::string prog = program_name(argc > 0 ? argv[0] : "adba");
    try {
        const Cli cli(argc, argv);
        const int status = body(cli);
        cli.check_unused();  // a body that never checked still answers typos
        return status;
    } catch (const HelpRequested& help) {
        std::fputs(help.what(), stdout);
        return 0;
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "%s: error: %s\n", prog.c_str(), e.what());
        return 2;
    }
}

}  // namespace adba
