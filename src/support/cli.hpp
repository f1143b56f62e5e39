// Minimal command-line flag parsing for examples and bench binaries.
//
// Supports `--name=value` and `--name value` forms plus `--flag` booleans.
// Unrecognized google-benchmark flags (--benchmark_*) are passed through
// untouched so bench binaries can share argv with benchmark::Initialize.
//
// Strict mode: every accessor records which key it was asked for; a binary
// calls `check_unused()` after its last read and gets a loud failure for any
// flag nothing ever queried — so a typo like `--trails=50` aborts the run
// instead of silently proceeding with defaults. `--help` is answered at the
// same point with the list of flags the binary asked for.
//
// Every binary's main() is `return run_main(argc, argv, body);`: the body
// reads all of its flags, calls check_unused() before doing any work, and
// run_main turns the outcome into an exit status (0 for --help, 2 with a
// `prog: error: ...` line for bad input).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "support/contracts.hpp"

namespace adba {

/// The closest candidate within edit distance 2 of `key`, or empty when
/// nothing is close — the "did you mean ...?" helper behind Cli strict mode,
/// also used for registry/workload name errors.
std::string closest_match(const std::string& key,
                          const std::vector<std::string>& candidates);

/// Parses a boolean setting: true/1/yes/on or false/0/no/off. Anything else
/// throws ContractViolation naming `what` (e.g. "--fused" or "scenario key
/// 'fused'") and the accepted spellings, so a misspelled toggle stops the
/// run instead of silently reading as false. Shared by Cli::get_bool and
/// the scenario spec parsers.
bool parse_bool(const std::string& what, const std::string& value);

/// Parses an unsigned setting that must lie in [0, max]: decimal digits
/// only, so a sign, a space or a value above `max` throws ContractViolation
/// naming `what` (e.g. "--trials" or "scenario key 'n'") and the range,
/// instead of wrapping into the field it is stored in. Shared by
/// Cli::get_uint and the scenario and fault spec parsers.
std::uint64_t parse_uint(const std::string& what, const std::string& value, std::uint64_t max);

/// Parses a signed integer setting: the whole value must be a number in
/// int64's range, or ContractViolation names `what` (e.g. "--t" or
/// "fault key 'shard_death_shard'"). Shared by Cli::get_int and the spec
/// parsers.
std::int64_t parse_int(const std::string& what, const std::string& value);

/// Parses a real-valued setting that must be a finite number: NaN, an
/// infinity, a value past double's range or trailing text throws
/// ContractViolation naming `what` (e.g. "--gamma" or "scenario key
/// 'gamma'"), instead of reaching a float-to-integer cast. Shared by
/// Cli::get_double and the scenario spec parsers.
double parse_double(const std::string& what, const std::string& value);

/// The shortest text that parse_double reads back as the same double
/// (std::to_chars): 0.1 prints "0.1", not "0.10000000000000001".
std::string format_double(double v);

/// parse_uint over the whole range of the unsigned field type T.
template <typename T>
T parse_uint(const std::string& what, const std::string& value) {
    static_assert(std::is_unsigned_v<T>);
    return static_cast<T>(parse_uint(what, value, std::numeric_limits<T>::max()));
}

/// Thrown by Cli::check_unused() when `--help` was given; what() is the
/// usage text. A ContractViolation, so a caller that only knows the
/// strict-mode failure still stops before doing any work; run_main answers
/// it with exit status 0.
class HelpRequested : public ContractViolation {
public:
    using ContractViolation::ContractViolation;
};

/// Parsed command-line options with typed, defaulted accessors.
class Cli {
public:
    /// Parses argv, consuming recognized `--key[=value]` pairs.
    /// Arguments beginning with `--benchmark` are left for google-benchmark.
    /// Any other argument that does not begin with `--` (and is not the
    /// value of a preceding `--key`) throws ContractViolation naming it. A
    /// malformed number in an accessor throws ContractViolation naming the
    /// flag.
    Cli(int argc, char** argv);

    bool has(const std::string& key) const;
    std::string get(const std::string& key, const std::string& fallback) const;
    std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
    /// A flag stored in an unsigned field of type T, read through
    /// parse_uint: `--trials=-1` or a value past T's width names the flag
    /// instead of wrapping.
    template <typename T>
    T get_uint(const std::string& key, T fallback) const {
        static_assert(std::is_unsigned_v<T>);
        return static_cast<T>(read_uint(key, fallback, std::numeric_limits<T>::max()));
    }
    /// parse_double over the flag's value: `--gamma=nan` names the flag.
    double get_double(const std::string& key, double fallback) const;
    /// parse_bool over the flag's value (so `--batch=on|off` style toggles
    /// work); a bare `--flag` reads as true.
    bool get_bool(const std::string& key, bool fallback) const;

    /// Comma-separated integer list, e.g. `--t=4,8,16`.
    std::vector<std::int64_t> get_int_list(const std::string& key,
                                           std::vector<std::int64_t> fallback) const;

    /// Remaining untouched arguments: argv[0] and the `--benchmark_*` flags
    /// (for google-benchmark).
    const std::vector<std::string>& passthrough() const { return passthrough_; }

    /// Throws ContractViolation when any parsed `--flag` was never queried by
    /// an accessor, naming the offenders and suggesting the closest known
    /// key; throws HelpRequested instead when `--help` was given. Call after
    /// the last flag read and before any work.
    void check_unused() const;

private:
    /// The usage text: every queried flag with the default it was read with.
    std::string usage() const;
    /// get_uint's untyped body: the flag's value in [0, max], or fallback.
    std::uint64_t read_uint(const std::string& key, std::uint64_t fallback,
                            std::uint64_t max) const;

    std::map<std::string, std::string> kv_;
    std::vector<std::string> passthrough_;
    bool help_ = false;
    /// Queried key -> the fallback it was read with ("" for has()).
    mutable std::map<std::string, std::string> queried_;
};

/// The shared main() of every binary: parses argv into a Cli and runs
/// `body`, which reads its flags and calls check_unused() before any work.
/// `--help` prints the recognized flags to stdout and returns 0; a bad flag,
/// a malformed value or any other error prints "prog: error: <what>" to
/// stderr and returns 2. Otherwise returns the body's status.
int run_main(int argc, char** argv, const std::function<int(const Cli&)>& body);

}  // namespace adba
