// Scenario key tables: every key of a `key=value ...` scenario spec is one
// row — its name, its field, and whether it changes results — and
// everything a key appears in is derived from the rows: the spec parser,
// describe() (in table order), the unknown-key message, adba_sim's
// per-key flags and --help, and the checkpoint scope, which keeps only the
// keys that change results. Adding a key is adding a row to its workload's
// table: scenario_keys() or mv_scenario_keys() (registry.cpp),
// coin_scenario_keys() (coin_runner.cpp) or macro_scenario_keys()
// (macro.cpp); each workload trait hands its table to the kernel as
// W::keys().
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/names.hpp"
#include "support/cli.hpp"

namespace adba::sim {

/// What a key is to its scenario, in describe_spec's `upto` order.
enum class KeyRole : std::uint8_t {
    Identity,   ///< changes results; describe() writes it even at its default
    Result,     ///< changes results; describe() writes it off its default
    Execution,  ///< chooses only how a run executes: aggregates are
                ///< bit-identical at every value, so checkpoint scopes omit it
};

/// One row of a key table.
template <typename S>
struct SpecKey {
    std::string name;
    KeyRole role = KeyRole::Result;
    /// Parses `value` into the field; `what` names the key in errors, e.g.
    /// "scenario key 'n'" or "--n".
    std::function<void(S&, const std::string& what, const std::string& value)> parse;
    /// The field's value as describe() writes it; an unset optional reads
    /// as its fallback (`q` as `t`), the value a run uses.
    std::function<std::string(const S&)> value;
    /// True while the field holds its default-constructed value (an
    /// optional one: its fallback's value).
    std::function<bool(const S&)> at_default;
};

namespace detail {

template <typename T>
T parse_field(const std::string& what, const std::string& value) {
    if constexpr (std::is_same_v<T, bool>)
        return parse_bool(what, value);
    else if constexpr (std::is_same_v<T, double>)
        return parse_double(what, value);
    else if constexpr (std::is_signed_v<T>)
        return static_cast<T>(parse_int(what, value));
    else
        return parse_uint<T>(what, value);
}

template <typename T>
std::string format_field(const T& v) {
    if constexpr (std::is_same_v<T, bool>)
        return v ? "true" : "false";
    else if constexpr (std::is_same_v<T, double>)
        return format_double(v);
    else
        return std::to_string(v);
}

template <typename S>
const S& defaults() {
    static const S d{};
    return d;
}

template <typename S, typename Get, typename Parse>
SpecKey<S> make_key(std::string name, KeyRole role, Get get, Parse parse) {
    return {std::move(name), role,
            [get, parse](S& s, const std::string& what, const std::string& value) {
                get(s) = parse(what, value);
            },
            [get](const S& s) { return format_field(get(s)); },
            [get](const S& s) { return get(s) == get(defaults<S>()); }};
}

/// The `key=value` tokens of a spec, keys lowercased; tokens are separated
/// by whitespace, ',' or ';'. Throws on a token without '='.
std::vector<std::pair<std::string, std::string>> spec_tokens(const std::string& scenario,
                                                             const std::string& spec);

}  // namespace detail

/// A row for a number or boolean field, `&S::field`, read as its type
/// reads (parse_uint, parse_int, parse_double, parse_bool) or by `parse`.
template <typename S, typename T>
SpecKey<S> spec_field(std::string name, KeyRole role, T S::*field,
                      T (*parse)(const std::string&, const std::string&) =
                          &detail::parse_field<T>) {
    return detail::make_key<S>(
        std::move(name), role, [field](auto& s) -> auto& { return s.*field; }, parse);
}

/// A row for an optional field that reads as `fallback` while unset
/// (`&S::q, &S::t`). A value equal to its fallback is the same experiment
/// as an unset one, so it counts as the default: describe() and the
/// checkpoint scope write the field only off its fallback.
template <typename S, typename T>
SpecKey<S> spec_field(std::string name, KeyRole role, std::optional<T> S::*field,
                      T S::*fallback) {
    const auto read = [field, fallback](const S& s) { return (s.*field).value_or(s.*fallback); };
    return {std::move(name), role,
            [field](S& s, const std::string& what, const std::string& value) {
                s.*field = detail::parse_field<T>(what, value);
            },
            [read](const S& s) { return detail::format_field(read(s)); },
            [read, fallback](const S& s) { return read(s) == s.*fallback; }};
}

/// A row for a field of a member struct, `&S::member, &Member::field`.
template <typename S, typename M, typename T>
SpecKey<S> spec_field(std::string name, KeyRole role, M S::*member, T M::*field) {
    return detail::make_key<S>(
        std::move(name), role, [member, field](auto& s) -> auto& { return (s.*member).*field; },
        &detail::parse_field<T>);
}

/// A row for a named field: `names()` is its axis's name table (names.hpp,
/// or a registry). describe() writes an entry's canonical name, or its
/// display name with `display`.
template <typename S, typename K, typename Table>
SpecKey<S> spec_name(std::string name, KeyRole role, K S::*field, Table names,
                     bool display = false) {
    return {std::move(name), role,
            [field, names](S& s, const std::string&, const std::string& value) {
                s.*field = names().at(value).kind;
            },
            [field, names, display](const S& s) {
                const auto& entry = names().at(s.*field);
                return display ? entry.display : entry.name;
            },
            [field](const S& s) { return s.*field == detail::defaults<S>().*field; }};
}

/// Parses a spec through `keys`; `scenario` names the spec kind in errors
/// ("scenario", "multi-valued scenario", "coin scenario", "fault").
template <typename S>
S parse_spec(const std::vector<SpecKey<S>>& keys, const std::string& scenario,
             const std::string& spec) {
    S s;
    for (const auto& [name, value] : detail::spec_tokens(scenario, spec)) {
        const SpecKey<S>* key = nullptr;
        for (const SpecKey<S>& k : keys)
            if (k.name == name) key = &k;
        if (key == nullptr) {
            std::vector<std::string> known;
            for (const SpecKey<S>& k : keys) known.push_back(k.name);
            detail::throw_unknown_name(scenario + " key", name, known);
        }
        key->parse(s, scenario + " key '" + name + "'", value);
    }
    return s;
}

/// The canonical spec of `s`, in table order: Identity keys always, the
/// others off their defaults, up to role `upto`: KeyRole::Result leaves out
/// the Execution keys (the checkpoint scope), KeyRole::Identity writes the
/// Identity keys alone.
template <typename S>
std::string describe_spec(const std::vector<SpecKey<S>>& keys, const S& s,
                          KeyRole upto = KeyRole::Execution) {
    std::string out;
    for (const SpecKey<S>& k : keys) {
        if (k.role > upto) continue;
        if (k.role != KeyRole::Identity && k.at_default(s)) continue;
        out += (out.empty() ? "" : " ") + k.name + "=" + k.value(s);
    }
    return out;
}

}  // namespace adba::sim
