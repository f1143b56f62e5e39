// One name lookup for every name -> value axis of the scenario layer: the
// protocol, adversary and mv-adversary registries (registry.hpp), the
// workloads, the binary and multi-valued input patterns, the delivery plane,
// the sparse sample stream, the coin attack and the macro schedule. A lookup
// matches a canonical name or an alias, case-insensitively; a miss throws
// ContractViolation with a did-you-mean and the known names.
#pragma once

#include <algorithm>
#include <cctype>
#include <deque>
#include <initializer_list>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/contracts.hpp"

namespace adba::sim {

namespace detail {

/// Lowercase copy: names, aliases and spec keys match case-insensitively.
inline std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return s;
}

/// lower(a) == lower(b), without building either.
inline bool same_name(const std::string& a, const std::string& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](unsigned char x, unsigned char y) {
        return std::tolower(x) == std::tolower(y);
    });
}

/// The miss of a lookup: "unknown <what> '<name>'", a did-you-mean over
/// `known` and `aliases`, and the `known` names.
[[noreturn]] void throw_unknown_name(const std::string& what, const std::string& name,
                                     const std::vector<std::string>& known,
                                     const std::vector<std::string>& aliases = {});

/// Shared lookup machinery: entries in registration order with stable
/// addresses, looked up by kind or by (case-insensitive) name/alias. An
/// Entry has `kind`, `name` and `aliases`.
template <typename Entry, typename Kind>
class RegistryBase {
public:
    /// Registers an entry; throws ContractViolation on a name/alias clash,
    /// leaving the table as it was.
    const Entry& add(Entry entry) {
        const auto check = [&](const std::string& key) {
            if (const Entry* clash = find(key))
                throw ContractViolation("duplicate " + what_ + " name '" + key +
                                        "' (already registered as '" + clash->name + "')");
        };
        check(entry.name);
        for (const auto& alias : entry.aliases) check(alias);
        return entries_.emplace_back(std::move(entry));
    }

    /// Lookup by kind; throws when the kind was never registered.
    const Entry& at(Kind kind) const {
        for (const Entry& e : entries_)
            if (e.kind == kind) return e;
        throw ContractViolation("unregistered " + what_ + " kind #" +
                                std::to_string(static_cast<int>(kind)) +
                                "; known: " + known_names());
    }

    /// Lookup by canonical name or alias; throws with a did-you-mean and
    /// the known names.
    const Entry& at(const std::string& name_or_alias) const {
        if (const Entry* e = find(name_or_alias)) return *e;
        std::vector<std::string> names, aliases;
        for (const Entry& e : entries_) {
            names.push_back(e.name);
            aliases.insert(aliases.end(), e.aliases.begin(), e.aliases.end());
        }
        throw_unknown_name(what_, name_or_alias, names, aliases);
    }
    /// A literal is a name, never a `bool` kind.
    const Entry& at(const char* name_or_alias) const { return at(std::string(name_or_alias)); }

    /// Like at(name) but returns nullptr instead of throwing.
    const Entry* find(const std::string& name_or_alias) const {
        for (const Entry& e : entries_) {
            if (same_name(e.name, name_or_alias)) return &e;
            for (const auto& alias : e.aliases)
                if (same_name(alias, name_or_alias)) return &e;
        }
        return nullptr;
    }

    /// All entries, in registration order.
    std::vector<const Entry*> list() const {
        std::vector<const Entry*> out;
        for (const Entry& e : entries_) out.push_back(&e);
        return out;
    }

    /// Comma-separated canonical names, for error messages and usage text;
    /// with `keep`, of the entries it keeps.
    template <typename Keep = bool (*)(const Entry&)>
    std::string known_names(Keep keep = [](const Entry&) { return true; }) const {
        std::string out;
        for (const Entry& e : entries_)
            if (keep(e)) out += (out.empty() ? "" : ", ") + e.name;
        return out;
    }

protected:
    explicit RegistryBase(std::string what) : what_(std::move(what)) {}

private:
    std::string what_;  ///< "protocol", "input pattern", ... — for messages
    std::deque<Entry> entries_;
};

}  // namespace detail

/// A fixed name axis: its entries, registered once, behind the one lookup.
template <typename Entry, typename Kind = decltype(Entry::kind)>
class NameTable : public detail::RegistryBase<Entry, Kind> {
public:
    NameTable(std::string what, std::initializer_list<Entry> entries)
        : detail::RegistryBase<Entry, Kind>(std::move(what)) {
        for (const Entry& e : entries) this->add(e);
    }
};

/// One value of a small name axis (input patterns, delivery plane, sparse
/// stream, coin attack, macro schedule).
template <typename Kind>
struct NamedValue {
    Kind kind;
    std::string name;  ///< canonical spelling, as --list and specs write it
    std::vector<std::string> aliases;
    std::string display;  ///< table label, e.g. "random(4)"; the name unless given

    NamedValue(Kind k, std::string n, std::vector<std::string> a = {}, std::string d = {})
        : kind(k), name(std::move(n)), aliases(std::move(a)),
          display(d.empty() ? name : std::move(d)) {}
};

template <typename Kind>
using Names = NameTable<NamedValue<Kind>>;

}  // namespace adba::sim
