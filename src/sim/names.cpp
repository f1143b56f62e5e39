#include "sim/names.hpp"

namespace adba::sim::detail {

void throw_unknown_name(const std::string& what, const std::string& name,
                        const std::vector<std::string>& known,
                        const std::vector<std::string>& aliases) {
    std::vector<std::string> candidates;
    std::string list;
    for (const std::string& k : known) {
        candidates.push_back(lower(k));
        list += (list.empty() ? "" : ", ") + k;
    }
    for (const std::string& a : aliases) candidates.push_back(lower(a));
    const std::string near = closest_match(lower(name), candidates);
    throw ContractViolation("unknown " + what + " '" + name + "'" +
                            (near.empty() ? "" : " (did you mean '" + near + "'?)") +
                            "; known: " + list);
}

}  // namespace adba::sim::detail
