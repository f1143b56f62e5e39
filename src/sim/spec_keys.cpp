#include "sim/spec_keys.hpp"

#include <cctype>

#include "support/contracts.hpp"

namespace adba::sim::detail {

std::vector<std::pair<std::string, std::string>> spec_tokens(const std::string& scenario,
                                                             const std::string& spec) {
    std::vector<std::pair<std::string, std::string>> out;
    std::string token;
    for (std::size_t i = 0; i <= spec.size(); ++i) {
        const char c = i < spec.size() ? spec[i] : ' ';
        if (!std::isspace(static_cast<unsigned char>(c)) && c != ',' && c != ';') {
            token += c;
            continue;
        }
        if (token.empty()) continue;
        const auto eq = token.find('=');
        if (eq == std::string::npos)
            throw ContractViolation(scenario + " token '" + token +
                                    "' is not of the form key=value");
        out.emplace_back(lower(token.substr(0, eq)), token.substr(eq + 1));
        token.clear();
    }
    return out;
}

}  // namespace adba::sim::detail
