#include "sim/inputs.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace adba::sim {

namespace {

/// Node v's input under a pattern other than `random`, the same in every
/// trial.
Bit fixed_input(InputPattern pattern, NodeId v) {
    switch (pattern) {
        case InputPattern::AllOne: return 1;
        case InputPattern::Split: return static_cast<Bit>(v & 1);
        case InputPattern::AllZero:
        case InputPattern::Random: break;
    }
    return 0;
}

}  // namespace

void make_inputs(InputPattern pattern, NodeId n, const SeedTree& seeds,
                 std::vector<Bit>& out) {
    ADBA_EXPECTS(n > 0);
    out.resize(n);
    if (pattern == InputPattern::Random) {
        auto rng = seeds.stream(StreamPurpose::InputAssignment);
        for (NodeId v = 0; v < n; ++v) out[v] = rng.bit();
        return;
    }
    for (NodeId v = 0; v < n; ++v) out[v] = fixed_input(pattern, v);
}

InputPlaneLanes make_input_plane(InputPattern pattern, NodeId n, const SeedTree* lane_seeds,
                                 unsigned lanes, std::vector<std::uint64_t>& plane) {
    ADBA_EXPECTS(n > 0);
    ADBA_EXPECTS(lanes >= 1 && lanes <= 64);
    const std::uint64_t in = lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
    plane.resize(n);
    if (pattern == InputPattern::Random) {
        std::fill(plane.begin(), plane.end(), 0);
        for (unsigned j = 0; j < lanes; ++j) {
            auto rng = lane_seeds[j].stream(StreamPurpose::InputAssignment);
            for (NodeId v = 0; v < n; ++v) plane[v] |= std::uint64_t{rng.bit()} << j;
        }
    } else {
        for (NodeId v = 0; v < n; ++v) plane[v] = fixed_input(pattern, v) != 0 ? in : 0;
    }
    std::uint64_t any0 = 0, any1 = 0;
    for (NodeId v = 0; v < n; ++v) {
        any0 |= ~plane[v];
        any1 |= plane[v];
    }
    return {in & ~(any0 & any1), plane[0] & in};
}

std::vector<Bit> make_inputs(InputPattern pattern, NodeId n, const SeedTree& seeds) {
    std::vector<Bit> inputs;
    make_inputs(pattern, n, seeds, inputs);
    return inputs;
}

bool unanimous(const std::vector<Bit>& inputs) {
    for (Bit b : inputs)
        if (b != inputs.front()) return false;
    return true;
}

const Names<InputPattern>& input_patterns() {
    static const Names<InputPattern> table(
        "input pattern", {{InputPattern::AllZero, "all-zero", {"zeros"}},
                          {InputPattern::AllOne, "all-one", {"ones"}},
                          {InputPattern::Split, "split"},
                          {InputPattern::Random, "random"}});
    return table;
}

std::string to_string(InputPattern pattern) { return input_patterns().at(pattern).display; }

}  // namespace adba::sim
