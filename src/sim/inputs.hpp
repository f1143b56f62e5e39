// Initial input assignment patterns for agreement trials.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rand/seed_tree.hpp"
#include "sim/names.hpp"
#include "support/types.hpp"

namespace adba::sim {

enum class InputPattern : std::uint8_t {
    AllZero,  ///< validity probe: every node starts 0
    AllOne,   ///< validity probe: every node starts 1
    Split,    ///< worst case: alternating by ID (maximally balanced)
    Random,   ///< i.i.d. fair bits from the trial's input stream
};

std::vector<Bit> make_inputs(InputPattern pattern, NodeId n, const SeedTree& seeds);

/// In-place variant for pooled trial loops: fills `out` (resized to n) with
/// exactly the same values the allocating overload returns.
void make_inputs(InputPattern pattern, NodeId n, const SeedTree& seeds,
                 std::vector<Bit>& out);

/// Lane masks of an input plane (make_input_plane).
struct InputPlaneLanes {
    std::uint64_t unanimous = 0;  ///< lanes whose inputs are unanimous
    std::uint64_t front = 0;      ///< lanes in which node 0 starts with 1
};

/// The fused form of make_inputs for `lanes` (1..64) trials: fills `plane`
/// (resized to n) so that bit j of plane[v] is node v's input in the trial
/// lane_seeds[j] seeds, exactly as make_inputs draws it; bits past `lanes`
/// are 0. Every pattern but `random` is the same in every trial and is
/// broadcast; `random` keeps each lane's InputAssignment draws.
InputPlaneLanes make_input_plane(InputPattern pattern, NodeId n, const SeedTree* lane_seeds,
                                 unsigned lanes, std::vector<std::uint64_t>& plane);

/// True iff every node holds the same input (validity clause applies).
bool unanimous(const std::vector<Bit>& inputs);

/// The input-pattern names (names.hpp): all-zero, all-one, split, random.
const Names<InputPattern>& input_patterns();

std::string to_string(InputPattern pattern);

}  // namespace adba::sim
