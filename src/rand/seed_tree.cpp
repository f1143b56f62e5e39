#include "rand/seed_tree.hpp"

namespace adba {

Xoshiro256 SeedTree::stream(StreamPurpose purpose, std::uint64_t index) const {
    return Xoshiro256(seed(purpose, index));
}

}  // namespace adba
