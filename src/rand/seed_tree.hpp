// Hierarchical seed derivation: one master seed per trial fans out into
// statistically independent streams for every (purpose, index) pair.
//
// This is the keystone of reproducibility: a simulation trial is a pure
// function of (scenario, master seed). Nodes, the adversary, and the input
// generator each get their own child stream, so adding randomness to one
// component never perturbs another component's draws.
#pragma once

#include <cstdint>

#include "rand/rng.hpp"

namespace adba {

/// Well-known stream purposes. Fixed numeric tags keep derivations stable
/// across refactors (the tag, not source order, enters the hash).
enum class StreamPurpose : std::uint64_t {
    NodeProtocol = 1,   ///< honest node's protocol randomness (coin flips)
    Adversary = 2,      ///< adversarial strategy randomness
    InputAssignment = 3,///< initial input bit generation
    DealerCoin = 4,     ///< Rabin baseline's trusted dealer coin per phase
    Harness = 5,        ///< trial orchestration (e.g. shuffles)
    SparseTopology = 6, ///< sparse delivery plane's per-receiver edge samples
};

/// Derives independent child seeds/generators from a master seed.
class SeedTree {
public:
    explicit SeedTree(std::uint64_t master) : master_(master) {}

    /// Child seed for (purpose, index): two rounds of avalanche mixing. One
    /// round already decorrelates; the second guards against the structured
    /// (small-integer) inputs used here.
    std::uint64_t seed(StreamPurpose purpose, std::uint64_t index = 0) const {
        return child_seed(purpose_hash(purpose), index);
    }

    /// The first of seed()'s two mixing rounds, shared by every index of a
    /// purpose: callers that derive many indices can hash it once.
    std::uint64_t purpose_hash(StreamPurpose purpose) const {
        return mix64(master_ ^ (static_cast<std::uint64_t>(purpose) * 0xd1342543de82ef95ULL));
    }

    /// The second round: seed(purpose, index) == child_seed(purpose_hash(purpose), index).
    static std::uint64_t child_seed(std::uint64_t purpose_hash, std::uint64_t index) {
        return mix64(purpose_hash ^ (index * 0xaf251af3b0f025b5ULL));
    }

    /// Convenience: a generator seeded for (purpose, index).
    Xoshiro256 stream(StreamPurpose purpose, std::uint64_t index = 0) const;

    std::uint64_t master() const { return master_; }

private:
    std::uint64_t master_;
};

}  // namespace adba
