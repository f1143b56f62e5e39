// Deterministic pseudo-randomness for reproducible simulation.
//
// The paper's protocols need only unbiased coin flips (Algorithm 1 line 1),
// but the simulator, adversaries, and workload generators need general
// deterministic streams. We implement:
//  * splitmix64 — seed expansion / hashing (Steele et al.), used to derive
//    independent stream seeds,
//  * xoshiro256** — the working generator (Blackman & Vigna), fast and
//    well-distributed, one independent instance per (node, purpose).
//
// Nothing here is cryptographic — the full-information model explicitly
// grants the adversary knowledge of all random choices, so the simulator
// hands them over; secrecy would be pointless (paper §1.1).
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "support/contracts.hpp"
#include "support/types.hpp"

namespace adba {

/// splitmix64 step: advances the state and returns a 64-bit output.
/// Standard constants from the reference implementation.
inline std::uint64_t splitmix64_next(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// One-shot avalanche hash of a 64-bit value (splitmix64 finalizer).
inline std::uint64_t mix64(std::uint64_t x) { return splitmix64_next(x); }

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
public:
    using result_type = std::uint64_t;

    /// Seeds the four words via splitmix64 from a single seed, per the
    /// generator authors' recommendation.
    explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /// The generator in state `s`, as state() reads it: a saved position
    /// of a stream, or a crafted one. `s` must not be all zero.
    static Xoshiro256 from_state(const std::array<std::uint64_t, 4>& s) {
        ADBA_EXPECTS(s[0] != 0 || s[1] != 0 || s[2] != 0 || s[3] != 0);
        Xoshiro256 g(State{});
        g.s_ = s;
        return g;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    result_type operator()() {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /// The first output of Xoshiro256(seed), without building the state:
    /// xoshiro256** reads only s[1], the second splitmix64 word of the seed
    /// (the all-zero guard touches only s[0]).
    static result_type first_output(std::uint64_t seed) {
        splitmix64_next(seed);
        return std::rotl(splitmix64_next(seed) * 5, 7) * 9;
    }

    /// Uniform integer in [0, bound) by modulo rejection: x % bound of a
    /// draw x below the largest multiple of bound in [0, 2^64), redrawn
    /// otherwise. That multiple exceeds 2^64 - 1 - bound, so only a draw
    /// above it can be rejected, and only that draw pays for computing the
    /// multiple: one division per draw. Inline, so that a caller's loop of
    /// draws keeps the state in registers.
    std::uint64_t below(std::uint64_t bound) {
        ADBA_EXPECTS(bound > 0);
        if ((bound & (bound - 1)) == 0) return (*this)() & (bound - 1);  // power of two
        std::uint64_t x = (*this)();
        if (x > ~0ULL - bound) {
            // limit = 2^64 - 1 - (2^64 - 1) % bound > 2^64 - 1 - bound: only
            // here can x reach it.
            const std::uint64_t limit = (~0ULL / bound) * bound;
            while (x >= limit) x = (*this)();
        }
        return x % bound;
    }

    /// Uniform double in [0, 1).
    double uniform01();

    /// Fair bit: 0 or 1 with probability 1/2 each.
    Bit bit();

    /// Fair sign: -1 or +1 with probability 1/2 each (Algorithm 1 line 1).
    CoinSign sign();

    /// Bernoulli(p).
    bool bernoulli(double p);

    const std::array<std::uint64_t, 4>& state() const { return s_; }

private:
    struct State {};
    explicit Xoshiro256(State) : s_{} {}

    std::array<std::uint64_t, 4> s_;
};

}  // namespace adba
