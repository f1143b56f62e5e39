#include "rand/rng.hpp"

#include "support/contracts.hpp"

namespace adba {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
    // xoshiro must not be seeded with the all-zero state; splitmix expansion
    // of any seed (including 0) avoids that with probability 1 in practice,
    // and we guard explicitly regardless.
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64_next(sm);
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Xoshiro256::result_type Xoshiro256::operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t Xoshiro256::below(std::uint64_t bound) {
    ADBA_EXPECTS(bound > 0);
    if ((bound & (bound - 1)) == 0) return (*this)() & (bound - 1);  // power of two
    // Classic rejection sampling: draw from the largest multiple of `bound`
    // below 2^64 so the modulo is exactly uniform.
    const std::uint64_t limit = (~0ULL / bound) * bound;
    std::uint64_t x = (*this)();
    while (x >= limit) x = (*this)();
    return x % bound;
}

double Xoshiro256::uniform01() {
    // 53 high-quality bits into the mantissa.
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

Bit Xoshiro256::bit() { return static_cast<Bit>((*this)() >> 63); }

CoinSign Xoshiro256::sign() { return bit() ? CoinSign{1} : CoinSign{-1}; }

bool Xoshiro256::bernoulli(double p) {
    ADBA_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform01() < p;
}

}  // namespace adba
