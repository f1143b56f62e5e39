#include "rand/rng.hpp"

#include "support/contracts.hpp"

namespace adba {

Xoshiro256::Xoshiro256(std::uint64_t seed) {
    // xoshiro must not be seeded with the all-zero state; splitmix expansion
    // of any seed (including 0) avoids that with probability 1 in practice,
    // and we guard explicitly regardless.
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64_next(sm);
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
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
