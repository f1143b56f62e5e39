// Wire message representation for all protocols in the repository.
//
// Every protocol here is a full-broadcast-per-round protocol on a complete
// network (paper §1.1), so a round's traffic is one message per live sender.
// A single compact struct covers all protocols; each protocol interprets the
// generic fields (val / flag / coin) per its own message grammar.
//
// CONGEST accounting: the paper assumes O(log n) bits per edge per round.
// All messages here fit: constant payload + a phase counter bounded by the
// number of phases c <= n.
#pragma once

#include <cstdint>

#include "support/math.hpp"
#include "support/types.hpp"

namespace adba::net {

/// Discriminates the protocol-level meaning of a message.
enum class MsgKind : std::uint8_t {
    None = 0,       ///< placeholder; never sent
    Vote1,          ///< Algorithm 3 round 1 of a phase: (phase, val, decided)
    Vote2,          ///< Algorithm 3 round 2: (phase, val, decided, coin if committee member)
    Coin,           ///< standalone coin flip broadcast (Algorithm 1 / 2 run alone)
    PhaseKingSend,  ///< Phase-King value broadcast rounds
    PhaseKingRuler, ///< Phase-King king broadcast round
    BenOrReport,    ///< Ben-Or round 1 (report value)
    BenOrPropose,   ///< Ben-Or round 2 (propose value or '?')
    TCValue,        ///< Turpin-Coan prelude round 1: multi-valued input word
    TCEcho,         ///< Turpin-Coan prelude round 2: quorum'd word or ⊥ (flag=0)
};

/// A multi-valued agreement payload (Turpin-Coan extension); the binary
/// protocols leave it 0.
using Word = std::uint32_t;

/// One broadcastable protocol message. Sender identity is supplied by the
/// delivery layer (the receiver always knows the sender, paper §1.1).
struct Message {
    MsgKind kind = MsgKind::None;
    Bit val = 0;            ///< binary payload (vote / proposal value)
    std::uint8_t flag = 0;  ///< boolean payload (Alg. 3 "decided"; Ben-Or/TC "⊥" marker)
    CoinSign coin = 0;      ///< ±1 coin contribution; 0 = no contribution
    Phase phase = 0;        ///< phase number for phase-structured protocols
    Word word = 0;          ///< multi-valued payload (TCValue / TCEcho only)

    friend bool operator==(const Message&, const Message&) = default;
};

/// True for the multi-valued prelude kinds, whose wire form also carries the
/// word payload.
constexpr bool carries_word(MsgKind kind) {
    return kind == MsgKind::TCValue || kind == MsgKind::TCEcho;
}

/// Wire bits the word payload adds to a carries_word() message.
inline constexpr std::uint64_t kWordWireBits = 8 * sizeof(Word);

/// Size of a message on the wire in bits, for CONGEST accounting:
/// 4 (kind) + 1 (val) + 1 (flag) + 2 (coin) + phase counter of
/// ceil(log2(n+1)) bits (phases are bounded by c <= n), plus the word
/// payload for the multi-valued prelude kinds (a domain value of up to 32
/// bits; still O(log n) for polynomial domains).
inline std::uint64_t wire_bits(const Message& m, NodeId n) {
    const std::uint64_t base = 8 + ceil_log2(static_cast<std::uint64_t>(n) + 1);
    return carries_word(m.kind) ? base + kWordWireBits : base;
}

}  // namespace adba::net
