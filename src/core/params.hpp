// Committee sizing for Algorithm 3 (paper §3.2) and block-committee
// bookkeeping shared with the Chor-Coan baselines.
//
// The paper sets
//     c = min( α · ⌈t²/n⌉ · log n ,  3α · t / log n )   committees,
//     s = n / c                                          nodes each,
// nodes grouped by ID blocks: committee k = IDs in [k·s, (k+1)·s).
//
// Finite-n refinements:
//  * we clamp c to [1, n] and add a w.h.p. phase floor of ⌈γ·log2 n⌉ —
//    the paper's union-bound over good phases needs Ω(log n) phases, which
//    the asymptotic statement supplies implicitly; at small t the raw min
//    would give O(1) phases and only constant success probability. Early
//    termination makes the floor free in measured rounds.
//  * the last committee may be smaller than s (paper ignores this; we
//    handle it exactly).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "support/types.hpp"

namespace adba::core {

/// Partition of [0, n) into ID blocks of size `block` used as committees,
/// cycled across phases (phase p -> committee p mod num_blocks).
struct BlockSchedule {
    NodeId n = 0;
    NodeId block = 1;       ///< target committee size s
    Count num_blocks = 1;   ///< ceil(n / block)

    static BlockSchedule make(NodeId n, NodeId block_size);

    /// Committee index active in phase p.
    Count committee_of_phase(Phase p) const { return static_cast<Count>(p) % num_blocks; }
    /// Half-open ID range [first, last) of committee k.
    std::pair<NodeId, NodeId> range(Count k) const;
    /// True iff node v flips a coin in phase p.
    bool flips_in_phase(NodeId v, Phase p) const;
    /// Size of committee k (the last block may be short).
    NodeId size(Count k) const;

    friend bool operator==(const BlockSchedule&, const BlockSchedule&) = default;
};

/// Tunable analysis constants (paper's α plus our finite-n γ floor and the
/// Chor-Coan group-size β).
///
/// Default α = 4: the paper's analysis wants α - 4·sqrt(α) >= γ (α ≈ 18 for
/// γ = 1), which is very conservative; empirically the protocol needs the
/// total phase-ruin cost  c · ½·sqrt(n/c) = ½·sqrt(c·n)  (the greedy rushing
/// adversary's bill for ruining every phase, which scales with sqrt(α)) to
/// exceed the corruption budget t with margin. α = 2 leaves t = n/3 at
/// n = 64 right at the boundary (~10% measured failure; bench_e9's α
/// ablation regenerates it); α = 4 restores w.h.p. behaviour across the measured range while
/// keeping rounds small through early termination.
struct Tuning {
    double alpha = 4.0;  ///< paper's α (committee count multiplier)
    double gamma = 2.0;  ///< w.h.p. phase floor multiplier (finite-n)
    double beta = 1.0;   ///< Chor-Coan classic group size multiplier (β·log2 n)

    friend bool operator==(const Tuning&, const Tuning&) = default;
};

/// AgreementParams::compute's bound on the tuning, as an input error: a
/// message naming alpha, its bound and the value given, or nullopt. Every
/// workload that computes Algorithm 3's parameters checks it before any
/// trial runs.
std::optional<std::string> why_bad_tuning(const Tuning& tune);

/// Fully resolved parameters for one Algorithm 3 instance.
struct AgreementParams {
    NodeId n = 0;
    Count t = 0;         ///< tolerated Byzantine budget, t < n/3
    Count phases = 1;    ///< c (w.h.p. mode runs exactly this many phases)
    BlockSchedule schedule;

    /// Computes c and s per the paper's formula with the finite-n floor.
    /// Requires n >= 1 and t < n/3 (n >= 3t+1).
    static AgreementParams compute(NodeId n, Count t, const Tuning& tune = {});
};

/// The paper's round budget for the w.h.p. protocol: 2 rounds per phase plus
/// one flush phase for finishers (Lemma 4's "+2 phases").
Round max_rounds_whp(const AgreementParams& p);

/// Number of committees Algorithm 3 uses, before the w.h.p. floor — the raw
/// min(α⌈t²/n⌉log n, 3αt/log n). Exposed for tests and the analysis module.
Count raw_committee_count(NodeId n, Count t, double alpha);

}  // namespace adba::core
