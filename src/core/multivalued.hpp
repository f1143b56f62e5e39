// Multi-valued Byzantine agreement via the Turpin-Coan reduction (IPL 1984)
// on top of Algorithm 3 — the extension any adopter of a binary BA library
// asks for first. Two prelude broadcast rounds reduce agreement over an
// arbitrary 32-bit domain to one binary agreement, preserving t < n/3:
//
//   prelude 1: broadcast the input word w_v; if some word reaches the n-t
//              quorum, remember it as the echo candidate, else echo ⊥;
//   prelude 2: broadcast the echo; x* := the most frequent non-⊥ echo,
//              m := its multiplicity; binary input := (m >= n-t).
//   then     : run Algorithm 3 on the binary input; output x* if it decides
//              1, otherwise the fixed fallback word.
//
// Safety sketch (tested, not proved here): two honest nodes cannot echo
// different words (two n-t quorums intersect in an honest node); if the
// binary protocol decides 1, validity forces at least one honest binary
// input 1, so >= n-2t >= t+1 honest echoed x*, which then dominates every
// other word at every honest node — all honest x* agree.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "core/skeleton.hpp"
#include "net/node.hpp"
#include "rand/seed_tree.hpp"

namespace adba::core {

struct MultiValuedParams {
    AgreementParams binary;      ///< inner Algorithm 3 parameters
    net::Word fallback = 0;      ///< output when the binary protocol decides 0
    /// Inner protocol mode; LasVegas gives the always-agree multi-valued
    /// variant (the inner run cycles committees until termination).
    AgreementMode mode = AgreementMode::WhpFixedPhases;

    static MultiValuedParams compute(NodeId n, Count t, const Tuning& tune = {},
                                     net::Word fallback = 0,
                                     AgreementMode mode = AgreementMode::WhpFixedPhases);
};

/// One participant of the Turpin-Coan reduction wrapping Algorithm 3.
class TurpinCoanNode final : public net::HonestNode {
public:
    /// An unarmed node; reinit() arms it.
    TurpinCoanNode() = default;
    TurpinCoanNode(const MultiValuedParams& params, NodeId self, net::Word input,
                   Xoshiro256 rng);

    /// Arms the node for a fresh trial (the constructor's contract). The
    /// embedded Algorithm 3 node is re-armed when the prelude fixes its
    /// input.
    void reinit(const MultiValuedParams& params, NodeId self, net::Word input,
                Xoshiro256 rng);

    std::optional<net::Message> round_send(Round r) override;
    void round_receive(Round r, const net::ReceiveView& view) override;
    bool halted() const override;
    /// Binary view (the inner protocol's bit); use output_word() for the
    /// multi-valued result.
    Bit current_value() const override;
    bool current_decided() const override;

    /// The agreed word (valid once halted).
    net::Word output_word() const;
    /// True when the network agreed on a proposed word rather than falling
    /// back (binary outcome 1).
    bool decided_real_value() const;

private:
    MultiValuedParams params_;
    NodeId self_ = 0;
    Xoshiro256 rng_;
    net::Word input_ = 0;
    // Prelude state.
    std::optional<net::Word> echo_;  ///< nullopt = ⊥
    net::Word x_star_ = 0;
    bool x_star_valid_ = false;
    // Inner binary protocol (Algorithm 3's skeleton node), armed when the
    // prelude fixes its input; inner_live_ marks whether the current trial's
    // prelude has armed it yet.
    RabinSkeletonNode inner_;
    bool inner_live_ = false;
};

/// Builds (into an empty pool) or re-arms the node set of one trial.
void arm_turpin_coan_nodes(const MultiValuedParams& params,
                           const std::vector<net::Word>& inputs, const SeedTree& seeds,
                           std::vector<std::unique_ptr<net::HonestNode>>& nodes);

/// Engine round budget: 2 prelude rounds + the binary budget.
Round max_rounds_whp(const MultiValuedParams& p);

}  // namespace adba::core
