#include "net/sparse_plane.hpp"

#include "net/tally_kernels.hpp"
#include "support/contracts.hpp"

namespace adba::net {

void SparsePlane::reset(NodeId n, Count requested_degree, std::uint64_t seed) {
    ADBA_EXPECTS(n > 0);
    n_ = n;
    seed_ = seed;
    const Count want = requested_degree == 0 ? kDefaultSampleDegree : requested_degree;
    dense_ = want >= n;
    degree_ = dense_ ? n : static_cast<NodeId>(want);
    round_ = 0;
    buf_ = nullptr;
    tally_ = nullptr;
    state_ = nullptr;
    byz_ = nullptr;
    // The per-query code plane: 2 code words per 64-sender source word.
    // Dense mode never probes through it, so keep it empty there (and keep
    // memory_bytes() an honest zero).
    code_.clear();
    code_.shrink_to_fit();
    if (!dense_)
        code_.resize(2 * ((static_cast<std::size_t>(n_) + kern::kWordBits - 1) /
                          kern::kWordBits));
}

void SparsePlane::begin_round(Round r, const RoundBuffer& buf,
                              const RoundTally& tally) {
    ADBA_EXPECTS_MSG(buf.n() == n_, "SparsePlane bound to a different population");
    ADBA_EXPECTS_MSG(tally.packed(), "sparse mode reads the word-packed tally planes");
    round_ = r;
    buf_ = &buf;
    tally_ = &tally;
    state_ = buf.state_plane();
    byz_ = tally.packed_planes().byz.data();
}

SparsePlane::Query SparsePlane::query(MsgKind kind, Phase phase,
                                      bool require_flag) const {
    // The per-beat resolution point: every precondition and pointer chase
    // the per-receiver walk would otherwise repeat n times lives here.
    ADBA_EXPECTS_MSG(tally_ != nullptr && buf_ != nullptr,
                     "query before begin_round");
    Query q;
    q.kind = kind;
    q.phase = phase;
    q.require_flag = require_flag;
    if (const TallyBucket* b = tally_->find(kind, phase)) {
        const kern::PackedPlanes& planes = tally_->packed_planes();
        q.match = b->match.data();
        q.val = planes.val.data();
        q.flag = planes.flag.data();
    }
    if (!dense_) {
        // Fold the query's planes into the 2-bit code plane the batched
        // probe kernel gathers from — one O(n/64) pass per beat, amortized
        // against the n*degree probes that read it. The buffer is plane-
        // owned: building it here is what invalidates earlier Query
        // handles (see the header contract).
        kern::SparseProbeCtx ctx;
        ctx.byz = byz_;
        ctx.match = q.match;
        ctx.val = q.val;
        ctx.flag = q.flag;
        ctx.require_flag = require_flag;
        kern::sparse_build_code_plane(ctx, code_.size() / 2, code_.data());
        q.code = code_.data();
    }
    return q;
}

void SparsePlane::probe(const Query& q, NodeId receiver, NodeId sender,
                        std::array<Count, 2>& c) const {
    const std::uint8_t st = state_[sender];
    if ((st & RoundBuffer::kByzantine) != 0) {
        // Adversarial edge: the O(1) pattern/dense row probe, so sampled
        // edges see exactly the equivocation the flat plane would deliver.
        if (const Message* m = buf_->from(receiver, sender)) {
            if (m->kind == q.kind && m->phase == q.phase &&
                (!q.require_flag || m->flag != 0))
                ++c[m->val & 1];
        }
        return;
    }
    if (q.match == nullptr) return;  // no honest broadcast in this bucket
    const std::size_t w = sender / kern::kWordBits;
    const std::uint64_t bit = std::uint64_t{1} << (sender % kern::kWordBits);
    // The attribute planes are unmasked (tally_kernels.hpp): the match bit
    // gates them, so stale val/flag bits of silent senders are never read.
    if ((q.match[w] & bit) == 0) return;
    if (q.require_flag && (q.flag[w] & bit) == 0) return;
    ++c[(q.val[w] & bit) != 0 ? 1 : 0];
}

std::array<Count, 2> SparsePlane::raw_counts(const Query& q, NodeId receiver) const {
    std::array<Count, 2> c{0, 0};
    if (dense_) {
        // Dense exact walk: per-sender probes over the whole population —
        // an independent re-derivation of the flat tally's integers, which
        // is what pins sparse == flat at small n.
        for (NodeId u = 0; u < n_; ++u) probe(q, receiver, u, c);
        return c;
    }
    // Batched with-replacement draws keyed by (seed, round, receiver, i):
    // 64-lane index blocks, one gathered 2-bit code read per honest lane,
    // exact pattern-row walks for the (rare) Byzantine lanes
    // (net/sparse_kernels.hpp).
    kern::sparse_count_receiver(
        seed_, round_, receiver, n_, degree_, q.code, c,
        [&](NodeId sender) {
            if (const Message* m = buf_->from(receiver, sender)) {
                if (m->kind == q.kind && m->phase == q.phase &&
                    (!q.require_flag || m->flag != 0))
                    ++c[m->val & 1];
            }
        });
    return c;
}

std::array<Count, 2> SparsePlane::val_estimates(const Query& q,
                                                NodeId receiver) const {
    const std::array<Count, 2> c = raw_counts(q, receiver);
    if (dense_) return c;
    return {scale(c[0]), scale(c[1])};
}

}  // namespace adba::net
