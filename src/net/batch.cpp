#include "net/batch.hpp"

#include "support/contracts.hpp"

namespace adba::net {

void BatchProtocol::receive_all(Round, const RoundBuffer&, const DeliverySource&) {
    throw ContractViolation("this batch has no DeliverySource form; its receive "
                            "beats read the round's shared tally");
}

void BatchProtocol::send_range(Round, RoundBuffer&, NodeId, NodeId) {
    ADBA_EXPECTS_MSG(false, "send_range called on a non-shardable batch");
}

void BatchProtocol::receive_prepare(Round, const RoundBuffer&, const RoundTally&) {}

void BatchProtocol::receive_range(Round, const RoundBuffer&, const RoundTally&,
                                  NodeId, NodeId) {
    ADBA_EXPECTS_MSG(false, "receive_range called on a non-shardable batch");
}

void BatchProtocol::receive_sparse_prepare(Round, const RoundBuffer&,
                                           const RoundTally&, const SparsePlane&) {}

void BatchProtocol::receive_sparse_range(Round, const RoundBuffer&,
                                         const RoundTally&, const SparsePlane&,
                                         NodeId, NodeId) {
    ADBA_EXPECTS_MSG(false,
                     "receive_sparse_range called on a batch without sparse support");
}

void PerNodeBatch::rearm(std::vector<std::unique_ptr<HonestNode>> nodes) {
    nodes_ = std::move(nodes);
    for (const auto& p : nodes_) ADBA_EXPECTS(p != nullptr);
    halted_.assign(nodes_.size(), 0);
    for (NodeId v = 0; v < nodes_.size(); ++v)
        halted_[v] = nodes_[v]->halted() ? 1 : 0;
}

std::vector<std::unique_ptr<HonestNode>> PerNodeBatch::take_nodes() {
    return std::move(nodes_);
}

void PerNodeBatch::send_all(Round r, RoundBuffer& buf) {
    const std::uint8_t* state = buf.state_plane();
    const NodeId n = this->n();
    for (NodeId v = 0; v < n; ++v) {
        if ((state[v] & RoundBuffer::kByzantine) != 0 || halted_[v]) continue;
        if (const auto m = nodes_[v]->round_send(r)) buf.set_broadcast(v, *m);
        // Finish-flush protocols halt at send time; latch it for the beat's
        // accounting and the all-halted check.
        if (nodes_[v]->halted()) halted_[v] = 1;
    }
}

void PerNodeBatch::receive_all(Round r, const RoundBuffer& buf,
                               const RoundTally& tally) {
    const std::uint8_t* state = buf.state_plane();
    const NodeId n = this->n();
    for (NodeId v = 0; v < n; ++v) {
        if ((state[v] & RoundBuffer::kByzantine) != 0 || halted_[v]) continue;
        nodes_[v]->round_receive(r, ReceiveView(buf, tally, v));
        if (nodes_[v]->halted()) halted_[v] = 1;
    }
}

// --------------------------------------------------------------- BeatCounts

BeatCounts BeatCounts::flat(const BeatQuery& q, const RoundBuffer& buf,
                            const RoundTally& tally) {
    BeatCounts c(q, buf);
    if (q.counts) {
        // Honest counts are receiver-independent: read once per beat; only
        // the Byzantine delta plane varies per receiver.
        if (const TallyBucket* b = tally.find(q.kind, q.phase))
            c.base_ = q.require_flag ? b->val_flag_cnt : b->val_cnt;
        c.delta_ = tally.val_delta_plane(q.kind, q.phase, q.require_flag);
    }
    c.hoist_coin(tally);
    return c;
}

BeatCounts BeatCounts::sampled(const BeatQuery& q, const RoundBuffer& buf,
                               const RoundTally& tally, const SparsePlane& sparse) {
    BeatCounts c(q, buf);
    c.exact_ = sparse.dense();
    c.sparse_ = &sparse;
    if (q.counts) c.sparse_query_ = sparse.query(q.kind, q.phase, q.require_flag);
    // The committee coin is the sparse plane's exact island: every receiver
    // hears the committee in full through the shared tally, so the coin is
    // the same integer at any sampling degree.
    c.hoist_coin(tally);
    return c;
}

void BeatCounts::hoist_coin(const RoundTally& tally) {
    if (q_.coin_first >= q_.coin_last) return;
    // Eager: the tally's lazy caches must not be built from concurrent
    // shards, so the beat pays for them up front even when no receiver
    // lands on the coin — a cache build, not an observable draw.
    if (const TallyBucket* b = tally.find(q_.kind, q_.phase))
        honest_coin_ = tally.coin_range_sum(*b, q_.coin_first, q_.coin_last);
    coin_delta_ = tally.coin_delta_plane(q_.kind, q_.phase, /*check_phase=*/true,
                                         q_.coin_first, q_.coin_last);
}

// -------------------------------------------------------------- NativeBatch

void NativeBatch::receive_all(Round r, const RoundBuffer& buf, const RoundTally& tally) {
    receive_prepare(r, buf, tally);
    receive_rule(r, prep_, 0, n());
}

void NativeBatch::receive_prepare(Round r, const RoundBuffer& buf,
                                  const RoundTally& tally) {
    prep_ = BeatCounts::flat(beat_query(r), buf, tally);
}

void NativeBatch::receive_range(Round r, const RoundBuffer&, const RoundTally&,
                                NodeId lo, NodeId hi) {
    receive_rule(r, prep_, lo, hi);
}

void NativeBatch::receive_sparse_prepare(Round r, const RoundBuffer& buf,
                                         const RoundTally& tally,
                                         const SparsePlane& sparse) {
    prep_ = BeatCounts::sampled(beat_query(r), buf, tally, sparse);
}

void NativeBatch::receive_sparse_range(Round r, const RoundBuffer&, const RoundTally&,
                                       const SparsePlane&, NodeId lo, NodeId hi) {
    receive_rule(r, prep_, lo, hi);
}

}  // namespace adba::net
