#include "net/round_buffer.hpp"

#include <algorithm>

namespace adba::net {

// -------------------------------------------------------------- RoundBuffer

void RoundBuffer::reset(NodeId n) {
    ADBA_EXPECTS(n > 0);
    n_ = n;
    honest_.resize(n);
    state_.assign(n, 0);
    byz_row_index_.assign(n, -1);
    row_sender_.clear();
    row_mode_.clear();
    row_slot_.clear();
    rows_in_use_ = 0;
    slots_in_use_ = 0;
}

void RoundBuffer::begin_round() {
    for (NodeId v = 0; v < n_; ++v) state_[v] &= kByzantine;
    std::fill(byz_row_index_.begin(), byz_row_index_.end(), -1);
    row_sender_.clear();
    row_mode_.clear();
    row_slot_.clear();
    rows_in_use_ = 0;
    slots_in_use_ = 0;
}

std::optional<Message> RoundBuffer::corrupt(NodeId v) {
    ADBA_EXPECTS(v < n_);
    std::optional<Message> discarded;
    if (state_[v] == kPresent) discarded = honest_[v];
    state_[v] = kByzantine;
    return discarded;
}

std::int32_t RoundBuffer::ensure_row(NodeId v) {
    std::int32_t row = byz_row_index_[v];
    if (row >= 0) return row;
    if (row_pattern_.size() <= rows_in_use_) row_pattern_.resize(rows_in_use_ + 1);
    row = static_cast<std::int32_t>(rows_in_use_);
    byz_row_index_[v] = row;
    row_sender_.push_back(v);
    row_mode_.push_back(kRowDense);
    row_slot_.push_back(-1);  // dense cells assigned only when needed
    ++rows_in_use_;
    return row;
}

void RoundBuffer::assign_dense_slot(std::size_t row) {
    const std::size_t slot = slots_in_use_++;
    if ((slot + 1) * n_ > byz_msgs_.size()) {
        byz_msgs_.resize((slot + 1) * n_);
        byz_present_.resize((slot + 1) * n_);
    }
    row_slot_[row] = static_cast<std::int32_t>(slot);
    std::fill_n(byz_present_.begin() + static_cast<std::ptrdiff_t>(slot * n_), n_,
                std::uint8_t{0});
}

void RoundBuffer::densify(std::size_t row) {
    if (row_mode_[row] == kRowDense) return;
    const RowPattern p = row_pattern_[row];
    assign_dense_slot(row);
    const std::size_t base = static_cast<std::size_t>(row_slot_[row]) * n_;
    for (NodeId to = 0; to < n_; ++to) {
        const int side = to < p.boundary ? 0 : 1;
        byz_present_[base + to] = p.present[side];
        if (p.present[side]) byz_msgs_[base + to] = p.msg[side];
    }
    row_mode_[row] = kRowDense;
}

bool RoundBuffer::deliver(NodeId byz_from, NodeId to, const Message& m) {
    ADBA_EXPECTS(byz_from < n_ && to < n_);
    const std::int32_t prior = byz_row_index_[byz_from];
    const std::size_t row = static_cast<std::size_t>(ensure_row(byz_from));
    if (prior < 0) {
        assign_dense_slot(row);  // fresh dense row: clear its cells once
    } else {
        densify(row);
    }
    const std::size_t off = static_cast<std::size_t>(row_slot_[row]) * n_ + to;
    const bool fresh = byz_present_[off] == 0;
    byz_present_[off] = 1;
    byz_msgs_[off] = m;
    return fresh;
}

Count RoundBuffer::deliver_row(NodeId byz_from, const Message* cells) {
    ADBA_EXPECTS(byz_from < n_);
    const std::int32_t prior = byz_row_index_[byz_from];
    const std::size_t row = static_cast<std::size_t>(ensure_row(byz_from));
    if (prior < 0) {
        assign_dense_slot(row);
    } else {
        densify(row);
    }
    const std::size_t base = static_cast<std::size_t>(row_slot_[row]) * n_;
    std::uint8_t* present = byz_present_.data() + base;
    const Count covered =
        prior < 0 ? 0 : static_cast<Count>(std::count(present, present + n_, 1));
    std::fill_n(present, n_, std::uint8_t{1});
    std::copy_n(cells, n_, byz_msgs_.begin() + static_cast<std::ptrdiff_t>(base));
    return n_ - covered;
}

Count RoundBuffer::apply_pattern(NodeId byz_from, const Message* low,
                                 const Message* high, NodeId boundary) {
    ADBA_EXPECTS(byz_from < n_ && boundary <= n_);
    const std::int32_t prior = byz_row_index_[byz_from];
    const std::size_t row = static_cast<std::size_t>(ensure_row(byz_from));
    if (prior < 0) {
        row_mode_[row] = kRowPattern;
        RowPattern& p = row_pattern_[row];
        p.boundary = boundary;
        p.present[0] = low != nullptr ? 1 : 0;
        p.present[1] = high != nullptr ? 1 : 0;
        if (low) p.msg[0] = *low;
        if (high) p.msg[1] = *high;
        Count fresh = 0;
        if (low) fresh += boundary;
        if (high) fresh += n_ - boundary;
        return fresh;
    }
    // Merge with earlier deliveries from the same sender: materialize and
    // overwrite cellwise, counting newly covered slots.
    densify(row);
    const std::size_t base = static_cast<std::size_t>(row_slot_[row]) * n_;
    Count fresh = 0;
    for (NodeId to = 0; to < n_; ++to) {
        const Message* m = to < boundary ? low : high;
        if (m == nullptr) continue;
        if (byz_present_[base + to] == 0) ++fresh;
        byz_present_[base + to] = 1;
        byz_msgs_[base + to] = *m;
    }
    return fresh;
}

// --------------------------------------------------------------- RoundTally

void RoundTally::rebuild(const RoundBuffer& buf, bool packed, IntraDispatcher* intra) {
    buf_ = &buf;
    buckets_in_use_ = 0;  // recycle bucket storage; no per-round allocation
    val_caches_in_use_ = 0;
    coin_caches_in_use_ = 0;
    packed_ = packed;
    if (packed)
        rebuild_packed(buf, intra);
    else
        rebuild_scalar(buf);
}

/// Finds or creates the (kind, phase) bucket for the current round; in
/// packed mode (words > 0) a fresh bucket gets a zeroed full-width match
/// plane. Creation order IS the serial discovery order: scalar rebuild
/// discovers by ascending sender, packed rebuild merges shard-local
/// buckets in shard-index order, and shard s covers lower senders than
/// shard s+1, so first occurrences arrive in the same order.
TallyBucket& RoundTally::bucket_for(MsgKind kind, Phase phase, std::size_t words) {
    for (std::size_t i = 0; i < buckets_in_use_; ++i)
        if (buckets_[i].kind == kind && buckets_[i].phase == phase)
            return buckets_[i];
    if (buckets_.size() <= buckets_in_use_) buckets_.resize(buckets_in_use_ + 1);
    TallyBucket& b = buckets_[buckets_in_use_++];
    b.kind = kind;
    b.phase = phase;
    b.val_cnt = {0, 0};
    b.val_flag_cnt = {0, 0};
    b.total = 0;
    b.have_coin_prefix = false;  // lazy storage keeps its capacity
    b.have_words = false;
    if (words > 0) b.match.assign(words, 0);
    return b;
}

void RoundTally::rebuild_scalar(const RoundBuffer& buf) {
    const NodeId n = buf.n();
    const std::uint8_t* state = buf.state_plane();
    const Message* honest = buf.honest_plane();
    for (NodeId v = 0; v < n; ++v) {
        if (state[v] != RoundBuffer::kPresent) continue;
        const Message& m = honest[v];
        TallyBucket& b = bucket_for(m.kind, m.phase, 0);
        ++b.total;
        ++b.val_cnt[m.val & 1];
        if (m.flag != 0) ++b.val_flag_cnt[m.val & 1];
    }
}

void RoundTally::rebuild_packed(const RoundBuffer& buf, IntraDispatcher* intra) {
    const NodeId n = buf.n();
    const std::size_t words = kern::word_count(n);
    planes_.ensure(words);
    const unsigned shards = intra != nullptr ? intra->shards() : 1;
    if (pack_shards_.size() < shards) pack_shards_.resize(shards);

    // Pack pass: every shard fills its own word span of the attribute
    // planes and its own local bucket matches — disjoint writes, barrier
    // on return.
    kern::run_sharded(intra, n, [&](unsigned s, NodeId lo, NodeId hi) {
        kern::pack_shard(buf, lo, hi, planes_, pack_shards_[s]);
    });

    // Serial merge in shard-index order (see bucket_for on ordering).
    // Shard word spans are disjoint, so copies never overlap.
    for (unsigned s = 0; s < shards; ++s) {
        const kern::PackShard& sh = pack_shards_[s];
        for (std::size_t i = 0; i < sh.buckets_in_use; ++i) {
            const kern::PackShardBucket& lb = sh.buckets[i];
            TallyBucket& b = bucket_for(lb.kind, lb.phase, words);
            std::copy(lb.match.begin(), lb.match.end(),
                      b.match.begin() + static_cast<std::ptrdiff_t>(sh.word_lo));
        }
    }

    // Count reduction: popcounts over full-width planes. Exact integers —
    // val_cnt[0] falls out of total because val & 1 is binary.
    for (std::size_t i = 0; i < buckets_in_use_; ++i) {
        TallyBucket& b = buckets_[i];
        b.total = kern::popcount_words(b.match.data(), words);
        b.val_cnt[1] = kern::popcount_and(b.match.data(), planes_.val.data(), words);
        b.val_cnt[0] = b.total - b.val_cnt[1];
        const Count flag_total =
            kern::popcount_and(b.match.data(), planes_.flag.data(), words);
        b.val_flag_cnt[1] = kern::popcount_and3(b.match.data(), planes_.flag.data(),
                                                planes_.val.data(), words);
        b.val_flag_cnt[0] = flag_total - b.val_flag_cnt[1];
    }
}

const TallyBucket* RoundTally::find(MsgKind kind, Phase phase) const {
    for (std::size_t i = 0; i < buckets_in_use_; ++i)
        if (buckets_[i].kind == kind && buckets_[i].phase == phase)
            return &buckets_[i];
    return nullptr;
}

const std::vector<std::int64_t>& RoundTally::coin_prefix(const TallyBucket& b) const {
    if (!b.have_coin_prefix) {
        const NodeId n = buf_->n();
        b.coin_prefix.assign(n + 1, 0);
        const std::uint8_t* state = buf_->state_plane();
        const Message* honest = buf_->honest_plane();
        for (NodeId u = 0; u < n; ++u) {
            std::int64_t d = 0;
            if (state[u] == RoundBuffer::kPresent) {
                const Message& m = honest[u];
                if (m.kind == b.kind && m.phase == b.phase) {
                    if (m.coin > 0)
                        d = 1;
                    else if (m.coin < 0)
                        d = -1;
                }
            }
            b.coin_prefix[u + 1] = b.coin_prefix[u] + d;
        }
        b.have_coin_prefix = true;
    }
    return b.coin_prefix;
}

std::int64_t RoundTally::coin_range_sum(const TallyBucket& b, NodeId first,
                                        NodeId last) const {
    if (packed_)
        return kern::coin_sum_range(planes_.coin_pos.data(), planes_.coin_neg.data(),
                                    b.match.data(), first, last);
    const auto& prefix = coin_prefix(b);
    return prefix[last] - prefix[first];
}

namespace {

/// Sorts a raw (word, 1)-pair list and merges duplicates in place: the
/// flat-vector replacement for inserting into a std::map. Capacity is the
/// caller's; a recycled vector makes this allocation-free once warm.
void sort_aggregate(WordHistogram& h) {
    std::sort(h.begin(), h.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t out = 0;
    for (std::size_t i = 0; i < h.size();) {
        std::size_t j = i;
        Count total = 0;
        while (j < h.size() && h[j].first == h[i].first) total += h[j++].second;
        h[out++] = {h[i].first, total};
        i = j;
    }
    h.resize(out);
}

}  // namespace

const WordHistogram& RoundTally::word_counts(const TallyBucket& b,
                                             bool require_flag) const {
    if (!b.have_words) {
        b.words.clear();
        b.words_flag.clear();
        const NodeId n = buf_->n();
        const Message* honest = buf_->honest_plane();
        if (packed_) {
            // Word-sliced collection: iterate set bits of the bucket's
            // match plane (ctz per live sender) instead of branching on
            // every sender's state/kind/phase bytes. Same senders in the
            // same ascending order — identical histograms.
            const std::size_t words = kern::word_count(n);
            kern::for_each_set_bit(b.match.data(), words, [&](NodeId u) {
                const Message& m = honest[u];
                b.words.emplace_back(m.word, Count{1});
                if (m.flag != 0) b.words_flag.emplace_back(m.word, Count{1});
            });
        } else {
            const std::uint8_t* state = buf_->state_plane();
            for (NodeId u = 0; u < n; ++u) {
                if (state[u] != RoundBuffer::kPresent) continue;
                const Message& m = honest[u];
                if (m.kind != b.kind || m.phase != b.phase) continue;
                b.words.emplace_back(m.word, Count{1});
                if (m.flag != 0) b.words_flag.emplace_back(m.word, Count{1});
            }
        }
        sort_aggregate(b.words);
        sort_aggregate(b.words_flag);
        b.have_words = true;
    }
    return require_flag ? b.words_flag : b.words;
}

const std::array<Count, 2>* RoundTally::val_delta_plane(MsgKind kind, Phase phase,
                                                        bool require_flag) const {
    const std::size_t rows = buf_->rows_in_use();
    if (rows == 0) return nullptr;
    for (std::size_t c = 0; c < val_caches_in_use_; ++c) {
        const ValCache& vc = val_caches_[c];
        if (vc.kind == kind && vc.phase == phase && vc.flag == require_flag)
            return vc.delta.data();
    }
    // Build the per-receiver delta array once for this query signature:
    // pattern rows contribute piecewise-constant runs as a DIFFERENCE SWEEP
    // (+1 at the run start, -1 past its end, prefix-summed once at the end)
    // so k pattern rows cost O(n + k), not O(n * k) — with t split-voting
    // Byzantine senders the latter was the dominant large-n term. Dense
    // rows are probed cellwise after the sweep resolves.
    if (val_caches_.size() <= val_caches_in_use_)
        val_caches_.resize(val_caches_in_use_ + 1);
    ValCache& vc = val_caches_[val_caches_in_use_++];
    vc.kind = kind;
    vc.phase = phase;
    vc.flag = require_flag;
    const NodeId n = buf_->n();
    vc.delta.assign(n, {Count{0}, Count{0}});
    const auto matches = [&](const Message& m) {
        return m.kind == kind && m.phase == phase && (!require_flag || m.flag != 0);
    };
    bool any_pattern = false;
    for (std::size_t r = 0; r < rows; ++r) {
        if (buf_->row_mode(r) != RoundBuffer::kRowPattern) continue;
        const RoundBuffer::RowPattern& p = buf_->row_pattern(r);
        for (int side = 0; side < 2; ++side) {
            if (!p.present[side] || !matches(p.msg[side])) continue;
            const NodeId lo = side == 0 ? 0 : p.boundary;
            const NodeId hi = side == 0 ? p.boundary : n;
            if (lo >= hi) continue;
            const int idx = p.msg[side].val & 1;
            // Unsigned wraparound in the -1 marker is intentional: the
            // prefix sum below restores the true (non-negative) counts.
            ++vc.delta[lo][idx];
            if (hi < n) --vc.delta[hi][idx];
            any_pattern = true;
        }
    }
    if (any_pattern) {
        for (NodeId v = 1; v < n; ++v) {
            vc.delta[v][0] += vc.delta[v - 1][0];
            vc.delta[v][1] += vc.delta[v - 1][1];
        }
    }
    for (std::size_t r = 0; r < rows; ++r) {
        if (buf_->row_mode(r) == RoundBuffer::kRowPattern) continue;
        for (NodeId v = 0; v < n; ++v) {
            const Message* m = buf_->row_delivery(r, v);
            if (m != nullptr && matches(*m)) ++vc.delta[v][m->val & 1];
        }
    }
    return vc.delta.data();
}

const std::array<Count, 2>* RoundTally::val_deltas(MsgKind kind, Phase phase,
                                                   bool require_flag,
                                                   NodeId receiver) const {
    const auto* plane = val_delta_plane(kind, phase, require_flag);
    return plane == nullptr ? nullptr : plane + receiver;
}

const std::int64_t* RoundTally::coin_delta_plane(MsgKind kind, Phase phase,
                                                 bool check_phase, NodeId first,
                                                 NodeId last) const {
    const std::size_t rows = buf_->rows_in_use();
    if (rows == 0) return nullptr;
    for (std::size_t c = 0; c < coin_caches_in_use_; ++c) {
        const CoinCache& cc = coin_caches_[c];
        if (cc.kind == kind && cc.phase == phase && cc.check_phase == check_phase &&
            cc.first == first && cc.last == last)
            return cc.delta.data();
    }
    if (coin_caches_.size() <= coin_caches_in_use_)
        coin_caches_.resize(coin_caches_in_use_ + 1);
    CoinCache& cc = coin_caches_[coin_caches_in_use_++];
    cc.kind = kind;
    cc.phase = phase;
    cc.check_phase = check_phase;
    cc.first = first;
    cc.last = last;
    const NodeId n = buf_->n();
    cc.delta.assign(n, 0);
    const auto sign_of = [&](const Message& m) -> std::int64_t {
        if (m.kind != kind || (check_phase && m.phase != phase)) return 0;
        if (m.coin > 0) return 1;
        if (m.coin < 0) return -1;
        return 0;
    };
    // Pattern rows as a difference sweep (O(1) per side, one prefix pass),
    // dense rows probed cellwise — same shape as val_delta_plane.
    bool any_pattern = false;
    for (std::size_t r = 0; r < rows; ++r) {
        const NodeId u = buf_->row_sender(r);
        if (u < first || u >= last) continue;
        if (buf_->row_mode(r) != RoundBuffer::kRowPattern) continue;
        const RoundBuffer::RowPattern& p = buf_->row_pattern(r);
        for (int side = 0; side < 2; ++side) {
            if (!p.present[side]) continue;
            const std::int64_t d = sign_of(p.msg[side]);
            if (d == 0) continue;
            const NodeId lo = side == 0 ? 0 : p.boundary;
            const NodeId hi = side == 0 ? p.boundary : n;
            if (lo >= hi) continue;
            cc.delta[lo] += d;
            if (hi < n) cc.delta[hi] -= d;
            any_pattern = true;
        }
    }
    if (any_pattern)
        for (NodeId v = 1; v < n; ++v) cc.delta[v] += cc.delta[v - 1];
    for (std::size_t r = 0; r < rows; ++r) {
        const NodeId u = buf_->row_sender(r);
        if (u < first || u >= last) continue;
        if (buf_->row_mode(r) == RoundBuffer::kRowPattern) continue;
        for (NodeId v = 0; v < n; ++v) {
            const Message* m = buf_->row_delivery(r, v);
            if (m != nullptr) cc.delta[v] += sign_of(*m);
        }
    }
    return cc.delta.data();
}

std::int64_t RoundTally::coin_delta(MsgKind kind, Phase phase, bool check_phase,
                                    NodeId first, NodeId last,
                                    NodeId receiver) const {
    const std::int64_t* plane = coin_delta_plane(kind, phase, check_phase, first, last);
    return plane == nullptr ? 0 : plane[receiver];
}

const WordHistogram& RoundTally::byz_word_deltas(MsgKind kind, bool require_flag,
                                                 NodeId receiver) const {
    WordHistogram& out = byz_words_scratch_;
    out.clear();  // capacity survives: no per-query allocation once warm
    const std::size_t rows = buf_->rows_in_use();
    for (std::size_t r = 0; r < rows; ++r) {
        const Message* m = buf_->row_delivery(r, receiver);
        if (m != nullptr && m->kind == kind && (!require_flag || m->flag != 0))
            out.emplace_back(m->word, Count{1});
    }
    sort_aggregate(out);
    return out;
}

// -------------------------------------------------------------- ReceiveView

std::array<Count, 2> ReceiveView::val_counts(MsgKind kind, Phase phase,
                                             bool require_flag) const {
    if (buf_ == nullptr) {
        // Adapter backend: the executable spec — a plain per-sender loop.
        std::array<Count, 2> cnt{0, 0};
        for (NodeId u = 0; u < n_; ++u) {
            const Message* m = from(u);
            if (m != nullptr && m->kind == kind && m->phase == phase &&
                (!require_flag || m->flag != 0))
                ++cnt[m->val & 1];
        }
        return cnt;
    }
    std::array<Count, 2> cnt{0, 0};
    if (const TallyBucket* b = tally_->find(kind, phase))
        cnt = require_flag ? b->val_flag_cnt : b->val_cnt;
    if (const auto* d = tally_->val_deltas(kind, phase, require_flag, recv_)) {
        cnt[0] += (*d)[0];
        cnt[1] += (*d)[1];
    }
    return cnt;
}

std::int64_t ReceiveView::coin_sum(MsgKind kind, Phase phase, bool check_phase,
                                   NodeId first, NodeId last) const {
    ADBA_EXPECTS(first <= last && last <= n_);
    if (buf_ == nullptr) {
        std::int64_t sum = 0;
        for (NodeId u = first; u < last; ++u) {
            const Message* m = from(u);
            if (m == nullptr || m->kind != kind ||
                (check_phase && m->phase != phase))
                continue;
            if (m->coin > 0)
                ++sum;
            else if (m->coin < 0)
                --sum;
        }
        return sum;
    }
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < tally_->bucket_count(); ++i) {
        const TallyBucket& b = tally_->bucket(i);
        if (b.kind != kind || (check_phase && b.phase != phase)) continue;
        sum += tally_->coin_range_sum(b, first, last);
    }
    sum += tally_->coin_delta(kind, phase, check_phase, first, last, recv_);
    return sum;
}

namespace {

/// Shared word-query walk: invokes consider(word, count) over the combined
/// (honest + Byzantine-delta) histogram in ascending word order. Both inputs
/// are sorted unique-word vectors (WordHistogram invariant).
template <typename Fn>
void walk_word_histogram(const WordHistogram& honest, const WordHistogram& byz,
                         Fn&& consider) {
    auto hit = honest.begin();
    auto bit = byz.begin();
    while (hit != honest.end() || bit != byz.end()) {
        if (bit == byz.end() || (hit != honest.end() && hit->first < bit->first)) {
            consider(hit->first, hit->second);
            ++hit;
        } else if (hit == honest.end() || bit->first < hit->first) {
            consider(bit->first, bit->second);
            ++bit;
        } else {
            consider(hit->first, hit->second + bit->second);
            ++hit;
            ++bit;
        }
    }
}

const WordHistogram kEmptyWords;

}  // namespace

template <typename Fn>
void ReceiveView::walk_words(MsgKind kind, bool require_flag, Fn&& consider) const {
    if (buf_ == nullptr) {
        // Adapter backend: the executable spec — a plain per-sender tally
        // (test/oracle path only; it may allocate).
        WordHistogram tally;
        for (NodeId u = 0; u < n_; ++u) {
            const Message* m = from(u);
            if (m != nullptr && m->kind == kind && (!require_flag || m->flag != 0))
                tally.emplace_back(m->word, Count{1});
        }
        sort_aggregate(tally);
        walk_word_histogram(tally, kEmptyWords, consider);
        return;
    }
    // Honest messages of one kind share one (kind, phase) bucket in any real
    // round (nodes move in lockstep); merge buckets defensively anyway.
    const WordHistogram* honest = &kEmptyWords;
    WordHistogram merged;
    bool first_bucket = true;
    for (std::size_t i = 0; i < tally_->bucket_count(); ++i) {
        const TallyBucket& b = tally_->bucket(i);
        if (b.kind != kind) continue;
        const auto& counts = tally_->word_counts(b, require_flag);
        if (first_bucket) {
            honest = &counts;
            first_bucket = false;
        } else {
            // Defensive multi-bucket merge; never hit by lockstep protocols.
            if (honest != &merged)
                merged.insert(merged.end(), honest->begin(), honest->end());
            merged.insert(merged.end(), counts.begin(), counts.end());
            sort_aggregate(merged);
            honest = &merged;
        }
    }
    walk_word_histogram(*honest, tally_->byz_word_deltas(kind, require_flag, recv_),
                        consider);
}

std::optional<Word> ReceiveView::quorum_word(MsgKind kind, bool require_flag,
                                             Count quorum) const {
    ADBA_EXPECTS(quorum >= 1);
    std::optional<Word> found;
    walk_words(kind, require_flag, [&](Word w, Count cnt) {
        if (cnt < quorum) return;
        // Two quorums cannot coexist (they would intersect in an honest
        // double-voter).
        ADBA_ENSURES_MSG(!found.has_value(), "two word quorums");
        found = w;
    });
    return found;
}

std::optional<std::pair<Word, Count>> ReceiveView::plurality_word(
    MsgKind kind, bool require_flag) const {
    std::optional<std::pair<Word, Count>> best;
    walk_words(kind, require_flag, [&](Word w, Count cnt) {
        // Strict > on an ascending walk: ties break to the smallest word.
        if (cnt > 0 && (!best || cnt > best->second)) best = {w, cnt};
    });
    return best;
}

}  // namespace adba::net
