#include "adversary/worst_case.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/contracts.hpp"

namespace adba::adv {

namespace {
constexpr Count kInfeasible = std::numeric_limits<Count>::max();
}

void WorstCaseAdversary::on_start(NodeId, Count) {
    used_ = 0;
    ruined_ = 0;
    lane_used_.clear();
}

bool WorstCaseAdversary::same_strategy(const net::Adversary& other) const {
    const auto* o = dynamic_cast<const WorstCaseAdversary*>(&other);
    return o != nullptr && o->cfg_ == cfg_;
}

Count WorstCaseAdversary::remaining(const net::RoundControl& ctl) const {
    return std::min<Count>(ctl.budget_left(), cfg_.max_corruptions - used_);
}

void WorstCaseAdversary::corrupt_tracked(net::RoundControl& ctl, NodeId v) {
    ctl.corrupt(v);
    ++used_;
}

void WorstCaseAdversary::act(net::RoundControl& ctl) {
    if (ctl.round() < cfg_.round_offset) return;  // prelude rounds: not ours
    const Round r = ctl.round() - cfg_.round_offset;
    const Phase p = r / 2;
    if ((r % 2) == 0)
        act_round1(ctl, p);
    else
        act_round2(ctl, p);
}

void WorstCaseAdversary::act_round1(net::RoundControl& ctl, Phase p) {
    if (!cfg_.block_round1_quorums) return;
    const net::RoundView view = ctl.view();
    const NodeId n = view.n;
    const Count quorum = n - cfg_.t;
    // The live honest round-1 vote of v, or -1.
    const auto vote_of = [&](NodeId v) -> int {
        if (!view.live(v)) return -1;
        const net::Message* m = view.intended(v);
        if (m == nullptr || m->kind != net::MsgKind::Vote1 || m->phase != p) return -1;
        return m->val & 1;
    };

    Count tally[2] = {0, 0};
    for (NodeId v = 0; v < n; ++v)
        if (const int b = vote_of(v); b >= 0) ++tally[b];

    for (const int b : {0, 1}) {
        if (tally[b] < quorum) continue;
        const Count need = tally[b] - quorum + 1;
        if (need > remaining(ctl)) return;  // cannot block; let it lock in
        // Corrupt `need` nodes of the quorum bloc, preferring members of the
        // current committee (their corpses become coin equivocators in
        // round 2 of this phase); ascending ids within each group.
        victims_.clear();
        for (const bool committee : {true, false})
            for (NodeId v = 0; v < n && victims_.size() < need; ++v)
                if (vote_of(v) == b && cfg_.schedule.flips_in_phase(v, p) == committee)
                    victims_.push_back(v);
        for (const NodeId v : victims_) corrupt_tracked(ctl, v);
        return;  // at most one value can hold an n-t quorum
    }
}

void WorstCaseAdversary::act_round2(net::RoundControl& ctl, Phase p) {
    const auto [first, last] = cfg_.schedule.range(cfg_.schedule.committee_of_phase(p));
    const auto in_committee = [&](NodeId v) { return v >= first && v < last; };

    // ---- observe (full information + rushing) ----
    const net::RoundView view = ctl.view();
    const NodeId n = view.n;
    const auto live_decided = [&](NodeId v) { return view.live(v) && view.decided[v] != 0; };
    Count d = 0;
    Count d_out = 0;  // decided outside the committee
    Bit b_i = 0;
    for (NodeId v = 0; v < n; ++v) {
        if (!live_decided(v)) continue;
        ++d;
        b_i = view.value[v];
        if (!in_committee(v)) ++d_out;
    }

    // ---- plan: decided reduction ----
    // Victims outside the committee leave the flip sum untouched, so they go
    // first; committee victims both lose their flip and join the
    // equivocator pool.
    const Count need_reduce = d > cfg_.t ? d - cfg_.t : 0;
    victims_.clear();
    for (const bool outside : {true, false})
        for (NodeId v = 0; v < n && victims_.size() < need_reduce; ++v)
            if (live_decided(v) && in_committee(v) != outside) victims_.push_back(v);
    const Count victims_in = need_reduce > d_out ? need_reduce - d_out : 0;

    // Honest committee flips that survive the reduction, and the Byzantine
    // margin it leaves: already-corrupted members plus committee victims.
    std::int64_t plan_sum = 0;
    std::int64_t plan_m = 0;
    plan_pos_.clear();
    plan_neg_.clear();
    Count decided_seen = 0;
    for (NodeId u = first; u < last; ++u) {
        if (!view.honest(u)) {
            ++plan_m;
            continue;
        }
        if (view.halted[u] != 0) continue;
        if (view.decided[u] != 0 && decided_seen++ < victims_in) {
            ++plan_m;  // a victim: its flip is gone, its corpse equivocates
            continue;
        }
        const net::Message* m = view.intended(u);
        if (m == nullptr || m->kind != net::MsgKind::Vote2 || m->coin == 0) continue;
        if (m->coin > 0) {
            ++plan_sum;
            plan_pos_.push_back(u);
        } else {
            --plan_sum;
            plan_neg_.push_back(u);
        }
    }

    // ---- plan: coin ruin cost (SPLIT and OPPOSITE) ----
    // Greedy over majority-sign flippers; each corruption shifts the margin
    // by 2. Returns corruption count or kInfeasible.
    const auto split_cost = [&]() -> Count {
        std::int64_t s = plan_sum, m = plan_m;
        std::size_t avail_pos = plan_pos_.size(), avail_neg = plan_neg_.size();
        Count k = 0;
        while (!(s >= -m && s <= m - 1)) {
            if (s >= 0 && avail_pos > 0) {
                --avail_pos;
                --s;
            } else if (s < 0 && avail_neg > 0) {
                --avail_neg;
                ++s;
            } else {
                return kInfeasible;
            }
            ++m;
            ++k;
        }
        return k;
    };
    const auto opposite_cost = [&](Bit target) -> Count {
        std::int64_t s = plan_sum, m = plan_m;
        std::size_t avail_pos = plan_pos_.size(), avail_neg = plan_neg_.size();
        Count k = 0;
        // target 1: all receivers must see s' + m >= 0; target 0: s' - m <= -1.
        while (target == 1 ? (s + m < 0) : (s - m > -1)) {
            if (target == 1 && avail_neg > 0) {
                --avail_neg;
                ++s;
            } else if (target == 0 && avail_pos > 0) {
                --avail_pos;
                --s;
            } else {
                return kInfeasible;
            }
            ++m;
            ++k;
        }
        return k;
    };

    const Count c_split = split_cost();
    const Count d_visible = d - need_reduce;
    const Count c_opp =
        d_visible >= 1 ? opposite_cost(b_i ? Bit{0} : Bit{1}) : kInfeasible;

    const bool use_split = c_split <= c_opp;
    const Count coin_cost = use_split ? c_split : c_opp;
    if (coin_cost == kInfeasible) return;
    const std::uint64_t total =
        static_cast<std::uint64_t>(need_reduce) + coin_cost;
    if (total > remaining(ctl)) return;  // unaffordable: spend nothing

    // ---- execute ----
    for (const NodeId v : victims_) corrupt_tracked(ctl, v);
    {
        // Replicate the planning greedy exactly, corrupting for real.
        std::int64_t s = plan_sum;
        std::size_t ip = 0, in = 0;
        for (Count k = 0; k < coin_cost; ++k) {
            if (use_split) {
                if (s >= 0) {
                    corrupt_tracked(ctl, plan_pos_[ip++]);
                    --s;
                } else {
                    corrupt_tracked(ctl, plan_neg_[in++]);
                    ++s;
                }
            } else if (b_i == 0) {  // forcing 1: drain -1 flippers
                corrupt_tracked(ctl, plan_neg_[in++]);
                ++s;
            } else {  // forcing 0: drain +1 flippers
                corrupt_tracked(ctl, plan_pos_[ip++]);
                --s;
            }
        }
    }
    ++ruined_;

    // ---- deliveries from every Byzantine committee member ----
    // Re-observe: the corruptions above may not show through `view`.
    const net::RoundView after = need_reduce + coin_cost > 0 ? ctl.view() : view;
    NodeId byz_members = 0;
    for (NodeId u = first; u < last; ++u) byz_members += after.honest(u) ? 0 : 1;
    if (byz_members == 0) return;  // natural ruin, nothing to push

    net::Message m;
    m.kind = net::MsgKind::Vote2;
    m.phase = p;
    m.val = 0;
    m.flag = 0;
    if (use_split) {
        // Balanced target assignment over live honest receivers so the next
        // phase's tallies stay far from every threshold; everyone else gets
        // the -1 side.
        split_row_.resize(n);
        Bit next = 0;
        for (NodeId v = 0; v < n; ++v) {
            Bit target = 0;
            if (after.live(v)) {
                target = next;
                next = next ? Bit{0} : Bit{1};
            }
            m.coin = target ? CoinSign{1} : CoinSign{-1};
            split_row_[v] = m;
        }
        for (NodeId u = first; u < last; ++u)
            if (!after.honest(u)) ctl.deliver_row_as(u, split_row_);
    } else {
        m.coin = b_i == 0 ? CoinSign{1} : CoinSign{-1};
        for (NodeId u = first; u < last; ++u)
            if (!after.honest(u)) ctl.broadcast_as(u, m);
    }
}

// ------------------------------------------------------ block-level form
//
// The same strategy for all 64 lanes of a fused block at once, written
// apart from act() above so that each checks the other.

namespace {

/// One ascending sweep of [lo, hi): each lane of `want` takes the ids whose
/// bit is set in cand(v) into out[v] until it holds quota[j] of them, then
/// leaves `want`.
template <typename Cand>
void take_ascending(NodeId lo, NodeId hi, const Cand& cand, Count* quota,
                    std::uint64_t& want, std::uint64_t* out) {
    for (NodeId v = lo; v < hi && want != 0; ++v) {
        std::uint64_t take = cand(v) & want;
        out[v] |= take;
        for (; take != 0; take &= take - 1)
            if (--quota[std::countr_zero(take)] == 0) want &= ~(take & -take);
    }
}

/// Corruptions that close a margin gap each one narrows by 2: ceil(gap/2),
/// or 0 when the gap is already closed.
std::int64_t closing(std::int64_t gap) { return gap > 0 ? (gap + 1) / 2 : 0; }

/// `k` when `avail` flippers can pay for it, else kInfeasible.
Count within(std::int64_t k, Count avail) {
    return k <= static_cast<std::int64_t>(avail) ? static_cast<Count>(k) : kInfeasible;
}

}  // namespace

Count WorstCaseAdversary::lane_remaining(const net::FusedLaneControl& ctl,
                                         unsigned lane) const {
    return std::min<Count>(ctl.lane_budget_left(lane), cfg_.max_corruptions - lane_used_[lane]);
}

void WorstCaseAdversary::corrupt_picks(net::FusedLaneControl& ctl, NodeId lo, NodeId hi) {
    for (NodeId v = lo; v < hi; ++v)
        if (picks_[v] != 0) ctl.corrupt_word(v, picks_[v]);
}

void WorstCaseAdversary::act_block(net::FusedLaneControl& ctl, const net::Adversary* const*) {
    lane_used_.resize(net::kFusedLanes, 0);
    if (ctl.round() < cfg_.round_offset) return;  // prelude rounds: not ours
    const Round r = ctl.round() - cfg_.round_offset;
    if ((r % 2) == 0)
        block_round1(ctl, r / 2);
    else
        block_round2(ctl, r / 2);
}

void WorstCaseAdversary::block_round1(net::FusedLaneControl& ctl, Phase p) {
    const net::FusedFrame& f = ctl.frame();
    // Only live honest Vote1 broadcasts of this phase count toward a quorum.
    if (!cfg_.block_round1_quorums || f.kind != net::MsgKind::Vote1 || f.phase != p) return;
    const NodeId n = f.n();
    const std::uint64_t* halted = ctl.protocol().halted_plane();
    const auto voting = [&](NodeId v) { return f.sent[v] & ~halted[v]; };
    Count tally[2][net::kFusedLanes];
    net::kern::lane_counts<2>(0, n, [&](NodeId v, std::uint64_t* w) {
        const std::uint64_t vote = voting(v);
        w[0] = vote & ~f.val[v];
        w[1] = vote & f.val[v];
    }, tally);

    // Each lane blocks the value holding the n-t quorum (at most one can)
    // when it can afford tally - quorum + 1 corruptions.
    const Count quorum = n - cfg_.t;
    Count quota[net::kFusedLanes] = {};
    std::uint64_t want = 0, bloc_one = 0;
    for (std::uint64_t lanes = f.active; lanes != 0; lanes &= lanes - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
        const int b = tally[0][j] >= quorum ? 0 : 1;
        if (tally[b][j] < quorum) continue;
        const Count need = tally[b][j] - quorum + 1;
        if (need > lane_remaining(ctl, j)) continue;  // cannot block; let it lock in
        quota[j] = need;
        lane_used_[j] += need;
        want |= lanes & -lanes;
        if (b == 1) bloc_one |= lanes & -lanes;
    }
    if (want == 0) return;

    // The first `need` ascending ids of the bloc, current committee first.
    picks_.assign(n, 0);
    const auto bloc = [&](NodeId v) { return voting(v) & ~(f.val[v] ^ bloc_one); };
    const auto [first, last] = cfg_.schedule.range(cfg_.schedule.committee_of_phase(p));
    take_ascending(first, last, bloc, quota, want, picks_.data());
    take_ascending(0, first, bloc, quota, want, picks_.data());
    take_ascending(last, n, bloc, quota, want, picks_.data());
    ADBA_ENSURES_MSG(want == 0, "a quorum bloc holds every victim it needs");
    corrupt_picks(ctl, 0, n);
}

void WorstCaseAdversary::block_round2(net::FusedLaneControl& ctl, Phase p) {
    const net::FusedFrame& f = ctl.frame();
    const NodeId n = f.n();
    const auto [first, last] = cfg_.schedule.range(cfg_.schedule.committee_of_phase(p));
    const net::FusedProtocol& proto = ctl.protocol();
    const std::uint64_t* halted = proto.halted_plane();
    const std::uint64_t* decided = proto.decided_plane();
    const std::uint64_t* value = proto.value_plane();
    const std::uint64_t active = f.active;
    const auto live = [&](NodeId v) { return ~f.byz[v] & ~halted[v]; };
    const auto live_decided = [&](NodeId v) { return live(v) & decided[v]; };

    // ---- observe: the live decided nodes, and b_i, the value of each
    // lane's highest one.
    Count d_all[net::kFusedLanes];
    net::kern::lane_counts<1>(0, n, [&](NodeId v, std::uint64_t* w) { w[0] = live_decided(v); },
                              &d_all);
    std::uint64_t any_decided = 0;
    for (std::uint64_t lanes = active; lanes != 0; lanes &= lanes - 1)
        if (d_all[std::countr_zero(lanes)] > 0) any_decided |= lanes & -lanes;
    std::uint64_t b_i = 0, found = 0;
    for (NodeId v = n; v-- > 0 && found != any_decided;) {
        const std::uint64_t top = live_decided(v) & any_decided & ~found;
        b_i |= top & value[v];
        found |= top;
    }

    // ---- plan: decided reduction to t, victims outside the committee first
    // (they leave the flip sum alone), then committee members.
    Count need[net::kFusedLanes] = {}, quota[net::kFusedLanes] = {};
    std::uint64_t want = 0;
    for (std::uint64_t lanes = active; lanes != 0; lanes &= lanes - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
        const Count d = d_all[j];
        need[j] = quota[j] = d > cfg_.t ? d - cfg_.t : 0;
        if (need[j] != 0) want |= lanes & -lanes;
    }
    picks_.assign(n, 0);
    take_ascending(0, first, live_decided, quota, want, picks_.data());
    take_ascending(last, n, live_decided, quota, want, picks_.data());
    take_ascending(first, last, live_decided, quota, want, picks_.data());

    // Honest committee flips that survive the reduction, and the Byzantine
    // margin it leaves: members already corrupted plus committee victims.
    // Flips count only when this round carries the phase's Vote2 broadcasts.
    const std::uint64_t vote2 =
        f.kind == net::MsgKind::Vote2 && f.phase == p ? ~std::uint64_t{0} : 0;
    Count cnt[4][net::kFusedLanes];
    net::kern::lane_counts<4>(first, last, [&](NodeId u, std::uint64_t* w) {
        const std::uint64_t flip = f.sent[u] & ~halted[u] & ~picks_[u] & vote2;
        w[0] = f.byz[u];
        w[1] = picks_[u];
        w[2] = flip & f.coinp[u];
        w[3] = flip & f.coinn[u];
    }, cnt);
    const Count* margin = cnt[0];
    const Count* taken_in = cnt[1];
    const Count* pos = cnt[2];
    const Count* neg = cnt[3];

    // ---- plan: the cheaper coin ruin per lane, each greedy in closed form.
    // A corruption moves the flip sum s one step toward the drained sign's
    // opposite and adds one equivocator to the margin m.
    Count coin_quota[net::kFusedLanes] = {};
    std::uint64_t acting = 0, split = 0, drain_plus = 0;
    for (std::uint64_t lanes = active; lanes != 0; lanes &= lanes - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(lanes));
        const std::uint64_t bit = lanes & -lanes;
        const std::int64_t s = static_cast<std::int64_t>(pos[j]) - neg[j];
        const std::int64_t m = static_cast<std::int64_t>(margin[j]) + taken_in[j];
        // SPLIT: drain the majority sign until -m <= s <= m - 1.
        const Count c_split =
            s >= 0 ? within(closing(s - m + 1), pos[j]) : within(closing(-s - m), neg[j]);
        // OPPOSITE, while a decided node stays visible: every receiver on
        // 1 - b_i, by draining -1 flips until s + m >= 0 (toward 1) or +1
        // flips until s - m <= -1 (toward 0).
        const bool bi = (b_i & bit) != 0;
        Count c_opp = kInfeasible;
        if (d_all[j] > need[j])
            c_opp = bi ? within(closing(s - m + 1), pos[j]) : within(closing(-s - m), neg[j]);
        const bool use_split = c_split <= c_opp;
        const Count cost = use_split ? c_split : c_opp;
        if (cost == kInfeasible) continue;
        if (std::uint64_t{need[j]} + cost > lane_remaining(ctl, j)) continue;  // spend nothing
        acting |= bit;
        if (use_split) split |= bit;
        if (use_split ? s >= 0 : bi) drain_plus |= bit;
        coin_quota[j] = cost;
        lane_used_[j] += need[j] + cost;
    }
    if (acting == 0) return;

    // ---- execute: the reduction, then the first flippers of each acting
    // lane's drained sign (the reduction victims are Byzantine by then).
    for (NodeId v = 0; v < n; ++v) picks_[v] &= acting;
    corrupt_picks(ctl, 0, n);
    std::fill(picks_.begin() + first, picks_.begin() + last, std::uint64_t{0});
    std::uint64_t drain = 0;
    for (std::uint64_t lanes = acting; lanes != 0; lanes &= lanes - 1)
        if (coin_quota[std::countr_zero(lanes)] != 0) drain |= lanes & -lanes;
    const auto drained = [&](NodeId u) {
        return f.sent[u] & ~halted[u] & ((f.coinp[u] & drain_plus) | (f.coinn[u] & ~drain_plus));
    };
    take_ascending(first, last, drained, coin_quota, drain, picks_.data());
    ADBA_ENSURES_MSG(drain == 0, "every planned coin corruption has a flipper");
    corrupt_picks(ctl, first, last);

    // ---- deliveries from every Byzantine committee member, as one coin-sign
    // row: SPLIT lanes give each live receiver the parity of the live
    // receivers below it (balanced targets; everyone else gets -1), OPPOSITE
    // lanes give every receiver the coin toward 1 - b_i.
    sign_.resize(n);
    const std::uint64_t toward_one = acting & ~split & ~b_i;
    std::uint64_t parity = 0;
    for (NodeId v = 0; v < n; ++v) {
        const std::uint64_t l = live(v);
        sign_[v] = (split & l & parity) | toward_one;
        parity ^= l;
    }
    net::Message m;
    m.kind = net::MsgKind::Vote2;
    m.phase = p;
    m.val = 0;
    m.flag = 0;
    ctl.sign_row(m, first, last, acting, sign_.data());
}

}  // namespace adba::adv
