#include "adversary/worst_case.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <typeinfo>

#include "support/contracts.hpp"

namespace adba::adv {

namespace {
constexpr Count kInfeasible = std::numeric_limits<Count>::max();
}

void WorstCaseAdversary::on_start(NodeId, Count) {
    used_ = 0;
    ruined_ = 0;
    lane_used_.clear();
    picks_.clear();
}

bool WorstCaseAdversary::same_strategy(const net::Adversary& other) const {
    return typeid(other) == typeid(WorstCaseAdversary) &&
           static_cast<const WorstCaseAdversary&>(other).cfg_ == cfg_;
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
// apart from act() above so that each checks the other. Node loops call
// nothing; per-lane decisions are straight loops over the 64 lanes with
// masks. picks_ is all zero between rounds: each round clears the ranges
// it picked in.

namespace {

/// One ascending sweep of [lo, hi): each lane of `want` takes the ids whose
/// bit is set in cand(v) into out[v] until it holds quota[j] of them, then
/// leaves `want`. The quota walk visits only the lanes that take, and a
/// lane leaves `want` by a mask, with no branch on its quota. Returns where
/// the sweep stopped: out is untouched from there on.
template <typename Cand>
NodeId take_ascending(NodeId lo, NodeId hi, const Cand& cand, Count* quota,
                      std::uint64_t& want, std::uint64_t* out) {
    NodeId v = lo;
    for (; v < hi && want != 0; ++v) {
        std::uint64_t take = cand(v) & want;
        out[v] |= take;
        for (; take != 0; take &= take - 1) {
            const unsigned j = static_cast<unsigned>(std::countr_zero(take));
            want &= ~(std::uint64_t{--quota[j] == 0} << j);
        }
    }
    return v;
}

/// Corruptions that close a margin gap each one narrows by 2: ceil(gap/2),
/// or 0 when the gap is already closed (the sign mask clears a negative
/// gap + 1).
template <typename Int>
Int closing(Int gap) {
    return ((gap + 1) & ~((gap + 1) >> (std::numeric_limits<Int>::digits))) >> 1;
}

/// `k` when `avail` flippers can pay for it, else kInfeasible (all ones):
/// the sign of avail - k selects.
template <typename Int>
Count within(Int k, Count avail) {
    return static_cast<Count>(k | ((static_cast<Int>(avail) - k) >> std::numeric_limits<Int>::digits));
}

/// One round-2 coin plan for all 64 lanes, as straight loops over lane
/// arrays: no branch depends on a lane or its coin.
struct CoinPlan {
    // In: the honest committee flips of each sign that survive the
    // reduction, the Byzantine margin (members already corrupted plus
    // committee victims), the live decided count, the reduction's size and
    // the lane's budget left, and b_i (0 or 1).
    alignas(64) Count pos[net::kFusedLanes];
    alignas(64) Count neg[net::kFusedLanes];
    alignas(64) Count margin[net::kFusedLanes];
    alignas(64) Count decided[net::kFusedLanes];
    alignas(64) Count need[net::kFusedLanes];
    alignas(64) Count remaining[net::kFusedLanes];
    alignas(64) std::int32_t b_i[net::kFusedLanes];
    // Out: each lane's coin cost (0 where it does not act) and its flags
    // as 0 or 1, for kern::lanes_greater to gather into lane masks.
    alignas(64) Count cost[net::kFusedLanes];
    alignas(64) std::int32_t acts[net::kFusedLanes];
    alignas(64) std::int32_t split[net::kFusedLanes];
    alignas(64) std::int32_t drain_plus[net::kFusedLanes];
    alignas(64) std::int32_t drains[net::kFusedLanes];

    /// The cheaper coin ruin per lane, each greedy in closed form. A
    /// corruption moves the flip sum s one step toward the drained sign's
    /// opposite and adds one equivocator to the margin m. Draining +1 flips
    /// closes s - m + 1 (toward -m <= s <= m - 1 from above, or every
    /// receiver on 0); draining -1 flips closes -s - m (from below, or
    /// every receiver on 1). `Int` holds s - m + 1 and -s - m exactly:
    /// int32_t, which vectorizes, while the committee has fewer than 2^30
    /// members.
    template <typename Int>
    void plan() {
        for (unsigned j = 0; j < net::kFusedLanes; ++j) {
            const Int s = static_cast<Int>(pos[j]) - static_cast<Int>(neg[j]);
            const Int m = static_cast<Int>(margin[j]);
            const Count c_plus = within<Int>(closing<Int>(s - m + 1), pos[j]);
            const Count c_minus = within<Int>(closing<Int>(-s - m), neg[j]);
            // SPLIT drains the majority sign; OPPOSITE, while a decided node
            // stays visible, pushes every receiver to 1 - b_i.
            const Count split_plus = static_cast<Count>(~s >> std::numeric_limits<Int>::digits) & 1;
            const Count bi = static_cast<Count>(b_i[j]);
            const Count c_split = split_plus != 0 ? c_plus : c_minus;
            const Count c_opp =
                (bi != 0 ? c_plus : c_minus) | (Count{0} - Count{decided[j] <= need[j]});
            const Count use_split = c_split <= c_opp;
            const Count c = std::min(c_split, c_opp);
            // Unaffordable (or infeasible): spend nothing.
            const Count a = Count{c != kInfeasible} & Count{need[j] <= remaining[j]} &
                            Count{c <= remaining[j] - need[j]};
            cost[j] = c & (Count{0} - a);
            acts[j] = static_cast<std::int32_t>(a);
            split[j] = static_cast<std::int32_t>(use_split);
            drain_plus[j] = static_cast<std::int32_t>(use_split != 0 ? split_plus : bi);
            drains[j] = static_cast<std::int32_t>(c != 0);
        }
    }
};

}  // namespace

Count WorstCaseAdversary::lane_remaining(const net::FusedLaneControl& ctl,
                                         unsigned lane) const {
    return std::min<Count>(ctl.lane_budget_left(lane), cfg_.max_corruptions - lane_used_[lane]);
}

void WorstCaseAdversary::act_block(net::FusedLaneControl& ctl, const net::Adversary* const*) {
    lane_used_.resize(net::kFusedLanes, 0);
    if (picks_.size() != ctl.n()) picks_.assign(ctl.n(), 0);
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
    const std::uint64_t* const sent = f.sent.data();
    const std::uint64_t* const val = f.val.data();
    const std::uint64_t* const halted = ctl.protocol().halted_plane();
    Count tally[2][net::kFusedLanes];
    net::kern::lane_counts<2>(0, n, [&](NodeId v, std::uint64_t* w) {
        const std::uint64_t vote = sent[v] & ~halted[v];
        w[0] = vote & ~val[v];
        w[1] = vote & val[v];
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
    const std::uint64_t blocking = want;
    std::uint64_t* const picks = picks_.data();
    const auto bloc = [&](NodeId v) { return sent[v] & ~halted[v] & ~(val[v] ^ bloc_one); };
    const auto [first, last] = cfg_.schedule.range(cfg_.schedule.committee_of_phase(p));
    const NodeId in_stop = take_ascending(first, last, bloc, quota, want, picks);
    const NodeId below_stop = take_ascending(0, first, bloc, quota, want, picks);
    const NodeId above_stop = take_ascending(last, n, bloc, quota, want, picks);
    ADBA_ENSURES_MSG(want == 0, "a quorum bloc holds every victim it needs");
    Count counted[net::kFusedLanes];
    ctl.corrupt_lanes(0, n, picks, blocking, counted);
    std::fill(picks + first, picks + in_stop, std::uint64_t{0});
    std::fill(picks, picks + below_stop, std::uint64_t{0});
    std::fill(picks + last, picks + above_stop, std::uint64_t{0});
}

void WorstCaseAdversary::block_round2(net::FusedLaneControl& ctl, Phase p) {
    const net::FusedFrame& f = ctl.frame();
    const NodeId n = f.n();
    const auto [first, last] = cfg_.schedule.range(cfg_.schedule.committee_of_phase(p));
    const net::FusedProtocol& proto = ctl.protocol();
    const std::uint64_t* const byz = f.byz.data();
    const std::uint64_t* const sent = f.sent.data();
    const std::uint64_t* const coinp = f.coinp.data();
    const std::uint64_t* const coinn = f.coinn.data();
    const std::uint64_t* const halted = proto.halted_plane();
    const std::uint64_t* const decided = proto.decided_plane();
    const std::uint64_t* const value = proto.value_plane();
    std::uint64_t* const picks = picks_.data();
    const std::uint64_t active = f.active;
    const auto live_decided = [&](NodeId v) { return ~byz[v] & ~halted[v] & decided[v]; };

    // ---- observe: the live decided nodes, and b_i, the value of each
    // lane's highest one.
    CoinPlan cp;
    net::kern::lane_counts<1>(0, n, [&](NodeId v, std::uint64_t* w) { w[0] = live_decided(v); },
                              &cp.decided);
    std::uint64_t any_decided = 0;
    for (unsigned j = 0; j < net::kFusedLanes; ++j)
        any_decided |= std::uint64_t{cp.decided[j] > 0} << j;
    any_decided &= active;
    std::uint64_t b_i = 0, found = 0;
    for (NodeId v = n; v-- > 0 && found != any_decided;) {
        const std::uint64_t top = live_decided(v) & any_decided & ~found;
        b_i |= top & value[v];
        found |= top;
    }

    // ---- plan: decided reduction to t, victims outside the committee first
    // (they leave the flip sum alone), then committee members. A lane that
    // cannot afford the reduction spends nothing this round, so it picks no
    // victims.
    Count quota[net::kFusedLanes];
    alignas(64) std::int32_t reducible[net::kFusedLanes];
    for (unsigned j = 0; j < net::kFusedLanes; ++j) {
        const Count d = cp.decided[j];
        cp.remaining[j] = lane_remaining(ctl, j);
        cp.need[j] = quota[j] = d > cfg_.t ? d - cfg_.t : 0;
        reducible[j] = cp.need[j] != 0 && cp.need[j] <= cp.remaining[j];
    }
    for (unsigned j = 0; j < net::kFusedLanes; ++j)
        cp.b_i[j] = static_cast<std::int32_t>(b_i >> j & 1);
    const std::uint64_t reduce = net::kern::lanes_greater(reducible, 0) & active;
    NodeId below_stop = 0, above_stop = last, in_stop = first;
    if (reduce != 0) {
        std::uint64_t want = reduce;
        below_stop = take_ascending(0, first, live_decided, quota, want, picks);
        above_stop = take_ascending(last, n, live_decided, quota, want, picks);
        in_stop = take_ascending(first, last, live_decided, quota, want, picks);
    }

    // Honest committee flips that survive the reduction, and the Byzantine
    // margin it leaves: members already corrupted plus committee victims.
    // Flips count only when this round carries the phase's Vote2 broadcasts.
    const std::uint64_t vote2 =
        f.kind == net::MsgKind::Vote2 && f.phase == p ? ~std::uint64_t{0} : 0;
    Count cnt[4][net::kFusedLanes];
    net::kern::lane_counts<4>(first, last, [&](NodeId u, std::uint64_t* w) {
        const std::uint64_t flip = sent[u] & ~halted[u] & ~picks[u] & vote2;
        w[0] = byz[u];
        w[1] = picks[u];
        w[2] = flip & coinp[u];
        w[3] = flip & coinn[u];
    }, cnt);
    // ---- plan: the cheaper coin ruin per lane (CoinPlan::plan).
    for (unsigned j = 0; j < net::kFusedLanes; ++j) {
        cp.pos[j] = cnt[2][j];
        cp.neg[j] = cnt[3][j];
        cp.margin[j] = cnt[0][j] + cnt[1][j];
    }
    if (last - first < (NodeId{1} << 30))
        cp.plan<std::int32_t>();
    else
        cp.plan<std::int64_t>();
    const std::uint64_t acting = net::kern::lanes_greater(cp.acts, 0) & active;
    const std::uint64_t split = net::kern::lanes_greater(cp.split, 0) & acting;
    const std::uint64_t drain_plus = net::kern::lanes_greater(cp.drain_plus, 0) & acting;
    std::uint64_t drain = net::kern::lanes_greater(cp.drains, 0) & acting;
    Count* const used = lane_used_.data();
    for (unsigned j = 0; j < net::kFusedLanes; ++j)
        used[j] += (cp.need[j] + cp.cost[j]) & (Count{0} - Count{(acting >> j & 1) != 0});

    // ---- execute: the first flippers of each acting lane's drained sign,
    // ascending (the reduction's committee victims are not flippers any
    // more), then the reduction victims and those flippers in one pass.
    if (acting != 0) {
        const auto drained = [&](NodeId u) {
            return sent[u] & ~halted[u] & ~picks[u] &
                   ((coinp[u] & drain_plus) | (coinn[u] & ~drain_plus));
        };
        const NodeId drain_stop = take_ascending(first, last, drained, cp.cost, drain, picks);
        ADBA_ENSURES_MSG(drain == 0, "every planned coin corruption has a flipper");
        in_stop = std::max(in_stop, drain_stop);
        Count counted[net::kFusedLanes];
        if (reduce != 0)
            ctl.corrupt_lanes(0, n, picks, acting, counted);
        else
            ctl.corrupt_lanes(first, last, picks, acting, counted);
    }
    std::fill(picks, picks + below_stop, std::uint64_t{0});
    std::fill(picks + last, picks + above_stop, std::uint64_t{0});
    std::fill(picks + first, picks + in_stop, std::uint64_t{0});
    if (acting == 0) return;

    // ---- deliveries from every Byzantine committee member, as one coin-sign
    // row: SPLIT lanes give each live receiver the parity of the live
    // receivers below it (balanced targets; everyone else gets -1), OPPOSITE
    // lanes give every receiver the coin toward 1 - b_i.
    net::Message m;
    m.kind = net::MsgKind::Vote2;
    m.phase = p;
    m.val = 0;
    m.flag = 0;
    std::uint64_t* const sign = ctl.sign_row(m, first, last, acting);
    const std::uint64_t toward_one = acting & ~split & ~b_i;
    std::uint64_t parity = 0;
    for (NodeId v = 0; v < n; ++v) {
        const std::uint64_t l = ~byz[v] & ~halted[v];
        sign[v] = (split & l & parity) | toward_one;
        parity ^= l;
    }
}

}  // namespace adba::adv
