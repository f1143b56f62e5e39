#include "adversary/worst_case.hpp"

#include <algorithm>
#include <limits>

#include "support/contracts.hpp"

namespace adba::adv {

namespace {
constexpr Count kInfeasible = std::numeric_limits<Count>::max();
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

}  // namespace adba::adv
