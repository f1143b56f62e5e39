// Test-side RoundControl decorators. ForwardingControl forwards the per-node
// virtuals and actions of a hosting control only, so view() and
// deliver_row_as() run their RoundControl base forms over its answers, and
// logs each corruption, in call order, when given a log. RecordingAdversary
// runs an inner strategy through one and keeps the log: tests that check
// which nodes a strategy corrupts, and when, read it.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "net/engine.hpp"

namespace adba::testing {

/// Corruptions as (round, node), in call order.
using CorruptionLog = std::vector<std::pair<Round, NodeId>>;

class ForwardingControl final : public net::RoundControl {
public:
    explicit ForwardingControl(net::RoundControl& inner, CorruptionLog* log = nullptr)
        : inner_(inner), log_(log) {}

    Round round() const override { return inner_.round(); }
    NodeId n() const override { return inner_.n(); }
    Count budget_left() const override { return inner_.budget_left(); }
    bool is_honest(NodeId v) const override { return inner_.is_honest(v); }
    bool is_halted(NodeId v) const override { return inner_.is_halted(v); }
    const net::Message* intended_broadcast(NodeId v) const override {
        return inner_.intended_broadcast(v);
    }
    Bit current_value(NodeId v) const override { return inner_.current_value(v); }
    bool current_decided(NodeId v) const override { return inner_.current_decided(v); }
    std::optional<net::Message> corrupt(NodeId v) override {
        std::optional<net::Message> m = inner_.corrupt(v);
        if (log_ != nullptr) log_->emplace_back(inner_.round(), v);
        return m;
    }
    void deliver_as(NodeId byz_from, NodeId to, const net::Message& m) override {
        inner_.deliver_as(byz_from, to, m);
    }
    void split_as(NodeId byz_from, const std::optional<net::Message>& low,
                  const std::optional<net::Message>& high, NodeId boundary) override {
        inner_.split_as(byz_from, low, high, boundary);
    }

private:
    net::RoundControl& inner_;
    CorruptionLog* log_;
};

class RecordingAdversary final : public net::Adversary {
public:
    explicit RecordingAdversary(net::Adversary& inner) : inner_(inner) {}

    void on_start(NodeId n, Count budget) override { inner_.on_start(n, budget); }
    void act(net::RoundControl& ctl) override {
        ForwardingControl rec(ctl, &log_);
        inner_.act(rec);
    }

    const CorruptionLog& corruptions() const { return log_; }
    /// The nodes corrupted in round r, in call order.
    std::vector<NodeId> corrupted_in(Round r) const {
        std::vector<NodeId> out;
        for (const auto& [round, v] : log_)
            if (round == r) out.push_back(v);
        return out;
    }

private:
    net::Adversary& inner_;
    CorruptionLog log_;
};

}  // namespace adba::testing
