// One registry binary trial on a bare engine, wired the way the Monte-Carlo
// arena wires it (sim/runner.cpp): the protocol's native batch, else its
// per-node form, the registry strategy, and the scenario's delivery plane.
// Tests that need what an aggregate leaves out (every node's output, a probe
// around the strategy) run their trials through it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/engine.hpp"
#include "rand/seed_tree.hpp"
#include "sim/inputs.hpp"
#include "sim/registry.hpp"

namespace adba::testing {

/// Decorates the trial's strategy (a probe, say) given the engine config
/// it runs under; the engine runs the adversary it returns.
using WrapAdversary = std::function<std::unique_ptr<net::Adversary>(
    std::unique_ptr<net::Adversary>, const net::EngineConfig&)>;

/// Runs scenario `s` at trial seed `seed`. `max_rounds` 0 keeps the
/// protocol's own budget; a null `wrap` runs the registry strategy as is.
inline net::RunResult run_registry_trial(const sim::Scenario& s, std::uint64_t seed,
                                         Round max_rounds = 0,
                                         const WrapAdversary& wrap = nullptr) {
    const sim::ScenarioPlan plan = sim::validate(s);
    const SeedTree seeds(seed);
    const std::vector<Bit> inputs = sim::make_inputs(s.inputs, s.n, seeds);
    sim::ProtocolBundle bundle = plan.protocol->make_batch
                                     ? plan.protocol->make_batch(s, inputs, seeds)
                                     : plan.protocol->make_nodes(s, inputs, seeds);
    net::EngineConfig cfg;
    cfg.n = s.n;
    cfg.budget = s.t;
    cfg.max_rounds = max_rounds ? max_rounds : bundle.default_max_rounds;
    if (s.sparse_plane) {
        cfg.plane = net::PlaneMode::Sparse;
        cfg.sample_degree = s.sample_degree;
        cfg.sparse_seed = seeds.seed(StreamPurpose::SparseTopology, s.sparse_seed);
    }
    std::unique_ptr<net::Adversary> adv = plan.adversary->make_adversary(s, bundle, seeds);
    if (wrap) adv = wrap(std::move(adv), cfg);
    std::optional<net::Engine> eng;
    if (bundle.batch)
        eng.emplace(cfg, std::move(bundle.batch), *adv);
    else
        eng.emplace(cfg, std::move(bundle.nodes), *adv);
    return eng->run();
}

}  // namespace adba::testing
