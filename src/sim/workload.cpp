#include "sim/workload.hpp"

namespace adba::sim {

const NameTable<WorkloadInfo>& workloads() {
    static const NameTable<WorkloadInfo> table(
        "workload",
        {{WorkloadKind::Binary,
          "binary",
          {"bin", "engine"},
          "Scenario",
          "SweepGrid",
          "full-fidelity engine trials: any registered protocol x adversary"},
         {WorkloadKind::Coin,
          "coin",
          {"common-coin"},
          "CoinScenario",
          "CoinSweepGrid",
          "standalone common-coin trials (Algorithm 1/2 vs coin-ruin)"},
         {WorkloadKind::Mv,
          "mv",
          {"multivalued", "multi-valued", "turpin-coan"},
          "MvScenario",
          "MvSweepGrid",
          "multi-valued agreement (Turpin-Coan reduction over Algorithm 3)"},
         {WorkloadKind::Macro,
          "macro",
          {"asymptotic"},
          "MacroScenario",
          "-",
          "macro asymptotic simulator, O(committee) per phase up to n=2^20"}});
    return table;
}

}  // namespace adba::sim
