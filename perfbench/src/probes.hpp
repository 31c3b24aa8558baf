// Direct timed calls into single layers' public APIs, on fixtures that do
// not depend on the workload seed.
#pragma once

#include "cluster/cluster.hpp"

namespace perfbench {

/// The exa_week_dynamic topology: exa_grizzly's node mix at 20000 nodes.
inline constexpr int kExaNodes = 20'000;
[[nodiscard]] dmsim::cluster::ClusterConfig exa_topology();

/// Median ns of one grow + shrink cycle of policy::resize_to_demand over
/// the slots of a deterministically busy cluster (ledger index upkeep).
[[nodiscard]] double resize_cycle_ns(const dmsim::cluster::ClusterConfig& topology);

struct SlowdownProbe {
  double refresh_incremental_us = 0.0;  ///< one edge change + dirty-set refresh
  double evaluate_full_us = 0.0;        ///< full two-pass model evaluation
};
/// The slowdown refresh probe of bench/scale_sweep, reported as medians.
[[nodiscard]] SlowdownProbe slowdown_probe(
    const dmsim::cluster::ClusterConfig& topology);

}  // namespace perfbench
