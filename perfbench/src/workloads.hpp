// The benchmark's three workloads. Each runs its set-up several times (for
// a set-up median), then either the timed untraced loop (end-to-end
// metrics) or, with --trace 1, an untraced reference plus traced runs
// (per-layer metrics). Every run checks the simulated outputs.
#pragma once

#include "common.hpp"

namespace perfbench {

/// One dmsim::workload::exa_grizzly(20000) week (every replica at the 70%
/// utilization floor) under Dynamic with an oracle monitor and per-job
/// staggered updates, checkpointed every simulated day.
[[nodiscard]] Report exa_week_dynamic(const Options& opts);

/// A Fig. 5-style Static grid on CIRNE synthetic workloads (1024 nodes, two
/// workloads for each of the 25%/50% large-job mixes, +60% overestimation,
/// every figure-ladder point) on a 2-worker SweepRunner.
[[nodiscard]] Report cirne_grid_static(const Options& opts);

/// An in-process serve::Server (2 pool threads) on loopback, driven by one
/// closed-loop client connection over a seeded query mix against an early
/// (1/3 makespan) and a late (9/10 makespan) warm image of a fixed scenario.
[[nodiscard]] Report whatif_serve(const Options& opts);

}  // namespace perfbench
