// Experiment harness: simulated-system descriptions (Table 4), simulation
// cells (one workload x system x policy run), and parallel sweep execution.
// Every bench binary reproducing a paper table/figure is built on this.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "metrics/metrics.hpp"
#include "obs/observer.hpp"
#include "policy/policy.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/image.hpp"
#include "workload/generator.hpp"

namespace dmsim::harness {

/// A simulated system in the style of Table 4: `total_nodes` nodes split
/// into normal and large classes, large nodes having double capacity.
struct SystemConfig {
  int total_nodes = 1024;
  double pct_large_nodes = 0.5;  ///< fraction of large-capacity nodes
  MiB normal_capacity = gib(64);
  MiB large_capacity = gib(128);
  int cores_per_node = 32;
  cluster::LenderPolicy lender_policy = cluster::LenderPolicy::MemoryNodesFirst;
  /// Memory-tier topology. Empty (the default) is the paper's flat single
  /// remote pool and changes nothing. When set, `tier_fractions` must be the
  /// same length and sum to ~1: nodes are assigned to tiers as contiguous
  /// id blocks by cumulative fraction, and each node's rack is its tier
  /// index (nearest-tier == same-rack in this simplified topology).
  std::vector<cluster::MemoryTier> tiers;
  std::vector<double> tier_fractions;

  [[nodiscard]] int large_count() const noexcept {
    return static_cast<int>(pct_large_nodes * total_nodes + 0.5);
  }
  [[nodiscard]] int normal_count() const noexcept {
    return total_nodes - large_count();
  }
  [[nodiscard]] MiB total_memory() const noexcept {
    return static_cast<MiB>(normal_count()) * normal_capacity +
           static_cast<MiB>(large_count()) * large_capacity;
  }
  /// Memory normalized to a 100%-large reference system (the figures'
  /// x-axis: "% of total system memory").
  [[nodiscard]] double memory_fraction(MiB reference_capacity = gib(128)) const noexcept {
    return static_cast<double>(total_memory()) /
           static_cast<double>(static_cast<MiB>(total_nodes) * reference_capacity);
  }
  [[nodiscard]] cluster::ClusterConfig to_cluster_config() const;
};

/// The memory-provisioning ladder of Figs. 5 & 8: both node families of
/// Table 4 — (normal 32 GiB, large 64 GiB) and (normal 64 GiB, large 128 GiB)
/// — across the paper's %-large-node mixes, sorted by memory fraction.
/// Yields x-axis points {25,29,31,37,43,50,57,62,75,87,100}%.
[[nodiscard]] std::vector<SystemConfig> memory_ladder(int total_nodes);

/// Per-cell checkpointing: save snapshots to `path` while the cell runs
/// and, when `resume` is set and `path` already exists, restore from it
/// first instead of starting over. Each cell needs its own path — sweeps
/// run cells concurrently and the file is overwritten on every save.
struct CheckpointSpec {
  std::string path;
  Seconds every = 0.0;         ///< periodic save interval; 0 disables
  std::vector<Seconds> cuts;   ///< additional explicit cut times
  bool resume = false;         ///< restore from `path` if present
};

/// What-if deltas a fork applies on top of a restored image (or a fresh
/// run). All deltas apply AFTER the snapshot materializes — the snapshot's
/// fingerprint covers the BASE configuration, so the base cell fields must
/// match the saving run while the overlay diverges from it:
///   * extra_jobs are injected at >= the restored clock with fresh ids,
///   * extra_nodes append idle nodes to the cluster,
///   * policy / sched swap the allocation policy or scheduler configuration
///     for the remainder of the run (the cell's base `policy`/`sched` stay
///     what the fingerprint is checked against).
struct WhatIfOverlay {
  std::vector<trace::JobSpec> extra_jobs;
  std::vector<cluster::NodeConfig> extra_nodes;
  std::optional<policy::PolicyKind> policy;
  std::optional<sched::SchedulerConfig> sched;

  [[nodiscard]] bool empty() const noexcept {
    return extra_jobs.empty() && extra_nodes.empty() && !policy.has_value() &&
           !sched.has_value();
  }
};

/// One simulation cell: run `workload` on `system` under `policy`.
struct CellConfig {
  SystemConfig system;
  policy::PolicyKind policy = policy::PolicyKind::Dynamic;
  sched::SchedulerConfig sched;
  std::string label;
  std::optional<CheckpointSpec> checkpoint;
  /// Wire a private counters registry through the cell and snapshot it into
  /// CellResult::telemetry. Safe under sweeps (each cell gets its own
  /// registry), and deterministic: the snapshot only aggregates
  /// simulated-time quantities, so it is identical at any thread count.
  bool collect_telemetry = false;
  /// Fork-from-image restore: materialize this shared warm image instead of
  /// starting from time zero. The image is never re-read or re-parsed —
  /// a thousand cells may share one pointer across sweep threads.
  std::shared_ptr<const snapshot::Image> restore_image;
  /// Precomputed base-configuration fingerprint for the restore (see
  /// snapshot::config_fingerprint(cluster, sched, workload)). When unset,
  /// the Cell computes it from the cell's base config — correct but it
  /// re-hashes the full workload per fork; a serve loop sets it once.
  std::optional<std::uint64_t> trusted_fingerprint;
  /// What-if deltas, applied after the restore (or right after submission
  /// for a fresh run).
  std::optional<WhatIfOverlay> overlay;
};

struct CellResult {
  bool valid = false;  ///< false: some job can never run (missing bar)
  std::size_t infeasible_jobs = 0;
  metrics::WorkloadSummary summary;
  sched::SchedulerTotals totals;
  double avg_allocated_mib = 0.0;
  double avg_busy_nodes = 0.0;
  MiB provisioned_memory = 0;
  double system_cost_usd = 0.0;
  std::uint64_t engine_events = 0;  ///< discrete events executed by the run
  /// Checkpoint activity (zero unless the cell carried a CheckpointSpec).
  /// Not part of the deterministic JSON serialization: a resumed cell saves
  /// and restores differently than the uninterrupted run it reproduces.
  snapshot::Stats checkpoint;
  /// Counters/gauges/histograms/series snapshot, populated when the cell
  /// asked for collect_telemetry (or the caller supplied a registry). Kept
  /// out of cell_result_to_json so existing byte-identity goldens hold;
  /// export it with metrics::telemetry_to_json when needed.
  obs::CountersSnapshot telemetry;

  [[nodiscard]] double throughput() const noexcept { return summary.throughput; }
  [[nodiscard]] double throughput_per_dollar() const noexcept {
    return system_cost_usd > 0.0 ? summary.throughput / system_cost_usd : 0.0;
  }
};

/// One wired simulation stack: the only place the engine, cluster, policy,
/// observer and scheduler are built and wired together. run_cell, the
/// Simulator facade and the restore benches all build on it.
///
/// Neither copyable nor movable: the engine, cluster and policy keep the
/// observer's address, and the scheduler keeps references to all three.
class Cell {
 public:
  /// Builds the stack for `cell` and submits `workload` (moved in). Then it
  /// restores from `cell.restore_image`, or else from the snapshot file at
  /// `snapshot_path`, and applies `cell.overlay`. Throws SnapshotError when
  /// the snapshot cannot be read or was taken under another configuration.
  /// A cell with infeasible jobs never runs, so it only has the snapshot's
  /// fingerprint checked. While restoring, the trace sink is deferred:
  /// submission replays schedule events whose trace records the saving run
  /// already emitted. `apps` may be nullptr; `apps`, `sink` and `counters`
  /// are caller-owned and must outlive the Cell.
  Cell(const CellConfig& cell, trace::Workload workload,
       const slowdown::AppPool* apps, obs::TraceSink* sink = nullptr,
       obs::Counters* counters = nullptr,
       const std::optional<std::string>& snapshot_path = std::nullopt);
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  /// Run to completion, saving checkpoints per `plan` when it is active.
  /// May only be called once.
  [[nodiscard]] CellResult run(const snapshot::Plan& plan = {});

  [[nodiscard]] snapshot::Components components() noexcept {
    return {&engine_, &cluster_, &*scheduler_, counters_};
  }
  [[nodiscard]] sched::Scheduler& scheduler() noexcept { return *scheduler_; }
  [[nodiscard]] const sched::Scheduler& scheduler() const noexcept {
    return *scheduler_;
  }
  [[nodiscard]] cluster::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] const cluster::Cluster& cluster() const noexcept {
    return cluster_;
  }
  /// Restore and save activity so far (also copied into run()'s result).
  [[nodiscard]] const snapshot::Stats& checkpoint_stats() const noexcept {
    return checkpoint_;
  }

 private:
  cluster::Cluster cluster_;
  std::unique_ptr<policy::AllocationPolicy> policy_;
  sim::Engine engine_;
  /// Used when telemetry is requested without a caller registry, so sweep
  /// cells aggregate independently and stay thread-safe.
  obs::Counters local_counters_;
  obs::Counters* counters_;
  obs::Observer observer_;
  std::optional<sched::Scheduler> scheduler_;
  snapshot::Stats checkpoint_;
  bool collect_telemetry_;
  bool ran_ = false;
};

/// Run one cell. The workload (and its app pool) are shared, read-only.
/// `sink` / `counters` (optional, caller-owned) wire observability through
/// the cell's engine, cluster, policy and scheduler — not thread-safe, so
/// only for single-cell runs, never run_cells sweeps.
[[nodiscard]] CellResult run_cell(const CellConfig& cell,
                                  const trace::Workload& jobs,
                                  const slowdown::AppPool& apps,
                                  obs::TraceSink* sink = nullptr,
                                  obs::Counters* counters = nullptr);

/// Run many cells against the same workload on a thread pool.
[[nodiscard]] std::vector<CellResult> run_cells(
    const std::vector<CellConfig>& cells, const trace::Workload& jobs,
    const slowdown::AppPool& apps, std::size_t threads = 0);

}  // namespace dmsim::harness
