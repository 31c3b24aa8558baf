// dmsim public facade.
//
// Simulator is a two-call API over harness::Cell, the one wired simulation
// stack (engine, cluster, policy, observer, scheduler) that the sweeps and
// the serve daemon also run on:
//
//   dmsim::Simulator sim(config, workload, &apps);
//   dmsim::SimulationResult result = sim.run();
//
// For parameter sweeps across many configurations prefer the stateless
// harness (harness/scenario.hpp).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "harness/scenario.hpp"
#include "slowdown/model.hpp"
#include "snapshot/checkpoint.hpp"
#include "trace/job_spec.hpp"

namespace dmsim {

struct SimulationConfig {
  harness::SystemConfig system;
  policy::PolicyKind policy = policy::PolicyKind::Dynamic;
  sched::SchedulerConfig sched;
};

/// A cell result plus the per-job records and system samples. `telemetry`
/// holds the name-sorted registry dump (empty when none was wired).
struct SimulationResult : harness::CellResult {
  std::vector<sched::JobRecord> records;
  std::vector<sched::SystemSample> samples;
};

class Simulator {
 public:
  /// `apps` may be nullptr (contention-insensitive jobs); when non-null it
  /// must outlive the Simulator. `sink` / `counters` (both optional,
  /// caller-owned, must outlive the Simulator) wire structured event
  /// tracing and the central counters registry through every layer; run()
  /// copies the registry snapshot into the result.
  Simulator(const SimulationConfig& config, trace::Workload workload,
            const slowdown::AppPool* apps, obs::TraceSink* sink = nullptr,
            obs::Counters* counters = nullptr);

  /// Run to completion, saving checkpoints per `plan` (explicit cut times
  /// and/or a periodic interval) when it is active. Results are
  /// byte-identical to a plain run(): checkpoint saves are side-effect-free
  /// observations. May only be called once.
  [[nodiscard]] SimulationResult run(const snapshot::Plan& plan = {});

  /// Resume a simulation from a snapshot file. `config`/`workload` must be
  /// identical to the run that saved the snapshot (enforced via the
  /// snapshot's configuration fingerprint). The trace sink is attached only
  /// after state is restored, so the NDJSON trace of the resumed run is
  /// exactly the uninterrupted run's suffix from the cut point onward.
  [[nodiscard]] static std::unique_ptr<Simulator> restore_from(
      const std::string& snapshot_path, const SimulationConfig& config,
      trace::Workload workload, const slowdown::AppPool* apps,
      obs::TraceSink* sink = nullptr, obs::Counters* counters = nullptr);

  /// Resume from a shared, parsed-once snapshot image instead of a file —
  /// the fork primitive: a thousand Simulators may materialize the same
  /// warm image concurrently without re-reading or re-parsing bytes. Same
  /// fingerprint contract and deferred-sink semantics as the file overload.
  [[nodiscard]] static std::unique_ptr<Simulator> restore_from(
      std::shared_ptr<const snapshot::Image> image,
      const SimulationConfig& config, trace::Workload workload,
      const slowdown::AppPool* apps, obs::TraceSink* sink = nullptr,
      obs::Counters* counters = nullptr);

  /// Checkpoint activity of run(plan)/restore_from. Kept out of the JSON
  /// document: restored runs checkpoint differently than the uninterrupted
  /// runs they must match byte for byte.
  [[nodiscard]] const snapshot::Stats& checkpoint_stats() const noexcept {
    return cell_.checkpoint_stats();
  }

  [[nodiscard]] const cluster::Cluster& cluster() const noexcept {
    return cell_.cluster();
  }
  /// Mutable ledger access for harness-level toggles (debug parity sweeps);
  /// production callers mutate the cluster only through the scheduler.
  [[nodiscard]] cluster::Cluster& cluster() noexcept { return cell_.cluster(); }
  [[nodiscard]] const sched::Scheduler& scheduler() const noexcept {
    return cell_.scheduler();
  }

 private:
  Simulator(const harness::CellConfig& cell, trace::Workload workload,
            const slowdown::AppPool* apps, obs::TraceSink* sink,
            obs::Counters* counters,
            const std::optional<std::string>& snapshot_path);

  harness::Cell cell_;
};

}  // namespace dmsim
