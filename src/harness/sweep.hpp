// Parallel sweep runner: the engine behind every figure reproduction.
//
// A paper evaluation is a large grid of independent simulation cells
// (workload mix x memory ladder x policy). run_cells() covers the
// single-workload case; SweepRunner generalizes it to heterogeneous cells
// spanning multiple workloads — each cell carries its own (workload, app
// pool) reference — fanned out over a util::ThreadPool and returned in
// submission order, so a sweep's output is byte-identical at any thread
// count. The runner also times each cell and aggregates an
// obs::ThroughputReport (events, simulated seconds, wall seconds), which is
// what the bench binaries' throughput tally and --json perf reports feed on.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "obs/profiler.hpp"
#include "util/thread_pool.hpp"

namespace dmsim::harness {

/// One executed cell: the simulation result plus its wall-clock cost.
/// `wall_seconds` is the only nondeterministic field; everything else is a
/// pure function of the cell config and workload.
struct SweepCellResult {
  CellResult cell;
  double wall_seconds = 0.0;
};

class SweepRunner {
 public:
  /// `threads == 0` selects hardware_concurrency (min 1).
  explicit SweepRunner(std::size_t threads = 0) : pool_(threads) {}

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Enqueue a cell. `jobs` and `apps` are borrowed and must outlive
  /// run_all(). Returns the cell's handle: its index in results order.
  std::size_t add(CellConfig config, const trace::Workload& jobs,
                  const slowdown::AppPool& apps);

  /// Run every cell enqueued since the last run_all() across the pool.
  /// Results land in submission order regardless of completion order.
  /// Incremental: add() / run_all() rounds may alternate.
  void run_all();

  /// Result of the cell `handle` (valid after the run_all() covering it).
  [[nodiscard]] const SweepCellResult& result(std::size_t handle) const;

  /// All executed results, in submission order.
  [[nodiscard]] const std::vector<SweepCellResult>& results() const noexcept {
    return results_;
  }

  /// Move every executed result out (submission order) and drop every cell,
  /// releasing the configs and whatever they own — a restore image's last
  /// reference, say. Handles restart at 0; the throughput report keeps
  /// accumulating. A long-lived runner (the serve dispatcher) calls this
  /// after each round so it retains nothing between rounds. No cell may be
  /// pending.
  [[nodiscard]] std::vector<SweepCellResult> take_results();

  /// Drop every cell and result, executed or not (handles restart at 0).
  void clear() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }
  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }

  /// Aggregate throughput across all executed cells. Events and simulated
  /// seconds are deterministic; wall_seconds is the real elapsed time spent
  /// inside run_all() (so events/sec reflects the parallel speedup).
  [[nodiscard]] obs::ThroughputReport report() const noexcept {
    return report_;
  }

  /// Live progress: one line per completed cell (done/total, elapsed, ETA,
  /// the cell's events/s, process peak RSS) written to `out` as cells
  /// finish. Wall-clock telemetry only — it never touches the results, so
  /// deterministic outputs are unaffected. The tools point it at stderr;
  /// nullptr (the default) disables. The stream must outlive run_all().
  void set_progress(std::ostream* out) noexcept { progress_ = out; }

 private:
  struct PendingCell {
    CellConfig config;
    const trace::Workload* jobs;
    const slowdown::AppPool* apps;
  };

  void note_progress(const PendingCell& cell, const SweepCellResult& result,
                     std::size_t batch_size, double batch_elapsed_seconds);

  util::ThreadPool pool_;
  std::vector<PendingCell> cells_;
  std::vector<SweepCellResult> results_;
  std::size_t executed_ = 0;  // cells_[0, executed_) have results
  obs::ThroughputReport report_;
  std::ostream* progress_ = nullptr;
  std::mutex progress_mutex_;
  std::size_t progress_done_ = 0;  // cells finished in the current batch
};

/// Serialize the deterministic fields of a CellResult (summary, totals,
/// resource averages, engine events) as a JSON object. Used by the sweep
/// tests to assert serial and parallel runs are byte-identical, and by
/// plotting pipelines that want per-cell data without the text tables.
[[nodiscard]] std::string cell_result_to_json(const CellResult& result);

}  // namespace dmsim::harness
