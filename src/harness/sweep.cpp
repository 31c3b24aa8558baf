#include "harness/sweep.hpp"

#include <chrono>
#include <cstdio>
#include <ostream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "metrics/json_export.hpp"
#include "util/error.hpp"

namespace dmsim::harness {

namespace {

/// Process peak RSS in MiB (0 where getrusage is unavailable). ru_maxrss is
/// KiB on Linux, bytes on macOS.
long peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / (1024 * 1024);
#else
  return usage.ru_maxrss / 1024;
#endif
#else
  return 0;
#endif
}

}  // namespace

std::size_t SweepRunner::add(CellConfig config, const trace::Workload& jobs,
                             const slowdown::AppPool& apps) {
  cells_.push_back(PendingCell{std::move(config), &jobs, &apps});
  return cells_.size() - 1;
}

void SweepRunner::run_all() {
  const std::size_t first = executed_;
  const std::size_t count = cells_.size() - first;
  if (count == 0) return;
  results_.resize(cells_.size());
  progress_done_ = 0;
  const auto batch_start = std::chrono::steady_clock::now();
  // Each iteration writes only its own slot, so no synchronization is
  // needed beyond the pool's completion barrier (progress reporting has its
  // own mutex).
  pool_.parallel_for(count, [this, first, count, batch_start](std::size_t i) {
    const PendingCell& cell = cells_[first + i];
    const auto start = std::chrono::steady_clock::now();
    SweepCellResult& out = results_[first + i];
    out.cell = run_cell(cell.config, *cell.jobs, *cell.apps);
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (progress_ != nullptr) {
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - batch_start)
                                 .count();
      note_progress(cell, out, count, elapsed);
    }
  });
  executed_ = cells_.size();
  report_.wall_seconds += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - batch_start)
                              .count();
  for (std::size_t i = first; i < executed_; ++i) {
    const CellResult& cell = results_[i].cell;
    report_.engine_events += cell.engine_events;
    if (cell.valid) report_.sim_seconds += cell.summary.makespan();
  }
}

void SweepRunner::note_progress(const PendingCell& cell,
                                const SweepCellResult& result,
                                std::size_t batch_size,
                                double batch_elapsed_seconds) {
  const std::lock_guard<std::mutex> lock(progress_mutex_);
  ++progress_done_;
  // ETA assumes the remaining cells cost what the finished ones averaged —
  // crude, but it converges as the batch drains.
  const double eta =
      batch_elapsed_seconds / static_cast<double>(progress_done_) *
      static_cast<double>(batch_size - progress_done_);
  const double events_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.cell.engine_events) / result.wall_seconds
          : 0.0;
  char line[256];
  std::snprintf(line, sizeof line,
                "[sweep %zu/%zu] %s: %.2fs, %.3g events/s, elapsed %.1fs, "
                "eta %.1fs, peak rss %ld MiB\n",
                progress_done_, batch_size,
                cell.config.label.empty() ? "cell" : cell.config.label.c_str(),
                result.wall_seconds, events_per_sec, batch_elapsed_seconds,
                eta, peak_rss_mib());
  *progress_ << line;
  progress_->flush();
}

const SweepCellResult& SweepRunner::result(std::size_t handle) const {
  DMSIM_ASSERT(handle < executed_, "cell has not been run yet");
  return results_[handle];
}

std::vector<SweepCellResult> SweepRunner::take_results() {
  DMSIM_ASSERT(executed_ == cells_.size(), "cells are pending");
  std::vector<SweepCellResult> out = std::move(results_);
  clear();
  return out;
}

void SweepRunner::clear() noexcept {
  cells_.clear();
  results_.clear();
  executed_ = 0;
}

std::string cell_result_to_json(const CellResult& result) {
  metrics::JsonWriter w;
  w.begin_object();
  w.key("valid").value(result.valid);
  w.key("infeasible_jobs").value(static_cast<std::uint64_t>(result.infeasible_jobs));
  w.key("summary").begin_object();
  {
    const auto& s = result.summary;
    w.key("total_jobs").value(static_cast<std::uint64_t>(s.total_jobs));
    w.key("completed").value(static_cast<std::uint64_t>(s.completed));
    w.key("abandoned").value(static_cast<std::uint64_t>(s.abandoned));
    w.key("jobs_with_oom").value(static_cast<std::uint64_t>(s.jobs_with_oom));
    w.key("oom_events").value(s.oom_events);
    w.key("first_submit").value(s.first_submit);
    w.key("last_end").value(s.last_end);
    w.key("throughput").value(s.throughput);
    w.key("mean_response_time").value(s.response_time.mean());
    w.key("mean_wait_time").value(s.wait_time.mean());
  }
  w.end_object();
  w.key("totals").begin_object();
  {
    const auto& t = result.totals;
    w.key("completed").value(t.completed);
    w.key("oom_events").value(t.oom_events);
    w.key("requeues").value(t.requeues);
    w.key("fcfs_starts").value(t.fcfs_starts);
    w.key("backfill_starts").value(t.backfill_starts);
    w.key("guaranteed_starts").value(t.guaranteed_starts);
    w.key("update_events").value(t.update_events);
    w.key("scheduling_passes").value(t.scheduling_passes);
    w.key("abandoned").value(t.abandoned);
    w.key("walltime_kills").value(t.walltime_kills);
  }
  w.end_object();
  w.key("avg_allocated_mib").value(result.avg_allocated_mib);
  w.key("avg_busy_nodes").value(result.avg_busy_nodes);
  w.key("provisioned_memory_mib").value(static_cast<std::uint64_t>(result.provisioned_memory));
  w.key("system_cost_usd").value(result.system_cost_usd);
  w.key("engine_events").value(result.engine_events);
  w.end_object();
  return w.str();
}

}  // namespace dmsim::harness
