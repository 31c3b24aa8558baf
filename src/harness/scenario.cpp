#include "harness/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>

#include "harness/sweep.hpp"
#include "util/error.hpp"

namespace dmsim::harness {

cluster::ClusterConfig SystemConfig::to_cluster_config() const {
  DMSIM_ASSERT(total_nodes > 0, "system must have nodes");
  DMSIM_ASSERT(pct_large_nodes >= 0.0 && pct_large_nodes <= 1.0,
               "pct_large_nodes must be a fraction");
  cluster::ClusterConfig cfg = cluster::make_cluster_config(
      normal_count(), normal_capacity, large_count(), large_capacity,
      cores_per_node);
  cfg.lender_policy = lender_policy;
  if (!tiers.empty()) {
    DMSIM_ASSERT(tier_fractions.size() == tiers.size(),
                 "tier_fractions must match tiers");
    cfg.tiers = tiers;
    // Contiguous id blocks by cumulative fraction: tier t owns node ids
    // [round(cum_{t-1} * N), round(cum_t * N)). llround keeps the split
    // deterministic, and the final tier absorbs rounding remainders.
    double cum = 0.0;
    std::size_t begin = 0;
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      cum += tier_fractions[t];
      DMSIM_ASSERT(tier_fractions[t] >= 0.0, "tier fraction must be >= 0");
      std::size_t end =
          t + 1 == tiers.size()
              ? cfg.nodes.size()
              : static_cast<std::size_t>(std::llround(
                    cum * static_cast<double>(cfg.nodes.size())));
      end = std::min(end, cfg.nodes.size());
      for (std::size_t i = begin; i < end; ++i) {
        cfg.nodes[i].tier = static_cast<std::uint8_t>(t);
        cfg.nodes[i].rack = static_cast<std::uint16_t>(t);
      }
      begin = std::max(begin, end);
    }
    DMSIM_ASSERT(std::abs(cum - 1.0) < 1e-6, "tier fractions must sum to 1");
  }
  return cfg;
}

std::vector<SystemConfig> memory_ladder(int total_nodes) {
  const double mixes[] = {0.0, 0.15, 0.25, 0.50, 0.75, 1.00};
  std::vector<SystemConfig> out;
  for (const auto& [normal, large] :
       {std::pair<MiB, MiB>{gib(32), gib(64)}, {gib(64), gib(128)}}) {
    for (double mix : mixes) {
      SystemConfig sys;
      sys.total_nodes = total_nodes;
      sys.pct_large_nodes = mix;
      sys.normal_capacity = normal;
      sys.large_capacity = large;
      out.push_back(sys);
    }
  }
  std::sort(out.begin(), out.end(), [](const SystemConfig& a, const SystemConfig& b) {
    return a.memory_fraction() < b.memory_fraction();
  });
  // The two families meet at 50% (all-large 64 GiB == all-normal 64 GiB);
  // drop duplicate memory fractions, keeping the first.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const SystemConfig& a, const SystemConfig& b) {
                          return std::abs(a.memory_fraction() -
                                          b.memory_fraction()) < 1e-9;
                        }),
            out.end());
  return out;
}

namespace {

// Overlay swaps take effect for the whole (remaining) run; the cell's base
// policy/sched stay what a restored image's fingerprint is checked against.
[[nodiscard]] policy::PolicyKind effective_policy(const CellConfig& cell) {
  return cell.overlay && cell.overlay->policy ? *cell.overlay->policy
                                             : cell.policy;
}
[[nodiscard]] const sched::SchedulerConfig& effective_sched(
    const CellConfig& cell) {
  return cell.overlay && cell.overlay->sched ? *cell.overlay->sched
                                             : cell.sched;
}

}  // namespace

Cell::Cell(const CellConfig& cell, trace::Workload workload,
           const slowdown::AppPool* apps, obs::TraceSink* sink,
           obs::Counters* counters,
           const std::optional<std::string>& snapshot_path)
    : cluster_(cell.system.to_cluster_config()),
      policy_(policy::make_policy(effective_policy(cell))),
      counters_(counters == nullptr && cell.collect_telemetry
                    ? &local_counters_
                    : counters),
      observer_{nullptr, counters_, &engine_},
      collect_telemetry_(cell.collect_telemetry) {
  const bool restoring =
      cell.restore_image != nullptr || snapshot_path.has_value();
  if (!restoring) observer_.sink = sink;
  // A deferred sink still wires the observer through every layer (they keep
  // its address); it just traces nothing until the restore is done.
  const bool wired = sink != nullptr || counters_ != nullptr;
  if (wired) {
    engine_.set_observer(&observer_);
    cluster_.set_observer(&observer_);
    policy_->set_observer(&observer_);
  }
  scheduler_.emplace(engine_, cluster_, *policy_, apps, effective_sched(cell),
                     wired ? &observer_ : nullptr);
  scheduler_->submit_workload(std::move(workload));
  // The paper leaves the bar out entirely when the system cannot run the
  // mix: run() reports an infeasible cell invalid without simulating it.
  const bool feasible = scheduler_->infeasible_count() == 0;

  if (restoring) {
    const auto start = std::chrono::steady_clock::now();
    const std::shared_ptr<const snapshot::Image> image =
        cell.restore_image != nullptr ? cell.restore_image
                                      : snapshot::Image::open(*snapshot_path);
    // The fingerprint always covers the BASE configuration: cell.sched (not
    // an overlay's swapped sched), the un-edited cluster and the base
    // workload. Overlay deltas apply below, after the restore. A caller that
    // forks one image many times precomputes it and pays one 64-bit compare.
    const std::uint64_t base_fp =
        cell.trusted_fingerprint.has_value()
            ? *cell.trusted_fingerprint
            : snapshot::config_fingerprint(cluster_, cell.sched,
                                           scheduler_->workload());
    if (!feasible) {
      // Never run, so never restored; a foreign snapshot is still refused.
      image->check_fingerprint(base_fp);
      return;
    }
    image->materialize_trusted(components(), base_fp);
    ++checkpoint_.restores;
    checkpoint_.bytes_read += image->size_bytes();
    checkpoint_.restore_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (sink != nullptr) {
      observer_.sink = sink;
      engine_.set_observer(&observer_);  // the engine caches the sink pointer
    }
  }
  if (feasible && cell.overlay) {
    if (!cell.overlay->extra_nodes.empty()) {
      cluster_.add_nodes(cell.overlay->extra_nodes);
    }
    if (!cell.overlay->extra_jobs.empty()) {
      scheduler_->submit_extra_jobs(cell.overlay->extra_jobs);
    }
  }
}

CellResult Cell::run(const snapshot::Plan& plan) {
  DMSIM_ASSERT(!ran_, "Cell::run may only be called once");
  ran_ = true;
  CellResult result;
  result.infeasible_jobs = scheduler_->infeasible_count();
  result.valid = (result.infeasible_jobs == 0);
  result.provisioned_memory = cluster_.total_capacity();
  result.system_cost_usd = metrics::CostModel{}.system_cost(cluster_);
  if (result.valid) {
    if (plan.active()) {
      snapshot::run_with_checkpoints(components(), plan, &checkpoint_);
      scheduler_->finalize();
    } else {
      scheduler_->run();
    }
    result.summary =
        metrics::summarize(scheduler_->records(), scheduler_->totals());
    result.totals = scheduler_->totals();
    result.avg_allocated_mib = scheduler_->avg_allocated_mib();
    result.avg_busy_nodes = scheduler_->avg_busy_nodes();
    result.engine_events = engine_.executed_events();
  }
  result.checkpoint = checkpoint_;
  if (collect_telemetry_) result.telemetry = counters_->snapshot();
  return result;
}

CellResult run_cell(const CellConfig& cell, const trace::Workload& jobs,
                    const slowdown::AppPool& apps, obs::TraceSink* sink,
                    obs::Counters* counters) {
  std::optional<std::string> resume_path;
  snapshot::Plan plan;
  if (cell.checkpoint) {
    const CheckpointSpec& ck = *cell.checkpoint;
    if (ck.resume && std::filesystem::exists(ck.path)) resume_path = ck.path;
    plan = snapshot::Plan{ck.path, ck.every, ck.cuts};
  }
  return Cell(cell, jobs, &apps, sink, counters, resume_path).run(plan);
}

std::vector<CellResult> run_cells(const std::vector<CellConfig>& cells,
                                  const trace::Workload& jobs,
                                  const slowdown::AppPool& apps,
                                  std::size_t threads) {
  SweepRunner runner(threads);
  for (const CellConfig& cell : cells) runner.add(cell, jobs, apps);
  runner.run_all();
  std::vector<CellResult> results;
  results.reserve(cells.size());
  for (const SweepCellResult& r : runner.results()) results.push_back(r.cell);
  return results;
}

}  // namespace dmsim::harness
