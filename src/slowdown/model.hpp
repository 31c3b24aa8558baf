// Contention-aware slowdown model for disaggregated memory.
//
// Reimplementation of the performance model the paper inherits from
// Zacarias et al. (Computing Frontiers 2020, ICPADS 2021): each application
// is characterized by
//   * a contentiousness figure — the remote memory bandwidth it drives at
//     full performance (GB/s per node), and
//   * a sensitivity curve — slowdown as a function of the aggregate remote
//     memory bandwidth contending at the memory pool it uses.
// Remote accesses additionally pay a latency exposure proportional to the
// fraction of the job's allocation that is remote. Only *remote* bandwidth
// enters contention, as remote accesses bypass local caches in the paper's
// system model (§2.1).
//
// The model is simulation-side only: production policies never see it
// (paper §2.1, "profiling is not an input to the resource management
// policy").
//
// Substitution note (DESIGN.md §1.4): the authors' profiled curves are not
// public, so AppPool::synthetic() generates profiles spanning the published
// ranges (slowdowns up to ~2.5x under full contention, bandwidth demands of
// 1-20 GB/s/node).
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dmsim::slowdown {

/// Piecewise-linear, monotonically non-decreasing slowdown curve.
/// x: aggregate remote bandwidth pressure (GB/s) at a lender node;
/// y: multiplicative slowdown (>= 1).
class SensitivityCurve {
 public:
  struct Knot {
    double pressure_gbs = 0.0;
    double slowdown = 1.0;
  };

  SensitivityCurve() = default;
  /// Knots must be sorted by strictly increasing pressure with the first at
  /// pressure 0, and non-decreasing slowdown >= 1.
  explicit SensitivityCurve(std::vector<Knot> knots);

  /// Linear interpolation; clamps to the last knot beyond the curve.
  [[nodiscard]] double at(double pressure_gbs) const noexcept;

  [[nodiscard]] std::span<const Knot> knots() const noexcept { return knots_; }

  /// A flat curve (slowdown 1 everywhere) — an insensitive application.
  [[nodiscard]] static SensitivityCurve flat();

 private:
  std::vector<Knot> knots_ = {Knot{0.0, 1.0}};
};

/// Profiled application characteristics (paper Fig. 3 step 2's "pool of
/// executed apps"). typical_* features drive Euclidean matching.
struct AppProfile {
  std::string name;
  double bw_demand_gbs = 0.0;   ///< contentiousness at full performance
  double remote_penalty = 0.0;  ///< extra slowdown per unit remote fraction
  SensitivityCurve sensitivity;

  // Features used for trace -> app matching (Fig. 3 step 3).
  double typical_nodes = 1.0;
  double typical_runtime_s = 3600.0;
  MiB typical_mem = 0;
};

/// The pool of profiled applications plus Euclidean-distance matching.
class AppPool {
 public:
  AppPool() = default;
  explicit AppPool(std::vector<AppProfile> apps);

  /// Deterministically generate `count` profiles spanning the published
  /// parameter ranges. Same rng seed => same pool.
  [[nodiscard]] static AppPool synthetic(const util::Rng& rng, std::size_t count);

  [[nodiscard]] std::size_t size() const noexcept { return apps_.size(); }
  [[nodiscard]] bool empty() const noexcept { return apps_.empty(); }
  [[nodiscard]] const AppProfile& app(int index) const;

  /// Nearest profile by Euclidean distance over (log nodes, log runtime)
  /// (paper Fig. 3 step 3 matches on size and runtime). Returns -1 on an
  /// empty pool.
  [[nodiscard]] int match(double nodes, double runtime_s) const noexcept;

  /// Nearest profile also considering memory demand (Fig. 3 step 6 matches
  /// on size, runtime, *and* memory similarity).
  [[nodiscard]] int match(double nodes, double runtime_s, MiB mem) const noexcept;

 private:
  std::vector<AppProfile> apps_;
  /// util::log_features of each app, for match.
  std::vector<std::array<double, 3>> log_features_;
};

/// Computes per-job slowdowns from the cluster's borrow ledger.
class ContentionModel {
 public:
  struct JobInput {
    JobId job{};
    int app_profile = -1;  ///< -1 => insensitive (slowdown from remoteness only)
  };

  explicit ContentionModel(const AppPool* pool) : pool_(pool) {}

  /// Slowdown (>= 1) for every job in `jobs`, given the current ledger.
  ///
  /// pressure(L) = sum over borrow edges e=(job j, host h -> L) of
  ///               bw_demand(j) * amount(e) / total_alloc(j, h)
  /// slowdown(j) = max over j's slots s of
  ///               sensitivity_j(max pressure at s's lenders)
  ///               * (1 + remote_penalty_j * remote_fraction(s))
  ///
  /// The max over slots models bulk-synchronous HPC jobs running at the pace
  /// of their slowest node.
  [[nodiscard]] std::vector<double> evaluate(
      const cluster::Cluster& cluster, std::span<const JobInput> jobs) const;

  /// Convenience: slowdown of a single job.
  [[nodiscard]] double evaluate_one(const cluster::Cluster& cluster, JobId job,
                                    int app_profile) const;

  // --- incremental building blocks ---------------------------------------
  // evaluate() is composed of exactly these two passes; exposing them lets
  // the scheduler keep a persistent pressure buffer and re-run only the
  // parts the ledger actually changed.

  /// Pass-1 contribution of one job: add bw * amount / total for each of its
  /// borrow edges into `pressure` (indexed by lender node id).
  void add_pressure(const cluster::Cluster& cluster, JobId job,
                    int app_profile, std::span<double> pressure) const;

  /// Pass-1 pressure at a single lender, summing `borrowers`' contributions
  /// in the given order. `app_of(job)` resolves a borrower's profile index.
  [[nodiscard]] double lender_pressure(
      const cluster::Cluster& cluster,
      std::span<const cluster::Cluster::BorrowEdge> borrowers,
      const std::function<int(JobId)>& app_of) const;

  /// Pass-2 slowdown of one job given a pressure buffer (>= 1).
  [[nodiscard]] double job_slowdown(const cluster::Cluster& cluster, JobId job,
                                    int app_profile,
                                    std::span<const double> pressure) const;

 private:
  [[nodiscard]] const AppProfile* profile(int index) const noexcept;

  const AppPool* pool_;  // non-owning; may be nullptr (all jobs insensitive)
};

/// Incremental slowdown refresher: owns the persistent per-lender pressure
/// buffer and consumes the cluster's contention dirty sets, so bringing
/// slowdowns current after ledger churn costs O(edges touched + affected
/// jobs) instead of a full two-pass model evaluation — with no per-call
/// allocation after warm-up.
///
/// Summation order is canonical (ascending borrower job id, then slot
/// assignment order) in both the full rebuild and the per-lender recompute,
/// so a lender's pressure is bit-reproducible regardless of which path
/// produced it.
class IncrementalSlowdowns {
 public:
  struct Update {
    JobId job{};
    double slowdown = 1.0;
  };

  /// app_of() return value marking a job that is no longer running (its
  /// pending update is dropped). Distinct from -1 (= insensitive app).
  static constexpr int kNotRunning = std::numeric_limits<int>::min();

  explicit IncrementalSlowdowns(const ContentionModel* model) : model_(model) {}

  /// Drop all cached pressure state; the next refresh() rebuilds in full.
  /// Call when the ledger goes quiet (nothing lent) or nothing is running.
  void reset() noexcept { primed_ = false; }

  /// True once a refresh() has built the pressure cache, until reset().
  /// Only an unprimed refresh() reads `running_ids`, so a caller may skip
  /// building that list (and pass an empty span) while primed() is true.
  [[nodiscard]] bool primed() const noexcept { return primed_; }

  /// Bring slowdowns current. `running_ids` is the full running set (any
  /// order; only consulted on a full rebuild); `app_of` maps a job id to its
  /// app-profile index, or kNotRunning. Appends an Update for every job
  /// whose slowdown was recomputed, in ascending job-id order. The caller
  /// must clear the cluster's dirty sets afterwards.
  void refresh(const cluster::Cluster& cluster,
               std::span<const std::uint32_t> running_ids,
               const std::function<int(JobId)>& app_of,
               std::vector<Update>& out);

 private:
  const ContentionModel* model_;
  bool primed_ = false;
  std::vector<double> pressure_;                       // per-node, persistent
  std::vector<std::uint32_t> eval_ids_;                // scratch
  std::vector<cluster::Cluster::BorrowEdge> edges_;    // scratch
};

}  // namespace dmsim::slowdown
