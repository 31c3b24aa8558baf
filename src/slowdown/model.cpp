#include "slowdown/model.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/error.hpp"
#include "util/log_feature.hpp"

namespace dmsim::slowdown {

SensitivityCurve::SensitivityCurve(std::vector<Knot> knots)
    : knots_(std::move(knots)) {
  DMSIM_ASSERT(!knots_.empty(), "sensitivity curve needs at least one knot");
  DMSIM_ASSERT(knots_.front().pressure_gbs == 0.0,
               "sensitivity curve must start at pressure 0");
  double prev_p = -1.0;
  double prev_s = 1.0;
  for (const auto& k : knots_) {
    DMSIM_ASSERT(k.pressure_gbs > prev_p, "curve pressures must increase");
    DMSIM_ASSERT(k.slowdown >= prev_s && k.slowdown >= 1.0,
                 "curve slowdown must be non-decreasing and >= 1");
    prev_p = k.pressure_gbs;
    prev_s = k.slowdown;
  }
}

double SensitivityCurve::at(double pressure_gbs) const noexcept {
  if (pressure_gbs <= knots_.front().pressure_gbs) {
    return knots_.front().slowdown;
  }
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    if (pressure_gbs <= knots_[i].pressure_gbs) {
      const auto& a = knots_[i - 1];
      const auto& b = knots_[i];
      const double t =
          (pressure_gbs - a.pressure_gbs) / (b.pressure_gbs - a.pressure_gbs);
      return a.slowdown + t * (b.slowdown - a.slowdown);
    }
  }
  return knots_.back().slowdown;
}

SensitivityCurve SensitivityCurve::flat() {
  return SensitivityCurve({Knot{0.0, 1.0}});
}

AppPool AppPool::synthetic(const util::Rng& rng, std::size_t count) {
  std::vector<AppProfile> apps;
  apps.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    util::Rng r = rng.child("app_pool", i);
    AppProfile app;
    app.name = "synthetic_app_" + std::to_string(i);
    // Contentiousness: lognormal around ~4 GB/s, clipped to [0.5, 20].
    app.bw_demand_gbs = std::clamp(r.lognormal(1.3, 0.7), 0.5, 20.0);
    // Latency exposure: memory-bound apps suffer more from remote accesses.
    // Correlate with bandwidth demand: heavier apps lean toward the top of
    // the [0.05, 0.6] range.
    const double intensity = app.bw_demand_gbs / 20.0;
    app.remote_penalty = 0.05 + 0.55 * std::clamp(
        0.5 * intensity + 0.5 * r.uniform(), 0.0, 1.0);
    // Sensitivity: slowdown 1 at zero pressure, rising to a per-app ceiling
    // in [1.1, 2.5] reached around 30-60 GB/s of lender pressure.
    const double ceiling = 1.1 + 1.4 * std::clamp(
        0.6 * intensity + 0.4 * r.uniform(), 0.0, 1.0);
    const double knee = r.uniform(10.0, 30.0);
    const double saturation = knee + r.uniform(15.0, 35.0);
    app.sensitivity = SensitivityCurve({
        {0.0, 1.0},
        {knee, 1.0 + 0.35 * (ceiling - 1.0)},
        {saturation, ceiling},
    });
    // Matching features: sizes are power-of-two-ish, runtimes lognormal.
    app.typical_nodes =
        std::pow(2.0, static_cast<double>(r.uniform_int(0, 7)));
    app.typical_runtime_s = std::clamp(r.lognormal(8.0, 1.2), 60.0, 7.0 * 86400.0);
    app.typical_mem = static_cast<MiB>(std::clamp(r.lognormal(9.0, 1.0),
                                                  256.0, 130000.0));
    apps.push_back(std::move(app));
  }
  return AppPool(std::move(apps));
}

AppPool::AppPool(std::vector<AppProfile> apps) : apps_(std::move(apps)) {
  log_features_.reserve(apps_.size());
  for (const AppProfile& app : apps_) {
    log_features_.push_back(
        util::log_features(app.typical_nodes, app.typical_runtime_s,
                           static_cast<double>(app.typical_mem)));
  }
}

const AppProfile& AppPool::app(int index) const {
  DMSIM_ASSERT(index >= 0 && static_cast<std::size_t>(index) < apps_.size(),
               "app profile index out of range");
  return apps_[static_cast<std::size_t>(index)];
}

int AppPool::match(double nodes, double runtime_s) const noexcept {
  const double log_nodes = util::log_feature(nodes);
  const double log_runtime = util::log_feature(runtime_s);
  int best = -1;
  double best_d = 0.0;
  for (std::size_t i = 0; i < log_features_.size(); ++i) {
    const double a = log_nodes - log_features_[i][0];
    const double b = log_runtime - log_features_[i][1];
    const double d = a * a + b * b;
    if (best < 0 || d < best_d) {
      best = static_cast<int>(i);
      best_d = d;
    }
  }
  return best;
}

int AppPool::match(double nodes, double runtime_s, MiB mem) const noexcept {
  const std::array<double, 3> q =
      util::log_features(nodes, runtime_s, static_cast<double>(mem));
  int best = -1;
  double best_d = 0.0;
  for (std::size_t i = 0; i < log_features_.size(); ++i) {
    const std::array<double, 3>& f = log_features_[i];
    const double a = q[0] - f[0];
    const double b = q[1] - f[1];
    const double c = q[2] - f[2];
    const double d = a * a + b * b + c * c;
    if (best < 0 || d < best_d) {
      best = static_cast<int>(i);
      best_d = d;
    }
  }
  return best;
}

const AppProfile* ContentionModel::profile(int index) const noexcept {
  if (pool_ == nullptr || index < 0 ||
      static_cast<std::size_t>(index) >= pool_->size()) {
    return nullptr;
  }
  return &pool_->app(index);
}

void ContentionModel::add_pressure(const cluster::Cluster& cluster, JobId job,
                                   int app_profile,
                                   std::span<double> pressure) const {
  const AppProfile* app = profile(app_profile);
  const double bw = app != nullptr ? app->bw_demand_gbs : 0.0;
  if (bw <= 0.0) return;
  const bool tiered = cluster.tiered();
  for (const cluster::AllocationSlot& slot : cluster.job_slots(job)) {
    const MiB total = slot.total();
    if (total <= 0) continue;
    for (const auto& [lender, amount] : slot.remote) {
      double term =
          bw * static_cast<double>(amount) / static_cast<double>(total);
      // A narrower tier congests faster: demand lands scaled by
      // reference-bandwidth / tier-bandwidth. Applied per term (not to the
      // lender's sum) so this path and lender_pressure() accumulate
      // bit-identical values in the same order.
      if (tiered) {
        term *= cluster.tier_bandwidth_factor(cluster.tier_of(lender));
      }
      pressure[lender.get()] += term;
    }
  }
}

double ContentionModel::lender_pressure(
    const cluster::Cluster& cluster,
    std::span<const cluster::Cluster::BorrowEdge> borrowers,
    const std::function<int(JobId)>& app_of) const {
  const bool tiered = cluster.tiered();
  double p = 0.0;
  for (const auto& e : borrowers) {
    const AppProfile* app = profile(app_of(e.job));
    const double bw = app != nullptr ? app->bw_demand_gbs : 0.0;
    if (bw <= 0.0) continue;
    if (e.slot_total <= 0) continue;
    double term =
        bw * static_cast<double>(e.amount) / static_cast<double>(e.slot_total);
    if (tiered) term *= cluster.tier_bandwidth_factor(e.tier);
    p += term;
  }
  return p;
}

double ContentionModel::job_slowdown(const cluster::Cluster& cluster, JobId job,
                                     int app_profile,
                                     std::span<const double> pressure) const {
  const AppProfile* app = profile(app_profile);
  const bool tiered = cluster.tiered();
  double out = 1.0;
  for (const cluster::AllocationSlot& slot : cluster.job_slots(job)) {
    double worst_pressure = 0.0;
    for (const auto& [lender, amount] : slot.remote) {
      (void)amount;
      worst_pressure = std::max(worst_pressure, pressure[lender.get()]);
    }
    const double sens =
        app != nullptr ? app->sensitivity.at(worst_pressure) : 1.0;
    const double penalty = app != nullptr ? app->remote_penalty : 0.0;
    // Latency exposure: on a flat topology this is the plain remote
    // fraction (the paper's model, preserved expression for expression).
    // On a tiered topology every remote MiB is weighted by its tier's
    // latency relative to the flat pool's reference point, so memory
    // promoted to a near tier hurts less and cross-rack memory hurts more.
    double exposure;
    if (!tiered) {
      exposure = slot.remote_fraction();
    } else {
      const MiB total = slot.total();
      double weighted = 0.0;
      for (const auto& [lender, amount] : slot.remote) {
        weighted += cluster.tier_latency_factor(cluster.tier_of(lender)) *
                    static_cast<double>(amount);
      }
      exposure =
          total == 0 ? 0.0 : weighted / static_cast<double>(total);
    }
    const double slot_slowdown = sens * (1.0 + penalty * exposure);
    out = std::max(out, slot_slowdown);
  }
  return out;
}

std::vector<double> ContentionModel::evaluate(
    const cluster::Cluster& cluster, std::span<const JobInput> jobs) const {
  // Pass 1: bandwidth pressure each lender node receives.
  std::vector<double> pressure(cluster.node_count(), 0.0);
  for (const auto& j : jobs) {
    add_pressure(cluster, j.job, j.app_profile, pressure);
  }
  // Pass 2: slowdown per job = max over its slots.
  std::vector<double> out;
  out.reserve(jobs.size());
  for (const auto& j : jobs) {
    out.push_back(job_slowdown(cluster, j.job, j.app_profile, pressure));
  }
  return out;
}

double ContentionModel::evaluate_one(const cluster::Cluster& cluster, JobId job,
                                     int app_profile) const {
  const JobInput in{job, app_profile};
  return evaluate(cluster, std::span<const JobInput>(&in, 1)).front();
}

// ---------------------------------------------------------------------------
// IncrementalSlowdowns
// ---------------------------------------------------------------------------

void IncrementalSlowdowns::refresh(const cluster::Cluster& cluster,
                                   std::span<const std::uint32_t> running_ids,
                                   const std::function<int(JobId)>& app_of,
                                   std::vector<Update>& out) {
  pressure_.resize(cluster.node_count(), 0.0);
  if (!primed_) {
    // Full rebuild in canonical (job id asc) order; every job gets an
    // Update so the caller starts from a consistent slate.
    std::fill(pressure_.begin(), pressure_.end(), 0.0);
    eval_ids_.assign(running_ids.begin(), running_ids.end());
    std::sort(eval_ids_.begin(), eval_ids_.end());
    for (const std::uint32_t id : eval_ids_) {
      model_->add_pressure(cluster, JobId{id}, app_of(JobId{id}), pressure_);
    }
    for (const std::uint32_t id : eval_ids_) {
      out.push_back(Update{
          JobId{id},
          model_->job_slowdown(cluster, JobId{id}, app_of(JobId{id}), pressure_)});
    }
    primed_ = true;
    return;
  }

  const std::span<const NodeId> dirty_lenders = cluster.dirty_lenders();
  const std::span<const JobId> dirty_jobs = cluster.dirty_jobs();
  if (dirty_lenders.empty() && dirty_jobs.empty()) return;

  // Recompute the pressure at every dirty lender from its (few) current
  // borrowers; those borrowers see a changed pressure, so they join the
  // re-evaluation set alongside the explicitly dirty jobs.
  eval_ids_.clear();
  for (const NodeId lender : dirty_lenders) {
    edges_.clear();
    cluster.borrowers_of(lender, edges_);
    pressure_[lender.get()] = model_->lender_pressure(cluster, edges_, app_of);
    for (const auto& e : edges_) eval_ids_.push_back(e.job.get());
  }
  for (const JobId j : dirty_jobs) eval_ids_.push_back(j.get());
  std::sort(eval_ids_.begin(), eval_ids_.end());
  eval_ids_.erase(std::unique(eval_ids_.begin(), eval_ids_.end()),
                  eval_ids_.end());
  for (const std::uint32_t id : eval_ids_) {
    const int app = app_of(JobId{id});
    if (app == kNotRunning) continue;  // finished since it was marked dirty
    out.push_back(
        Update{JobId{id}, model_->job_slowdown(cluster, JobId{id}, app, pressure_)});
  }
}

}  // namespace dmsim::slowdown
