// Randomized scheduler property tests: arbitrary small workloads under all
// policies and update modes must terminate with a consistent ledger and
// consistent per-job records. The cluster ledger is additionally audited
// mid-run — every 500 sim-seconds — so an invariant broken transiently by an
// OOM requeue or walltime kill is caught at the event that broke it, not
// masked by the final drain. Every Monitor update is audited as it happens:
// the Actuator must leave each slot exactly at its share of the update's
// base demand, whether it resized or skipped the resize as already done.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "policy/policy.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "slowdown/model.hpp"
#include "util/rng.hpp"
#include "workload/google_usage.hpp"

namespace dmsim::sched {
namespace {

constexpr MiB kGiB = 1024;

struct FuzzParams {
  std::uint64_t seed;
  policy::PolicyKind policy;
  UpdateMode mode;
  OomHandling oom;
  /// Kill jobs at their walltime. Paired with tighter walltime estimates in
  /// the generated workload so kills actually fire mid-run.
  bool enforce_walltime;
  /// Attach an AppPool so contention produces real slowdowns (and therefore
  /// walltime overruns and shifted OOM timing).
  bool with_apps;
  /// Memory-tier topology axis: 1 = flat (the default everywhere else),
  /// 2/3 = CXL-style tiered tables exercising per-tier indexes, tier-tagged
  /// borrow edges and the scheduler's migration pass.
  int tier_count = 1;
  cluster::LenderPolicy lender = cluster::LenderPolicy::MemoryNodesFirst;
  /// Memory-monitor axis: non-oracle monitors estimate with error, adapt
  /// the update cadence, and inject runtime-OOM kills mid-window.
  monitor::MonitorKind monitor = monitor::MonitorKind::Oracle;
  /// Degenerate-input axis: sprinkle zero-duration jobs into the workload
  /// and run with an absurd update interval, so the demand look-ahead
  /// window guard (monitor::demand_window_end) is exercised end to end.
  bool degenerate = false;
};

class SchedulerFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

/// Trace sink auditing the Actuator's postcondition at every Monitor update
/// that did not OOM: slot i of the job holds exactly
/// llround(base demand x usage_scale(i)). A resize skipped on a stale memo
/// leaves some slot elsewhere and fails here. cover_first_window's grow-only
/// event (slots at max(request, share)) precedes the job's start event, so
/// only updates of started jobs are audited.
class ActuatorAuditSink final : public obs::TraceSink {
 public:
  ActuatorAuditSink(const cluster::Cluster& cluster,
                    const trace::Workload& jobs)
      : cluster_(cluster) {
    for (const trace::JobSpec& spec : jobs) specs_.emplace(spec.id.get(), &spec);
  }

  void emit(const obs::Event& e) override {
    switch (e.kind) {
      case obs::EventKind::JobStart:
      case obs::EventKind::BackfillStart:
        started_.insert(e.job);
        break;
      case obs::EventKind::JobComplete:
      case obs::EventKind::JobOomKill:
      case obs::EventKind::JobWalltimeKill:
        started_.erase(e.job);
        break;
      case obs::EventKind::MonitorUpdate:
        if (started_.contains(e.job) && field(e, "oom") == 0) audit(e);
        break;
      default:
        break;
    }
  }
  void close() override {}

  [[nodiscard]] std::uint64_t audited() const noexcept { return audited_; }

 private:
  [[nodiscard]] static std::int64_t field(const obs::Event& e,
                                          std::string_view key) {
    for (std::size_t i = 0; i < e.num_fields; ++i) {
      if (key == e.fields[i].key) return e.fields[i].value;
    }
    ADD_FAILURE() << "monitor update without field " << key;
    return -1;
  }

  void audit(const obs::Event& e) {
    const trace::JobSpec& spec = *specs_.at(static_cast<std::uint32_t>(e.job));
    const MiB base = field(e, "demand_mib");
    const auto slots = cluster_.job_slots(spec.id);
    ASSERT_EQ(slots.size(), static_cast<std::size_t>(spec.num_nodes));
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(slots[i].total(),
                static_cast<MiB>(std::llround(static_cast<double>(base) *
                                              spec.usage_scale(i))))
          << "job " << e.job << " slot " << i << " at t=" << e.time;
    }
    ++audited_;
  }

  const cluster::Cluster& cluster_;
  std::unordered_map<std::uint32_t, const trace::JobSpec*> specs_;
  std::unordered_set<std::int64_t> started_;
  std::uint64_t audited_ = 0;
};

trace::Workload random_workload(util::Rng& rng, std::size_t count,
                                const workload::GoogleUsageLibrary& shapes,
                                const slowdown::AppPool* apps,
                                bool tight_walltimes,
                                bool degenerate = false) {
  trace::Workload jobs;
  jobs.reserve(count);
  for (std::uint32_t i = 1; i <= count; ++i) {
    trace::JobSpec j;
    j.id = JobId{i};
    j.submit_time = rng.uniform(0.0, 20000.0);
    j.num_nodes = static_cast<int>(rng.uniform_int(1, 4));
    j.duration = rng.uniform(60.0, 14400.0);
    // Degenerate axis: every fifth job takes zero time — its progress folds
    // straight to 1.0 and its look-ahead window must not divide by zero.
    if (degenerate && i % 5 == 0) j.duration = 0.0;
    // Tight walltimes underestimate by up to 20% so enforcement kills some
    // jobs outright; the loose range only overruns via contention slowdown.
    j.walltime = j.duration * (tight_walltimes ? rng.uniform(0.8, 1.5)
                                               : rng.uniform(1.0, 2.0));
    const MiB peak = rng.uniform_int(1 * kGiB, 100 * kGiB);
    const std::size_t shape = rng.uniform_int(
        0, static_cast<std::int64_t>(shapes.size()) - 1);
    j.usage = shapes.instantiate(static_cast<std::size_t>(shape), peak);
    // Requests range from underestimates (0.5x: forces dynamic growth and
    // occasional OOM) to heavy overestimates (2x).
    j.requested_mem = static_cast<MiB>(
        static_cast<double>(peak) * rng.uniform(0.5, 2.0));
    j.requested_mem = std::max<MiB>(1, j.requested_mem);
    if (apps != nullptr && !apps->empty()) {
      j.app_profile = apps->match(j.num_nodes, j.duration, peak);
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

/// Append jobs built to expose a stale resize memo. Usage spikes to 1.5x the
/// request early in the zeroth Monitor window — so cover_first_window grows
/// the slots above the request — then settles exactly at the request, with
/// per-node scales below 1. Under the oracle every update's base demand is
/// then the request itself, and the Actuator must still bring each slot
/// down to its scaled share instead of trusting a memo set at start.
void append_settling_jobs(util::Rng& rng, std::size_t count,
                          const slowdown::AppPool* apps,
                          trace::Workload& jobs) {
  static constexpr double kScales[] = {1.0, 0.75, 0.5, 0.9};
  for (std::size_t k = 0; k < count; ++k) {
    trace::JobSpec j;
    j.id = JobId{static_cast<std::uint32_t>(jobs.size() + 1)};
    j.submit_time = rng.uniform(0.0, 20000.0);
    j.num_nodes = static_cast<int>(rng.uniform_int(2, 4));
    j.duration = rng.uniform(3600.0, 14400.0);
    j.walltime = 2.0 * j.duration;
    j.requested_mem = rng.uniform_int(4 * kGiB, 48 * kGiB);
    // The zeroth window spans at least half an update interval (150 s at
    // the default 300 s); the spike ends after 60 s.
    j.usage = trace::UsageTrace(std::vector<trace::UsagePoint>{
        {0.0, j.requested_mem * 3 / 2}, {60.0 / j.duration, j.requested_mem}});
    j.node_usage_scale.assign(std::begin(kScales),
                              std::begin(kScales) + j.num_nodes);
    if (apps != nullptr && !apps->empty()) {
      j.app_profile = apps->match(j.num_nodes, j.duration, j.requested_mem);
    }
    jobs.push_back(std::move(j));
  }
}

TEST_P(SchedulerFuzzTest, TerminatesConsistently) {
  const FuzzParams params = GetParam();
  util::Rng rng(params.seed);
  const auto shapes = workload::GoogleUsageLibrary::synthetic(
      rng.child("shapes"), 16);
  const slowdown::AppPool apps =
      params.with_apps ? slowdown::AppPool::synthetic(rng.child("apps"), 8)
                       : slowdown::AppPool{};
  const slowdown::AppPool* pool = params.with_apps ? &apps : nullptr;
  util::Rng wl_rng = rng.child("workload");
  trace::Workload jobs = random_workload(wl_rng, 40, shapes, pool,
                                         params.enforce_walltime,
                                         params.degenerate);
  append_settling_jobs(wl_rng, 6, pool, jobs);

  cluster::ClusterConfig cluster_cfg =
      cluster::make_cluster_config(6, 64 * kGiB, 2, 128 * kGiB);
  cluster_cfg.lender_policy = params.lender;
  if (params.tier_count >= 2) {
    cluster_cfg.tiers = {
        cluster::MemoryTier{"local", 150.0, 90.0, cluster::TierScope::Local},
        cluster::MemoryTier{"rack", 450.0, 64.0, cluster::TierScope::Rack}};
    if (params.tier_count >= 3) {
      cluster_cfg.tiers.push_back(cluster::MemoryTier{
          "far", 1200.0, 40.0, cluster::TierScope::CrossRack});
    }
    for (std::size_t i = 0; i < cluster_cfg.nodes.size(); ++i) {
      const auto t = static_cast<std::uint8_t>(
          i % static_cast<std::size_t>(params.tier_count));
      cluster_cfg.nodes[i].tier = t;
      cluster_cfg.nodes[i].rack = t;
    }
  }
  cluster::Cluster cluster(std::move(cluster_cfg));
  const auto policy = policy::make_policy(params.policy);
  SchedulerConfig cfg;
  cfg.update_mode = params.mode;
  cfg.oom_handling = params.oom;
  cfg.max_restarts = 10;
  cfg.enforce_walltime = params.enforce_walltime;
  cfg.monitor.kind = params.monitor;
  if (params.monitor == monitor::MonitorKind::Sampled) {
    cfg.monitor.relative_error = 0.2;
    cfg.monitor.staleness = 120.0;
  } else if (params.monitor == monitor::MonitorKind::Adaptive) {
    cfg.monitor.min_interval = 60.0;
    cfg.monitor.max_interval = 1200.0;
    cfg.monitor.error_bound = 0.08;
  }
  // Huge update interval: the first look-ahead window spans the whole job
  // and overflow in the window arithmetic must saturate, not go NaN.
  if (params.degenerate) cfg.update_interval = 9e15;
  sim::Engine engine;
  ActuatorAuditSink actuator_audit(cluster, jobs);
  const obs::Observer observer{&actuator_audit, nullptr, &engine};
  Scheduler scheduler(engine, cluster, *policy, pool, cfg, &observer);
  scheduler.submit_workload(jobs);

  // Property 0: the ledger is consistent at every point of the run, not just
  // after the drain. A self-rescheduling audit event walks the full
  // invariant suite (per-node accounting, borrow-edge reverse index, free
  // indexes) between scheduler events; the chain stops once every feasible
  // job is terminal so the engine can drain.
  std::uint64_t audits = 0;
  std::function<void()> audit = [&] {
    cluster.check_invariants();
    // Between events every running job's cached slowdown must equal a fresh
    // model evaluation — no OOM-victim batch, backfill pass or monitor
    // resize may leave survivors on stale projections.
    EXPECT_TRUE(scheduler.slowdowns_fresh());
    ++audits;
    const auto& t = scheduler.totals();
    const std::uint64_t terminal =
        t.completed + t.abandoned + t.walltime_kills;
    const std::uint64_t feasible =
        scheduler.records().size() - scheduler.infeasible_count();
    if (terminal < feasible) engine.schedule_after(500.0, audit);
  };
  engine.schedule(0.0, audit);

  scheduler.run();
  EXPECT_GT(audits, 0u);
  if (params.policy == policy::PolicyKind::Dynamic && !params.degenerate) {
    EXPECT_GT(actuator_audit.audited(), 0u);
  }

  // Property 1: ledger fully drained and consistent.
  cluster.check_invariants();
  EXPECT_EQ(cluster.total_allocated(), 0);
  EXPECT_EQ(scheduler.running_count(), 0u);
  EXPECT_EQ(scheduler.pending_count(), 0u);

  // Property 2: every feasible job reached a terminal state; infeasible
  // ones were never started.
  std::size_t terminal = 0;
  for (const auto& rec : scheduler.records()) {
    if (rec.infeasible) {
      EXPECT_EQ(rec.outcome, JobOutcome::NeverStarted);
      EXPECT_EQ(rec.first_start, kNoTime);
      continue;
    }
    EXPECT_NE(rec.outcome, JobOutcome::NeverStarted) << rec.id.get();
    ++terminal;
    // Property 3: per-record time sanity.
    if (rec.first_start != kNoTime) {
      EXPECT_GE(rec.first_start, rec.submit_time);
      EXPECT_GE(rec.last_start, rec.first_start);
    }
    if (rec.outcome == JobOutcome::Completed) {
      EXPECT_GE(rec.end_time, rec.last_start);
      EXPECT_GE(rec.response_time(), 0.0);
    }
  }
  EXPECT_EQ(terminal + scheduler.infeasible_count(),
            scheduler.records().size());

  // Property 4: totals line up with records.
  const auto& totals = scheduler.totals();
  EXPECT_EQ(totals.completed + totals.abandoned + totals.walltime_kills,
            terminal);
  EXPECT_GE(totals.requeues, 0u);
  EXPECT_GE(totals.oom_events, totals.abandoned);
  if (!params.enforce_walltime) EXPECT_EQ(totals.walltime_kills, 0u);
}

std::vector<FuzzParams> fuzz_matrix() {
  std::vector<FuzzParams> out;
  std::uint64_t seed = 100;
  for (const auto policy :
       {policy::PolicyKind::Baseline, policy::PolicyKind::Static,
        policy::PolicyKind::Dynamic}) {
    for (const auto mode :
         {UpdateMode::PerJobStaggered, UpdateMode::GlobalBatch}) {
      for (const auto oom :
           {OomHandling::FailRestart, OomHandling::CheckpointRestart}) {
        // Two seeds per combo: one plain, one with walltime enforcement and
        // an app pool so kills and contention-shifted OOMs hit the audits.
        out.push_back(FuzzParams{seed++, policy, mode, oom, false, false});
        out.push_back(FuzzParams{seed++, policy, mode, oom, true, true});
      }
    }
  }
  // Tier axis: 1/2/3-tier topologies under every lender policy, Dynamic
  // policy with apps so tier-weighted exposure, per-tier lender selection
  // and the migration pass all run under the mid-run audits.
  for (const int tiers : {1, 2, 3}) {
    for (const auto lender :
         {cluster::LenderPolicy::MemoryNodesFirst,
          cluster::LenderPolicy::MostFree, cluster::LenderPolicy::LeastFree}) {
      out.push_back(FuzzParams{seed++, policy::PolicyKind::Dynamic,
                               UpdateMode::PerJobStaggered,
                               OomHandling::FailRestart, true, true, tiers,
                               lender});
    }
  }
  // Monitor axis: imperfect monitors under both update modes and both OOM
  // policies, so runtime-OOM kills, adaptive cadence changes and overhead
  // slowdown folds all run under the mid-run audits.
  for (const auto kind :
       {monitor::MonitorKind::Sampled, monitor::MonitorKind::Adaptive}) {
    for (const auto mode :
         {UpdateMode::PerJobStaggered, UpdateMode::GlobalBatch}) {
      for (const auto oom :
           {OomHandling::FailRestart, OomHandling::CheckpointRestart}) {
        FuzzParams p{seed++,  policy::PolicyKind::Dynamic, mode, oom,
                     true,    true};
        p.monitor = kind;
        out.push_back(p);
      }
    }
  }
  // Degenerate-input axis: zero-duration jobs + an absurd update interval,
  // with and without an imperfect monitor in the loop.
  for (const auto kind :
       {monitor::MonitorKind::Oracle, monitor::MonitorKind::Sampled}) {
    FuzzParams p{seed++,
                 policy::PolicyKind::Dynamic,
                 UpdateMode::PerJobStaggered,
                 OomHandling::FailRestart,
                 false,
                 true};
    p.monitor = kind;
    p.degenerate = true;
    out.push_back(p);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, SchedulerFuzzTest,
                         ::testing::ValuesIn(fuzz_matrix()));

}  // namespace
}  // namespace dmsim::sched
