// Checkpoint-equivalence fuzz: cut a run at randomized points, restore, and
// require the resumed run to reproduce the uninterrupted run bit for bit —
// the proof obligation of the snapshot subsystem, across every policy and
// scheduler flavour.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "metrics/json_export.hpp"
#include "monitor/monitor.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/image.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"

namespace dmsim {
namespace {

trace::Workload fuzz_workload(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  trace::Workload jobs;
  Seconds submit = 0.0;
  for (std::uint32_t i = 1; i <= n; ++i) {
    trace::JobSpec j;
    j.id = JobId{i};
    submit += rng.uniform() * 60.0;
    j.submit_time = submit;
    j.num_nodes = 1 + static_cast<int>(rng() % 4);
    j.duration = 60.0 + rng.uniform() * 500.0;
    // Mostly generous walltimes, occasionally tight enough that contention
    // slowdown pushes the job over its limit (walltime-kill path).
    j.walltime = j.duration * (rng.uniform() < 0.2 ? 1.05 : 2.0);
    const MiB peak = gib(8) + static_cast<MiB>(rng() % gib(96));
    j.usage = trace::UsageTrace(std::vector<trace::UsagePoint>{
        {0.0, peak / 4}, {0.35, peak / 2}, {0.7, peak}});
    // Under-requests trigger the OOM / restart / guaranteed-allocation
    // machinery; exact requests keep Baseline feasible and busy.
    j.requested_mem = rng.uniform() < 0.3 ? (peak * 4) / 5 : peak;
    if (i % 7 == 0 && i > 1) {
      j.preceding_job = JobId{i - 1};  // dependency-release path
      j.think_time = rng.uniform() * 30.0;
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

struct FuzzCase {
  const char* name;
  policy::PolicyKind policy;
  sched::SchedulerConfig sched;
  /// Run on a two-tier CXL-style topology: tier columns, tier-tagged borrow
  /// edges and the migration pass must all survive the cut/restore round
  /// trip bit for bit.
  bool tiered = false;
};

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  {
    FuzzCase c{"baseline_fcfs", policy::PolicyKind::Baseline, {}};
    c.sched.enable_backfill = false;
    cases.push_back(c);
  }
  {
    FuzzCase c{"static_backfill", policy::PolicyKind::Static, {}};
    c.sched.backfill_mode = sched::BackfillMode::Easy;
    cases.push_back(c);
  }
  {
    FuzzCase c{"dynamic_backfill", policy::PolicyKind::Dynamic, {}};
    c.sched.backfill_mode = sched::BackfillMode::Easy;
    c.sched.enforce_walltime = true;
    c.sched.sample_interval = 150.0;
    c.sched.update_interval = 120.0;
    cases.push_back(c);
  }
  {
    FuzzCase c{"dynamic_global_batch", policy::PolicyKind::Dynamic, {}};
    c.sched.enable_backfill = false;
    c.sched.update_mode = sched::UpdateMode::GlobalBatch;
    c.sched.update_interval = 90.0;
    c.sched.oom_handling = sched::OomHandling::CheckpointRestart;
    cases.push_back(c);
  }
  {
    FuzzCase c{"dynamic_tiered", policy::PolicyKind::Dynamic, {}};
    c.sched.backfill_mode = sched::BackfillMode::Easy;
    c.sched.update_interval = 120.0;
    c.tiered = true;
    cases.push_back(c);
  }
  {
    // Live AdaptiveMonitor state — per-job region lists, adapted periods,
    // and the noise RNG stream — must survive the cut/restore round trip
    // bit for bit, including mid-run runtime-OOM handling.
    FuzzCase c{"dynamic_adaptive_monitor", policy::PolicyKind::Dynamic, {}};
    c.sched.backfill_mode = sched::BackfillMode::Easy;
    c.sched.update_interval = 120.0;
    c.sched.monitor.kind = monitor::MonitorKind::Adaptive;
    c.sched.monitor.min_interval = 45.0;
    c.sched.monitor.max_interval = 360.0;
    c.sched.monitor.error_bound = 0.08;
    c.sched.monitor.overhead_us_per_region = 25.0;
    cases.push_back(c);
  }
  {
    // Sampled monitor with staleness: the estimate depends on counters that
    // advance once per update, so any drift after restore shows up fast.
    FuzzCase c{"dynamic_sampled_monitor", policy::PolicyKind::Dynamic, {}};
    c.sched.enable_backfill = false;
    c.sched.update_mode = sched::UpdateMode::GlobalBatch;
    c.sched.update_interval = 90.0;
    c.sched.monitor.kind = monitor::MonitorKind::Sampled;
    c.sched.monitor.relative_error = 0.15;
    c.sched.monitor.staleness = 60.0;
    c.sched.oom_handling = sched::OomHandling::CheckpointRestart;
    cases.push_back(c);
  }
  return cases;
}

SimulationConfig make_config(const FuzzCase& c) {
  SimulationConfig cfg;
  cfg.system.total_nodes = 8;
  cfg.system.pct_large_nodes = 0.5;
  cfg.policy = c.policy;
  cfg.sched = c.sched;
  if (c.tiered) {
    cfg.system.tiers = {
        cluster::MemoryTier{"local", 150.0, 90.0, cluster::TierScope::Local},
        cluster::MemoryTier{"rack", 450.0, 64.0, cluster::TierScope::Rack}};
    cfg.system.tier_fractions = {0.5, 0.5};
  }
  return cfg;
}

std::string snapshot_path(const std::string& tag) {
  return (std::filesystem::path(::testing::TempDir()) /
          ("dmsim_fuzz_" + tag + ".snap"))
      .string();
}

TEST(CheckpointFuzz, RandomCutsReproduceBitIdenticalResults) {
  const slowdown::AppPool apps = slowdown::AppPool::synthetic(util::Rng(7), 16);
  trace::Workload jobs = fuzz_workload(/*seed=*/1234, /*n=*/36);
  for (auto& j : jobs) j.app_profile = apps.match(j.num_nodes, j.duration);

  util::Rng cut_rng(99);
  for (const FuzzCase& c : fuzz_cases()) {
    const SimulationConfig cfg = make_config(c);

    // Reference: uninterrupted run.
    Simulator ref(cfg, jobs, &apps);
    const SimulationResult ref_result = ref.run();
    ASSERT_TRUE(ref_result.valid) << c.name;
    const std::string ref_json = metrics::to_json(ref_result);
    const Seconds makespan = ref_result.summary.last_end;
    ASSERT_GT(makespan, 0.0) << c.name;

    for (int trial = 0; trial < 2; ++trial) {
      const Seconds cut = (0.05 + 0.9 * cut_rng.uniform()) * makespan;
      const std::string path =
          snapshot_path(std::string(c.name) + "_" + std::to_string(trial));

      // Run with a single explicit cut; results must already match (saves
      // are side-effect-free).
      snapshot::Plan plan;
      plan.path = path;
      plan.cuts = {cut};
      Simulator saver(cfg, jobs, &apps);
      const SimulationResult saved_result = saver.run(plan);
      EXPECT_EQ(metrics::to_json(saved_result), ref_json)
          << c.name << " cut=" << cut << ": checkpointing perturbed the run";
      ASSERT_EQ(saver.checkpoint_stats().saves, 1U) << c.name << " cut=" << cut;

      // Restore and finish; the final document must match byte for byte.
      auto resumed = Simulator::restore_from(path, cfg, jobs, &apps);
      const SimulationResult res_result = resumed->run();
      EXPECT_EQ(metrics::to_json(res_result), ref_json)
          << c.name << " cut=" << cut << ": restored run diverged";
      // Full invariant suite over the restored ledger (bulk-rebuilt
      // indexes, columnar or legacy layout).
      resumed->cluster().check_invariants();
      EXPECT_EQ(res_result.engine_events, ref_result.engine_events);

      std::remove(path.c_str());
    }
  }
}

TEST(CheckpointFuzz, FingerprintRejectsMismatchedConfig) {
  const slowdown::AppPool apps = slowdown::AppPool::synthetic(util::Rng(7), 16);
  trace::Workload jobs = fuzz_workload(42, 12);
  for (auto& j : jobs) j.app_profile = apps.match(j.num_nodes, j.duration);

  SimulationConfig cfg;
  cfg.system.total_nodes = 8;
  cfg.policy = policy::PolicyKind::Dynamic;

  const std::string path = snapshot_path("fingerprint");
  snapshot::Plan plan;
  plan.path = path;
  plan.every = 200.0;
  Simulator saver(cfg, jobs, &apps);
  const SimulationResult r = saver.run(plan);
  ASSERT_TRUE(r.valid);
  ASSERT_GT(saver.checkpoint_stats().saves, 0U);

  // Different scheduler config → fingerprint mismatch, loud refusal.
  SimulationConfig other = cfg;
  other.sched.sched_interval = 31.0;
  EXPECT_THROW(
      { auto s = Simulator::restore_from(path, other, jobs, &apps); },
      snapshot::SnapshotError);

  // Perturbed workload → same refusal.
  trace::Workload tweaked = jobs;
  tweaked[0].duration += 1.0;
  EXPECT_THROW(
      { auto s = Simulator::restore_from(path, cfg, tweaked, &apps); },
      snapshot::SnapshotError);

  std::remove(path.c_str());
}

TEST(CheckpointFuzz, OncePerRunFingerprintMatchesComponents) {
  // run_with_checkpoints hashes the configuration once and stamps every
  // save with that value; it must be exactly what config_fingerprint
  // computes from the live components after a mid-run save.
  const slowdown::AppPool apps = slowdown::AppPool::synthetic(util::Rng(7), 16);
  trace::Workload jobs = fuzz_workload(43, 20);
  for (auto& j : jobs) j.app_profile = apps.match(j.num_nodes, j.duration);
  SimulationConfig cfg;
  cfg.system.total_nodes = 8;
  cfg.policy = policy::PolicyKind::Dynamic;

  const std::string path = snapshot_path("once_per_run");
  snapshot::Plan plan;
  plan.path = path;
  plan.every = 150.0;
  Simulator saver(cfg, jobs, &apps);
  ASSERT_TRUE(saver.run(plan).valid);
  ASSERT_GT(saver.checkpoint_stats().saves, 1U);

  const std::uint64_t stamped = snapshot::Image::open(path)->fingerprint();
  EXPECT_EQ(stamped, snapshot::config_fingerprint(
                         saver.cluster(), saver.scheduler().config(),
                         saver.scheduler().workload()));
  // And the stamped value still admits a restore of that configuration.
  auto resumed = Simulator::restore_from(path, cfg, jobs, &apps);
  EXPECT_TRUE(resumed->run().valid);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dmsim
