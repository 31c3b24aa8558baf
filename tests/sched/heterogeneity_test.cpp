// Per-node usage heterogeneity: rank-0-heavy jobs let the dynamic policy
// reclaim the lighter nodes' share.
#include <gtest/gtest.h>

#include <memory>

#include "policy/policy.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "workload/generator.hpp"

namespace dmsim::sched {
namespace {

constexpr MiB kGiB = 1024;

TEST(JobSpecScale, DefaultsToUniform) {
  trace::JobSpec j;
  j.num_nodes = 4;
  EXPECT_DOUBLE_EQ(j.usage_scale(0), 1.0);
  EXPECT_DOUBLE_EQ(j.usage_scale(3), 1.0);
  j.node_usage_scale = {1.0, 0.5};
  EXPECT_DOUBLE_EQ(j.usage_scale(1), 0.5);
  EXPECT_DOUBLE_EQ(j.usage_scale(2), 1.0);  // beyond the vector -> uniform
}

struct Rig {
  explicit Rig(policy::PolicyKind kind)
      : cluster(cluster::make_cluster_config(4, 64 * kGiB, 0, 0)),
        policy(policy::make_policy(kind)),
        scheduler(engine, cluster, *policy, nullptr, {}) {}

  sim::Engine engine;
  cluster::Cluster cluster;
  std::unique_ptr<policy::AllocationPolicy> policy;
  Scheduler scheduler;
};

TEST(Heterogeneity, DynamicShrinksLightNodesMore) {
  // 3-node job, constant usage at 40 GiB on the head node, half on others.
  Rig rig(policy::PolicyKind::Dynamic);
  trace::JobSpec j;
  j.id = JobId{1};
  j.submit_time = 0.0;
  j.num_nodes = 3;
  j.requested_mem = 40 * kGiB;
  j.duration = 2000.0;
  j.walltime = 3000.0;
  j.usage = trace::UsageTrace::constant(40 * kGiB);
  j.node_usage_scale = {1.0, 0.5, 0.5};
  rig.scheduler.submit_workload({j});

  // Run past the first update cycle, then inspect the per-slot allocations.
  rig.engine.run_until(700.0);
  const auto slots = rig.cluster.job_slots(JobId{1});
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0].total(), 40 * kGiB);
  EXPECT_EQ(slots[1].total(), 20 * kGiB);
  EXPECT_EQ(slots[2].total(), 20 * kGiB);
  rig.engine.run();
  EXPECT_EQ(rig.cluster.total_allocated(), 0);
}

TEST(Heterogeneity, StaticIgnoresScales) {
  Rig rig(policy::PolicyKind::Static);
  trace::JobSpec j;
  j.id = JobId{1};
  j.submit_time = 0.0;
  j.num_nodes = 2;
  j.requested_mem = 40 * kGiB;
  j.duration = 2000.0;
  j.walltime = 3000.0;
  j.usage = trace::UsageTrace::constant(40 * kGiB);
  j.node_usage_scale = {1.0, 0.5};
  rig.scheduler.submit_workload({j});
  rig.engine.run_until(700.0);
  for (const auto& slot : rig.cluster.job_slots(JobId{1})) {
    EXPECT_EQ(slot.total(), 40 * kGiB);  // request held on every node
  }
  rig.engine.run();
}

TEST(Heterogeneity, GeneratorEmitsRankZeroHeavyJobs) {
  workload::SyntheticWorkloadConfig cfg;
  cfg.cirne.num_jobs = 400;
  cfg.cirne.system_nodes = 64;
  cfg.cirne.max_job_nodes = 16;
  cfg.rank0_heavy_fraction = 0.5;
  cfg.seed = 31;
  const auto w = workload::generate_synthetic(cfg);
  std::size_t multi = 0;
  std::size_t heavy = 0;
  for (const auto& j : w.jobs) {
    if (j.num_nodes <= 1) {
      EXPECT_TRUE(j.node_usage_scale.empty());
      continue;
    }
    ++multi;
    if (!j.node_usage_scale.empty()) {
      ++heavy;
      EXPECT_EQ(j.node_usage_scale.size(),
                static_cast<std::size_t>(j.num_nodes));
      EXPECT_DOUBLE_EQ(j.node_usage_scale[0], 1.0);
      for (std::size_t n = 1; n < j.node_usage_scale.size(); ++n) {
        EXPECT_GE(j.node_usage_scale[n], 0.5);
        EXPECT_LE(j.node_usage_scale[n], 0.9);
      }
    }
  }
  ASSERT_GT(multi, 0u);
  EXPECT_NEAR(static_cast<double>(heavy) / static_cast<double>(multi), 0.5,
              0.12);
}

TEST(Heterogeneity, ZeroFractionDisablesFeature) {
  workload::SyntheticWorkloadConfig cfg;
  cfg.cirne.num_jobs = 200;
  cfg.cirne.system_nodes = 64;
  cfg.cirne.max_job_nodes = 16;
  cfg.rank0_heavy_fraction = 0.0;
  cfg.seed = 32;
  const auto w = workload::generate_synthetic(cfg);
  for (const auto& j : w.jobs) {
    EXPECT_TRUE(j.node_usage_scale.empty());
  }
}

}  // namespace
}  // namespace dmsim::sched
