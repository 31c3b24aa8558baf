#include "harness/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace dmsim::harness {
namespace {

TEST(SystemConfig, CountsSplitByFraction) {
  SystemConfig sys;
  sys.total_nodes = 100;
  sys.pct_large_nodes = 0.25;
  EXPECT_EQ(sys.large_count(), 25);
  EXPECT_EQ(sys.normal_count(), 75);
}

TEST(SystemConfig, TotalMemory) {
  SystemConfig sys;
  sys.total_nodes = 4;
  sys.pct_large_nodes = 0.5;
  sys.normal_capacity = gib(64);
  sys.large_capacity = gib(128);
  EXPECT_EQ(sys.total_memory(), 2 * gib(64) + 2 * gib(128));
}

TEST(SystemConfig, MemoryFractionNormalizedToLargeReference) {
  SystemConfig sys;
  sys.total_nodes = 10;
  sys.pct_large_nodes = 1.0;
  EXPECT_DOUBLE_EQ(sys.memory_fraction(), 1.0);
  sys.pct_large_nodes = 0.0;
  EXPECT_DOUBLE_EQ(sys.memory_fraction(), 0.5);  // 64 GiB nodes vs 128 ref
}

TEST(SystemConfig, ToClusterConfigRoundTrips) {
  SystemConfig sys;
  sys.total_nodes = 8;
  sys.pct_large_nodes = 0.25;
  const cluster::Cluster c(sys.to_cluster_config());
  EXPECT_EQ(c.node_count(), 8u);
  EXPECT_EQ(c.total_capacity(), sys.total_memory());
  EXPECT_EQ(std::count(c.large_column().begin(), c.large_column().end(), 1), 2);
}

TEST(MemoryLadder, ReproducesPaperAxisPoints) {
  const auto ladder = memory_ladder(1024);
  std::vector<int> pcts;
  for (const auto& sys : ladder) {
    pcts.push_back(static_cast<int>(std::round(sys.memory_fraction() * 100)));
  }
  // Table 4 families yield {25,29,31,38,44,50,57,63,75,88,100} (the paper's
  // axis labels truncate: 37, 43, 62, 87); the figures plot from ~37% up.
  const std::vector<int> expected = {25, 29, 31, 38, 44, 50, 58, 63, 75, 88, 100};
  EXPECT_EQ(pcts, expected);
}

TEST(MemoryLadder, FractionsStrictlyIncreasing) {
  const auto ladder = memory_ladder(512);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GT(ladder[i].memory_fraction(), ladder[i - 1].memory_fraction());
  }
}

class CellFixture : public ::testing::Test {
 protected:
  CellFixture() {
    workload::SyntheticWorkloadConfig cfg;
    cfg.cirne.num_jobs = 120;
    cfg.cirne.system_nodes = 32;
    cfg.cirne.max_job_nodes = 8;
    cfg.cirne.target_load = 0.7;
    cfg.pct_large_jobs = 0.3;
    cfg.seed = 3;
    generated_ = workload::generate_synthetic(cfg);
    system_.total_nodes = 32;
    system_.pct_large_nodes = 0.5;
  }

  workload::SyntheticWorkload generated_;
  SystemConfig system_;
};

TEST_F(CellFixture, RunCellCompletesWorkload) {
  CellConfig cell;
  cell.system = system_;
  cell.policy = policy::PolicyKind::Dynamic;
  const CellResult r = run_cell(cell, generated_.jobs, generated_.apps);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.summary.completed, generated_.jobs.size());
  EXPECT_GT(r.throughput(), 0.0);
  EXPECT_GT(r.system_cost_usd, 0.0);
  EXPECT_GT(r.throughput_per_dollar(), 0.0);
  EXPECT_EQ(r.provisioned_memory, system_.total_memory());
}

TEST_F(CellFixture, InvalidCellWhenJobsCannotFit) {
  CellConfig cell;
  cell.system = system_;
  cell.system.pct_large_nodes = 0.0;  // no large nodes
  cell.policy = policy::PolicyKind::Baseline;
  // 30% large-memory jobs cannot run on 64 GiB nodes under Baseline.
  const CellResult r = run_cell(cell, generated_.jobs, generated_.apps);
  EXPECT_FALSE(r.valid);
  EXPECT_GT(r.infeasible_jobs, 0u);
  EXPECT_EQ(r.summary.completed, 0u);
}

TEST_F(CellFixture, DisaggregatedValidWhereBaselineIsNot) {
  CellConfig cell;
  cell.system = system_;
  cell.system.pct_large_nodes = 0.0;
  cell.policy = policy::PolicyKind::Static;
  const CellResult r = run_cell(cell, generated_.jobs, generated_.apps);
  EXPECT_TRUE(r.valid);  // borrowing covers the large jobs
  EXPECT_EQ(r.summary.completed, generated_.jobs.size());
}

TEST_F(CellFixture, RunCellsMatchesSequentialRuns) {
  std::vector<CellConfig> cells;
  for (const auto kind :
       {policy::PolicyKind::Static, policy::PolicyKind::Dynamic}) {
    CellConfig cell;
    cell.system = system_;
    cell.policy = kind;
    cells.push_back(cell);
  }
  const auto parallel = run_cells(cells, generated_.jobs, generated_.apps, 2);
  ASSERT_EQ(parallel.size(), 2u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult solo = run_cell(cells[i], generated_.jobs, generated_.apps);
    EXPECT_EQ(parallel[i].summary.completed, solo.summary.completed);
    EXPECT_DOUBLE_EQ(parallel[i].summary.throughput, solo.summary.throughput);
    EXPECT_DOUBLE_EQ(parallel[i].avg_busy_nodes, solo.avg_busy_nodes);
  }
}

TEST_F(CellFixture, CostDependsOnProvisioning) {
  CellConfig big;
  big.system = system_;
  big.system.pct_large_nodes = 1.0;
  CellConfig small = big;
  small.system.pct_large_nodes = 0.0;
  const CellResult rb = run_cell(big, generated_.jobs, generated_.apps);
  const CellResult rs = run_cell(small, generated_.jobs, generated_.apps);
  EXPECT_GT(rb.system_cost_usd, rs.system_cost_usd);
}

}  // namespace
}  // namespace dmsim::harness
