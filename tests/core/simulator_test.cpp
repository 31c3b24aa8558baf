#include "core/simulator.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "harness/sweep.hpp"
#include "metrics/json_export.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/generator.hpp"

namespace dmsim {
namespace {

constexpr MiB kGiB = 1024;

trace::Workload tiny_workload() {
  trace::Workload jobs;
  for (std::uint32_t i = 1; i <= 5; ++i) {
    trace::JobSpec j;
    j.id = JobId{i};
    j.submit_time = i * 5.0;
    j.num_nodes = 1;
    j.requested_mem = 16 * kGiB;
    j.duration = 100.0;
    j.walltime = 150.0;
    j.usage = trace::UsageTrace::constant(16 * kGiB);
    jobs.push_back(j);
  }
  return jobs;
}

SimulationConfig tiny_config(policy::PolicyKind kind) {
  SimulationConfig cfg;
  cfg.system.total_nodes = 4;
  cfg.system.pct_large_nodes = 0.5;
  cfg.policy = kind;
  return cfg;
}

TEST(Simulator, RunsWorkloadToCompletion) {
  Simulator sim(tiny_config(policy::PolicyKind::Dynamic), tiny_workload(),
                nullptr);
  const SimulationResult r = sim.run();
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.summary.completed, 5u);
  EXPECT_EQ(r.records.size(), 5u);
  EXPECT_GT(r.summary.throughput, 0.0);
  EXPECT_EQ(r.provisioned_memory, 2 * gib(64) + 2 * gib(128));
  EXPECT_GT(r.system_cost_usd, 0.0);
  EXPECT_EQ(sim.cluster().total_allocated(), 0);
}

TEST(Simulator, InvalidWorkloadShortCircuits) {
  trace::Workload jobs = tiny_workload();
  jobs[0].requested_mem = 4096 * kGiB;  // cannot ever fit
  Simulator sim(tiny_config(policy::PolicyKind::Baseline), std::move(jobs),
                nullptr);
  const SimulationResult r = sim.run();
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.summary.completed, 0u);
  EXPECT_EQ(r.records.size(), 5u);  // records still reported
}

TEST(Simulator, SamplesExposedWhenConfigured) {
  SimulationConfig cfg = tiny_config(policy::PolicyKind::Static);
  cfg.sched.sample_interval = 25.0;
  Simulator sim(cfg, tiny_workload(), nullptr);
  const SimulationResult r = sim.run();
  EXPECT_GT(r.samples.size(), 2u);
}

TEST(Simulator, AllPolicyKindsRun) {
  for (const auto kind : {policy::PolicyKind::Baseline,
                          policy::PolicyKind::Static,
                          policy::PolicyKind::Dynamic}) {
    Simulator sim(tiny_config(kind), tiny_workload(), nullptr);
    const SimulationResult r = sim.run();
    EXPECT_TRUE(r.valid) << to_string(kind);
    EXPECT_EQ(r.summary.completed, 5u) << to_string(kind);
  }
}

workload::SyntheticWorkload pipeline_workload() {
  workload::SyntheticWorkloadConfig wcfg;
  wcfg.cirne.num_jobs = 60;
  wcfg.cirne.system_nodes = 16;
  wcfg.cirne.max_job_nodes = 4;
  wcfg.seed = 1313;
  return workload::generate_synthetic(wcfg);
}

harness::CellConfig pipeline_cell(policy::PolicyKind kind) {
  harness::CellConfig cell;
  cell.system.total_nodes = 16;
  cell.system.pct_large_nodes = 0.5;
  cell.policy = kind;
  cell.collect_telemetry = true;
  return cell;
}

// Simulator is a facade over harness::Cell, the same stack run_cell drives.
// With a trace sink and a registry wired, both entry points must give the
// same cell result, the same NDJSON bytes and the same telemetry.
TEST(Simulator, FacadeAndRunCellAreOnePipeline) {
  const workload::SyntheticWorkload w = pipeline_workload();
  for (const auto kind : {policy::PolicyKind::Baseline,
                          policy::PolicyKind::Static,
                          policy::PolicyKind::Dynamic}) {
    const harness::CellConfig cell = pipeline_cell(kind);
    SimulationConfig cfg;
    cfg.system = cell.system;
    cfg.policy = cell.policy;

    std::ostringstream sim_trace;
    obs::NdjsonSink sim_sink(sim_trace);
    obs::Counters sim_counters;
    Simulator sim(cfg, w.jobs, &w.apps, &sim_sink, &sim_counters);
    const SimulationResult from_sim = sim.run();
    sim_sink.close();

    std::ostringstream cell_trace;
    obs::NdjsonSink cell_sink(cell_trace);
    obs::Counters cell_counters;
    const harness::CellResult from_cell =
        harness::run_cell(cell, w.jobs, w.apps, &cell_sink, &cell_counters);
    cell_sink.close();

    ASSERT_TRUE(from_cell.valid) << to_string(kind);
    EXPECT_EQ(harness::cell_result_to_json(from_sim),
              harness::cell_result_to_json(from_cell))
        << to_string(kind);
    EXPECT_FALSE(cell_trace.str().empty());
    EXPECT_EQ(sim_trace.str(), cell_trace.str()) << to_string(kind);
    EXPECT_FALSE(from_cell.telemetry.empty());
    EXPECT_EQ(metrics::telemetry_to_json(from_sim.telemetry),
              metrics::telemetry_to_json(from_cell.telemetry))
        << to_string(kind);
  }
}

// The two restore-from-file entry points treat a missing file differently:
// Simulator::restore_from names a file that must exist, while a resumable
// checkpointed cell whose file is not there yet simply starts from zero.
TEST(Simulator, RestoreFromMissingFileThrowsButResumeStartsFresh) {
  const workload::SyntheticWorkload w = pipeline_workload();
  const std::string missing =
      (std::filesystem::path(::testing::TempDir()) / "no_such_cell.snap")
          .string();
  std::filesystem::remove(missing);

  SimulationConfig cfg;
  cfg.system.total_nodes = 16;
  EXPECT_THROW((void)Simulator::restore_from(missing, cfg, w.jobs, &w.apps),
               snapshot::SnapshotError);

  const harness::CellConfig fresh = pipeline_cell(policy::PolicyKind::Dynamic);
  harness::CellConfig resumable = fresh;
  resumable.checkpoint = harness::CheckpointSpec{missing, 0.0, {}, true};
  const harness::CellResult resumed =
      harness::run_cell(resumable, w.jobs, w.apps);
  const harness::CellResult reference = harness::run_cell(fresh, w.jobs, w.apps);
  EXPECT_EQ(resumed.checkpoint.restores, 0U);
  EXPECT_EQ(harness::cell_result_to_json(resumed),
            harness::cell_result_to_json(reference));
  EXPECT_EQ(metrics::telemetry_to_json(resumed.telemetry),
            metrics::telemetry_to_json(reference.telemetry));
}

}  // namespace
}  // namespace dmsim
