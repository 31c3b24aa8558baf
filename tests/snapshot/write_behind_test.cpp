// run_with_checkpoints saves write-behind: the simulation thread serialises,
// a background writer checksums, writes, fsyncs and renames. These pin what
// that must not change: the bytes on disk, the error a failed write raises,
// and the Stats counts; the sweep case also runs under the TSan CI job.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/snapshot.hpp"
#include "slowdown/model.hpp"
#include "trace/job_spec.hpp"
#include "util/rng.hpp"

namespace dmsim::snapshot {
namespace {

struct Churn {
  trace::Workload jobs;
  slowdown::AppPool apps;
};

/// Short jobs with rising usage arriving every ~30 s on 8 nodes: a few hours
/// of Monitor resizes, remote borrowing and backfill.
Churn churny_workload() {
  Churn w{{}, slowdown::AppPool::synthetic(util::Rng(7), 16)};
  util::Rng rng(9001);
  Seconds submit = 0.0;
  for (std::uint32_t i = 1; i <= 160; ++i) {
    trace::JobSpec j;
    j.id = JobId{i};
    submit += rng.uniform() * 60.0;
    j.submit_time = submit;
    j.num_nodes = 1 + static_cast<int>(rng() % 3);
    j.duration = 120.0 + rng.uniform() * 900.0;
    j.walltime = 2.0 * j.duration;
    const MiB peak = gib(8) + static_cast<MiB>(rng() % gib(96));
    j.usage = trace::UsageTrace(std::vector<trace::UsagePoint>{
        {0.0, peak / 4}, {0.35, peak / 2}, {0.7, peak}});
    j.requested_mem = peak;
    j.app_profile = w.apps.match(j.num_nodes, j.duration);
    w.jobs.push_back(std::move(j));
  }
  return w;
}

/// Dynamic with short Monitor intervals: many resizes between cuts.
harness::CellConfig churny_cell() {
  harness::CellConfig cell;
  cell.system.total_nodes = 8;
  cell.system.pct_large_nodes = 0.5;
  cell.policy = policy::PolicyKind::Dynamic;
  cell.sched.update_interval = 120.0;
  cell.sched.sample_interval = 300.0;
  return cell;
}

[[nodiscard]] std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

[[nodiscard]] std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(WriteBehind, FilesMatchSynchronousSaves) {
  constexpr Seconds kEvery = 600.0;
  const auto w = churny_workload();
  const std::string behind = temp_path("dmsim_write_behind.snap");
  const std::string inline_path = temp_path("dmsim_write_inline.snap");

  harness::Cell a(churny_cell(), w.jobs, &w.apps);
  Stats stats;
  run_with_checkpoints(a.components(), Plan{behind, kEvery, {}}, &stats);
  ASSERT_GT(stats.saves, 10U);

  // The same cuts by hand, each saved synchronously with save_file.
  harness::Cell b(churny_cell(), w.jobs, &w.apps);
  const Components c = b.components();
  Stats inline_stats;
  for (Seconds cut = kEvery;; cut += kEvery) {
    (void)b.scheduler().run_ready(cut);
    if (c.engine->empty()) break;
    save_file(inline_path, c, &inline_stats);
  }
  EXPECT_EQ(stats.saves, inline_stats.saves);
  EXPECT_EQ(stats.bytes_written, inline_stats.bytes_written);
  EXPECT_EQ(stats.max_save_bytes, inline_stats.max_save_bytes);
  const std::string bytes = file_bytes(behind);
  ASSERT_FALSE(bytes.empty());
  EXPECT_TRUE(bytes == file_bytes(inline_path))
      << "the last write-behind save differs from save_file at that cut";
  EXPECT_FALSE(std::filesystem::exists(behind + ".tmp"));
  std::remove(behind.c_str());
  std::remove(inline_path.c_str());
}

TEST(WriteBehind, WriteFailureSurfacesAtJoin) {
  const auto w = churny_workload();
  const std::string path =
      temp_path("dmsim_no_such_dir_for_write_behind/run.snap");
  ASSERT_FALSE(std::filesystem::exists(
      std::filesystem::path(path).parent_path()));

  // Many cuts: the first failed write is reported at the next save's join.
  {
    harness::Cell cell(churny_cell(), w.jobs, &w.apps);
    Stats stats;
    try {
      run_with_checkpoints(cell.components(), Plan{path, 600.0, {}}, &stats);
      FAIL() << "no error";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(std::string(e.what()),
                "snapshot: cannot open '" + path + ".tmp' for writing");
    }
    EXPECT_EQ(stats.saves, 0U);
    EXPECT_EQ(stats.bytes_written, 0U);
  }
  // One cut: the only write is reported by the join at run exit.
  {
    harness::Cell cell(churny_cell(), w.jobs, &w.apps);
    Stats stats;
    EXPECT_THROW(
        run_with_checkpoints(cell.components(), Plan{path, 0.0, {3600.0}},
                             &stats),
        SnapshotError);
    EXPECT_EQ(stats.saves, 0U);
  }
}

TEST(WriteBehind, RunCellsSweepWithCheckpointsOnFourThreads) {
  const auto w = churny_workload();
  std::vector<harness::CellConfig> cells;
  std::vector<harness::CellConfig> plain;
  for (int i = 0; i < 8; ++i) {
    harness::CellConfig cell = churny_cell();
    cell.system.pct_large_nodes = 0.25 * (1 + i % 3);
    cell.policy = i % 2 == 0 ? policy::PolicyKind::Dynamic
                             : policy::PolicyKind::Static;
    plain.push_back(cell);
    cell.checkpoint = harness::CheckpointSpec{
        temp_path("dmsim_sweep_write_behind_" + std::to_string(i) + ".snap"),
        900.0, {}, false};
    cells.push_back(cell);
  }
  const std::vector<harness::CellResult> saved =
      harness::run_cells(cells, w.jobs, w.apps, 4);
  const std::vector<harness::CellResult> reference =
      harness::run_cells(plain, w.jobs, w.apps, 4);
  ASSERT_EQ(saved.size(), cells.size());
  std::size_t checkpointed = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(harness::cell_result_to_json(saved[i]),
              harness::cell_result_to_json(reference[i]));
    if (!saved[i].valid) continue;
    EXPECT_GT(saved[i].checkpoint.saves, 0U);
    ++checkpointed;
    // Every file was joined before its cell returned: it is whole and
    // restores to the same final result.
    harness::CellConfig resume = cells[i];
    resume.checkpoint->resume = true;
    const harness::CellResult resumed =
        harness::run_cell(resume, w.jobs, w.apps);
    EXPECT_EQ(resumed.checkpoint.restores, 1U);
    EXPECT_EQ(harness::cell_result_to_json(resumed),
              harness::cell_result_to_json(reference[i]));
    std::remove(cells[i].checkpoint->path.c_str());
  }
  EXPECT_GE(checkpointed, 6U);
}

}  // namespace
}  // namespace dmsim::snapshot
