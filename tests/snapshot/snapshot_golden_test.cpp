// Golden snapshot bytes: the size and FNV-1a digest of save_bytes for three
// fixed mid-run cells. The round-trip tests elsewhere would pass a codec
// change that moved bytes on both the save and the restore side; these
// digests pin the format itself, so any change to how a scalar, a column or
// the envelope is encoded fails here. Regenerate the constants only with a
// deliberate format-version bump.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harness/scenario.hpp"
#include "snapshot/checkpoint.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dmsim {
namespace {

[[nodiscard]] workload::SyntheticWorkload golden_workload() {
  workload::SyntheticWorkloadConfig cfg;
  cfg.cirne.num_jobs = 96;
  cfg.cirne.system_nodes = 48;
  cfg.cirne.max_job_nodes = 12;
  cfg.pct_large_jobs = 0.5;
  cfg.overestimation = 0.6;
  cfg.seed = 20261018;
  return workload::generate_synthetic(cfg);
}

[[nodiscard]] harness::CellConfig golden_cell() {
  harness::CellConfig cell;
  cell.system.total_nodes = 48;
  cell.system.pct_large_nodes = 0.25;
  cell.policy = policy::PolicyKind::Dynamic;
  cell.sched.sample_interval = 300.0;
  cell.sched.update_interval = 200.0;
  return cell;
}

struct Pinned {
  std::size_t size;
  std::uint64_t digest;
};

/// Save the cell's state at simulated time `cut`.
[[nodiscard]] std::string save_at(const harness::CellConfig& config,
                                  Seconds cut) {
  const workload::SyntheticWorkload w = golden_workload();
  harness::Cell cell(config, w.jobs, &w.apps);
  (void)cell.scheduler().run_ready(cut);
  // The cut must catch live borrow edges, so the slot records are pinned
  // along with the columns.
  EXPECT_GT(cell.cluster().total_lent(), 0);
  return snapshot::save_bytes(cell.components());
}

void expect_pinned(const std::string& bytes, Pinned pinned) {
  EXPECT_EQ(bytes.size(), pinned.size);
  EXPECT_EQ(util::fnv1a(bytes), pinned.digest)
      << "digest 0x" << std::hex << util::fnv1a(bytes);
}

TEST(SnapshotGolden, SaveBytesArePinned) {
  // Flat Dynamic with a telemetry registry, so the counters section is
  // populated too.
  harness::CellConfig flat = golden_cell();
  flat.collect_telemetry = true;
  expect_pinned(save_at(flat, 61000.0), {81693, 0xa79131a4e967fc3cULL});

  // Three memory tiers (v4 tier table and tier/rack columns).
  harness::CellConfig tiered = golden_cell();
  tiered.system.tiers = {
      cluster::MemoryTier{"local", 150.0, 90.0, cluster::TierScope::Local},
      cluster::MemoryTier{"rack", 400.0, 60.0, cluster::TierScope::Rack},
      cluster::MemoryTier{"far", 1200.0, 40.0, cluster::TierScope::CrossRack}};
  tiered.system.tier_fractions = {0.5, 0.25, 0.25};
  expect_pinned(save_at(tiered, 61000.0), {23994, 0xf48029eee4e6ea1dULL});

  // An adaptive monitor (v5 per-job monitor state).
  harness::CellConfig adaptive = golden_cell();
  adaptive.sched.monitor.kind = monitor::MonitorKind::Adaptive;
  adaptive.sched.monitor.relative_error = 0.1;
  adaptive.sched.monitor.seed = 77;
  expect_pinned(save_at(adaptive, 61000.0), {23909, 0xa62be74a857fafacULL});
}

}  // namespace
}  // namespace dmsim
