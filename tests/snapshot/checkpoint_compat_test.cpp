// Snapshot format-version compatibility (v5 scheduler monitor state).
//
// v5 appends per-running-job monitor fold state plus the memory-monitor's
// own per-job section; v4 leads the cluster section with the memory-tier
// table and the per-node tier/rack columns; v3 stored the occupancy ledger
// as whole columns with no tier data; v2 stored one interleaved record per
// node. Contracts pinned here:
//   * hand-written v2 (interleaved) and v3 (columnar, tierless) cluster
//     sections restore into today's ledger bit-for-bit (read-compat for
//     old snapshot files) and re-save deterministically as v5,
//   * a v4 whole-file snapshot (pre-monitor, so necessarily an oracle run)
//     restores with oracle-equivalent monitor defaults,
//   * a full v5 snapshot round-trips — flat and tiered — with restore +
//     re-save byte-identical, and the header carries version 5,
//   * corrupt payloads, truncation, bad magic and out-of-range versions are
//     rejected loudly before any component state is touched, and file-level
//     restore errors name the offending path,
//   * a cluster section whose job list cannot describe its node columns
//     (host counts out of range, busy nodes without slots, duplicate
//     slots) is a typed error.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "policy/policy.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "slowdown/model.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dmsim {
namespace {

cluster::ClusterConfig small_config() {
  return cluster::make_cluster_config(8, gib(64), 4, gib(128));
}

/// Two jobs with local shares and borrow edges: enough ledger structure to
/// make an interleaved-vs-columnar mixup visible.
void populate(cluster::Cluster& c) {
  const JobId j1{1};
  const JobId j2{2};
  c.assign_job(j1, std::vector<NodeId>{NodeId{0}, NodeId{1}});
  (void)c.grow_local(j1, NodeId{0}, gib(60));
  (void)c.grow_remote(j1, NodeId{0}, gib(20));
  (void)c.grow_local(j1, NodeId{1}, gib(10));
  c.assign_job(j2, std::vector<NodeId>{NodeId{9}});
  (void)c.grow_local(j2, NodeId{9}, gib(100));
  (void)c.grow_remote(j2, NodeId{9}, gib(8));
}

TEST(SnapshotCompat, V2InterleavedClusterSectionRestores) {
  cluster::Cluster src(small_config());
  populate(src);
  src.check_invariants();

  // Serialize src in the v2 layout by hand: one (running_job, local_used,
  // lent) record per node. The job/slot part and the trailing totals are
  // unchanged between v2 and v3.
  snapshot::Writer w;
  w.section(snapshot::section_tag('C', 'L', 'U', 'S'));
  const std::size_t n = src.node_count();
  w.u32(static_cast<std::uint32_t>(n));
  const auto running = src.running_job_column();
  const auto local = src.local_used_column();
  const auto lent = src.lent_column();
  for (std::size_t i = 0; i < n; ++i) {
    w.u32(running[i]);
    w.i64(local[i]);
    w.i64(lent[i]);
  }
  const std::vector<std::uint32_t> jobs = {1, 2};
  w.u32(static_cast<std::uint32_t>(jobs.size()));
  for (const std::uint32_t job : jobs) {
    const auto hosts = src.hosts_of(JobId{job});
    w.u32(job);
    w.u32(static_cast<std::uint32_t>(hosts.size()));
    for (const NodeId h : hosts) {
      const cluster::AllocationSlot& slot = src.slot(JobId{job}, h);
      w.u32(h.get());
      w.i64(slot.local);
      w.u32(static_cast<std::uint32_t>(slot.remote.size()));
      for (const auto& [lender, amount] : slot.remote) {
        w.u32(lender.get());
        w.i64(amount);
      }
    }
  }
  w.i64(src.total_allocated());
  w.i64(src.total_lent());
  w.u64(src.change_epoch());

  cluster::Cluster dst(small_config());
  snapshot::Reader r(w.buffer());
  dst.restore_state(r, /*format_version=*/2);
  EXPECT_TRUE(r.at_end());
  dst.check_invariants();

  // Bit-for-bit equivalence with the source ledger: re-saving dst in the
  // current (v4) format reproduces src's bytes exactly.
  snapshot::Writer from_src;
  snapshot::Writer from_dst;
  src.save_state(from_src);
  dst.save_state(from_dst);
  EXPECT_EQ(from_src.buffer(), from_dst.buffer());
  EXPECT_EQ(dst.total_allocated(), src.total_allocated());
  EXPECT_EQ(dst.total_lent(), src.total_lent());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(dst.free_column()[i], src.free_column()[i]) << "node " << i;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto src_edges = src.borrowers_of(NodeId{static_cast<std::uint32_t>(i)});
    const auto dst_edges = dst.borrowers_of(NodeId{static_cast<std::uint32_t>(i)});
    ASSERT_EQ(src_edges.size(), dst_edges.size()) << "lender " << i;
    for (std::size_t e = 0; e < src_edges.size(); ++e) {
      EXPECT_EQ(src_edges[e].job, dst_edges[e].job);
      EXPECT_EQ(src_edges[e].host, dst_edges[e].host);
      EXPECT_EQ(src_edges[e].amount, dst_edges[e].amount);
    }
  }
}

TEST(SnapshotCompat, V2RejectsOutOfRangeLedger) {
  // local + lent beyond capacity must be caught at restore, not later.
  snapshot::Writer w;
  w.section(snapshot::section_tag('C', 'L', 'U', 'S'));
  const cluster::ClusterConfig cfg = small_config();
  w.u32(static_cast<std::uint32_t>(cfg.nodes.size()));
  for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
    w.u32(NodeId::kInvalid);
    w.i64(i == 0 ? gib(1024) : 0);  // node 0 claims 1 TiB used on 64 GiB
    w.i64(0);
  }
  w.u32(0);  // no jobs
  w.i64(gib(1024));
  w.i64(0);
  w.u64(0);

  cluster::Cluster c(cfg);
  snapshot::Reader r(w.buffer());
  EXPECT_THROW(c.restore_state(r, /*format_version=*/2),
               snapshot::SnapshotError);
}

TEST(SnapshotCompat, RejectsSlotsThatDisagreeWithTheNodes) {
  // The job-major slab is rebuilt from the section's job list; a list that
  // cannot describe the node columns must fail as a typed error rather
  // than trip an invariant abort (or a huge reserve) later.
  const cluster::ClusterConfig cfg = small_config();
  const auto n = static_cast<std::uint32_t>(cfg.nodes.size());
  // Node 0 runs job 7 and node 1 runs job 9; `jobs` writes the job list.
  const auto section = [&](const std::function<void(snapshot::Writer&)>& jobs) {
    snapshot::Writer w;
    w.section(snapshot::section_tag('C', 'L', 'U', 'S'));
    w.u32(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      w.u32(i == 0 ? 7 : i == 1 ? 9 : NodeId::kInvalid);
      w.i64(0);
      w.i64(0);
    }
    jobs(w);
    w.i64(0);
    w.i64(0);
    w.u64(0);
    return w;
  };
  const auto slot = [](snapshot::Writer& w, std::uint32_t host) {
    w.u32(host);
    w.i64(0);  // local
    w.u32(0);  // no borrow edges
  };
  const auto rejects = [&](const snapshot::Writer& w) {
    cluster::Cluster c(cfg);
    snapshot::Reader r(w.buffer());
    EXPECT_THROW(c.restore_state(r, /*format_version=*/2),
                 snapshot::SnapshotError);
  };
  rejects(section([&](snapshot::Writer& w) {  // more hosts than nodes
    w.u32(1);
    w.u32(7);
    w.u32(n + 1);
  }));
  rejects(section([&](snapshot::Writer& w) {  // node 1 busy without a slot
    w.u32(1);
    w.u32(7);
    w.u32(1);
    slot(w, 0);
  }));
  rejects(section([&](snapshot::Writer& w) {  // one host listed twice
    w.u32(2);
    w.u32(7);
    w.u32(2);
    slot(w, 0);
    slot(w, 0);
    w.u32(9);
    w.u32(1);
    slot(w, 1);
  }));
  {  // the consistent list restores
    cluster::Cluster c(cfg);
    const snapshot::Writer w = section([&](snapshot::Writer& out) {
      out.u32(2);
      out.u32(7);
      out.u32(1);
      slot(out, 0);
      out.u32(9);
      out.u32(1);
      slot(out, 1);
    });
    snapshot::Reader r(w.buffer());
    c.restore_state(r, /*format_version=*/2);
    EXPECT_EQ(c.hosts_of(JobId{9}).size(), 1u);
    c.check_invariants();
  }
}

TEST(SnapshotCompat, V3ColumnarTierlessSectionRestores) {
  // A v3 file carries the occupancy columns but no tier table — exactly
  // what every pre-tier snapshot on disk looks like. It must restore into
  // today's ledger and re-save (as v4) bit-identically to a native save.
  cluster::Cluster src(small_config());
  populate(src);

  snapshot::Writer w;
  w.section(snapshot::section_tag('C', 'L', 'U', 'S'));
  const std::size_t n = src.node_count();
  w.u32(static_cast<std::uint32_t>(n));
  for (const std::uint32_t rj : src.running_job_column()) w.u32(rj);
  for (const MiB lu : src.local_used_column()) w.i64(lu);
  for (const MiB le : src.lent_column()) w.i64(le);
  const std::vector<std::uint32_t> jobs = {1, 2};
  w.u32(static_cast<std::uint32_t>(jobs.size()));
  for (const std::uint32_t job : jobs) {
    const auto hosts = src.hosts_of(JobId{job});
    w.u32(job);
    w.u32(static_cast<std::uint32_t>(hosts.size()));
    for (const NodeId h : hosts) {
      const cluster::AllocationSlot& slot = src.slot(JobId{job}, h);
      w.u32(h.get());
      w.i64(slot.local);
      w.u32(static_cast<std::uint32_t>(slot.remote.size()));
      for (const auto& [lender, amount] : slot.remote) {
        w.u32(lender.get());
        w.i64(amount);
      }
    }
  }
  w.i64(src.total_allocated());
  w.i64(src.total_lent());
  w.u64(src.change_epoch());

  cluster::Cluster dst(small_config());
  snapshot::Reader r(w.buffer());
  dst.restore_state(r, /*format_version=*/3);
  EXPECT_TRUE(r.at_end());
  dst.check_invariants();

  snapshot::Writer from_src;
  snapshot::Writer from_dst;
  src.save_state(from_src);
  dst.save_state(from_dst);
  EXPECT_EQ(from_src.buffer(), from_dst.buffer());
}

TEST(SnapshotCompat, V4RejectsMismatchedTierTopology) {
  // A snapshot written by a tiered cluster must refuse to restore into the
  // same node layout under a different tier table.
  cluster::ClusterConfig cfg = small_config();
  cfg.tiers = {cluster::MemoryTier{"near", 150.0, 90.0,
                                   cluster::TierScope::Local},
               cluster::MemoryTier{"far", 900.0, 40.0,
                                   cluster::TierScope::CrossRack}};
  for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
    cfg.nodes[i].tier = i < 6 ? 0 : 1;
  }
  cluster::Cluster src(cfg);
  populate(src);
  snapshot::Writer w;
  src.save_state(w);

  {  // different tier latency
    cluster::ClusterConfig other = cfg;
    other.tiers[1].latency_ns = 901.0;
    cluster::Cluster dst(other);
    snapshot::Reader r(w.buffer());
    EXPECT_THROW(dst.restore_state(r, 4), snapshot::SnapshotError);
  }
  {  // different node-to-tier assignment
    cluster::ClusterConfig other = cfg;
    other.nodes[0].tier = 1;
    cluster::Cluster dst(other);
    snapshot::Reader r(w.buffer());
    EXPECT_THROW(dst.restore_state(r, 4), snapshot::SnapshotError);
  }
  {  // the matching topology restores fine
    cluster::Cluster dst(cfg);
    snapshot::Reader r(w.buffer());
    dst.restore_state(r, 4);
    EXPECT_TRUE(r.at_end());
    dst.check_invariants();
  }
}

/// A minimal full simulation (engine + cluster + scheduler) for whole-file
/// snapshot tests, advanced to a busy mid-point.
struct MiniSim {
  explicit MiniSim(const workload::SyntheticWorkload& w, bool tiered = false) {
    cluster::ClusterConfig ccfg =
        cluster::make_cluster_config(12, gib(64), 4, gib(128));
    if (tiered) {
      ccfg.tiers = {cluster::MemoryTier{"near", 150.0, 90.0,
                                        cluster::TierScope::Local},
                    cluster::MemoryTier{"far", 1200.0, 40.0,
                                        cluster::TierScope::CrossRack}};
      for (std::size_t i = 0; i < ccfg.nodes.size(); ++i) {
        ccfg.nodes[i].tier = i < 8 ? 0 : 1;
        ccfg.nodes[i].rack = i < 8 ? 0 : 1;
      }
    }
    cluster_ = std::make_unique<cluster::Cluster>(std::move(ccfg));
    policy_ = policy::make_policy(policy::PolicyKind::Dynamic);
    sched::SchedulerConfig cfg;
    cfg.sample_interval = 300.0;
    scheduler_ = std::make_unique<sched::Scheduler>(
        engine_, *cluster_, *policy_, &w.apps, cfg, nullptr);
    scheduler_->submit_workload(w.jobs);
  }
  [[nodiscard]] snapshot::Components components() noexcept {
    return {&engine_, cluster_.get(), scheduler_.get(), nullptr};
  }
  sim::Engine engine_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<policy::AllocationPolicy> policy_;
  std::unique_ptr<sched::Scheduler> scheduler_;
};

workload::SyntheticWorkload mini_workload() {
  workload::SyntheticWorkloadConfig cfg;
  cfg.cirne.num_jobs = 48;
  cfg.cirne.system_nodes = 16;
  cfg.cirne.max_job_nodes = 4;
  cfg.pct_large_jobs = 0.5;
  cfg.overestimation = 0.4;
  cfg.seed = 20260808;
  return workload::generate_synthetic(cfg);
}

[[nodiscard]] std::uint32_t header_version(const std::string& bytes) {
  // Layout: 8 magic bytes, then the format version as little-endian u32.
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[8])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[9])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[10]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[11]))
             << 24;
}

TEST(SnapshotCompat, V5RoundTripIsByteIdentical) {
  const workload::SyntheticWorkload w = mini_workload();
  MiniSim source(w);
  MiniSim target(w);
  (void)source.scheduler_->run_ready(15000.0);

  const std::string bytes = snapshot::save_bytes(source.components());
  EXPECT_EQ(header_version(bytes), snapshot::kFormatVersion);
  EXPECT_EQ(header_version(bytes), 5U);

  snapshot::restore_bytes(bytes, target.components());
  target.cluster_->check_invariants();
  EXPECT_EQ(snapshot::save_bytes(target.components()), bytes);
}

TEST(SnapshotCompat, V4OracleSnapshotRestores) {
  // Read-compat with pre-monitor (v4) files. Every v4 file was written by an
  // oracle run, and an oracle scheduler section with no running jobs is
  // byte-identical between v4 and v5: the per-running-job monitor fields
  // contribute zero rows and the oracle monitor's state section is empty. So
  // a save cut before any job starts, with the header version patched to 4,
  // IS a well-formed v4 file (payload, size and checksum all unchanged) —
  // and it must restore into today's scheduler with oracle-equivalent
  // defaults, then re-save as v5 with the identical payload.
  const workload::SyntheticWorkload w = mini_workload();
  MiniSim source(w);
  const std::string v5 = snapshot::save_bytes(source.components());

  std::string v4 = v5;
  v4[8] = '\x04';  // version u32 little-endian at offset 8
  ASSERT_EQ(header_version(v4), 4U);

  MiniSim target(w);
  snapshot::restore_bytes(v4, target.components());
  target.cluster_->check_invariants();
  EXPECT_EQ(snapshot::save_bytes(target.components()), v5);

  // The restored run must finish exactly like the source run.
  (void)source.scheduler_->run_ready(1e18);
  (void)target.scheduler_->run_ready(1e18);
  EXPECT_EQ(snapshot::save_bytes(target.components()),
            snapshot::save_bytes(source.components()));
}

TEST(SnapshotCompat, TieredRoundTripIsByteIdentical) {
  // Same contract on a two-tier topology: the fingerprint (which now covers
  // the tier table) matches between identically configured sims, the tier
  // columns survive the trip, and re-save is byte-identical.
  const workload::SyntheticWorkload w = mini_workload();
  MiniSim source(w, /*tiered=*/true);
  MiniSim target(w, /*tiered=*/true);
  (void)source.scheduler_->run_ready(15000.0);

  const std::string bytes = snapshot::save_bytes(source.components());
  snapshot::restore_bytes(bytes, target.components());
  target.cluster_->check_invariants();
  EXPECT_EQ(snapshot::save_bytes(target.components()), bytes);

  // A flat sim must refuse the tiered snapshot at the fingerprint.
  MiniSim flat(w);
  EXPECT_THROW(snapshot::restore_bytes(bytes, flat.components()),
               snapshot::SnapshotError);
}

TEST(SnapshotCompat, CorruptSnapshotsAreRejected) {
  const workload::SyntheticWorkload w = mini_workload();
  MiniSim source(w);
  (void)source.scheduler_->run_ready(15000.0);
  const std::string bytes = snapshot::save_bytes(source.components());
  MiniSim target(w);
  const snapshot::Components dst = target.components();

  {  // payload bit flip -> checksum mismatch
    std::string bad = bytes;
    bad[40] = static_cast<char>(bad[40] ^ 0x5A);
    EXPECT_THROW(snapshot::restore_bytes(bad, dst), snapshot::SnapshotError);
  }
  {  // truncation
    EXPECT_THROW(
        snapshot::restore_bytes(bytes.substr(0, bytes.size() - 4), dst),
        snapshot::SnapshotError);
  }
  {  // bad magic
    std::string bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW(snapshot::restore_bytes(bad, dst), snapshot::SnapshotError);
  }
  {  // version below the compat window (v1) and above the writer (v6)
    for (const char v : {'\x01', '\x06'}) {
      std::string bad = bytes;
      bad[8] = v;
      EXPECT_THROW(snapshot::restore_bytes(bad, dst), snapshot::SnapshotError);
    }
  }
  // The pristine bytes still restore after all those rejections.
  snapshot::restore_bytes(bytes, dst);
  target.cluster_->check_invariants();
}

TEST(SnapshotCompat, RestoreFileErrorsNameThePath) {
  const workload::SyntheticWorkload w = mini_workload();
  MiniSim target(w);
  const std::string path =
      testing::TempDir() + "dmsim_compat_corrupt.snap";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "NOTASNAPSHOT";
  }
  try {
    snapshot::restore_file(path, target.components());
    FAIL() << "corrupt file restored";
  } catch (const snapshot::SnapshotError& e) {
    // The wrapped message must carry both the path (so `dmsim_run
    // --restore` failures are actionable) and the underlying cause.
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dmsim
