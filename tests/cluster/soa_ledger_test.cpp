// Structure-of-arrays ledger: the derived columns must follow the paper's
// ledger rules from the stored ones, and every `*_of()` accessor must read
// its column. Pinned on a busy tiered ledger that holds idle, busy, lending
// and memory nodes at once.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "util/units.hpp"

namespace dmsim::cluster {
namespace {

constexpr MiB kGiB = 1024;

/// 12 normal + 6 large nodes in three tiers (id % 3) over six racks. Three
/// of every five nodes host a job with varied local fill, every third job
/// borrows a little; then the first job borrows enough to push a lender past
/// the half-capacity mark.
Cluster busy_tiered_cluster() {
  ClusterConfig cfg = make_cluster_config(12, 64 * kGiB, 6, 128 * kGiB);
  cfg.tiers = {MemoryTier{"local", 150.0, 90.0, TierScope::Local},
               MemoryTier{"rack", 450.0, 64.0, TierScope::Rack},
               MemoryTier{"far", 1200.0, 40.0, TierScope::CrossRack}};
  for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
    cfg.nodes[i].tier = static_cast<std::uint8_t>(i % 3);
    cfg.nodes[i].rack = static_cast<std::uint16_t>(i / 3);
  }
  Cluster c(std::move(cfg));
  std::uint32_t id = 1;
  for (std::size_t i = 0; i < c.node_count(); ++i) {
    if (i % 5 >= 3) continue;
    const JobId job{id++};
    const NodeId host{static_cast<std::uint32_t>(i)};
    c.assign_job(job, std::vector<NodeId>{host});
    (void)c.grow_local(job, host, (static_cast<MiB>(i % 4) + 4) * kGiB);
    if (i % 3 == 0) {
      (void)c.grow_remote(job, host, (static_cast<MiB>(i % 2) + 1) * kGiB);
    }
  }
  (void)c.grow_remote(JobId{1}, NodeId{0}, 160 * kGiB);
  return c;
}

TEST(SoALedger, ColumnsDeriveFromCapacityLocalAndLent) {
  const Cluster c = busy_tiered_cluster();
  ASSERT_TRUE(c.tiered());
  const std::size_t n = c.node_count();
  ASSERT_EQ(c.capacity_column().size(), n);
  ASSERT_EQ(c.cores_column().size(), n);
  ASSERT_EQ(c.large_column().size(), n);
  ASSERT_EQ(c.local_used_column().size(), n);
  ASSERT_EQ(c.lent_column().size(), n);
  ASSERT_EQ(c.free_column().size(), n);
  ASSERT_EQ(c.running_job_column().size(), n);
  ASSERT_EQ(c.memory_node_column().size(), n);
  ASSERT_EQ(c.tier_column().size(), n);
  ASSERT_EQ(c.rack_column().size(), n);

  std::size_t busy = 0;
  std::size_t memory_nodes = 0;
  std::size_t hostable = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    const MiB capacity = c.capacity_column()[i];
    const MiB local = c.local_used_column()[i];
    const MiB lent = c.lent_column()[i];
    const bool idle = c.running_job_column()[i] == NodeId::kInvalid;
    const bool mem = lent * 2 > capacity;
    // The paper's rules (§2.1), recomputed from the stored columns.
    EXPECT_EQ(c.free_column()[i], capacity - local - lent) << i;
    EXPECT_EQ(c.memory_node_column()[i] != 0, mem) << i;
    EXPECT_EQ(c.can_host(id), idle && !mem) << i;
    // Every accessor reads its column.
    EXPECT_EQ(c.capacity_of(id), capacity);
    EXPECT_EQ(c.local_used_of(id), local);
    EXPECT_EQ(c.lent_of(id), lent);
    EXPECT_EQ(c.free_of(id), c.free_column()[i]);
    EXPECT_EQ(c.cores_of(id), c.cores_column()[i]);
    EXPECT_EQ(c.is_large(id), c.large_column()[i] != 0);
    EXPECT_EQ(c.running_job_of(id).get(), c.running_job_column()[i]);
    EXPECT_EQ(c.is_idle(id), idle);
    EXPECT_EQ(c.is_memory_node(id), c.memory_node_column()[i] != 0);
    EXPECT_EQ(c.tier_of(id), c.tier_column()[i]);
    EXPECT_EQ(c.rack_of(id), c.rack_column()[i]);
    busy += idle ? 0 : 1;
    memory_nodes += mem ? 1 : 0;
    hostable += c.can_host(id) ? 1 : 0;
  }
  // The ledger exercises every branch of the derivation.
  EXPECT_GT(busy, 0u);
  EXPECT_GT(memory_nodes, 0u);
  EXPECT_GT(hostable, 0u);
  EXPECT_GT(c.total_lent(), 0);
}

TEST(SoALedger, InvariantsAcceptABusyTieredLedger) {
  // check_invariants aborts (DMSIM_ASSERT) on any column, index or
  // aggregate that disagrees with the ledger.
  busy_tiered_cluster().check_invariants();
}

}  // namespace
}  // namespace dmsim::cluster
