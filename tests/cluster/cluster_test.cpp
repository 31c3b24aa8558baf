#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace dmsim::cluster {
namespace {

constexpr MiB kGiB = 1024;

Cluster small_cluster(LenderPolicy policy = LenderPolicy::MemoryNodesFirst) {
  ClusterConfig cfg = make_cluster_config(3, 64 * kGiB, 1, 128 * kGiB);
  cfg.lender_policy = policy;
  return Cluster(std::move(cfg));
}

TEST(ClusterConfigTest, BuilderCountsAndClasses) {
  const ClusterConfig cfg = make_cluster_config(5, 64 * kGiB, 3, 128 * kGiB, 16);
  ASSERT_EQ(cfg.nodes.size(), 8u);
  int large = 0;
  for (const auto& n : cfg.nodes) {
    EXPECT_EQ(n.cores, 16);
    if (n.large) {
      ++large;
      EXPECT_EQ(n.capacity, 128 * kGiB);
    } else {
      EXPECT_EQ(n.capacity, 64 * kGiB);
    }
  }
  EXPECT_EQ(large, 3);
}

TEST(ClusterTest, InitialState) {
  const Cluster c = small_cluster();
  EXPECT_EQ(c.node_count(), 4u);
  EXPECT_EQ(c.total_capacity(), (3 * 64 + 128) * kGiB);
  EXPECT_EQ(c.total_allocated(), 0);
  EXPECT_EQ(c.total_free(), c.total_capacity());
  EXPECT_EQ(c.idle_hostable_nodes(), 4);
  for (std::uint32_t i = 0; i < c.node_count(); ++i) {
    const NodeId id{i};
    EXPECT_TRUE(c.is_idle(id));
    EXPECT_FALSE(c.is_memory_node(id));
    EXPECT_EQ(c.free_of(id), c.capacity_of(id));
  }
}

TEST(ClusterTest, AssignAndFinishJob) {
  Cluster c = small_cluster();
  const JobId job{1};
  const std::vector<NodeId> hosts = {NodeId{0}, NodeId{1}};
  c.assign_job(job, hosts);
  EXPECT_FALSE(c.can_host(NodeId{0}));
  EXPECT_FALSE(c.can_host(NodeId{1}));
  EXPECT_TRUE(c.can_host(NodeId{2}));
  EXPECT_EQ(c.idle_hostable_nodes(), 2);
  EXPECT_TRUE(c.has_slot(job, NodeId{0}));
  EXPECT_EQ(c.job_slots(job).size(), 2u);
  c.check_invariants();

  c.finish_job(job);
  EXPECT_TRUE(c.can_host(NodeId{0}));
  EXPECT_EQ(c.total_allocated(), 0);
  EXPECT_FALSE(c.has_slot(job, NodeId{0}));
  c.check_invariants();
}

TEST(ClusterTest, GrowLocalUpToCapacity) {
  Cluster c = small_cluster();
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  EXPECT_EQ(c.grow_local(job, NodeId{0}, 10 * kGiB), 10 * kGiB);
  EXPECT_EQ(c.slot(job, NodeId{0}).local, 10 * kGiB);
  // Asking beyond capacity grants only what is free.
  EXPECT_EQ(c.grow_local(job, NodeId{0}, 100 * kGiB), 54 * kGiB);
  EXPECT_EQ(c.free_of(NodeId{0}), 0);
  c.check_invariants();
}

TEST(ClusterTest, ShrinkLocalBoundedBySlot) {
  Cluster c = small_cluster();
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  (void)c.grow_local(job, NodeId{0}, 8 * kGiB);
  EXPECT_EQ(c.shrink_local(job, NodeId{0}, 100 * kGiB), 8 * kGiB);
  EXPECT_EQ(c.slot(job, NodeId{0}).local, 0);
  c.check_invariants();
}

TEST(ClusterTest, GrowRemoteBorrowsFromLenders) {
  Cluster c = small_cluster();
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  (void)c.grow_local(job, NodeId{0}, 64 * kGiB);  // host is full
  const MiB granted = c.grow_remote(job, NodeId{0}, 100 * kGiB);
  EXPECT_EQ(granted, 100 * kGiB);
  const AllocationSlot& slot = c.slot(job, NodeId{0});
  EXPECT_EQ(slot.remote_total(), 100 * kGiB);
  EXPECT_EQ(slot.total(), 164 * kGiB);
  EXPECT_NEAR(slot.remote_fraction(), 100.0 / 164.0, 1e-12);
  c.check_invariants();
}

TEST(ClusterTest, GrowRemotePartialWhenPoolExhausted) {
  Cluster c = small_cluster();
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  const MiB rest = c.total_capacity() - c.capacity_of(NodeId{0});
  EXPECT_EQ(c.grow_remote(job, NodeId{0}, rest + 5000), rest);
  EXPECT_EQ(c.total_free(), c.capacity_of(NodeId{0}));
  c.check_invariants();
}

TEST(ClusterTest, ShrinkRemoteReturnsToLenders) {
  Cluster c = small_cluster();
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  (void)c.grow_remote(job, NodeId{0}, 100 * kGiB);
  EXPECT_EQ(c.shrink_remote(job, NodeId{0}, 40 * kGiB), 40 * kGiB);
  EXPECT_EQ(c.slot(job, NodeId{0}).remote_total(), 60 * kGiB);
  // Shrinking more than held releases only what exists.
  EXPECT_EQ(c.shrink_remote(job, NodeId{0}, 1000 * kGiB), 60 * kGiB);
  EXPECT_EQ(c.slot(job, NodeId{0}).remote_total(), 0);
  for (const MiB lent : c.lent_column()) EXPECT_EQ(lent, 0);
  c.check_invariants();
}

TEST(ClusterTest, MemoryNodeRuleBlocksHosting) {
  Cluster c = small_cluster();
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{3}});  // host on the large node
  // Borrow enough that some node crosses the half-capacity mark.
  (void)c.grow_remote(job, NodeId{3}, 3 * 64 * kGiB - 3000);
  int memory_nodes = 0;
  for (std::uint32_t i = 0; i < c.node_count(); ++i) {
    const NodeId id{i};
    if (c.is_memory_node(id)) {
      ++memory_nodes;
      EXPECT_FALSE(c.can_host(id));
      EXPECT_TRUE(c.is_idle(id));  // idle yet not hostable
    }
  }
  EXPECT_GT(memory_nodes, 0);
  c.check_invariants();
}

TEST(ClusterTest, MemoryNodeRecoversAfterRelease) {
  Cluster c = small_cluster();
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{3}});
  (void)c.grow_remote(job, NodeId{3}, 3 * 64 * kGiB);
  EXPECT_LT(c.idle_hostable_nodes(), 3);
  (void)c.shrink_remote(job, NodeId{3}, 3 * 64 * kGiB);
  EXPECT_EQ(c.idle_hostable_nodes(), 3);
  c.check_invariants();
}

TEST(ClusterTest, FinishJobReturnsAllBorrows) {
  Cluster c = small_cluster();
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  (void)c.grow_local(job, NodeId{0}, 64 * kGiB);
  (void)c.grow_remote(job, NodeId{0}, 90 * kGiB);
  c.finish_job(job);
  EXPECT_EQ(c.total_allocated(), 0);
  for (std::uint32_t i = 0; i < c.node_count(); ++i) {
    EXPECT_EQ(c.lent_of(NodeId{i}), 0);
    EXPECT_EQ(c.local_used_of(NodeId{i}), 0);
  }
  c.check_invariants();
}

TEST(ClusterTest, BorrowersOfListsEdges) {
  Cluster c = small_cluster(LenderPolicy::MostFree);
  const JobId a{1};
  const JobId b{2};
  c.assign_job(a, std::vector<NodeId>{NodeId{0}});
  c.assign_job(b, std::vector<NodeId>{NodeId{1}});
  // MostFree: both borrow from the large node 3 first.
  (void)c.grow_remote(a, NodeId{0}, 10 * kGiB);
  (void)c.grow_remote(b, NodeId{1}, 20 * kGiB);
  const auto edges = c.borrowers_of(NodeId{3});
  ASSERT_EQ(edges.size(), 2u);
  MiB total = 0;
  for (const auto& e : edges) total += e.amount;
  EXPECT_EQ(total, 30 * kGiB);
  EXPECT_EQ(c.lent_of(NodeId{3}), 30 * kGiB);
}

TEST(ClusterTest, LenderPolicyMostFreePrefersLargestFree) {
  Cluster c = small_cluster(LenderPolicy::MostFree);
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  (void)c.grow_remote(job, NodeId{0}, 10 * kGiB);
  // Node 3 (128 GiB, all free) must be the lender.
  EXPECT_EQ(c.lent_of(NodeId{3}), 10 * kGiB);
  EXPECT_EQ(c.lent_of(NodeId{1}), 0);
}

TEST(ClusterTest, LenderPolicyLeastFreePacksTightly) {
  Cluster c = small_cluster(LenderPolicy::LeastFree);
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{3}});
  (void)c.grow_remote(job, NodeId{3}, 10 * kGiB);
  // All normal nodes tie on free; deterministic tie-break picks node 0.
  EXPECT_EQ(c.lent_of(NodeId{0}), 10 * kGiB);
}

TEST(ClusterTest, LenderPolicyMemoryNodesFirstReusesLenders) {
  Cluster c = small_cluster(LenderPolicy::MemoryNodesFirst);
  const JobId a{1};
  c.assign_job(a, std::vector<NodeId>{NodeId{3}});
  // Push node 0 past half capacity (borrow 40 of its 64 GiB).
  ClusterConfig cfg2;
  (void)cfg2;
  (void)c.grow_remote(a, NodeId{3}, 0);  // no-op guard
  // Borrow heavily so one normal node becomes a memory node.
  (void)c.grow_remote(a, NodeId{3}, 40 * kGiB);
  NodeId lender{NodeId::kInvalid};
  for (std::uint32_t i = 0; i < c.node_count(); ++i) {
    if (c.lent_of(NodeId{i}) > 0) lender = NodeId{i};
  }
  ASSERT_TRUE(lender.valid());
  EXPECT_TRUE(c.is_memory_node(lender));
  // A second borrow should drain the same (memory) node first.
  const JobId b{2};
  c.assign_job(b, std::vector<NodeId>{NodeId{0} == lender ? NodeId{1} : NodeId{0}});
  (void)c.grow_remote(b, NodeId{0} == lender ? NodeId{1} : NodeId{0},
                      10 * kGiB);
  EXPECT_EQ(c.lent_of(lender), 50 * kGiB);
}

TEST(ClusterTest, SelfBorrowNeverHappens) {
  Cluster c = small_cluster();
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  (void)c.grow_remote(job, NodeId{0}, c.total_capacity());
  for (const auto& [lender, amount] : c.slot(job, NodeId{0}).remote) {
    (void)amount;
    EXPECT_NE(lender, NodeId{0});
  }
}

TEST(ClusterTest, MultiNodeJobSlotsIndependent) {
  Cluster c = small_cluster();
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}, NodeId{1}});
  (void)c.grow_local(job, NodeId{0}, 5 * kGiB);
  (void)c.grow_local(job, NodeId{1}, 7 * kGiB);
  EXPECT_EQ(c.slot(job, NodeId{0}).local, 5 * kGiB);
  EXPECT_EQ(c.slot(job, NodeId{1}).local, 7 * kGiB);
  EXPECT_EQ(c.total_allocated(), 12 * kGiB);
}

TEST(ClusterTest, ChangeEpochAdvancesOnlyOnMutation) {
  Cluster c = small_cluster();
  const std::uint64_t e0 = c.change_epoch();
  // Queries leave the epoch untouched (deny-replay caching depends on it).
  (void)c.idle_hostable_nodes();
  (void)c.nodes_by_capacity_at_least(1);
  (void)c.borrowers_of(NodeId{3});
  EXPECT_EQ(c.change_epoch(), e0);

  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  const std::uint64_t e1 = c.change_epoch();
  EXPECT_GT(e1, e0);
  (void)c.grow_local(job, NodeId{0}, 4 * kGiB);
  EXPECT_GT(c.change_epoch(), e1);
  const std::uint64_t e2 = c.change_epoch();
  c.finish_job(job);
  EXPECT_GT(c.change_epoch(), e2);
}

TEST(ClusterTest, CapacityIndexIsSortedAndFiltered) {
  const Cluster c = small_cluster();  // 3x64 GiB (ids 0-2) + 1x128 GiB (id 3)
  const auto all = c.nodes_by_capacity_at_least(1);
  ASSERT_EQ(all.size(), 4u);
  // Capacity ascending, id ascending within a capacity class.
  EXPECT_EQ(all[0], NodeId{0});
  EXPECT_EQ(all[1], NodeId{1});
  EXPECT_EQ(all[2], NodeId{2});
  EXPECT_EQ(all[3], NodeId{3});
  const auto large = c.nodes_by_capacity_at_least(64 * kGiB + 1);
  ASSERT_EQ(large.size(), 1u);
  EXPECT_EQ(large[0], NodeId{3});
  EXPECT_TRUE(c.nodes_by_capacity_at_least(129 * kGiB).empty());
}

TEST(ClusterTest, HostableVisitorsMatchPolicyOrdering) {
  Cluster c = small_cluster();
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});  // node 0 not idle

  // At-least: free ascending, id ascending — Static's tightest-fit order.
  std::vector<NodeId> asc;
  c.visit_hostable_at_least(1, [&](NodeId id) {
    asc.push_back(id);
    return true;
  });
  ASSERT_EQ(asc.size(), 3u);
  EXPECT_EQ(asc[0], NodeId{1});
  EXPECT_EQ(asc[1], NodeId{2});
  EXPECT_EQ(asc[2], NodeId{3});

  // Below (exclusive): free descending, id ascending within equal free —
  // Static's most-free fallback order.
  std::vector<NodeId> desc;
  c.visit_hostable_below_desc(128 * kGiB, [&](NodeId id) {
    desc.push_back(id);
    return true;
  });
  ASSERT_EQ(desc.size(), 2u);
  EXPECT_EQ(desc[0], NodeId{1});
  EXPECT_EQ(desc[1], NodeId{2});

  // Early-exit contract: returning false stops the walk.
  int visited = 0;
  c.visit_hostable_at_least(1, [&](NodeId) { return ++visited < 2; });
  EXPECT_EQ(visited, 2);
}

// Regression: a shrink that returns a borrow edge in full erases the edge
// from the slot before the generic slot-dirty walk runs, so the lender's
// pressure change was never flagged and its borrowers kept a stale slowdown
// until some unrelated edge touched the same lender.
TEST(ClusterTest, ShrinkRemoteFullReturnMarksLenderDirty) {
  Cluster c = small_cluster(LenderPolicy::MostFree);
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  (void)c.grow_local(job, NodeId{0}, 64 * kGiB);
  ASSERT_EQ(c.grow_remote(job, NodeId{0}, 10 * kGiB), 10 * kGiB);
  ASSERT_EQ(c.lent_of(NodeId{3}), 10 * kGiB);  // MostFree -> large node
  c.clear_contention_dirty();
  ASSERT_TRUE(c.dirty_lenders().empty());

  // Full return: the edge disappears entirely.
  EXPECT_EQ(c.shrink_remote(job, NodeId{0}, 10 * kGiB), 10 * kGiB);
  EXPECT_TRUE(c.borrowers_of(NodeId{3}).empty());
  bool lender_dirty = false;
  for (const NodeId n : c.dirty_lenders()) {
    if (n == NodeId{3}) lender_dirty = true;
  }
  EXPECT_TRUE(lender_dirty);
  c.check_invariants();

  c.clear_contention_dirty();
  EXPECT_TRUE(c.dirty_lenders().empty());
  EXPECT_TRUE(c.dirty_jobs().empty());
}

// Property test: a random sequence of assign/grow/shrink/finish operations
// never breaks the ledger invariants.
class ClusterFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterFuzzTest, RandomOpSequenceKeepsInvariants) {
  util::Rng rng(GetParam());
  ClusterConfig cfg = make_cluster_config(6, 64 * kGiB, 2, 128 * kGiB);
  cfg.lender_policy = static_cast<LenderPolicy>(GetParam() % 3);
  Cluster c(std::move(cfg));

  std::vector<JobId> active;
  std::uint32_t next_job = 1;
  for (int step = 0; step < 400; ++step) {
    const double op = rng.uniform();
    if (op < 0.25) {
      // Try to assign a new 1-2 node job.
      std::vector<NodeId> hosts;
      for (std::uint32_t i = 0; i < c.node_count(); ++i) {
        if (c.can_host(NodeId{i})) hosts.push_back(NodeId{i});
      }
      const int want = static_cast<int>(rng.uniform_int(1, 2));
      if (static_cast<int>(hosts.size()) >= want) {
        hosts.resize(static_cast<std::size_t>(want));
        const JobId job{next_job++};
        c.assign_job(job, hosts);
        active.push_back(job);
      }
    } else if (op < 0.5 && !active.empty()) {
      const JobId job = active[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1))];
      for (const auto& slot : c.job_slots(job)) {
        const MiB amount = rng.uniform_int(0, 32 * kGiB);
        if (rng.bernoulli(0.5)) {
          (void)c.grow_local(job, slot.host, amount);
        } else {
          (void)c.grow_remote(job, slot.host, amount);
        }
      }
    } else if (op < 0.75 && !active.empty()) {
      const JobId job = active[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1))];
      for (const auto& slot : c.job_slots(job)) {
        const MiB amount = rng.uniform_int(0, 32 * kGiB);
        if (rng.bernoulli(0.5)) {
          (void)c.shrink_local(job, slot.host, amount);
        } else {
          (void)c.shrink_remote(job, slot.host, amount);
        }
      }
    } else if (!active.empty()) {
      const std::size_t idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
      c.finish_job(active[idx]);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    c.check_invariants();
    EXPECT_GE(c.total_free(), 0);
    EXPECT_LE(c.total_allocated(), c.total_capacity());
  }
  for (const JobId job : active) c.finish_job(job);
  EXPECT_EQ(c.total_allocated(), 0);
  c.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace dmsim::cluster
