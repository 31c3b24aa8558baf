#include "policy/policy.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dmsim::policy {
namespace {

constexpr MiB kGiB = 1024;

trace::JobSpec make_job(std::uint32_t id, int nodes, MiB request) {
  trace::JobSpec j;
  j.id = JobId{id};
  j.num_nodes = nodes;
  j.requested_mem = request;
  j.duration = 100.0;
  j.walltime = 200.0;
  j.usage = trace::UsageTrace::constant(request);
  return j;
}

cluster::Cluster mixed_cluster() {
  // Nodes 0-2: 64 GiB normal; node 3: 128 GiB large.
  return cluster::Cluster(
      cluster::make_cluster_config(3, 64 * kGiB, 1, 128 * kGiB));
}

TEST(ToString, PolicyNames) {
  EXPECT_EQ(to_string(PolicyKind::Baseline), "baseline");
  EXPECT_EQ(to_string(PolicyKind::Static), "static");
  EXPECT_EQ(to_string(PolicyKind::Dynamic), "dynamic");
}

TEST(MakePolicy, ConstructsMatchingKind) {
  for (const auto kind : {PolicyKind::Baseline, PolicyKind::Static,
                          PolicyKind::Dynamic}) {
    const auto p = make_policy(kind);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->kind(), kind);
  }
  EXPECT_FALSE(make_policy(PolicyKind::Baseline)->dynamic_updates());
  EXPECT_FALSE(make_policy(PolicyKind::Static)->dynamic_updates());
  EXPECT_TRUE(make_policy(PolicyKind::Dynamic)->dynamic_updates());
}

// --------------------------------------------------------------------------
// Baseline
// --------------------------------------------------------------------------

TEST(Baseline, StartsJobThatFitsLocally) {
  auto c = mixed_cluster();
  BaselinePolicy p;
  const auto job = make_job(1, 2, 32 * kGiB);
  EXPECT_TRUE(p.try_start(job, c));
  EXPECT_EQ(c.job_slots(job.id).size(), 2u);
  for (const auto& slot : c.job_slots(job.id)) {
    EXPECT_EQ(slot.local, 32 * kGiB);
    EXPECT_EQ(slot.remote_total(), 0);
  }
  c.check_invariants();
}

TEST(Baseline, PrefersSmallestSufficientNode) {
  auto c = mixed_cluster();
  BaselinePolicy p;
  const auto job = make_job(1, 1, 10 * kGiB);
  EXPECT_TRUE(p.try_start(job, c));
  // Best fit: a 64 GiB node, not the 128 GiB one.
  EXPECT_TRUE(c.is_idle(NodeId{3}));
}

TEST(Baseline, LargeRequestNeedsLargeNode) {
  auto c = mixed_cluster();
  BaselinePolicy p;
  const auto job = make_job(1, 1, 100 * kGiB);
  EXPECT_TRUE(p.try_start(job, c));
  EXPECT_EQ(c.running_job_of(NodeId{3}), job.id);
}

TEST(Baseline, FailsWhenRequestExceedsEveryNode) {
  auto c = mixed_cluster();
  BaselinePolicy p;
  const auto job = make_job(1, 1, 200 * kGiB);
  EXPECT_FALSE(p.try_start(job, c));
  EXPECT_FALSE(p.feasible(job, c));
  EXPECT_EQ(c.total_allocated(), 0);
}

TEST(Baseline, FailsWhenNotEnoughFittingNodes) {
  auto c = mixed_cluster();
  BaselinePolicy p;
  const auto job = make_job(1, 2, 100 * kGiB);  // only one 128 GiB node
  EXPECT_FALSE(p.try_start(job, c));
  EXPECT_FALSE(p.feasible(job, c));
}

TEST(Baseline, NoMemorySharingBetweenNodes) {
  auto c = mixed_cluster();
  BaselinePolicy p;
  // Three normal jobs occupy the normal nodes, one large job the large node.
  EXPECT_TRUE(p.try_start(make_job(1, 3, 64 * kGiB), c));
  EXPECT_TRUE(p.try_start(make_job(2, 1, 128 * kGiB), c));
  // Nothing left even for a tiny job.
  EXPECT_FALSE(p.try_start(make_job(3, 1, 1 * kGiB), c));
  c.check_invariants();
}

// --------------------------------------------------------------------------
// Static
// --------------------------------------------------------------------------

TEST(Static, StartsWithLocalAllocationWhenItFits) {
  auto c = mixed_cluster();
  StaticPolicy p;
  const auto job = make_job(1, 1, 32 * kGiB);
  EXPECT_TRUE(p.try_start(job, c));
  const auto* slot = &c.job_slots(job.id)[0];
  EXPECT_EQ(slot->local, 32 * kGiB);
  EXPECT_EQ(slot->remote_total(), 0);
}

TEST(Static, BorrowsWhenRequestExceedsHostCapacity) {
  auto c = mixed_cluster();
  StaticPolicy p;
  const auto job = make_job(1, 1, 150 * kGiB);
  EXPECT_TRUE(p.try_start(job, c));
  const auto* slot = &c.job_slots(job.id)[0];
  EXPECT_EQ(slot->total(), 150 * kGiB);
  EXPECT_GT(slot->remote_total(), 0);
  // Host should be the node with the most free memory (the large node).
  EXPECT_EQ(slot->host, NodeId{3});
  c.check_invariants();
}

TEST(Static, TightestFitAmongSufficientNodes) {
  auto c = mixed_cluster();
  StaticPolicy p;
  const auto job = make_job(1, 1, 10 * kGiB);
  EXPECT_TRUE(p.try_start(job, c));
  // A 64 GiB node is a tighter fit than the 128 GiB node.
  EXPECT_NE(c.job_slots(job.id)[0].host, NodeId{3});
}

TEST(Static, FailsWhenTotalFreeMemoryInsufficient) {
  auto c = mixed_cluster();
  StaticPolicy p;
  // 2 nodes x 200 GiB = 400 GiB > 320 GiB system capacity.
  const auto job = make_job(1, 2, 200 * kGiB);
  EXPECT_FALSE(p.try_start(job, c));
  EXPECT_FALSE(p.feasible(job, c));
  EXPECT_EQ(c.total_allocated(), 0);
}

TEST(Static, FeasibleWhenSystemCanEverHoldIt) {
  auto c = mixed_cluster();
  StaticPolicy p;
  // 310 GiB total across 2 nodes fits the 320 GiB system via borrowing.
  EXPECT_TRUE(p.feasible(make_job(1, 2, 155 * kGiB), c));
  // Too many nodes is infeasible regardless of memory.
  EXPECT_FALSE(p.feasible(make_job(2, 5, 1 * kGiB), c));
}

TEST(Static, MemoryNodeCannotHost) {
  auto c = mixed_cluster();
  StaticPolicy p;
  // One job that borrows nearly everything turns other nodes into memory
  // nodes.
  const auto big = make_job(1, 1, 280 * kGiB);
  EXPECT_TRUE(p.try_start(big, c));
  int hostable = 0;
  for (std::uint32_t i = 0; i < c.node_count(); ++i) {
    if (c.can_host(NodeId{i})) ++hostable;
  }
  // Another job must fail for lack of hostable nodes or memory.
  const auto next = make_job(2, 3, 1 * kGiB);
  EXPECT_FALSE(p.try_start(next, c));
  EXPECT_LT(hostable, 3);
  c.check_invariants();
}

TEST(Static, RollbackLeavesClusterUntouched) {
  auto c = mixed_cluster();
  StaticPolicy p;
  // First job consumes most of the pool.
  EXPECT_TRUE(p.try_start(make_job(1, 1, 250 * kGiB), c));
  const MiB allocated_before = c.total_allocated();
  // Second wants more than remains; try_start must fail cleanly.
  const auto job = make_job(2, 1, 100 * kGiB);
  EXPECT_FALSE(p.try_start(job, c));
  EXPECT_EQ(c.total_allocated(), allocated_before);
  EXPECT_TRUE(c.job_slots(job.id).empty());
  c.check_invariants();
}

TEST(Static, MultiNodeJobAllocatesEveryHost) {
  auto c = mixed_cluster();
  StaticPolicy p;
  const auto job = make_job(1, 3, 60 * kGiB);
  EXPECT_TRUE(p.try_start(job, c));
  const auto slots = c.job_slots(job.id);
  ASSERT_EQ(slots.size(), 3u);
  for (const auto& slot : slots) EXPECT_EQ(slot.total(), 60 * kGiB);
}

// --------------------------------------------------------------------------
// resize_to_demand (the Dynamic Actuator)
// --------------------------------------------------------------------------

class ResizeFixture : public ::testing::Test {
 protected:
  ResizeFixture() : c_(cluster::make_cluster_config(3, 64 * kGiB, 0, 0)) {
    c_.assign_job(job_, std::vector<NodeId>{NodeId{0}});
    (void)c_.grow_local(job_, NodeId{0}, 50 * kGiB);
    (void)c_.grow_remote(job_, NodeId{0}, 30 * kGiB);
  }
  cluster::Cluster c_;
  const JobId job_{1};
};

TEST_F(ResizeFixture, ShrinkReleasesRemoteFirst) {
  // 80 GiB allocated (50 local + 30 remote); demand 60 -> drop 20 remote.
  const auto out = resize_to_demand(c_, job_, NodeId{0}, 60 * kGiB);
  EXPECT_TRUE(out.satisfied);
  EXPECT_EQ(out.released, 20 * kGiB);
  const auto& slot = c_.slot(job_, NodeId{0});
  EXPECT_EQ(slot.local, 50 * kGiB);
  EXPECT_EQ(slot.remote_total(), 10 * kGiB);
  c_.check_invariants();
}

TEST_F(ResizeFixture, ShrinkPastRemoteTakesLocal) {
  // Demand 30 -> all 30 remote released plus 20 local.
  const auto out = resize_to_demand(c_, job_, NodeId{0}, 30 * kGiB);
  EXPECT_TRUE(out.satisfied);
  EXPECT_EQ(out.released, 50 * kGiB);
  const auto& slot = c_.slot(job_, NodeId{0});
  EXPECT_EQ(slot.remote_total(), 0);
  EXPECT_EQ(slot.local, 30 * kGiB);
  c_.check_invariants();
}

TEST_F(ResizeFixture, GrowPrefersLocal) {
  // Host has 14 GiB free locally; demand 90 -> +10 local then remote.
  const auto out = resize_to_demand(c_, job_, NodeId{0}, 90 * kGiB);
  EXPECT_TRUE(out.satisfied);
  EXPECT_EQ(out.acquired, 10 * kGiB);
  const auto& slot = c_.slot(job_, NodeId{0});
  EXPECT_EQ(slot.local, 60 * kGiB);
  EXPECT_EQ(slot.remote_total(), 30 * kGiB);
  c_.check_invariants();
}

TEST_F(ResizeFixture, GrowSpillsToRemote) {
  const auto out = resize_to_demand(c_, job_, NodeId{0}, 120 * kGiB);
  EXPECT_TRUE(out.satisfied);
  const auto& slot = c_.slot(job_, NodeId{0});
  EXPECT_EQ(slot.local, 64 * kGiB);  // host full
  EXPECT_EQ(slot.remote_total(), 56 * kGiB);
  c_.check_invariants();
}

TEST_F(ResizeFixture, GrowFailsWhenPoolExhausted) {
  // System: 192 GiB total; demand 200 GiB cannot be satisfied.
  const auto out = resize_to_demand(c_, job_, NodeId{0}, 200 * kGiB);
  EXPECT_FALSE(out.satisfied);
  EXPECT_EQ(out.allocated, c_.total_capacity());  // kept what it got
  c_.check_invariants();
}

TEST_F(ResizeFixture, NoopWhenDemandEqualsAllocation) {
  const auto out = resize_to_demand(c_, job_, NodeId{0}, 80 * kGiB);
  EXPECT_TRUE(out.satisfied);
  EXPECT_EQ(out.released, 0);
  EXPECT_EQ(out.acquired, 0);
  EXPECT_EQ(out.allocated, 80 * kGiB);
}

TEST_F(ResizeFixture, ShrinkToZero) {
  const auto out = resize_to_demand(c_, job_, NodeId{0}, 0);
  EXPECT_TRUE(out.satisfied);
  EXPECT_EQ(out.allocated, 0);
  EXPECT_EQ(c_.total_allocated(), 0);
  c_.check_invariants();
}

// --------------------------------------------------------------------------
// resize_job (the batched Actuator)
// --------------------------------------------------------------------------

class ResizeJobFixture : public ::testing::Test {
 protected:
  // Job 1 runs on hosts {4, 1} (position order differs from id order) with
  // usage scales {1, 0.5}. Host 4 is full locally and borrows 30 GiB over
  // two edges recorded smallest first, so a re-sort by amount would
  // visibly reorder them.
  ResizeJobFixture() : c_(config()) {
    spec_ = make_job(1, 2, 94 * kGiB);
    spec_.node_usage_scale = {1.0, 0.5};
    c_.assign_job(spec_.id, std::vector<NodeId>{NodeId{4}, NodeId{1}});
    (void)c_.grow_local(spec_.id, NodeId{1}, 47 * kGiB);
    (void)c_.grow_local(spec_.id, NodeId{4}, 64 * kGiB);
    (void)c_.grow_remote(spec_.id, NodeId{4}, 10 * kGiB);
    (void)c_.grow_remote(spec_.id, NodeId{4}, 20 * kGiB);
    c_.clear_contention_dirty();
  }
  static cluster::ClusterConfig config() {
    cluster::ClusterConfig cfg = cluster::make_cluster_config(6, 64 * kGiB, 0, 0);
    cfg.lender_policy = cluster::LenderPolicy::MostFree;
    return cfg;
  }
  cluster::Cluster c_;
  trace::JobSpec spec_;
};

TEST_F(ResizeJobFixture, NoopLeavesLedgerUntouched) {
  const auto& borrower = c_.slot(spec_.id, NodeId{4});
  ASSERT_EQ(borrower.remote.size(), 2u);
  ASSERT_LT(borrower.remote[0].second, borrower.remote[1].second);
  const std::vector<std::pair<NodeId, MiB>> remote_before = borrower.remote;
  const std::uint64_t epoch = c_.change_epoch();

  const JobResizeOutcome out = resize_job(c_, spec_, 94 * kGiB);
  EXPECT_TRUE(out.satisfied);
  EXPECT_FALSE(out.remote_changed);
  EXPECT_EQ(out.released, 0);
  EXPECT_EQ(out.acquired, 0);
  EXPECT_EQ(c_.change_epoch(), epoch);
  EXPECT_TRUE(c_.dirty_jobs().empty());
  EXPECT_TRUE(c_.dirty_lenders().empty());
  EXPECT_EQ(c_.slot(spec_.id, NodeId{4}).remote, remote_before);
  EXPECT_TRUE(c_.slot(spec_.id, NodeId{1}).remote.empty());
  c_.check_invariants();
}

TEST_F(ResizeJobFixture, MatchesPerHostResizeInAssignmentOrder) {
  // The batched walk must leave exactly the ledger the per-host Actuator
  // loop leaves. Both hosts spill into the pool, host 4 first: it claims
  // the most-free lenders, and host 1 borrows from what remains.
  cluster::Cluster per_host = c_;
  const MiB base = 140 * kGiB;
  const JobResizeOutcome out = resize_job(c_, spec_, base);
  const auto first = resize_to_demand(per_host, spec_.id, NodeId{4}, base);
  const auto second =
      resize_to_demand(per_host, spec_.id, NodeId{1}, base / 2);
  EXPECT_TRUE(out.satisfied);
  EXPECT_TRUE(out.remote_changed);
  EXPECT_EQ(out.released, 0);
  EXPECT_EQ(out.acquired, first.acquired + second.acquired);
  const auto batched = c_.job_slots(spec_.id);
  const auto reference = per_host.job_slots(spec_.id);
  ASSERT_EQ(batched.size(), reference.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].host, reference[i].host);
    EXPECT_EQ(batched[i].local, reference[i].local);
    EXPECT_EQ(batched[i].remote, reference[i].remote);
  }
  EXPECT_EQ(c_.slot(spec_.id, NodeId{4}).total(), base);
  EXPECT_EQ(c_.slot(spec_.id, NodeId{1}).total(), base / 2);
  c_.check_invariants();
}

TEST_F(ResizeJobFixture, StopsAtTheFirstUnsatisfiableHost) {
  // 384 GiB system: host 4 cannot reach 400 GiB, so host 1 is never tried.
  const JobResizeOutcome out = resize_job(c_, spec_, 400 * kGiB);
  EXPECT_FALSE(out.satisfied);
  EXPECT_EQ(c_.slot(spec_.id, NodeId{1}).total(), 47 * kGiB);
  c_.check_invariants();
}

}  // namespace
}  // namespace dmsim::policy
