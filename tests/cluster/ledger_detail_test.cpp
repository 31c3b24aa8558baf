// Detailed ledger behaviours: shrink ordering, borrow merging, aggregate
// counters under interleaved multi-job traffic, slab handle recycling, lazy
// lender-tree upkeep against a bulk rebuild, and each lender pick against a
// brute-force ranking of the columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"

namespace dmsim::cluster {
namespace {

constexpr MiB kGiB = 1024;

TEST(LedgerDetail, ShrinkReturnsLargestBorrowFirst) {
  // Host on node 3 borrows from nodes 0..2 in uneven amounts.
  Cluster c(make_cluster_config(4, 64 * kGiB, 0, 0, 32));
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{3}});
  (void)c.grow_local(job, NodeId{3}, 64 * kGiB);
  // MostFree would equalize; force uneven borrows with targeted grows.
  // First borrow drains node 0 (most free, id tie-break) fully.
  (void)c.grow_remote(job, NodeId{3}, 64 * kGiB);          // node 0: 64
  (void)c.grow_remote(job, NodeId{3}, 10 * kGiB);          // node 1: 10
  ASSERT_EQ(c.lent_of(NodeId{0}), 64 * kGiB);
  ASSERT_EQ(c.lent_of(NodeId{1}), 10 * kGiB);

  // Shrinking 30 GiB must come from the largest borrow (node 0).
  EXPECT_EQ(c.shrink_remote(job, NodeId{3}, 30 * kGiB), 30 * kGiB);
  EXPECT_EQ(c.lent_of(NodeId{0}), 34 * kGiB);
  EXPECT_EQ(c.lent_of(NodeId{1}), 10 * kGiB);
  c.check_invariants();
}

TEST(LedgerDetail, RepeatedBorrowsMergeEdges) {
  Cluster c(make_cluster_config(2, 64 * kGiB, 0, 0, 32));
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  for (int i = 0; i < 10; ++i) {
    (void)c.grow_remote(job, NodeId{0}, 1 * kGiB);
  }
  const AllocationSlot& slot = c.slot(job, NodeId{0});
  ASSERT_EQ(slot.remote.size(), 1u);  // one merged edge, not ten
  EXPECT_EQ(slot.remote_total(), 10 * kGiB);
  EXPECT_EQ(c.borrowers_of(NodeId{1}).size(), 1u);
}

TEST(LedgerDetail, TotalLentTracksAllTraffic) {
  Cluster c(make_cluster_config(4, 64 * kGiB, 0, 0, 32));
  EXPECT_EQ(c.total_lent(), 0);
  const JobId a{1};
  const JobId b{2};
  c.assign_job(a, std::vector<NodeId>{NodeId{0}});
  c.assign_job(b, std::vector<NodeId>{NodeId{1}});
  (void)c.grow_remote(a, NodeId{0}, 20 * kGiB);
  (void)c.grow_remote(b, NodeId{1}, 12 * kGiB);
  EXPECT_EQ(c.total_lent(), 32 * kGiB);
  (void)c.shrink_remote(a, NodeId{0}, 5 * kGiB);
  EXPECT_EQ(c.total_lent(), 27 * kGiB);
  c.finish_job(a);
  EXPECT_EQ(c.total_lent(), 12 * kGiB);
  c.finish_job(b);
  EXPECT_EQ(c.total_lent(), 0);
  c.check_invariants();
}

TEST(LedgerDetail, BorrowersOfEmptyAfterFullShrink) {
  Cluster c(make_cluster_config(2, 64 * kGiB, 0, 0, 32));
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  (void)c.grow_remote(job, NodeId{0}, 8 * kGiB);
  EXPECT_EQ(c.borrowers_of(NodeId{1}).size(), 1u);
  (void)c.shrink_remote(job, NodeId{0}, 8 * kGiB);
  EXPECT_TRUE(c.borrowers_of(NodeId{1}).empty());
  // The zeroed edge is purged from the slot too.
  EXPECT_TRUE(c.slot(job, NodeId{0}).remote.empty());
}

TEST(LedgerDetail, GrowLocalZeroIsNoop) {
  Cluster c(make_cluster_config(1, 64 * kGiB, 0, 0, 32));
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  EXPECT_EQ(c.grow_local(job, NodeId{0}, 0), 0);
  EXPECT_EQ(c.grow_remote(job, NodeId{0}, 0), 0);
  EXPECT_EQ(c.shrink_local(job, NodeId{0}, 0), 0);
  EXPECT_EQ(c.shrink_remote(job, NodeId{0}, 0), 0);
  EXPECT_EQ(c.total_allocated(), 0);
  c.check_invariants();
}

TEST(LedgerDetail, SingleNodeClusterCannotBorrow) {
  Cluster c(make_cluster_config(1, 64 * kGiB, 0, 0, 32));
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  EXPECT_EQ(c.grow_remote(job, NodeId{0}, 10 * kGiB), 0);
  EXPECT_EQ(c.total_lent(), 0);
}

TEST(LedgerDetail, RemoteFractionBounds) {
  Cluster c(make_cluster_config(3, 64 * kGiB, 0, 0, 32));
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  EXPECT_DOUBLE_EQ(c.slot(job, NodeId{0}).remote_fraction(), 0.0);  // empty
  (void)c.grow_remote(job, NodeId{0}, 10 * kGiB);
  EXPECT_DOUBLE_EQ(c.slot(job, NodeId{0}).remote_fraction(), 1.0);  // all remote
  (void)c.grow_local(job, NodeId{0}, 30 * kGiB);
  EXPECT_DOUBLE_EQ(c.slot(job, NodeId{0}).remote_fraction(), 0.25);
}

/// borrowers_of must list every live edge of `lender` exactly once, in
/// (job id, host position) order, with the borrowing slot's current total.
void expect_canonical_borrowers(const Cluster& c, NodeId lender) {
  const std::vector<Cluster::BorrowEdge> edges = c.borrowers_of(lender);
  const auto position = [&c](const Cluster::BorrowEdge& e) {
    const auto hosts = c.hosts_of(e.job);
    return std::find(hosts.begin(), hosts.end(), e.host) - hosts.begin();
  };
  for (std::size_t i = 1; i < edges.size(); ++i) {
    const auto& a = edges[i - 1];
    const auto& b = edges[i];
    EXPECT_TRUE(a.job < b.job || (a.job == b.job && position(a) < position(b)))
        << "lender " << lender.get() << " edge " << i;
  }
  std::size_t expected = 0;
  for (std::uint32_t h = 0; h < c.node_count(); ++h) {
    const JobId job = c.running_job_of(NodeId{h});
    if (!job.valid()) continue;
    for (const auto& [from, amount] : c.slot(job, NodeId{h}).remote) {
      if (from == lender) ++expected;
    }
  }
  EXPECT_EQ(edges.size(), expected);
  for (const auto& e : edges) {
    EXPECT_EQ(e.slot_total, c.slot(e.job, e.host).total());
  }
}

TEST(LedgerDetail, RecycledHandlesKeepInvariantsAndBorrowerOrder) {
  // Jobs come and go so finished jobs' handles are reused by jobs with
  // larger ids: handle order and job-id order disagree, and hosts are
  // assigned out of id order, so only a truly canonical borrowers_of sort
  // passes. Every operation is followed by the full invariant suite.
  ClusterConfig cfg = make_cluster_config(12, 64 * kGiB, 4, 128 * kGiB);
  cfg.lender_policy = LenderPolicy::MostFree;
  Cluster c(std::move(cfg));
  util::Rng rng(2024);
  std::vector<JobId> live;
  std::uint32_t next_id = 1;
  for (int step = 0; step < 400; ++step) {
    const bool finish = !live.empty() && (live.size() >= 5 || rng.bernoulli(0.4));
    if (finish) {
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      c.finish_job(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      std::vector<NodeId> hosts;
      for (std::uint32_t i = 0; i < c.node_count(); ++i) {
        if (c.can_host(NodeId{i})) hosts.push_back(NodeId{i});
      }
      if (hosts.empty()) continue;
      std::reverse(hosts.begin(), hosts.end());
      hosts.resize(std::min<std::size_t>(
          hosts.size(), static_cast<std::size_t>(rng.uniform_int(1, 3))));
      const JobId job{next_id++};
      c.assign_job(job, hosts);
      live.push_back(job);
      for (const NodeId h : hosts) {
        (void)c.grow_local(job, h, rng.uniform_int(8, 64) * kGiB);
        (void)c.grow_remote(job, h, rng.uniform_int(1, 24) * kGiB);
      }
      if (rng.bernoulli(0.5)) {
        (void)c.shrink_remote(job, hosts.front(), 4 * kGiB);
      }
    }
    c.check_invariants();
    for (std::uint32_t l = 0; l < c.node_count(); ++l) {
      expect_canonical_borrowers(c, NodeId{l});
    }
  }
  for (const JobId job : live) c.finish_job(job);
  c.check_invariants();
  EXPECT_EQ(c.total_allocated(), 0);
  EXPECT_EQ(c.idle_hostable_nodes(), static_cast<int>(c.node_count()));
}

std::string saved_bytes(const Cluster& c) {
  snapshot::Writer w;
  c.save_state(w);
  return w.take();
}

TEST(LedgerDetail, LazyLenderIndexesMatchBulkRebuild) {
  // The live cluster's lender indexes catch up lazily, at each lender pick.
  // After every random operation a twin restores the live ledger's bytes,
  // which bulk-rebuilds its indexes from the columns. A copy of the live
  // cluster (stale nodes and all) and the twin then run the same
  // grow_remote: they must pick the same lenders, leaving identical bytes.
  // The probe grows on a copy so staleness keeps accumulating in `live`
  // across many operations; live's own grow_remote ops sync it in between.
  for (const bool tiered : {false, true}) {
    for (const LenderPolicy policy :
         {LenderPolicy::MostFree, LenderPolicy::MemoryNodesFirst,
          LenderPolicy::LeastFree}) {
      SCOPED_TRACE(::testing::Message()
                   << (tiered ? "3-tier" : "flat") << " policy "
                   << static_cast<int>(policy));
      ClusterConfig cfg = make_cluster_config(9, 64 * kGiB, 3, 128 * kGiB);
      cfg.lender_policy = policy;
      if (tiered) {
        cfg.tiers = {MemoryTier{"local", 150.0, 90.0, TierScope::Local},
                     MemoryTier{"rack", 450.0, 64.0, TierScope::Rack},
                     MemoryTier{"far", 1200.0, 40.0, TierScope::CrossRack}};
        for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
          cfg.nodes[i].tier = static_cast<std::uint8_t>(i % 3);
        }
      }
      Cluster live(cfg);
      util::Rng rng(tiered ? 4711 : 1742);
      std::vector<JobId> jobs;
      std::uint32_t next_id = 1;
      const auto pick = [&rng](std::size_t size) {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
      };
      const auto gib = [&rng](std::int64_t hi) {
        return rng.uniform_int(1, hi) * kGiB;
      };
      for (int step = 0; step < 500; ++step) {
        const std::int64_t op =
            jobs.empty() ? 0 : rng.uniform_int(jobs.size() < 4 ? 0 : 1, 7);
        if (op == 0) {
          std::vector<NodeId> hosts;
          for (std::uint32_t i = 0; i < live.node_count(); ++i) {
            if (live.can_host(NodeId{i}) && rng.bernoulli(0.3)) {
              hosts.push_back(NodeId{i});
            }
          }
          if (hosts.empty()) continue;
          hosts.resize(std::min<std::size_t>(hosts.size(), 3));
          const JobId job{next_id++};
          live.assign_job(job, hosts);
          for (const NodeId h : hosts) (void)live.grow_local(job, h, gib(64));
          jobs.push_back(job);
        } else if (op == 1) {
          const std::size_t k = pick(jobs.size());
          live.finish_job(jobs[k]);
          jobs.erase(jobs.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
          const JobId job = jobs[pick(jobs.size())];
          const auto hosts = live.hosts_of(job);
          const NodeId host = hosts[pick(hosts.size())];
          switch (op) {
            case 2:
            case 3:
              (void)live.grow_local(job, host, gib(64));
              break;
            case 4:
              (void)live.shrink_local(job, host, gib(64));
              break;
            case 5:
              (void)live.grow_remote(job, host, gib(48));
              break;
            case 6:
              (void)live.shrink_remote(job, host, gib(48));
              break;
            default: {
              const auto& remote = live.slot(job, host).remote;
              if (!remote.empty()) {
                const NodeId lender = remote[pick(remote.size())].first;
                (void)live.shrink_remote_edge(job, host, lender, gib(48));
              }
              break;
            }
          }
        }
        live.check_invariants();

        const std::string bytes = saved_bytes(live);
        Cluster twin(cfg);
        snapshot::Reader reader(bytes);
        twin.restore_state(reader);
        Cluster probe = live;
        if (!jobs.empty()) {
          const JobId job = jobs[pick(jobs.size())];
          const auto hosts = probe.hosts_of(job);
          const NodeId host = hosts[pick(hosts.size())];
          const MiB amount = gib(96);
          EXPECT_EQ(probe.grow_remote(job, host, amount),
                    twin.grow_remote(job, host, amount))
              << "step " << step;
        }
        ASSERT_EQ(saved_bytes(probe), saved_bytes(twin)) << "step " << step;
        probe.check_invariants();
        twin.check_invariants();
      }
    }
  }
}

/// The lender a grow from `host` must take first, by brute force: nearest
/// tier first, and within a tier every node with free memory other than
/// `host`, sorted by the policy's full ranking.
NodeId brute_force_lender(const Cluster& c, NodeId host) {
  const auto mem = [&c](std::uint32_t i) { return c.is_memory_node(NodeId{i}); };
  const auto free = [&c](std::uint32_t i) { return c.free_of(NodeId{i}); };
  const auto ranks_before = [&](std::uint32_t a, std::uint32_t b) {
    switch (c.lender_policy()) {
      case LenderPolicy::MostFree:
        return std::pair(-free(a), a) < std::pair(-free(b), b);
      case LenderPolicy::LeastFree:
        return std::pair(free(a), a) < std::pair(free(b), b);
      case LenderPolicy::MemoryNodesFirst:
        return std::tuple(!mem(a), -free(a), a) < std::tuple(!mem(b), -free(b), b);
    }
    return false;
  };
  for (const std::uint8_t t : c.tier_order()) {
    std::vector<std::uint32_t> admissible;
    for (std::uint32_t i = 0; i < c.node_count(); ++i) {
      if (c.tier_of(NodeId{i}) == t && i != host.get() && free(i) > 0) {
        admissible.push_back(i);
      }
    }
    if (!admissible.empty()) {
      std::sort(admissible.begin(), admissible.end(), ranks_before);
      return NodeId{admissible.front()};
    }
  }
  return NodeId{};
}

TEST(LedgerDetail, LenderTreeMatchesSortedRanking) {
  // Seeded random grow/shrink/assign/finish traffic on 37 nodes (an odd
  // count, so the trees are not perfect) whose memory moves in 8 GiB steps,
  // so equal free values (id tie-breaks) are common. After every operation
  // a copy of the ledger grows 1 MiB remote for several (job, host) pairs:
  // the one lender it takes must be the brute-force ranking's first node.
  for (const bool tiered : {false, true}) {
    for (const LenderPolicy policy :
         {LenderPolicy::MostFree, LenderPolicy::MemoryNodesFirst,
          LenderPolicy::LeastFree}) {
      SCOPED_TRACE(::testing::Message()
                   << (tiered ? "3-tier" : "flat") << " policy "
                   << static_cast<int>(policy));
      ClusterConfig cfg = make_cluster_config(29, 64 * kGiB, 8, 128 * kGiB);
      cfg.lender_policy = policy;
      if (tiered) {
        cfg.tiers = {MemoryTier{"far", 1200.0, 40.0, TierScope::CrossRack},
                     MemoryTier{"local", 150.0, 90.0, TierScope::Local},
                     MemoryTier{"rack", 450.0, 64.0, TierScope::Rack}};
        for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
          cfg.nodes[i].tier = static_cast<std::uint8_t>((i * 7) % 3);
        }
      }
      Cluster live(cfg);
      util::Rng rng(tiered ? 9001 : 1337);
      std::vector<JobId> jobs;
      std::uint32_t next_id = 1;
      const auto pick = [&rng](std::size_t size) {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
      };
      const auto steps = [&rng](std::int64_t hi) {
        return rng.uniform_int(1, hi) * 8 * kGiB;
      };
      for (int step = 0; step < 400; ++step) {
        const std::int64_t op =
            jobs.empty() ? 0 : rng.uniform_int(jobs.size() < 6 ? 0 : 1, 6);
        if (op == 0) {
          std::vector<NodeId> hosts;
          for (std::uint32_t i = 0; i < live.node_count(); ++i) {
            if (live.can_host(NodeId{i}) && rng.bernoulli(0.2)) {
              hosts.push_back(NodeId{i});
            }
          }
          if (hosts.empty()) continue;
          hosts.resize(std::min<std::size_t>(hosts.size(), 3));
          const JobId job{next_id++};
          live.assign_job(job, hosts);
          for (const NodeId h : hosts) (void)live.grow_local(job, h, steps(6));
          jobs.push_back(job);
        } else if (op == 1) {
          const std::size_t k = pick(jobs.size());
          live.finish_job(jobs[k]);
          jobs.erase(jobs.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
          const JobId job = jobs[pick(jobs.size())];
          const auto hosts = live.hosts_of(job);
          const NodeId host = hosts[pick(hosts.size())];
          if (op == 2) (void)live.grow_local(job, host, steps(6));
          if (op == 3) (void)live.shrink_local(job, host, steps(6));
          if (op == 4 || op == 5) (void)live.grow_remote(job, host, steps(8));
          if (op == 6) (void)live.shrink_remote(job, host, steps(8));
        }
        live.check_invariants();
        for (int probe = 0; probe < 4 && !jobs.empty(); ++probe) {
          const JobId job = jobs[pick(jobs.size())];
          const auto hosts = live.hosts_of(job);
          const NodeId host = hosts[pick(hosts.size())];
          const NodeId expected = brute_force_lender(live, host);
          Cluster copy = live;
          ASSERT_EQ(copy.grow_remote(job, host, 1), expected.valid() ? 1 : 0)
              << "step " << step;
          NodeId taken{};
          for (std::uint32_t i = 0; i < copy.node_count(); ++i) {
            if (copy.lent_of(NodeId{i}) != live.lent_of(NodeId{i})) {
              taken = NodeId{i};
            }
          }
          ASSERT_EQ(taken, expected) << "step " << step << " host " << host.get();
          copy.check_invariants();
        }
      }
    }
  }
}

}  // namespace
}  // namespace dmsim::cluster
