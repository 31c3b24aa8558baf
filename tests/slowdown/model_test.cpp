#include "slowdown/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "cluster/cluster.hpp"
#include "util/rng.hpp"

namespace dmsim::slowdown {
namespace {

constexpr MiB kGiB = 1024;

TEST(SensitivityCurve, FlatIsAlwaysOne) {
  const auto c = SensitivityCurve::flat();
  EXPECT_DOUBLE_EQ(c.at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.at(1000.0), 1.0);
}

TEST(SensitivityCurve, InterpolatesLinearly) {
  const SensitivityCurve c({{0.0, 1.0}, {10.0, 2.0}});
  EXPECT_DOUBLE_EQ(c.at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.at(5.0), 1.5);
  EXPECT_DOUBLE_EQ(c.at(10.0), 2.0);
}

TEST(SensitivityCurve, ClampsAboveLastKnot) {
  const SensitivityCurve c({{0.0, 1.0}, {10.0, 2.0}});
  EXPECT_DOUBLE_EQ(c.at(100.0), 2.0);
}

TEST(SensitivityCurve, MultiSegment) {
  const SensitivityCurve c({{0.0, 1.0}, {10.0, 1.2}, {30.0, 2.0}});
  EXPECT_DOUBLE_EQ(c.at(20.0), 1.6);
}

TEST(SensitivityCurve, MonotoneNonDecreasingProperty) {
  util::Rng rng(3);
  const AppPool pool = AppPool::synthetic(rng, 32);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto& curve = pool.app(static_cast<int>(i)).sensitivity;
    double prev = 0.0;
    for (double p = 0.0; p <= 80.0; p += 0.5) {
      const double s = curve.at(p);
      EXPECT_GE(s, 1.0);
      EXPECT_GE(s, prev);
      prev = s;
    }
  }
}

TEST(AppPool, SyntheticIsDeterministic) {
  util::Rng rng(7);
  const AppPool a = AppPool::synthetic(rng, 16);
  const AppPool b = AppPool::synthetic(rng, 16);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.app(static_cast<int>(i)).bw_demand_gbs,
              b.app(static_cast<int>(i)).bw_demand_gbs);
    EXPECT_EQ(a.app(static_cast<int>(i)).typical_mem,
              b.app(static_cast<int>(i)).typical_mem);
  }
}

TEST(AppPool, SyntheticRangesArePlausible) {
  util::Rng rng(11);
  const AppPool pool = AppPool::synthetic(rng, 64);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const AppProfile& app = pool.app(static_cast<int>(i));
    EXPECT_GE(app.bw_demand_gbs, 0.5);
    EXPECT_LE(app.bw_demand_gbs, 20.0);
    EXPECT_GE(app.remote_penalty, 0.05);
    EXPECT_LE(app.remote_penalty, 0.6);
    const double ceiling = app.sensitivity.at(1e9);
    EXPECT_GE(ceiling, 1.1);
    EXPECT_LE(ceiling, 2.5);
  }
}

TEST(AppPool, MatchFindsExactFeatureMatch) {
  std::vector<AppProfile> apps(3);
  apps[0].typical_nodes = 1;
  apps[0].typical_runtime_s = 100;
  apps[1].typical_nodes = 64;
  apps[1].typical_runtime_s = 100000;
  apps[2].typical_nodes = 8;
  apps[2].typical_runtime_s = 3600;
  const AppPool pool(std::move(apps));
  EXPECT_EQ(pool.match(8, 3600), 2);
  EXPECT_EQ(pool.match(1, 90), 0);
  EXPECT_EQ(pool.match(70, 90000), 1);
}

TEST(AppPool, MatchWithMemoryBreaksTies) {
  std::vector<AppProfile> apps(2);
  apps[0].typical_nodes = 4;
  apps[0].typical_runtime_s = 1000;
  apps[0].typical_mem = 1024;
  apps[1].typical_nodes = 4;
  apps[1].typical_runtime_s = 1000;
  apps[1].typical_mem = 64 * kGiB;
  const AppPool pool(std::move(apps));
  EXPECT_EQ(pool.match(4, 1000, 2048), 0);
  EXPECT_EQ(pool.match(4, 1000, 50 * kGiB), 1);
}

// Both match overloads read the constructor's cached log features; each
// must pick exactly what taking both logs per app picks, floor included.
TEST(AppPool, CachedLogMatchEqualsBruteForce) {
  const AppPool pool = AppPool::synthetic(util::Rng(5), 64);
  const auto log_dist2 = [](double a, double b) {
    const double d =
        std::log(std::max(a, 1e-9)) - std::log(std::max(b, 1e-9));
    return d * d;
  };
  util::Rng rng(11);
  for (int q = 0; q < 2000; ++q) {
    const bool edge = q % 7 == 0;
    const double nodes = edge ? rng.uniform(-2.0, 1e-9)
                              : std::pow(2.0, rng.uniform(0.0, 10.0));
    const double runtime =
        edge && q % 2 == 0 ? 0.0 : std::exp(rng.uniform(0.0, 14.0));
    const MiB mem = edge ? rng.uniform_int(-1, 1) : rng.uniform_int(1, 1 << 18);
    int want2 = -1;
    int want3 = -1;
    double best2 = 0.0;
    double best3 = 0.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const AppProfile& app = pool.app(static_cast<int>(i));
      const double d2 = log_dist2(nodes, app.typical_nodes) +
                        log_dist2(runtime, app.typical_runtime_s);
      const double d3 = d2 + log_dist2(static_cast<double>(mem),
                                       static_cast<double>(app.typical_mem));
      if (want2 < 0 || d2 < best2) {
        want2 = static_cast<int>(i);
        best2 = d2;
      }
      if (want3 < 0 || d3 < best3) {
        want3 = static_cast<int>(i);
        best3 = d3;
      }
    }
    ASSERT_EQ(pool.match(nodes, runtime), want2) << "query " << q;
    ASSERT_EQ(pool.match(nodes, runtime, mem), want3) << "query " << q;
  }
}

TEST(AppPool, MatchOnEmptyPoolReturnsMinusOne) {
  const AppPool pool;
  EXPECT_EQ(pool.match(4, 100), -1);
}

class ContentionFixture : public ::testing::Test {
 protected:
  ContentionFixture()
      : cluster_(cluster::make_cluster_config(4, 64 * kGiB, 0, 128 * kGiB)) {
    std::vector<AppProfile> apps(1);
    apps[0].name = "hungry";
    apps[0].bw_demand_gbs = 10.0;
    apps[0].remote_penalty = 0.5;
    apps[0].sensitivity = SensitivityCurve({{0.0, 1.0}, {20.0, 2.0}});
    pool_ = AppPool(std::move(apps));
  }

  cluster::Cluster cluster_;
  AppPool pool_;
};

TEST_F(ContentionFixture, AllLocalJobHasNoSlowdown) {
  const JobId job{1};
  cluster_.assign_job(job, std::vector<NodeId>{NodeId{0}});
  (void)cluster_.grow_local(job, NodeId{0}, 10 * kGiB);
  const ContentionModel model(&pool_);
  EXPECT_DOUBLE_EQ(model.evaluate_one(cluster_, job, 0), 1.0);
}

TEST_F(ContentionFixture, RemoteMemoryCausesSlowdown) {
  const JobId job{1};
  cluster_.assign_job(job, std::vector<NodeId>{NodeId{0}});
  (void)cluster_.grow_local(job, NodeId{0}, 10 * kGiB);
  (void)cluster_.grow_remote(job, NodeId{0}, 10 * kGiB);
  const ContentionModel model(&pool_);
  const double s = model.evaluate_one(cluster_, job, 0);
  EXPECT_GT(s, 1.0);
  // remote fraction 0.5, own pressure 10*0.5=5 GB/s -> sens 1.25;
  // latency term 1 + 0.5*0.5 = 1.25 -> 1.5625.
  EXPECT_NEAR(s, 1.25 * 1.25, 1e-9);
}

TEST_F(ContentionFixture, SharedLenderRaisesBothSlowdowns) {
  // Three nodes: jobs on 0 and 1, so node 2 is the only possible lender.
  cluster::Cluster c(cluster::make_cluster_config(3, 64 * kGiB, 0, 128 * kGiB));
  const JobId a{1};
  const JobId b{2};
  c.assign_job(a, std::vector<NodeId>{NodeId{0}});
  c.assign_job(b, std::vector<NodeId>{NodeId{1}});
  // Fill both hosts completely so neither can lend to the other.
  (void)c.grow_local(a, NodeId{0}, 64 * kGiB);
  (void)c.grow_local(b, NodeId{1}, 64 * kGiB);
  (void)c.grow_remote(a, NodeId{0}, 10 * kGiB);
  (void)c.grow_remote(b, NodeId{1}, 10 * kGiB);
  ASSERT_EQ(c.lent_of(NodeId{2}), 20 * kGiB);

  const ContentionModel model(&pool_);
  const std::vector<ContentionModel::JobInput> solo = {{a, 0}};
  const std::vector<ContentionModel::JobInput> both = {{a, 0}, {b, 0}};
  const double s_solo = model.evaluate(c, solo)[0];
  const double s_both = model.evaluate(c, both)[0];
  EXPECT_GT(s_both, s_solo);  // contention from b's traffic
}

TEST_F(ContentionFixture, NullPoolMeansInsensitive) {
  const JobId job{1};
  cluster_.assign_job(job, std::vector<NodeId>{NodeId{0}});
  (void)cluster_.grow_remote(job, NodeId{0}, 10 * kGiB);
  const ContentionModel model(nullptr);
  EXPECT_DOUBLE_EQ(model.evaluate_one(cluster_, job, 0), 1.0);
}

TEST_F(ContentionFixture, UnknownProfileIndexMeansInsensitive) {
  const JobId job{1};
  cluster_.assign_job(job, std::vector<NodeId>{NodeId{0}});
  (void)cluster_.grow_remote(job, NodeId{0}, 10 * kGiB);
  const ContentionModel model(&pool_);
  EXPECT_DOUBLE_EQ(model.evaluate_one(cluster_, job, -1), 1.0);
}

TEST_F(ContentionFixture, MultiNodeJobTakesWorstSlot) {
  const JobId job{1};
  cluster_.assign_job(job, std::vector<NodeId>{NodeId{0}, NodeId{1}});
  (void)cluster_.grow_local(job, NodeId{0}, 10 * kGiB);   // all local slot
  (void)cluster_.grow_local(job, NodeId{1}, 5 * kGiB);
  (void)cluster_.grow_remote(job, NodeId{1}, 5 * kGiB);   // remote slot
  const ContentionModel model(&pool_);
  const double s = model.evaluate_one(cluster_, job, 0);
  EXPECT_GT(s, 1.0);  // the remote slot dominates
}

TEST_F(ContentionFixture, MoreRemoteFractionMoreSlowdown) {
  const ContentionModel model(&pool_);
  double prev = 0.0;
  for (const MiB remote : {0, 4, 8, 16}) {
    cluster::Cluster c(cluster::make_cluster_config(4, 64 * kGiB, 0, 0));
    const JobId job{1};
    c.assign_job(job, std::vector<NodeId>{NodeId{0}});
    (void)c.grow_local(job, NodeId{0}, 16 * kGiB);
    if (remote > 0) (void)c.grow_remote(job, NodeId{0}, remote * kGiB);
    const double s = model.evaluate_one(c, job, 0);
    EXPECT_GE(s, prev);
    prev = s;
  }
}

// The incremental refresher must be bit-identical to a full evaluate() after
// every ledger mutation — not merely close: the scheduler's grant/deny
// decisions downstream of projected end times are FP-sensitive, and the
// whole point of the canonical summation order is reproducibility across
// the full-rebuild and per-lender recompute paths.
TEST_F(ContentionFixture, IncrementalRefreshMatchesFullEvaluateBitwise) {
  cluster::Cluster c(cluster::make_cluster_config(5, 64 * kGiB, 1, 128 * kGiB));
  const ContentionModel model(&pool_);
  IncrementalSlowdowns inc(&model);
  util::Rng rng(2026);

  std::map<std::uint32_t, double> current;  // job -> last applied slowdown
  std::uint32_t next_id = 1;
  std::vector<std::uint32_t> ids;
  std::vector<IncrementalSlowdowns::Update> updates;
  const auto app_of = [&](JobId id) {
    return current.contains(id.get()) ? 0
                                      : IncrementalSlowdowns::kNotRunning;
  };

  for (int step = 0; step < 300; ++step) {
    // Random mutation: start (host on a random idle node), resize a random
    // job's slot in either direction, or finish a random job.
    const int op = static_cast<int>(rng.uniform_int(0, 4));
    if (op == 0 || current.empty()) {
      std::vector<NodeId> idle;
      for (std::uint32_t i = 0; i < c.node_count(); ++i) {
        if (c.can_host(NodeId{i}) && c.free_of(NodeId{i}) > 0) {
          idle.push_back(NodeId{i});
        }
      }
      if (!idle.empty()) {
        const JobId job{next_id++};
        const NodeId host =
            idle[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(idle.size()) - 1))];
        c.assign_job(job, std::vector<NodeId>{host});
        (void)c.grow_local(job, host,
                           rng.uniform_int(1, 48) * kGiB);
        if (rng.uniform(0.0, 1.0) < 0.7) {
          (void)c.grow_remote(job, host, rng.uniform_int(1, 32) * kGiB);
        }
        current.emplace(job.get(), 1.0);
      }
    } else {
      auto it = current.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(current.size()) - 1)));
      const JobId job{it->first};
      const NodeId host = c.hosts_of(job)[0];
      switch (op) {
        case 1:
          (void)c.grow_remote(job, host, rng.uniform_int(1, 16) * kGiB);
          break;
        case 2:
          (void)c.shrink_remote(job, host, rng.uniform_int(1, 24) * kGiB);
          break;
        case 3:
          (void)c.grow_local(job, host, rng.uniform_int(1, 8) * kGiB);
          break;
        default:
          c.finish_job(job);
          current.erase(it);
          break;
      }
    }

    // Mirror the scheduler's refresh protocol.
    if (current.empty() || c.total_lent() == 0) {
      inc.reset();
      c.clear_contention_dirty();
      for (auto& [id, s] : current) s = 1.0;
    } else {
      ids.clear();
      for (const auto& [id, s] : current) ids.push_back(id);
      updates.clear();
      inc.refresh(c, ids, app_of, updates);
      c.clear_contention_dirty();
      for (const auto& u : updates) current.at(u.job.get()) = u.slowdown;
    }

    // Full evaluation in the same canonical (ascending id) order.
    std::vector<ContentionModel::JobInput> inputs;
    for (const auto& [id, s] : current) {
      inputs.push_back(ContentionModel::JobInput{JobId{id}, 0});
    }
    const std::vector<double> full = model.evaluate(c, inputs);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_EQ(current.at(inputs[i].job.get()), full[i])
          << "step " << step << " job " << inputs[i].job.get();
    }
  }
}

}  // namespace
}  // namespace dmsim::slowdown
