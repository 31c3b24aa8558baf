#include "probes.hpp"

#include <cmath>
#include <vector>

#include "common.hpp"
#include "policy/policy.hpp"
#include "slowdown/model.hpp"
#include "util/rng.hpp"
#include "workload/exa_grizzly.hpp"

namespace perfbench {

using namespace dmsim;

namespace {

constexpr MiB kGiB = 1024;
constexpr int kBatches = 15;

/// Three of every five nodes host a one-node job with varied local fill;
/// every third job also borrows remote memory (scale_sweep's layout).
cluster::Cluster busy_cluster(const cluster::ClusterConfig& topology,
                              std::vector<std::uint32_t>& running) {
  cluster::Cluster c(topology);
  std::uint32_t id = 1;
  for (std::size_t i = 0; i < c.node_count(); ++i) {
    if (i % 5 >= 3) continue;
    const JobId job{id++};
    const NodeId host{static_cast<std::uint32_t>(i)};
    c.assign_job(job, std::vector<NodeId>{host});
    (void)c.grow_local(job, host, (static_cast<MiB>(i % 48) + 4) * kGiB);
    if (i % 3 == 0) {
      (void)c.grow_remote(job, host, (static_cast<MiB>(i % 12) + 1) * kGiB);
    }
    running.push_back(job.get());
  }
  return c;
}

/// Median over kBatches of the mean seconds per call of `op`, each batch
/// running `per_batch` calls.
template <typename Op>
[[nodiscard]] double median_per_call(std::size_t per_batch, Op&& op) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < per_batch; ++i) op(i);
    per_call.push_back(seconds_since(start) / static_cast<double>(per_batch));
  }
  return median(std::move(per_call));
}

}  // namespace

cluster::ClusterConfig exa_topology() {
  const workload::ExaGrizzlyConfig cfg;  // the mix, capacities and cores
  const int large = static_cast<int>(std::llround(
      static_cast<double>(kExaNodes) * cfg.mix_large /
      static_cast<double>(cfg.mix_normal + cfg.mix_large)));
  return cluster::make_cluster_config(kExaNodes - large, cfg.normal_capacity,
                                      large, cfg.large_capacity,
                                      cfg.base.cores_per_node);
}

double resize_cycle_ns(const cluster::ClusterConfig& topology) {
  std::vector<std::uint32_t> running;
  cluster::Cluster c = busy_cluster(topology, running);
  // Slot k is job k on its single host; the grow overflows local free
  // memory on most hosts, so the cycle touches the lendable index too.
  std::vector<NodeId> hosts;
  hosts.reserve(running.size());
  for (const std::uint32_t id : running) {
    hosts.push_back(c.hosts_of(JobId{id})[0]);
  }
  bool satisfied = true;
  const double s = median_per_call(20'000, [&](std::size_t i) {
    const std::size_t k = i % running.size();
    const JobId job{running[k]};
    const MiB current = c.slot(job, hosts[k]).total();
    satisfied &= policy::resize_to_demand(c, job, hosts[k], current + 24 * kGiB)
                     .satisfied;
    satisfied &= policy::resize_to_demand(c, job, hosts[k], current).satisfied;
  });
  DMSIM_ASSERT(satisfied, "perfbench: resize probe ran out of memory");
  return s * 1e9;
}

SlowdownProbe slowdown_probe(const cluster::ClusterConfig& topology) {
  std::vector<std::uint32_t> running;
  cluster::Cluster c = busy_cluster(topology, running);
  const slowdown::AppPool pool = slowdown::AppPool::synthetic(util::Rng(1), 32);
  const slowdown::ContentionModel model(&pool);
  slowdown::IncrementalSlowdowns inc(&model);
  const auto app_of = [](JobId id) { return static_cast<int>(id.get() % 32); };
  std::vector<slowdown::IncrementalSlowdowns::Update> updates;
  inc.refresh(c, running, app_of, updates);  // prime the pressure buffer
  c.clear_contention_dirty();
  const JobId victim{running.front()};  // node 0 hosts a borrower
  const NodeId host = c.hosts_of(victim)[0];

  SlowdownProbe out;
  out.refresh_incremental_us = 1e6 * median_per_call(200, [&](std::size_t) {
    (void)c.grow_remote(victim, host, kGiB);
    (void)c.shrink_remote(victim, host, kGiB);
    updates.clear();
    inc.refresh(c, running, app_of, updates);
    c.clear_contention_dirty();
  });
  std::vector<slowdown::ContentionModel::JobInput> inputs;
  inputs.reserve(running.size());
  for (const std::uint32_t id : running) {
    inputs.push_back({JobId{id}, static_cast<int>(id % 32)});
  }
  std::size_t evaluated = 0;
  out.evaluate_full_us = 1e6 * median_per_call(4, [&](std::size_t) {
    evaluated += model.evaluate(c, inputs).size();
  });
  DMSIM_ASSERT(evaluated == 4 * kBatches * inputs.size(),
               "perfbench: full evaluation skipped jobs");
  return out;
}

}  // namespace perfbench
