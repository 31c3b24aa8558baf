#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include "core/simulator.hpp"

namespace dmsim {
namespace {

constexpr MiB kGiB = 1024;

TEST(Counters, FindOrCreateReturnsStableHandles) {
  obs::Counters reg;
  std::uint64_t& a = reg.counter("alpha");
  std::uint64_t& b = reg.counter("beta");
  a += 3;
  // Creating many more entries must not invalidate earlier handles.
  for (int i = 0; i < 200; ++i) {
    (void)reg.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("alpha"), &a);
  EXPECT_EQ(&reg.counter("beta"), &b);
  EXPECT_EQ(reg.counter("alpha"), 3u);
  EXPECT_EQ(reg.size(), 202u);
}

TEST(Counters, GaugeTracksHighWater) {
  obs::Counters reg;
  obs::Gauge& g = reg.gauge("depth");
  g.set(5);
  g.set(12);
  g.set(3);
  EXPECT_EQ(g.value, 3);
  EXPECT_EQ(g.high_water, 12);
  reg.set("depth", -1);
  EXPECT_EQ(g.value, -1);
  EXPECT_EQ(g.high_water, 12);
}

TEST(Counters, SnapshotIsNameSorted) {
  obs::Counters reg;
  reg.add("zeta", 1);
  reg.add("alpha", 2);
  reg.add("mid", 3);
  reg.set("z.gauge", 9);
  reg.set("a.gauge", 7);
  const obs::CountersSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "mid");
  EXPECT_EQ(snap.counters[2].name, "zeta");
  EXPECT_EQ(snap.counters[0].value, 2u);
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].name, "a.gauge");
  EXPECT_EQ(snap.gauges[1].name, "z.gauge");
  EXPECT_FALSE(snap.empty());
  EXPECT_TRUE(obs::CountersSnapshot{}.empty());
}

trace::Workload oom_prone_workload() {
  trace::Workload jobs;
  for (std::uint32_t i = 1; i <= 12; ++i) {
    trace::JobSpec j;
    j.id = JobId{i};
    j.submit_time = i * 10.0;
    j.num_nodes = (i % 3 == 0) ? 2 : 1;
    j.requested_mem = 8 * kGiB;
    j.duration = 200.0;
    j.walltime = 500.0;
    // Usage ramps past the request for every other job so the dynamic
    // policy's monitor sees real demand growth (and possible OOM kills).
    j.usage = (i % 2 == 0)
                  ? trace::UsageTrace({{0.0, 4 * kGiB}, {1.0, 12 * kGiB}})
                  : trace::UsageTrace::constant(6 * kGiB);
    jobs.push_back(j);
  }
  return jobs;
}

// The registry is the export surface; SchedulerTotals is the source of
// truth. The published sched.* counters must agree exactly.
TEST(Counters, MatchSchedulerTotalsAfterSimulation) {
  SimulationConfig cfg;
  cfg.system.total_nodes = 4;
  cfg.system.pct_large_nodes = 0.25;
  cfg.policy = policy::PolicyKind::Dynamic;
  cfg.sched.update_interval = 50.0;

  obs::Counters counters;
  Simulator sim(cfg, oom_prone_workload(), nullptr, nullptr, &counters);
  const SimulationResult r = sim.run();
  ASSERT_TRUE(r.valid);

  const auto& t = r.totals;
  EXPECT_EQ(counters.counter("sched.completed"), t.completed);
  EXPECT_EQ(counters.counter("sched.oom_events"), t.oom_events);
  EXPECT_EQ(counters.counter("sched.requeues"), t.requeues);
  EXPECT_EQ(counters.counter("sched.fcfs_starts"), t.fcfs_starts);
  EXPECT_EQ(counters.counter("sched.backfill_starts"), t.backfill_starts);
  EXPECT_EQ(counters.counter("sched.guaranteed_starts"), t.guaranteed_starts);
  EXPECT_EQ(counters.counter("sched.update_events"), t.update_events);
  EXPECT_EQ(counters.counter("sched.scheduling_passes"), t.scheduling_passes);
  EXPECT_EQ(counters.counter("sched.abandoned"), t.abandoned);
  EXPECT_EQ(counters.counter("sched.walltime_kills"), t.walltime_kills);

  // Live-counted extras are consistent with the run.
  EXPECT_EQ(counters.counter("sched.submits"), 12u);
  EXPECT_EQ(counters.counter("policy.grants"),
            t.fcfs_starts + t.backfill_starts + t.guaranteed_starts);
  EXPECT_GT(counters.counter("engine.fired"), 0u);
  EXPECT_EQ(counters.counter("engine.fired"), r.engine_events);
  EXPECT_LE(counters.counter("engine.fired"),
            counters.counter("engine.scheduled"));

  // The snapshot travels on the result document too.
  EXPECT_FALSE(r.telemetry.empty());
  bool found = false;
  for (const auto& c : r.telemetry.counters) {
    if (c.name == "sched.completed") {
      found = true;
      EXPECT_EQ(c.value, t.completed);
    }
  }
  EXPECT_TRUE(found);
}

// The queue-depth gauge must be republished on every dequeue — FCFS pops
// and backfill erases — not just on enqueue. The old enqueue-only update
// left the gauge frozen at the last submission's queue length forever.
TEST(Counters, QueueDepthGaugeDrainsOnDequeue) {
  SimulationConfig cfg;
  cfg.system.total_nodes = 2;
  cfg.policy = policy::PolicyKind::Static;

  // Six whole-cluster jobs submitted back-to-back: the queue ramps to five
  // entries, then drains one job at a time as each predecessor completes.
  trace::Workload jobs;
  for (std::uint32_t i = 1; i <= 6; ++i) {
    trace::JobSpec j;
    j.id = JobId{i};
    j.submit_time = static_cast<Seconds>(i);
    j.num_nodes = 2;
    j.requested_mem = 8 * kGiB;
    j.duration = 100.0;
    j.walltime = 200.0;
    j.usage = trace::UsageTrace::constant(8 * kGiB);
    jobs.push_back(j);
  }

  obs::Counters counters;
  Simulator sim(cfg, jobs, nullptr, nullptr, &counters);
  const SimulationResult r = sim.run();
  ASSERT_TRUE(r.valid);
  const obs::Gauge& g = counters.gauge("sched.queue_depth");
  EXPECT_GE(g.high_water, 4);
  EXPECT_EQ(g.value, 0);  // drained queue must read empty, not the last peak
}

// Without a registry or sink the result document carries no counters.
TEST(Counters, AbsentWhenNotWired) {
  SimulationConfig cfg;
  cfg.system.total_nodes = 4;
  cfg.policy = policy::PolicyKind::Baseline;
  Simulator sim(cfg, oom_prone_workload(), nullptr);
  const SimulationResult r = sim.run();
  EXPECT_TRUE(r.telemetry.empty());
  EXPECT_GT(r.engine_events, 0u);
}

}  // namespace
}  // namespace dmsim
