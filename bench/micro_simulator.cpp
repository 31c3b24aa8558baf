// Google-benchmark micro-benchmarks for the simulator substrate: event
// engine, memory ledger, RDP compression, contention model and end-to-end
// small simulations. These bound the cost of the primitives the figure
// reproductions lean on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>

#include "core/dmsim.hpp"
#include "snapshot/image.hpp"
#include "workload/exa_grizzly.hpp"

namespace {

using namespace dmsim;

constexpr MiB kGiB = 1024;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      engine.schedule(static_cast<Seconds>(i % 97), [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(10000);

void BM_EngineCancelHeavy(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::EventId> ids;
    ids.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      ids.push_back(engine.schedule(static_cast<Seconds>(i), [] {}));
    }
    for (std::uint64_t i = 0; i < n; i += 2) engine.cancel(ids[i]);
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineCancelHeavy)->Arg(10000);

// The cancel/reschedule pattern that dominates the scheduler's hot path:
// every fired event cancels a previously-armed timer and re-arms a new one
// (walltime kills, monitor updates, backfill reservations all do this).
// The slot-slab engine resolves each cancel with two array indexations and
// no hashing, and recycles slots through the free list, so the working set
// stays at `window` slots no matter how many events churn through.
void BM_EngineCancelReschedule(benchmark::State& state) {
  const auto window = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kChurn = 64 * 1024;
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::EventId> armed(window);
    for (std::uint64_t i = 0; i < window; ++i) {
      armed[i] = engine.schedule(static_cast<Seconds>(i % 97) + 1.0, [] {});
    }
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < kChurn; ++i) {
      engine.schedule(static_cast<Seconds>(i % 89) * 1e-3,
                      [&fired] { ++fired; });
      const std::uint64_t victim = i % window;
      engine.cancel(armed[victim]);
      armed[victim] =
          engine.schedule(static_cast<Seconds>(i % 97) + 2.0, [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChurn));
}
BENCHMARK(BM_EngineCancelReschedule)->Arg(1024)->Arg(8192);

// Steady-state churn: a bounded pending set where each fired event schedules
// its successor — the engine equivalent of a running simulation that neither
// grows nor drains its queue. Exercises slot reuse + heap push/pop per event.
void BM_EngineSteadyChurn(benchmark::State& state) {
  const auto pending = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kTotal = 256 * 1024;
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    std::function<void()> chain = [&] {
      if (++fired + pending <= kTotal) {
        engine.schedule(engine.now() + 1.0 + (fired % 13), chain);
      }
    };
    for (std::uint64_t i = 0; i < pending; ++i) {
      engine.schedule(static_cast<Seconds>(i % 13), chain);
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTotal));
}
BENCHMARK(BM_EngineSteadyChurn)->Arg(256)->Arg(4096);

void BM_LedgerGrowShrinkRemote(benchmark::State& state) {
  cluster::Cluster c(
      cluster::make_cluster_config(static_cast<int>(state.range(0)), 64 * kGiB,
                                   0, 0));
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.grow_remote(job, NodeId{0}, 32 * kGiB));
    benchmark::DoNotOptimize(c.shrink_remote(job, NodeId{0}, 32 * kGiB));
  }
}
BENCHMARK(BM_LedgerGrowShrinkRemote)->Arg(128)->Arg(1024);

void BM_RdpCompression(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<trace::UsagePoint> pts;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(i) / n,
                   1000 + rng.uniform_int(0, 4000)});
  }
  const trace::UsageTrace t(std::move(pts));
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.compressed(100.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RdpCompression)->Arg(256)->Arg(2048);

void BM_ContentionEvaluate(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  cluster::Cluster c(
      cluster::make_cluster_config(jobs * 2, 64 * kGiB, 0, 0));
  const slowdown::AppPool pool =
      slowdown::AppPool::synthetic(util::Rng(1), 32);
  std::vector<slowdown::ContentionModel::JobInput> inputs;
  for (int i = 0; i < jobs; ++i) {
    const JobId job{static_cast<std::uint32_t>(i + 1)};
    c.assign_job(job, std::vector<NodeId>{NodeId{static_cast<std::uint32_t>(i)}});
    (void)c.grow_local(job, NodeId{static_cast<std::uint32_t>(i)}, 32 * kGiB);
    (void)c.grow_remote(job, NodeId{static_cast<std::uint32_t>(i)}, 16 * kGiB);
    inputs.push_back({job, i % 32});
  }
  const slowdown::ContentionModel model(&pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(c, inputs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * jobs);
}
BENCHMARK(BM_ContentionEvaluate)->Arg(64)->Arg(512);

void BM_UsageTraceMaxIn(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<trace::UsagePoint> pts;
  for (int i = 0; i < 64; ++i) {
    pts.push_back({i / 64.0, rng.uniform_int(100, 100000)});
  }
  const trace::UsageTrace t(std::move(pts));
  double p = 0.0;
  for (auto _ : state) {
    p += 0.001;
    if (p > 0.9) p = 0.0;
    benchmark::DoNotOptimize(t.max_in(p, p + 0.1));
  }
}
BENCHMARK(BM_UsageTraceMaxIn);

void BM_EndToEndSmallSimulation(benchmark::State& state) {
  workload::SyntheticWorkloadConfig cfg;
  cfg.cirne.num_jobs = 128;
  cfg.cirne.system_nodes = 64;
  cfg.cirne.max_job_nodes = 16;
  cfg.pct_large_jobs = 0.5;
  cfg.overestimation = 0.6;
  cfg.seed = 4;
  const auto w = workload::generate_synthetic(cfg);
  harness::SystemConfig sys;
  sys.total_nodes = 64;
  sys.pct_large_nodes = 0.25;
  for (auto _ : state) {
    harness::CellConfig cell;
    cell.system = sys;
    cell.policy = policy::PolicyKind::Dynamic;
    benchmark::DoNotOptimize(harness::run_cell(cell, w.jobs, w.apps));
  }
}
BENCHMARK(BM_EndToEndSmallSimulation)->Unit(benchmark::kMillisecond);

// Tracing overhead on the same end-to-end simulation, across the three
// instrumentation states: 0 = disabled (null TraceSink*, one branch per
// site — must stay within noise of the uninstrumented simulator),
// 1 = NullSink (adds event construction + virtual dispatch),
// 2 = NdjsonSink to an in-memory stream (adds serialization).
void BM_TracingOverhead(benchmark::State& state) {
  workload::SyntheticWorkloadConfig cfg;
  cfg.cirne.num_jobs = 128;
  cfg.cirne.system_nodes = 64;
  cfg.cirne.max_job_nodes = 16;
  cfg.pct_large_jobs = 0.5;
  cfg.overestimation = 0.6;
  cfg.seed = 4;
  const auto w = workload::generate_synthetic(cfg);
  harness::CellConfig cell;
  cell.system.total_nodes = 64;
  cell.system.pct_large_nodes = 0.25;
  cell.policy = policy::PolicyKind::Dynamic;

  const int mode = static_cast<int>(state.range(0));
  obs::NullSink null_sink;
  std::ostringstream buf;
  obs::NdjsonSink ndjson_sink(buf);
  for (auto _ : state) {
    obs::TraceSink* sink = nullptr;
    if (mode == 1) sink = &null_sink;
    if (mode == 2) {
      buf.str({});
      sink = &ndjson_sink;
    }
    benchmark::DoNotOptimize(harness::run_cell(cell, w.jobs, w.apps, sink));
  }
  state.SetLabel(mode == 0 ? "disabled" : mode == 1 ? "null-sink" : "ndjson");
}
BENCHMARK(BM_TracingOverhead)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Raw cost of one Histogram::record — the per-site price of distribution
// telemetry on hot paths (a countl_zero, four compares, two adds).
void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram h;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (auto _ : state) {
    // xorshift keeps values unpredictable so the bucket branch can't train.
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    h.record(static_cast<std::int64_t>(x >> 32));
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

// TimeSeries::record with monotone time: almost always folds into the
// current window (one compare), occasionally appends.
void BM_TimeSeriesRecord(benchmark::State& state) {
  obs::TimeSeries s(10.0);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.01;
    s.record(t, 1);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeSeriesRecord);

void BM_WorkloadGeneration(benchmark::State& state) {
  for (auto _ : state) {
    workload::SyntheticWorkloadConfig cfg;
    cfg.cirne.num_jobs = static_cast<std::size_t>(state.range(0));
    cfg.cirne.system_nodes = 256;
    cfg.cirne.max_job_nodes = 64;
    cfg.pct_large_jobs = 0.5;
    cfg.seed = 5;
    benchmark::DoNotOptimize(workload::generate_synthetic(cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WorkloadGeneration)->Arg(512)->Unit(benchmark::kMillisecond);

// The mid-run state the checkpoint benches below save and restore: a
// 64-node Dynamic cell over a 128-job synthetic workload.
[[nodiscard]] workload::SyntheticWorkload restore_bench_workload() {
  workload::SyntheticWorkloadConfig cfg;
  cfg.cirne.num_jobs = 128;
  cfg.cirne.system_nodes = 64;
  cfg.cirne.max_job_nodes = 16;
  cfg.pct_large_jobs = 0.5;
  cfg.overestimation = 0.6;
  cfg.seed = 4;
  return workload::generate_synthetic(cfg);
}

[[nodiscard]] harness::CellConfig restore_bench_cell() {
  harness::CellConfig cell;
  cell.system.total_nodes = 64;
  cell.system.pct_large_nodes = 0.25;
  cell.policy = policy::PolicyKind::Dynamic;
  cell.sched.sample_interval = 300.0;
  return cell;
}

// Checkpoint cost: serialize a mid-run simulation (engine + cluster +
// scheduler) to snapshot bytes and restore those bytes into a second,
// freshly-constructed simulation. Bounds the per-save overhead a
// --checkpoint-every run pays and the one-time cost of a resume.
void BM_CheckpointSaveRestore(benchmark::State& state) {
  const auto w = restore_bench_workload();
  // Advance the source simulation to a busy mid-point, and keep a fresh
  // restore target (components constructed, workload submitted, not run).
  harness::Cell source(restore_bench_cell(), w.jobs, &w.apps);
  harness::Cell target(restore_bench_cell(), w.jobs, &w.apps);
  (void)source.scheduler().run_ready(20000.0);
  const snapshot::Components src = source.components();
  const snapshot::Components dst = target.components();

  std::uint64_t bytes_total = 0;
  for (auto _ : state) {
    const std::string bytes = snapshot::save_bytes(src);
    snapshot::restore_bytes(bytes, dst);
    bytes_total += bytes.size();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes_total));
}
BENCHMARK(BM_CheckpointSaveRestore)->Unit(benchmark::kMicrosecond);

// The two restore paths of the two-level snapshot model, on the same
// mid-run state. BM_RestoreFromFile pays the serve-naive per-query cost:
// file read, checksum sweep, full config-fingerprint recompute, decode.
// BM_ForkFromImage is the serve fast path: the image was opened and
// validated once, each fork is a decode plus one 64-bit fingerprint
// compare. CI holds each to 5x its median in the latest
// BENCH_checkpoint.json step; serve_sweep --enforce-floors keeps the fork
// at least 5x cheaper than the file restore.
void BM_RestoreFromFile(benchmark::State& state) {
  const auto w = restore_bench_workload();
  harness::Cell source(restore_bench_cell(), w.jobs, &w.apps);
  harness::Cell target(restore_bench_cell(), w.jobs, &w.apps);
  (void)source.scheduler().run_ready(20000.0);
  const std::string path = "micro_restore.snap";
  snapshot::save_file(path, source.components());
  const snapshot::Components dst = target.components();
  for (auto _ : state) {
    snapshot::restore_file(path, dst);
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_RestoreFromFile)->Unit(benchmark::kMicrosecond);

void BM_ForkFromImage(benchmark::State& state) {
  const auto w = restore_bench_workload();
  harness::Cell source(restore_bench_cell(), w.jobs, &w.apps);
  harness::Cell target(restore_bench_cell(), w.jobs, &w.apps);
  (void)source.scheduler().run_ready(20000.0);
  const std::string path = "micro_fork.snap";
  snapshot::save_file(path, source.components());
  const std::shared_ptr<const snapshot::Image> image = snapshot::Image::open(path);
  const std::uint64_t fp = image->fingerprint();
  const snapshot::Components dst = target.components();
  for (auto _ : state) {
    image->materialize_trusted(dst, fp);
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_ForkFromImage)->Unit(benchmark::kMicrosecond);

// One daily checkpoint's serialization: save_bytes of an N-node
// exa-Grizzly week under Dynamic, stopped mid-week. The configuration
// fingerprint is computed once, as run_with_checkpoints does; the write and
// fsync of save_file are not timed.
void BM_SnapshotSave(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const workload::ExaGrizzlyScale scale = workload::exa_grizzly(nodes);
  harness::CellConfig cell;
  cell.system.total_nodes = nodes;
  cell.system.pct_large_nodes =
      static_cast<double>(scale.large_nodes) / static_cast<double>(nodes);
  cell.system.cores_per_node = workload::GrizzlyConfig{}.cores_per_node;
  cell.policy = policy::PolicyKind::Dynamic;
  harness::Cell rig(cell, scale.week_jobs, &scale.apps);
  (void)rig.scheduler().run_ready(3.5 * 86400.0);
  const snapshot::Components components = rig.components();
  const std::uint64_t fingerprint = snapshot::config_fingerprint(components);
  std::uint64_t bytes_total = 0;
  for (auto _ : state) {
    const std::string bytes = snapshot::save_bytes(components, fingerprint);
    bytes_total += bytes.size();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes_total));
}
BENCHMARK(BM_SnapshotSave)->Arg(20000)->Unit(benchmark::kMillisecond);

// --- Scheduler hot-path benches at paper scale (1490 nodes) ----------------
//
// The paper's sc cluster is 1490 nodes (1024 normal + 466 large). These pin
// the cost of the three operations the incremental cluster indexes rewrote:
// Static host selection (BM_TryStart), bringing slowdowns current after one
// ledger perturbation (BM_RefreshSlowdowns), and remote growth through the
// lender tree (BM_GrowRemote). BM_RefreshSlowdownsLegacy times the
// full two-pass model evaluation the incremental refresh replaced, so that
// speedup is measurable from a single run.

constexpr int kScNormal = 1024;
constexpr int kScLarge = 466;

// A 1490-node cluster (or `nodes` in the same normal/large mix) in steady
// state: three of every five nodes host a one-node job with varied local
// fill (spreading the free-memory levels the indexes have to order) and
// every third job borrows remote memory.
cluster::Cluster busy_sc_cluster(std::vector<std::uint32_t>* running_out,
                                 int nodes = kScNormal + kScLarge) {
  const int large = nodes * kScLarge / (kScNormal + kScLarge);
  cluster::Cluster c(cluster::make_cluster_config(nodes - large, 64 * kGiB,
                                                  large, 128 * kGiB));
  std::uint32_t id = 1;
  for (std::size_t i = 0; i < c.node_count(); ++i) {
    if (i % 5 >= 3) continue;  // leave 40% of nodes idle
    const JobId job{id++};
    const NodeId host{static_cast<std::uint32_t>(i)};
    c.assign_job(job, std::vector<NodeId>{host});
    (void)c.grow_local(job, host, (static_cast<MiB>(i % 48) + 4) * kGiB);
    if (i % 3 == 0) {
      (void)c.grow_remote(job, host, (static_cast<MiB>(i % 12) + 1) * kGiB);
    }
    if (running_out != nullptr) running_out->push_back(job.get());
  }
  return c;
}

trace::JobSpec sc_start_spec() {
  trace::JobSpec spec;
  spec.id = JobId{900000};
  spec.num_nodes = 8;
  spec.requested_mem = 80 * kGiB;  // only large nodes fit without borrowing
  return spec;
}

void BM_TryStart(benchmark::State& state) {
  cluster::Cluster c = busy_sc_cluster(nullptr);
  const auto policy = policy::make_policy(policy::PolicyKind::Static);
  const trace::JobSpec spec = sc_start_spec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->try_start(spec, c));
    c.finish_job(spec.id);
  }
}
BENCHMARK(BM_TryStart);

void BM_RefreshSlowdowns(benchmark::State& state) {
  std::vector<std::uint32_t> running;
  cluster::Cluster c = busy_sc_cluster(&running);
  const slowdown::AppPool pool = slowdown::AppPool::synthetic(util::Rng(1), 32);
  const slowdown::ContentionModel model(&pool);
  slowdown::IncrementalSlowdowns inc(&model);
  const auto app_of = [](JobId id) { return static_cast<int>(id.get() % 32); };
  std::vector<slowdown::IncrementalSlowdowns::Update> updates;
  inc.refresh(c, running, app_of, updates);  // prime the pressure buffer
  c.clear_contention_dirty();
  const JobId victim{running.front()};  // a borrower (node 0 -> i % 3 == 0)
  const NodeId host = c.hosts_of(victim)[0];
  for (auto _ : state) {
    // Steady state: one borrow edge moves, then slowdowns come current.
    (void)c.grow_remote(victim, host, kGiB);
    (void)c.shrink_remote(victim, host, kGiB);
    updates.clear();
    inc.refresh(c, running, app_of, updates);
    c.clear_contention_dirty();
    benchmark::DoNotOptimize(updates.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RefreshSlowdowns);

// The pre-index refresh: the same single-edge perturbation followed by a
// full two-pass evaluation of every running job.
void BM_RefreshSlowdownsLegacy(benchmark::State& state) {
  std::vector<std::uint32_t> running;
  cluster::Cluster c = busy_sc_cluster(&running);
  const slowdown::AppPool pool = slowdown::AppPool::synthetic(util::Rng(1), 32);
  const slowdown::ContentionModel model(&pool);
  std::vector<slowdown::ContentionModel::JobInput> inputs;
  for (const std::uint32_t id : running) {
    inputs.push_back({JobId{id}, static_cast<int>(id % 32)});
  }
  const JobId victim{running.front()};
  const NodeId host = c.hosts_of(victim)[0];
  for (auto _ : state) {
    (void)c.grow_remote(victim, host, kGiB);
    (void)c.shrink_remote(victim, host, kGiB);
    c.clear_contention_dirty();
    benchmark::DoNotOptimize(model.evaluate(c, inputs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RefreshSlowdownsLegacy);

// Whole-ledger hostability scan on the busy 1490-node cluster: three column
// reads per node, branch-free accumulate.
void BM_LedgerScanSoA(benchmark::State& state) {
  cluster::Cluster c = busy_sc_cluster(nullptr);
  const MiB need = 40 * kGiB;
  for (auto _ : state) {
    const auto free = c.free_column();
    const auto mem = c.memory_node_column();
    const auto running = c.running_job_column();
    std::size_t hits = 0;
    for (std::size_t i = 0; i < free.size(); ++i) {
      hits += static_cast<std::size_t>(running[i] == NodeId::kInvalid &&
                                       mem[i] == 0 && free[i] >= need);
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.node_count()));
}
BENCHMARK(BM_LedgerScanSoA);

// Full invariant audit of the busy cluster: a handful of linear passes over
// the columns plus one walk of each ordered index.
void BM_CheckInvariants(benchmark::State& state) {
  cluster::Cluster c = busy_sc_cluster(nullptr);
  for (auto _ : state) {
    c.check_invariants();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.node_count()));
}
BENCHMARK(BM_CheckInvariants);

// Remote growth on the busy cluster at 1490 and 100k nodes: every grow
// syncs the lender tree's stale leaves and reads lenders off its root.
void BM_GrowRemote(benchmark::State& state) {
  cluster::Cluster c =
      busy_sc_cluster(nullptr, static_cast<int>(state.range(0)));
  const JobId job{900001};
  const NodeId host{3};  // idle in the busy layout (3 % 5 == 3)
  c.assign_job(job, std::vector<NodeId>{host});
  (void)c.grow_local(job, host, 64 * kGiB);  // fill: growth must go remote
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.grow_remote(job, host, 64 * kGiB));
    benchmark::DoNotOptimize(c.shrink_remote(job, host, 64 * kGiB));
  }
}
BENCHMARK(BM_GrowRemote)->Arg(kScNormal + kScLarge)->Arg(100000);

// One staggered Monitor update at Grizzly scale: 48 Dynamic jobs of 30
// hosts each (~29 hosts per job, as in the exa-Grizzly weeks) fill 1440 of
// the 1490 nodes, and every timed iteration fires the next engine event —
// a MonitorUpdate in all but a handful of iterations per job lifetime.
// Arg 0 (memo hit): usage is flat, so after the first update every update
// re-reads the base demand the slots already hold and resize_job is
// skipped outright. Arg 1 (memo missed): usage is a sawtooth whose steps
// are half a window wide, so each update moves the base demand and
// resize_job walks the slot span, growing every slot a little per update
// and shrinking them all at each reset. Demand stays within local memory,
// as in the exa-Grizzly weeks, so the contention refresh stays cheap and
// the resize path dominates.
constexpr int kRigJobs = 48;
constexpr int kRigHostsPerJob = 30;
constexpr Seconds kRigInterval = 300.0;
constexpr int kRigWindows = 4000;  ///< updates per job lifetime

[[nodiscard]] std::unique_ptr<harness::Cell> monitor_update_rig(bool memo_hit) {
  trace::UsageTrace usage = trace::UsageTrace::constant(44 * kGiB);
  if (!memo_hit) {
    std::vector<trace::UsagePoint> points;
    const int steps = 2 * kRigWindows;
    for (int k = 0; k < steps; ++k) {
      points.push_back(trace::UsagePoint{
          static_cast<double>(k) / steps,
          40 * kGiB + static_cast<MiB>(k % 50) * 256});
    }
    usage = trace::UsageTrace(std::move(points));
  }
  trace::Workload jobs;
  for (std::uint32_t i = 1; i <= kRigJobs; ++i) {
    trace::JobSpec spec;
    spec.id = JobId{i};
    spec.num_nodes = kRigHostsPerJob;
    spec.requested_mem = 48 * kGiB;
    spec.duration = kRigInterval * kRigWindows;
    spec.walltime = 2.0 * spec.duration;
    spec.usage = usage;
    jobs.push_back(std::move(spec));
  }
  harness::CellConfig cell;  // the sc cluster: 1024 normal + 466 large nodes
  cell.system.total_nodes = kScNormal + kScLarge;
  cell.system.pct_large_nodes =
      static_cast<double>(kScLarge) / (kScNormal + kScLarge);
  cell.policy = policy::PolicyKind::Dynamic;
  cell.sched.update_interval = kRigInterval;
  auto rig = std::make_unique<harness::Cell>(cell, std::move(jobs), nullptr);
  (void)rig->scheduler().run_ready(0.0);  // submissions + the starting pass
  return rig;
}

void BM_MonitorUpdate(benchmark::State& state) {
  const bool memo_hit = state.range(0) == 0;
  auto rig = monitor_update_rig(memo_hit);
  for (auto _ : state) {
    if (rig->components().engine->empty()) {
      // Every job finished: rebuild off the clock.
      state.PauseTiming();
      rig = monitor_update_rig(memo_hit);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(rig->components().engine->step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(memo_hit ? "memo hit" : "memo missed");
}
BENCHMARK(BM_MonitorUpdate)->Arg(0)->Arg(1);

// One Monitor resize in isolation: a grow_local + shrink_local pair on a busy
// host of an N-node Cell's ledger (the sc mix of normal and large nodes).
// Three of every five nodes run a one-node job at a varied local fill, so
// the lender tree holds ~N distinct keys, and nothing is lent — the state
// of a Dynamic week at its utilization floor. The pair's cost is the
// ledger's own upkeep per resize; the hosts rotate so no cache stays warm
// on one node.
void BM_LocalResize(benchmark::State& state) {
  harness::CellConfig cell;
  cell.system.total_nodes = static_cast<int>(state.range(0));
  cell.system.pct_large_nodes =
      static_cast<double>(kScLarge) / (kScNormal + kScLarge);
  cell.policy = policy::PolicyKind::Dynamic;
  harness::Cell rig(cell, trace::Workload{}, nullptr);
  cluster::Cluster& c = rig.cluster();
  std::vector<std::pair<JobId, NodeId>> busy;
  for (std::uint32_t i = 0; i < c.node_count(); ++i) {
    if (i % 5 >= 3) continue;
    const JobId job{i + 1};
    const NodeId host{i};
    c.assign_job(job, std::vector<NodeId>{host});
    (void)c.grow_local(job, host, (static_cast<MiB>(i % 48) + 4) * kGiB);
    busy.emplace_back(job, host);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const auto [job, host] = busy[next];
    next = next + 1 == busy.size() ? 0 : next + 1;
    benchmark::DoNotOptimize(c.grow_local(job, host, kGiB));
    benchmark::DoNotOptimize(c.shrink_local(job, host, kGiB));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LocalResize)->Arg(kScNormal + kScLarge)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
