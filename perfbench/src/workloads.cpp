#include "workloads.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_common.hpp"
#include "harness/sweep.hpp"
#include "layers.hpp"
#include "probes.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "snapshot/image.hpp"
#include "workload/exa_grizzly.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using namespace dmsim;

namespace {

/// A run sets up at least kSetupRepeats times and for at least
/// kSetupMinSeconds, so a cheap set-up gets a median over more samples.
constexpr int kSetupRepeats = 5;
constexpr double kSetupMinSeconds = 2.0;
constexpr Seconds kDay = 86'400.0;
constexpr std::size_t kGridWorkers = 2;

// ---------------------------------------------------------------------------
// Metrics shared by every workload
// ---------------------------------------------------------------------------

/// End-to-end samples of one untraced run. On whatif_serve a "reply" is
/// one query reply and each is a latency sample. On the simulation
/// workloads a reply is one finished cell; every round repeats the same
/// cells, so a cell's latency sample is the median of its repetitions and
/// the tail across cells shows the slowest cells, not the host's bursts.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> wall_s;    ///< one sample per timed round
  std::vector<double> reply_ms;  ///< latency samples
  std::size_t replies = 0;
  double reply_span_s = 0.0;     ///< host time in which the replies arrived
  /// Read after a fixed amount of work (not at exit), so the figure does
  /// not grow with how many rounds fit in the run.
  double peak_rss_mib = 0.0;
  /// HostSampler probe times over the set-ups and timed rounds.
  std::vector<double> probe_ms;
};

/// Every timing is scaled to the reference host speed: multiplied by
/// kHostProbeReferenceMs over the mean probe time of the run's HostSampler.
/// The shared host slows all code together by up to 1.5x, for seconds to
/// minutes at a time, so unscaled medians follow the host more than the
/// code. The sampler probes beside the workload through its set-ups and
/// timed rounds, so its mean tracks the host over the same time. The probe
/// is benchmark code: a change to dmsim moves only the timings.
void emit_end_to_end(Report& report, const EndToEnd& e) {
  std::string rounds = "round walls (s):";
  for (const double w : e.wall_s) rounds += " " + std::to_string(w);
  report.notes.push_back(rounds);
  std::string probes = "host probes (ms):";
  for (const double p : e.probe_ms) probes += " " + std::to_string(p);
  report.notes.push_back(probes);
  const double probe = mean(e.probe_ms);
  const double scale = kHostProbeReferenceMs / probe;
  const double replies_per_s =
      static_cast<double>(e.replies) / e.reply_span_s;
  report.notes.push_back(
      "host probe mean " + std::to_string(probe) + " ms (n=" +
      std::to_string(e.probe_ms.size()) + "), reference " +
      std::to_string(kHostProbeReferenceMs) + " ms: timings scaled by " +
      std::to_string(scale) + "; unscaled setup_s " +
      std::to_string(median(e.setup_s)) + ", wall_s " +
      std::to_string(median(e.wall_s)) + ", reply_p50_ms " +
      std::to_string(median(e.reply_ms)) + ", reply_p99_ms " +
      std::to_string(percentile_rank(e.reply_ms, 99.0)) + ", replies_per_s " +
      std::to_string(replies_per_s));
  report.add("setup_s", median(e.setup_s) * scale, "s", e.setup_s.size());
  report.add("wall_s", median(e.wall_s) * scale, "s", e.wall_s.size());
  report.add("peak_rss_mib", e.peak_rss_mib, "MiB");
  report.add("reply_p50_ms", median(e.reply_ms) * scale, "ms",
             e.reply_ms.size());
  report.add("reply_p99_ms", percentile_rank(e.reply_ms, 99.0) * scale, "ms",
             e.reply_ms.size());
  report.add("replies_per_s", replies_per_s / scale, "1/s", e.replies);
}

/// Layer aggregates summed over traced cells.
struct LayerSums {
  double ops = 0.0;  ///< traced operations (weeks, grids, fork pairs)
  double events = 0.0;
  double run_ns = 0.0;
  double handler_ns = 0.0;
  double save_ns = 0.0;
  std::array<double, kEventTypes> n{};
  std::array<double, kEventTypes> busy_ns{};
  std::array<double, kEventTypes> try_start_in_ns{};
  double try_start_n = 0.0;
  double try_start_ns = 0.0;
  double grants = 0.0;
  double fcfs_starts = 0.0;
  double backfill_starts = 0.0;
  double requeues = 0.0;

  void add(const TracedCell& cell, const LayerTrace& trace) {
    events += static_cast<double>(cell.result.engine_events);
    run_ns += cell.run_seconds * 1e9;
    handler_ns += static_cast<double>(trace.handler_busy_ns());
    save_ns += cell.result.checkpoint.save_seconds * 1e9;
    for (std::size_t t = 0; t < kEventTypes; ++t) {
      const auto type = static_cast<sim::EventType>(t);
      n[t] += static_cast<double>(trace.event(type).n);
      busy_ns[t] += static_cast<double>(trace.event(type).busy_ns);
      try_start_in_ns[t] += static_cast<double>(trace.try_start_ns_in(type));
    }
    try_start_n += static_cast<double>(trace.try_starts().n);
    try_start_ns += static_cast<double>(trace.try_starts().busy_ns);
    grants += static_cast<double>(trace.grants());
    fcfs_starts += static_cast<double>(cell.result.totals.fcfs_starts);
    backfill_starts += static_cast<double>(cell.result.totals.backfill_starts);
    requeues += static_cast<double>(cell.result.totals.requeues);
  }
  [[nodiscard]] double count(sim::EventType t) const {
    return n[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] double busy(sim::EventType t) const {
    return busy_ns[static_cast<std::size_t>(t)];
  }
};

/// Every per-layer metric; fields a workload does not exercise stay 0.
struct LayerMetrics {
  LayerSums sums;
  double resize_cycle_ns = 0.0;
  SlowdownProbe slowdown;
  double snapshot_saves = 0.0;
  double snapshot_save_ms = 0.0;
  double snapshot_bytes = 0.0;
  double snapshot_open_ms = 0.0;
  double snapshot_materialize_us = 0.0;
  double serve_info_rtt_us = 0.0;
  double serve_overhead_ms = 0.0;
  double harness_fork_cell_ms = 0.0;
  double harness_sweep_busy_frac = 0.0;
  double workload_gen_s = 0.0;
  double trace_overhead = 0.0;  ///< traced wall / untraced wall
};

void emit_layers(Report& report, const LayerMetrics& m) {
  using sim::EventType;
  const LayerSums& s = m.sums;
  const double ops = std::max(s.ops, 1.0);
  const auto per_op_ms = [&](double ns) { return ns / ops / 1e6; };
  const double pass_ns = s.busy(EventType::SchedPass) -
                         s.try_start_in_ns[static_cast<std::size_t>(
                             EventType::SchedPass)];
  const double updates = s.count(EventType::MonitorUpdate);

  report.add("sim.events", s.events / ops, "count");
  report.add("sim.dispatch_self_ms",
             per_op_ms(s.run_ns - s.handler_ns - s.save_ns), "ms");
  report.add("sim.us_per_event",
             s.events > 0.0 ? s.run_ns / s.events / 1e3 : 0.0, "us");
  report.add("sched.pass.n", s.count(EventType::SchedPass) / ops, "count");
  report.add("sched.pass.self_ms", per_op_ms(pass_ns), "ms");
  report.add("sched.job_end.n", s.count(EventType::JobEnd) / ops, "count");
  report.add("sched.job_end.busy_ms", per_op_ms(s.busy(EventType::JobEnd)),
             "ms");
  report.add("sched.submit.n", s.count(EventType::JobSubmit) / ops, "count");
  report.add("sched.submit.busy_ms", per_op_ms(s.busy(EventType::JobSubmit)),
             "ms");
  report.add("sched.fcfs_starts", s.fcfs_starts / ops, "count");
  report.add("sched.backfill_starts", s.backfill_starts / ops, "count");
  report.add("sched.requeues", s.requeues / ops, "count");
  report.add("policy.try_start.n", s.try_start_n / ops, "count");
  report.add("policy.try_start.busy_ms", per_op_ms(s.try_start_ns), "ms");
  report.add("policy.grant_ratio",
             s.try_start_n > 0.0 ? s.grants / s.try_start_n : 0.0, "ratio");
  report.add("monitor.update.n", updates / ops, "count");
  report.add("monitor.update.busy_ms",
             per_op_ms(s.busy(EventType::MonitorUpdate)), "ms");
  report.add("monitor.update.mean_ns",
             updates > 0.0 ? s.busy(EventType::MonitorUpdate) / updates : 0.0,
             "ns");
  report.add("cluster.resize_cycle_ns", m.resize_cycle_ns, "ns");
  report.add("slowdown.refresh_incremental_us",
             m.slowdown.refresh_incremental_us, "us");
  report.add("slowdown.evaluate_full_us", m.slowdown.evaluate_full_us, "us");
  report.add("snapshot.saves", m.snapshot_saves, "count");
  report.add("snapshot.save_ms", m.snapshot_save_ms, "ms");
  report.add("snapshot.bytes", m.snapshot_bytes, "bytes");
  report.add("snapshot.open_ms", m.snapshot_open_ms, "ms");
  report.add("snapshot.materialize_us", m.snapshot_materialize_us, "us");
  report.add("serve.info_rtt_us", m.serve_info_rtt_us, "us");
  report.add("serve.overhead_ms", m.serve_overhead_ms, "ms");
  report.add("harness.fork_cell_ms", m.harness_fork_cell_ms, "ms");
  report.add("harness.sweep_busy_frac", m.harness_sweep_busy_frac, "ratio");
  report.add("workload.gen_s", m.workload_gen_s, "s");
  report.add("trace.overhead_ratio", m.trace_overhead, "ratio");
}

/// Time `once` (one complete set-up) repeatedly into `setup_s`, leaving the
/// inputs of the last repetition in place.
template <typename Fn>
void repeat_setup(std::vector<double>& setup_s, Fn&& once) {
  const Clock::time_point first = Clock::now();
  for (int r = 0; r < kSetupRepeats || seconds_since(first) < kSetupMinSeconds;
       ++r) {
    const Clock::time_point start = Clock::now();
    once();
    setup_s.push_back(seconds_since(start));
  }
}

/// Probes that take a fixed fixture: run on every workload's traced run.
void run_fixed_probes(LayerMetrics& m) {
  const cluster::ClusterConfig topology = exa_topology();
  m.resize_cycle_ns = resize_cycle_ns(topology);
  m.slowdown = slowdown_probe(topology);
}

/// The public audits every simulated cell must pass. `reference` is the
/// cell's expected cell_result_to_json (empty: this cell defines it).
bool check_cell(Report& report, const std::string& label,
                const harness::CellResult& r, const std::string& json,
                const std::string& reference) {
  if (!r.valid) {
    report.fail(label + ": cell is infeasible");
    return false;
  }
  if (r.summary.completed != r.summary.total_jobs) {
    report.fail(label + ": " + std::to_string(r.summary.completed) + " of " +
                std::to_string(r.summary.total_jobs) + " jobs completed");
    return false;
  }
  if (!reference.empty() && json != reference) {
    report.fail(label + ": output " + digest(json) + " differs from " +
                digest(reference));
    return false;
  }
  return true;
}

/// Check an output digest against its pin: the run's own digest `own` when
/// its seed is pinned, otherwise `anchor(seed)` — the workload re-run,
/// untimed, at the first pinned seed. The check counts as one operation.
template <typename Anchor>
void check_pinned(Report& report, const Options& opts, const std::string& own,
                  Anchor&& anchor) {
  if (opts.pinned.empty()) {
    report.notes.push_back("no pinned digests given: outputs are checked only "
                           "against each other");
    return;
  }
  auto pin = std::find_if(opts.pinned.begin(), opts.pinned.end(),
                          [&](const auto& p) { return p.first == opts.seed; });
  const bool own_seed = pin != opts.pinned.end();
  if (!own_seed) pin = opts.pinned.begin();
  const std::string got = own_seed ? own : anchor(pin->first);
  const std::string where = "seed " + std::to_string(pin->first) + " output " +
                            got + (own_seed ? "" : " (untimed re-run)");
  ++report.attempted;
  if (got == pin->second) {
    report.notes.push_back(where + " matches its pin");
  } else {
    ++report.failed;
    report.fail(where + " differs from its pin " + pin->second);
  }
}

/// Write the kept spans of a traced run to --trace-out (when given).
void write_trace_file(const Options& opts,
                      const std::vector<std::unique_ptr<LayerTrace>>& traces) {
  if (opts.trace_out.empty()) return;
  std::vector<const LayerTrace*> view;
  for (const auto& t : traces) view.push_back(t.get());
  if (!write_spans(opts.trace_out, view)) {
    throw std::runtime_error("cannot write " + opts.trace_out);
  }
}

/// Run fn(i) for i in [0, n) on `workers` threads; rethrows the first
/// failure after every thread has joined.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t workers, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto loop = [&] {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(loop);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

// ---------------------------------------------------------------------------
// exa_week_dynamic
// ---------------------------------------------------------------------------

struct ExaInputs {
  workload::ExaGrizzlyScale scale;
  harness::CellConfig cell;
};

ExaInputs make_exa(const Options& opts, double& gen_s) {
  ExaInputs in;
  workload::ExaGrizzlyConfig cfg;
  cfg.target_nodes = kExaNodes;
  cfg.base.seed = opts.seed;
  cfg.base.utilization_stddev = 0.0;
  const Clock::time_point start = Clock::now();
  in.scale = workload::exa_grizzly(cfg);
  gen_s = seconds_since(start);

  harness::SystemConfig& sys = in.cell.system;
  sys.total_nodes = kExaNodes;
  sys.pct_large_nodes =
      static_cast<double>(in.scale.large_nodes) / static_cast<double>(kExaNodes);
  sys.normal_capacity = cfg.normal_capacity;
  sys.large_capacity = cfg.large_capacity;
  sys.cores_per_node = cfg.base.cores_per_node;
  in.cell.policy = policy::PolicyKind::Dynamic;
  in.cell.label = "exa-20k/dynamic";
  in.cell.checkpoint =
      harness::CheckpointSpec{opts.work_dir + "/exa.snap", kDay, {}, false};
  // The cell's system must describe the generated topology exactly.
  const cluster::Cluster cluster(sys.to_cluster_config());
  const cluster::Cluster generated(in.scale.topology);
  if (cluster.node_count() != generated.node_count() ||
      cluster.total_capacity() != generated.total_capacity()) {
    throw std::runtime_error("exa_week_dynamic: cell topology mismatch");
  }
  return in;
}

/// The week's output digest at `seed`, from freshly generated inputs.
std::string exa_digest_at(const Options& opts, std::uint64_t seed) {
  Options at = opts;
  at.seed = seed;
  double gen_s = 0.0;
  const ExaInputs in = make_exa(at, gen_s);
  return digest(harness::cell_result_to_json(
      harness::run_cell(in.cell, in.scale.week_jobs, in.scale.apps)));
}

}  // namespace

Report exa_week_dynamic(const Options& opts) {
  Report report;
  EndToEnd e2e;
  std::optional<HostSampler> host;
  if (!opts.trace) host.emplace();
  std::vector<double> gen_s;
  ExaInputs in;
  repeat_setup(e2e.setup_s, [&] {
    in = ExaInputs{};
    double g = 0.0;
    in = make_exa(opts, g);
    gen_s.push_back(g);
  });
  const trace::Workload& jobs = in.scale.week_jobs;
  const slowdown::AppPool& apps = in.scale.apps;

  // One untraced week, checked against the first one; returns its wall.
  std::string reference;
  std::uint64_t saves = 0;
  const auto untraced_week = [&] {
    const Clock::time_point t0 = Clock::now();
    const harness::CellResult r = harness::run_cell(in.cell, jobs, apps);
    const double wall = seconds_since(t0);
    const std::string json = harness::cell_result_to_json(r);
    if (reference.empty()) reference = json;
    ++report.attempted;
    bool ok = check_cell(report, "week", r, json, reference);
    if (ok && r.checkpoint.saves == 0) {
      report.fail("week: no daily checkpoint was saved");
      ok = false;
    }
    if (!ok) ++report.failed;
    saves = r.checkpoint.saves;
    return wall;
  };

  // Untraced weeks: the end-to-end measurement, or the traced run's
  // reference output.
  const Clock::time_point start = Clock::now();
  do {
    const double wall = untraced_week();
    if (e2e.wall_s.empty()) e2e.peak_rss_mib = peak_rss_mib();
    e2e.wall_s.push_back(wall);
    ++e2e.replies;
    e2e.reply_span_s += wall;
  } while (!opts.trace &&
           seconds_since(start) + e2e.wall_s.back() < opts.seconds);
  if (host) e2e.probe_ms = host->stop();
  report.notes.push_back("week output digest " + digest(reference) + ", " +
                         std::to_string(jobs.size()) + " jobs, " +
                         std::to_string(saves) + " checkpoints");
  check_pinned(report, opts, digest(reference), [&](std::uint64_t seed) {
    return exa_digest_at(opts, seed);
  });
  if (!opts.trace) {
    e2e.reply_ms.push_back(median(e2e.wall_s) * 1e3);
    emit_end_to_end(report, e2e);
    return report;
  }

  LayerMetrics m;
  m.workload_gen_s = median(gen_s);
  const std::uint64_t failed_before = report.failed;
  std::vector<std::unique_ptr<LayerTrace>> traces;
  std::vector<double> traced_walls;
  harness::CellConfig cell = in.cell;
  cell.checkpoint->path = opts.work_dir + "/exa-traced.snap";
  const Clock::time_point traced_start = Clock::now();
  do {
    // Untraced and traced weeks alternate, so the overhead ratio compares
    // runs made under the same host load.
    e2e.wall_s.push_back(untraced_week());
    // Spans are kept for the first traced week only.
    auto trace = std::make_unique<LayerTrace>(
        traces.empty() ? LayerTrace::kMaxSpans : 0);
    const Clock::time_point t0 = Clock::now();
    const TracedCell tc = run_traced_cell(cell, jobs, apps, *trace);
    traced_walls.push_back(seconds_since(t0));
    ++report.attempted;
    const std::string json = harness::cell_result_to_json(tc.result);
    bool ok = check_cell(report, "traced week", tc.result, json, reference);
    if (ok && !tc.slowdowns_fresh) {
      report.fail("traced week: slowdowns stale after drain");
      ok = false;
    }
    if (!ok) ++report.failed;
    m.sums.add(tc, *trace);
    if (traces.empty()) traces.push_back(std::move(trace));
    m.sums.ops += 1.0;
    m.snapshot_saves += static_cast<double>(tc.result.checkpoint.saves);
    m.snapshot_save_ms += tc.result.checkpoint.save_seconds * 1e3;
    m.snapshot_bytes += static_cast<double>(tc.result.checkpoint.bytes_written);
  } while (seconds_since(traced_start) + e2e.wall_s.back() +
               traced_walls.back() <
           opts.seconds);
  m.snapshot_saves /= m.sums.ops;
  m.snapshot_save_ms /= m.sums.ops;
  m.snapshot_bytes /= m.sums.ops;
  m.trace_overhead = median(traced_walls) / median(e2e.wall_s);
  report.notes.push_back("traced weeks byte-identical to untraced: " +
                         std::string(report.failed == failed_before ? "yes" : "NO"));

  // Guard: the workload exists to stress the Monitor path.
  const double monitor = m.sums.busy(sim::EventType::MonitorUpdate);
  for (std::size_t t = 0; t < kEventTypes; ++t) {
    if (m.sums.busy_ns[t] > monitor) {
      report.fail(std::string("MonitorUpdate is not the largest handler share (") +
                  LayerTrace::span_name(static_cast<std::uint32_t>(t)) +
                  " is larger)");
    }
  }
  run_fixed_probes(m);
  emit_layers(report, m);
  write_trace_file(opts, traces);
  return report;
}

// ---------------------------------------------------------------------------
// cirne_grid_static
// ---------------------------------------------------------------------------

namespace {

constexpr int kGridNodes = 1024;
constexpr std::size_t kGridJobs = 1024;

struct GridInputs {
  std::vector<workload::SyntheticWorkload> mixes;
  std::vector<harness::CellConfig> cells;
  std::vector<std::size_t> cell_mix;  ///< index into mixes per cell
};

GridInputs make_grid(const Options& opts, double& gen_s) {
  GridInputs in;
  const Clock::time_point start = Clock::now();
  // Four independent workloads per mix: a grid's cost then averages over
  // eight draws of the heavy-tailed CIRNE job sizes. With two per mix, the
  // median cell moved by 0.21 (IQR over median) from seed to seed.
  for (const double pct_large : {0.25, 0.50}) {
    for (const std::uint64_t draw : {0ULL, 1ULL, 2ULL, 3ULL}) {
      workload::SyntheticWorkloadConfig cfg;
      cfg.cirne.num_jobs = kGridJobs;
      cfg.cirne.system_nodes = kGridNodes;
      cfg.cirne.max_job_nodes = 128;
      cfg.cirne.target_load = 0.85;
      cfg.pct_large_jobs = pct_large;
      cfg.overestimation = 0.6;
      cfg.seed = opts.seed ^ (draw * 0x9e3779b97f4a7c15ULL);
      in.mixes.push_back(workload::generate_synthetic(cfg));
    }
  }
  gen_s = seconds_since(start);
  // Every figure-ladder point, Static only: Baseline cells are infeasible
  // at these mixes.
  for (std::size_t mix = 0; mix < in.mixes.size(); ++mix) {
    for (const harness::SystemConfig& sys : bench::figure_ladder(kGridNodes)) {
      harness::CellConfig cell;
      cell.system = sys;
      cell.policy = policy::PolicyKind::Static;
      cell.label = "workload" + std::to_string(mix) + "/mem" +
                   std::to_string(static_cast<int>(
                       sys.memory_fraction() * 100.0 + 0.5)) +
                   "/static";
      (void)cell.system.to_cluster_config();  // component construction
      in.cells.push_back(std::move(cell));
      in.cell_mix.push_back(mix);
    }
  }
  return in;
}

/// One grid on a fresh SweepRunner; returns its wall seconds.
double run_grid(const GridInputs& in, harness::SweepRunner& runner) {
  for (std::size_t i = 0; i < in.cells.size(); ++i) {
    const workload::SyntheticWorkload& w = in.mixes[in.cell_mix[i]];
    (void)runner.add(in.cells[i], w.jobs, w.apps);
  }
  const Clock::time_point t0 = Clock::now();
  runner.run_all();
  return seconds_since(t0);
}

/// A grid's output digest: the digest of its cells' digests, in order.
std::string grid_digest(const std::vector<std::string>& cell_jsons) {
  std::string digests;
  for (const std::string& json : cell_jsons) digests += digest(json);
  return digest(digests);
}

/// The grid's output digest at `seed`, from freshly generated inputs.
std::string grid_digest_at(const Options& opts, std::uint64_t seed) {
  Options at = opts;
  at.seed = seed;
  double gen_s = 0.0;
  const GridInputs in = make_grid(at, gen_s);
  harness::SweepRunner runner(kGridWorkers);
  (void)run_grid(in, runner);
  std::vector<std::string> jsons;
  for (std::size_t i = 0; i < in.cells.size(); ++i) {
    jsons.push_back(harness::cell_result_to_json(runner.result(i).cell));
  }
  return grid_digest(jsons);
}

}  // namespace

Report cirne_grid_static(const Options& opts) {
  Report report;
  EndToEnd e2e;
  std::optional<HostSampler> host;
  if (!opts.trace) host.emplace();
  std::vector<double> gen_s;
  GridInputs in;
  repeat_setup(e2e.setup_s, [&] {
    in = GridInputs{};
    double g = 0.0;
    in = make_grid(opts, g);
    gen_s.push_back(g);
  });
  const std::size_t n = in.cells.size();

  // One untraced grid, each cell checked against the first grid's;
  // returns its wall.
  std::vector<std::string> reference(n);
  std::vector<std::vector<double>> cell_ms(n);
  std::vector<double> busy_fracs;
  const auto untraced_grid = [&] {
    harness::SweepRunner runner(kGridWorkers);
    const double wall = run_grid(in, runner);
    double cell_walls = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const harness::SweepCellResult& r = runner.result(i);
      const std::string json = harness::cell_result_to_json(r.cell);
      if (reference[i].empty()) reference[i] = json;
      ++report.attempted;
      if (!check_cell(report, in.cells[i].label, r.cell, json, reference[i])) {
        ++report.failed;
      }
      cell_ms[i].push_back(r.wall_seconds * 1e3);
      cell_walls += r.wall_seconds;
    }
    busy_fracs.push_back(cell_walls /
                         (static_cast<double>(kGridWorkers) * wall));
    return wall;
  };

  const Clock::time_point start = Clock::now();
  do {
    const double wall = untraced_grid();
    if (e2e.wall_s.empty()) e2e.peak_rss_mib = peak_rss_mib();
    e2e.wall_s.push_back(wall);
    e2e.replies += n;
    e2e.reply_span_s += wall;
  } while (!opts.trace &&
           seconds_since(start) + e2e.wall_s.back() < opts.seconds);
  if (host) e2e.probe_ms = host->stop();
  const std::string out_digest = grid_digest(reference);
  report.notes.push_back("grid output digest " + out_digest + " over " +
                         std::to_string(n) + " cells");
  check_pinned(report, opts, out_digest, [&](std::uint64_t seed) {
    return grid_digest_at(opts, seed);
  });
  if (!opts.trace) {
    for (std::vector<double>& ms : cell_ms) e2e.reply_ms.push_back(median(ms));
    emit_end_to_end(report, e2e);
    return report;
  }

  LayerMetrics m;
  m.workload_gen_s = median(gen_s);
  const std::uint64_t failed_before = report.failed;
  std::vector<std::unique_ptr<LayerTrace>> traces;
  std::vector<double> traced_walls;
  const Clock::time_point traced_start = Clock::now();
  do {
    // Untraced and traced grids alternate, so the overhead ratio compares
    // runs made under the same host load.
    e2e.wall_s.push_back(untraced_grid());
    // Spans are kept for the first traced grid only.
    const bool keep = traces.empty();
    std::vector<std::unique_ptr<LayerTrace>> round(n);
    for (auto& t : round) {
      t = std::make_unique<LayerTrace>(keep ? LayerTrace::kMaxSpans / n : 0);
    }
    std::vector<TracedCell> out(n);
    const Clock::time_point t0 = Clock::now();
    parallel_for(n, kGridWorkers, [&](std::size_t i) {
      const workload::SyntheticWorkload& w = in.mixes[in.cell_mix[i]];
      out[i] = run_traced_cell(in.cells[i], w.jobs, w.apps, *round[i]);
    });
    traced_walls.push_back(seconds_since(t0));
    for (std::size_t i = 0; i < n; ++i) {
      ++report.attempted;
      const std::string json = harness::cell_result_to_json(out[i].result);
      bool ok = check_cell(report, "traced " + in.cells[i].label,
                           out[i].result, json, reference[i]);
      if (ok && !out[i].slowdowns_fresh) {
        report.fail("traced " + in.cells[i].label + ": slowdowns stale");
        ok = false;
      }
      if (!ok) ++report.failed;
      m.sums.add(out[i], *round[i]);
    }
    if (keep) traces = std::move(round);
    m.sums.ops += 1.0;
  } while (seconds_since(traced_start) + e2e.wall_s.back() +
               traced_walls.back() <
           opts.seconds);
  m.trace_overhead = median(traced_walls) / median(e2e.wall_s);
  m.harness_sweep_busy_frac = median(busy_fracs);
  report.notes.push_back("traced grid byte-identical to SweepRunner: " +
                         std::string(report.failed == failed_before ? "yes" : "NO"));

  // Guard: a Static grid must never reach the Monitor path.
  if (m.sums.count(sim::EventType::MonitorUpdate) != 0.0) {
    report.fail("monitor.update.n is not 0 on a Static grid");
  }
  run_fixed_probes(m);
  emit_layers(report, m);
  write_trace_file(opts, traces);
  return report;
}

// ---------------------------------------------------------------------------
// whatif_serve
// ---------------------------------------------------------------------------

namespace {

constexpr int kServeNodes = 384;
constexpr std::size_t kServeJobs = 1536;
constexpr std::size_t kServeThreads = 2;
constexpr std::size_t kMixSize = 64;  ///< queries per pass of the mix
constexpr std::uint32_t kExtraJobIds = 1'000'000;
/// The served scenario is deployment configuration, not traffic: it is the
/// same for every --seed, which draws the query traffic instead. (Scenarios
/// drawn per seed made early-image forks 1.4-fold cheaper on some seeds,
/// which swamped every serve metric.)
constexpr std::uint64_t kScenarioSeed = 42;

struct ServeInputs {
  workload::SyntheticWorkload w;
  harness::CellConfig base;
  std::string early_path;
  std::string late_path;
  snapshot::Stats saves;
  std::unique_ptr<serve::Server> server;  ///< destroyed before `w`
};

serve::ServeScenario scenario_of(const ServeInputs& in) {
  serve::ServeScenario s;
  s.system = in.base.system;
  s.policy = in.base.policy;
  s.sched = in.base.sched;
  s.jobs = in.w.jobs;
  s.apps = &in.w.apps;
  s.snapshot_path = in.late_path;
  return s;
}

/// The serve scenario's simulation components, built the way run_cell
/// builds them, with the base workload submitted.
struct ScenarioSim {
  cluster::Cluster cluster;
  std::unique_ptr<policy::AllocationPolicy> policy;
  sim::Engine engine;
  sched::Scheduler scheduler;

  explicit ScenarioSim(const ServeInputs& in)
      : cluster(in.base.system.to_cluster_config()),
        policy(policy::make_policy(in.base.policy)),
        scheduler(engine, cluster, *policy, &in.w.apps, in.base.sched) {
    scheduler.submit_workload(in.w.jobs);
  }
  [[nodiscard]] snapshot::Components view() {
    return snapshot::Components{&engine, &cluster, &scheduler, nullptr};
  }
};

/// Generate the base scenario, cut its two warm images and start the
/// server with both images open.
void make_serve(const Options& opts, ServeInputs& in, double& gen_s) {
  workload::SyntheticWorkloadConfig cfg;
  cfg.cirne.num_jobs = kServeJobs;
  cfg.cirne.system_nodes = kServeNodes;
  cfg.cirne.max_job_nodes = 48;
  cfg.cirne.target_load = 0.85;
  cfg.pct_large_jobs = 0.25;
  cfg.overestimation = 0.4;
  cfg.seed = kScenarioSeed;
  const Clock::time_point start = Clock::now();
  in.w = workload::generate_synthetic(cfg);
  gen_s = seconds_since(start);

  const std::vector<harness::SystemConfig> ladder =
      bench::figure_ladder(kServeNodes);
  in.base.system = ladder[ladder.size() / 2];
  in.base.policy = policy::PolicyKind::Dynamic;
  const harness::CellResult base = harness::run_cell(in.base, in.w.jobs, in.w.apps);
  if (!base.valid) throw std::runtime_error("whatif_serve: base scenario is infeasible");
  const Seconds first = base.summary.first_submit;
  const Seconds makespan = base.summary.makespan();
  in.early_path = opts.work_dir + "/early.snap";
  in.late_path = opts.work_dir + "/late.snap";
  in.saves = snapshot::Stats{};
  {
    ScenarioSim saver(in);
    for (const auto& [path, cut] :
         {std::pair{in.early_path, first + makespan / 3.0},
          std::pair{in.late_path, first + 0.9 * makespan}}) {
      (void)saver.scheduler.run_ready(cut);
      snapshot::save_file(path, saver.view(), &in.saves);
    }
  }
  serve::ServerOptions options;
  options.threads = kServeThreads;
  in.server = std::make_unique<serve::Server>(scenario_of(in), options);
  (void)in.server->cache().get(in.early_path);
  (void)in.server->cache().get(in.late_path);
}

struct MixQuery {
  std::string line;
  bool early = false;
  bool info = false;
};

/// The query mix: three late-image queries for every early-image one, ops
/// cycling through baseline / submit / policy race / topology / sched swap /
/// info in a fixed order so every seed gets the same op shares; the seed
/// draws the submitted jobs and the topology edits.
std::vector<MixQuery> make_mix(std::uint64_t seed, const ServeInputs& in) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto pick = [&](std::uint64_t n) { return rng() % n; };
  std::vector<MixQuery> mix;
  for (std::size_t i = 0; i < kMixSize; ++i) {
    MixQuery q;
    q.early = i % 4 == 0;
    const std::string& path = q.early ? in.early_path : in.late_path;
    std::string line = "{\"id\":\"q" + std::to_string(i) +
                       "\",\"snapshot\":\"" + serve::json_escape(path) +
                       "\",";
    // Early queries sit at i = 0, 4, 8, ...: i / 4 cycles them through
    // every op; late queries cycle through i itself.
    switch ((q.early ? i / 4 : i) % 6) {
      case 0:
        line += "\"op\":\"baseline\"";
        break;
      case 1:
        line += "\"op\":\"submit\",\"jobs\":[{\"id\":" +
                std::to_string(kExtraJobIds + i) +
                ",\"num_nodes\":" + std::to_string(1 + pick(8)) +
                ",\"mem_mib\":" + std::to_string(1024 * (4 + pick(28))) +
                ",\"duration\":" + std::to_string(600 + pick(7200)) + "}]";
        break;
      case 2:
        line += "\"op\":\"policy\",\"policies\":[\"static\",\"dynamic\"]";
        break;
      case 3:
        line += "\"op\":\"topology\",\"add_nodes\":" +
                std::to_string(1 + pick(8)) + ",\"capacity_mib\":" +
                std::to_string(in.base.system.large_capacity);
        break;
      case 4:
        line += "\"op\":\"baseline\",\"sched\":{\"update_interval\":600}";
        break;
      default:
        line += "\"op\":\"info\"";
        q.info = true;
        break;
    }
    q.line = line + "}";
    mix.push_back(std::move(q));
  }
  return mix;
}

/// Replies of a 1-thread server answering `lines` serially: the golden
/// every timed reply must match byte-for-byte.
std::vector<std::string> make_golden(const ServeInputs& in,
                                     const std::vector<std::string>& lines) {
  serve::ServerOptions options;
  options.threads = 1;
  serve::Server golden(scenario_of(in), options);
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    out.push_back(golden.handle_line(line));
    if (out.back().find("\"status\":\"ok\"") == std::string::npos) {
      throw std::runtime_error("whatif_serve: golden query failed: " +
                               out.back());
    }
  }
  return out;
}

/// Digest of the golden replies to the query mix. Info replies name the
/// image paths, which lie under the per-run work directory; that prefix is
/// cut out so the digest is the same in every run.
std::string serve_digest(const std::vector<std::string>& golden,
                         const std::string& work_dir) {
  const std::string prefix = serve::json_escape(work_dir);
  std::string all;
  for (std::size_t q = 0; q < kMixSize; ++q) {
    std::string reply = golden[q];
    for (std::size_t at; (at = reply.find(prefix)) != std::string::npos;) {
      reply.erase(at, prefix.size());
    }
    all += reply;
  }
  return digest(all);
}

/// A blocking line-protocol client on one persistent loopback connection.
class Client {
 public:
  explicit Client(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("client: socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("client: connect failed");
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one query line and wait for its reply line (without the newline).
  std::string ask(const std::string& line) {
    const std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("client: send failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return reply;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("client: connection closed");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// Runs server.listen_and_serve on its own thread for the guard's lifetime;
/// the destructor shuts the server down and joins, on every path.
class Listener {
 public:
  explicit Listener(serve::Server& server)
      : server_(server), thread_([this] {
          try {
            server_.listen_and_serve(log_);
          } catch (...) {
            error_ = std::current_exception();
            failed_.store(true);
          }
        }) {}
  ~Listener() {
    server_.request_shutdown();
    thread_.join();
  }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The bound port, once listening; throws if the server failed to start.
  int wait_port() {
    const Clock::time_point start = Clock::now();
    while (server_.port() == 0) {
      if (failed_.load()) std::rethrow_exception(error_);
      if (seconds_since(start) > 10.0) {
        throw std::runtime_error("serve: listener did not start");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return server_.port();
  }

 private:
  serve::Server& server_;
  std::ostringstream log_;
  std::exception_ptr error_;
  std::atomic<bool> failed_{false};
  std::thread thread_;  // last: starts after the members it uses
};

struct ReplySample {
  double latency_ms = 0.0;
  double done_s = 0.0;  ///< since the loop started
  bool early = false;
  bool info = false;
};

/// The closed loop: one persistent connection walks the mix, sending each
/// query only after the previous reply has fully arrived, until `seconds`
/// elapse. `rss_mib` is the peak RSS once two passes of the mix have been
/// answered (0 if they never were): the server keeps every fork's result,
/// so RSS read at the end would grow with the replies served. One connection, not several: the server's dispatcher runs one
/// batch at a time, and whether a second client's query joins the running
/// batch or waits for it is decided by microseconds, which moved the median
/// reply 40-fold and throughput 2-fold from run to run.
std::vector<ReplySample> closed_loop(serve::Server& server,
                                     const std::vector<MixQuery>& mix,
                                     const std::vector<std::string>& golden,
                                     double seconds, Report& report,
                                     double& rss_mib) {
  Listener listener(server);
  Client client(listener.wait_port());
  std::vector<ReplySample> samples;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; seconds_since(start) < seconds; ++k) {
    const std::size_t q = k % mix.size();
    const Clock::time_point t0 = Clock::now();
    const std::string reply = client.ask(mix[q].line);
    const Clock::time_point t1 = Clock::now();
    if (reply != golden[q] && mismatches++ == 0) first_mismatch = mix[q].line;
    samples.push_back(ReplySample{
        std::chrono::duration<double, std::milli>(t1 - t0).count(),
        std::chrono::duration<double>(t1 - start).count(), mix[q].early,
        mix[q].info});
    if (samples.size() == 2 * mix.size()) rss_mib = peak_rss_mib();
  }
  report.attempted += samples.size();
  report.failed += mismatches;
  if (mismatches > 0) {
    report.fail(std::to_string(mismatches) +
                " replies differ from the golden, first for " + first_mismatch);
  }
  return samples;
}

}  // namespace

Report whatif_serve(const Options& opts) {
  Report report;
  EndToEnd e2e;
  std::optional<HostSampler> host;
  if (!opts.trace) host.emplace();
  std::vector<double> gen_s;
  ServeInputs in;
  repeat_setup(e2e.setup_s, [&] {
    in.server.reset();
    double g = 0.0;
    make_serve(opts, in, g);
    gen_s.push_back(g);
  });
  const std::vector<MixQuery> mix = make_mix(opts.seed, in);
  std::vector<std::string> lines;
  for (const MixQuery& q : mix) lines.push_back(q.line);
  // Probe queries for the traced run ride along in the golden.
  const std::string late_snapshot = serve::json_escape(in.late_path);
  const std::string info_line =
      "{\"op\":\"info\",\"snapshot\":\"" + late_snapshot + "\"}";
  const std::string late_line =
      "{\"op\":\"baseline\",\"snapshot\":\"" + late_snapshot + "\"}";
  lines.push_back(info_line);
  lines.push_back(late_line);
  const std::vector<std::string> golden = make_golden(in, lines);
  const std::string golden_digest = serve_digest(golden, opts.work_dir);
  report.notes.push_back("query mix of " + std::to_string(mix.size()) +
                         " queries, golden digest " + golden_digest);
  // A re-run is the golden of another seed's mix, from a 1-thread server.
  check_pinned(report, opts, golden_digest, [&](std::uint64_t seed) {
    std::vector<std::string> anchor_lines;
    for (const MixQuery& q : make_mix(seed, in)) anchor_lines.push_back(q.line);
    return serve_digest(make_golden(in, anchor_lines), opts.work_dir);
  });

  if (!opts.trace) {
    const std::vector<ReplySample> samples = closed_loop(
        *in.server, mix, golden, opts.seconds, report, e2e.peak_rss_mib);
    e2e.probe_ms = host->stop();
    std::size_t early = 0;
    std::size_t late = 0;
    e2e.replies = samples.size();
    for (const ReplySample& s : samples) {
      e2e.reply_ms.push_back(s.latency_ms);
      if (!s.info) (s.early ? early : late) += 1;
    }
    if (early == 0 || late == 0) {
      report.fail("early- and late-image replies were not both served");
    }
    report.notes.push_back(std::to_string(early) + " early-image, " +
                           std::to_string(late) + " late-image replies");
    // Latency quartiles per reply class.
    const auto class_line = [&](const char* name, auto&& member) {
      std::vector<double> v;
      for (const ReplySample& r : samples) {
        if (member(r)) v.push_back(r.latency_ms);
      }
      report.notes.push_back(
          std::string(name) + " replies: n=" + std::to_string(v.size()) +
          ", ms q25/q50/q75/q90 " + std::to_string(quantile(v, 0.25)) + " " +
          std::to_string(quantile(v, 0.5)) + " " +
          std::to_string(quantile(v, 0.75)) + " " +
          std::to_string(quantile(v, 0.9)));
    };
    class_line("info", [](const ReplySample& r) { return r.info; });
    class_line("late-image", [](const ReplySample& r) { return !r.info && !r.early; });
    class_line("early-image", [](const ReplySample& r) { return !r.info && r.early; });
    // One round = one pass through the mix, by completion order.
    double round_start = 0.0;
    for (std::size_t i = kMixSize; i <= samples.size(); i += kMixSize) {
      e2e.wall_s.push_back(samples[i - 1].done_s - round_start);
      round_start = samples[i - 1].done_s;
    }
    if (e2e.peak_rss_mib == 0.0) {
      report.fail("fewer replies than two passes of the query mix");
      e2e.peak_rss_mib = peak_rss_mib();
      if (e2e.wall_s.empty()) {
        e2e.wall_s.push_back(samples.empty() ? 0.0 : samples.back().done_s);
      }
    }
    e2e.reply_span_s = samples.empty() ? 0.0 : samples.back().done_s;
    emit_end_to_end(report, e2e);
    return report;
  }

  LayerMetrics m;
  m.workload_gen_s = median(gen_s);
  m.snapshot_saves = static_cast<double>(in.saves.saves);
  m.snapshot_save_ms = in.saves.save_seconds * 1e3;
  m.snapshot_bytes = static_cast<double>(in.saves.bytes_written);
  const std::uint64_t fp = in.server->base_fingerprint();
  const std::uint64_t failed_before = report.failed;

  std::vector<double> open_ms;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    (void)snapshot::Image::open(in.late_path);
    open_ms.push_back(seconds_since(t0) * 1e3);
  }
  m.snapshot_open_ms = median(open_ms);
  const std::shared_ptr<const snapshot::Image> early =
      snapshot::Image::open(in.early_path);
  const std::shared_ptr<const snapshot::Image> late =
      snapshot::Image::open(in.late_path);

  std::vector<double> materialize_us;
  for (int i = 0; i < 20; ++i) {
    ScenarioSim fresh(in);
    const Clock::time_point t0 = Clock::now();
    late->materialize_trusted(fresh.view(), fp);
    materialize_us.push_back(seconds_since(t0) * 1e6);
  }
  m.snapshot_materialize_us = median(materialize_us);

  const auto fork_of = [&](const std::shared_ptr<const snapshot::Image>& img) {
    harness::CellConfig cell = in.base;
    cell.restore_image = img;
    cell.trusted_fingerprint = fp;
    return cell;
  };
  // Traced forks of both images against run_cell's forks.
  std::vector<std::unique_ptr<LayerTrace>> traces;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  const Clock::time_point traced_start = Clock::now();
  do {
    for (const auto& img : {early, late}) {
      const harness::CellConfig cell = fork_of(img);
      Clock::time_point t0 = Clock::now();
      const harness::CellResult ref = harness::run_cell(cell, in.w.jobs, in.w.apps);
      untraced_s += seconds_since(t0);
      // Spans are kept for the first early/late pair only.
      auto trace = std::make_unique<LayerTrace>(
          traces.size() < 2 ? LayerTrace::kMaxSpans : 0);
      t0 = Clock::now();
      const TracedCell tc = run_traced_cell(cell, in.w.jobs, in.w.apps, *trace);
      traced_s += seconds_since(t0);
      ++report.attempted;
      bool ok = check_cell(report, img == early ? "traced early fork" : "traced late fork",
                           tc.result, harness::cell_result_to_json(tc.result),
                           harness::cell_result_to_json(ref));
      if (ok && !tc.slowdowns_fresh) {
        report.fail("traced fork: slowdowns stale after drain");
        ok = false;
      }
      if (!ok) ++report.failed;
      m.sums.add(tc, *trace);
      if (traces.size() < 2) traces.push_back(std::move(trace));
    }
    m.sums.ops += 1.0;
  } while (seconds_since(traced_start) < opts.seconds / 2.0);
  m.trace_overhead = traced_s / untraced_s;
  report.notes.push_back("traced forks byte-identical to run_cell: " +
                         std::string(report.failed == failed_before ? "yes" : "NO"));

  {
    Listener listener(*in.server);
    Client client(listener.wait_port());
    std::vector<double> info_us;
    std::vector<double> late_ms;
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t0 = Clock::now();
      const std::string reply = client.ask(info_line);
      info_us.push_back(seconds_since(t0) * 1e6);
      ++report.attempted;
      if (reply != golden[kMixSize]) {
        ++report.failed;
        report.fail("info reply differs from the golden");
      }
    }
    // Late-image replies interleaved with the same fork run directly, so
    // both see the same warm caches: the difference is the serve overhead.
    std::vector<double> fork_ms;
    for (int i = 0; i < 50; ++i) {
      Clock::time_point t0 = Clock::now();
      const std::string reply = client.ask(late_line);
      late_ms.push_back(seconds_since(t0) * 1e3);
      ++report.attempted;
      if (reply != golden[kMixSize + 1]) {
        ++report.failed;
        report.fail("late baseline reply differs from the golden");
      }
      t0 = Clock::now();
      (void)harness::run_cell(fork_of(late), in.w.jobs, in.w.apps);
      fork_ms.push_back(seconds_since(t0) * 1e3);
    }
    m.serve_info_rtt_us = median(info_us);
    m.harness_fork_cell_ms = median(fork_ms);
    m.serve_overhead_ms = median(late_ms) - m.harness_fork_cell_ms;
  }

  run_fixed_probes(m);
  emit_layers(report, m);
  write_trace_file(opts, traces);
  return report;
}

}  // namespace perfbench
