// Exascale trajectory bench: simulate one exa-Grizzly week at each requested
// node count and record the scaling evidence in BENCH_scale.json.
//
// The paper tops out at Grizzly scale (1490 nodes); the roadmap's north star
// is 100k-1M. Each --scale point gets:
//
//   * a simulated week on the scaled system (workload::exa_grizzly): the
//     Grizzly node mix and arrival process replicated to the target count,
//     run under the Dynamic policy through harness::SweepRunner;
//   * whole-ledger probe timings on a deterministically-busy cluster of that
//     size — the structure-of-arrays hostability scan (ns/node), and one
//     incremental slowdown refresh vs a full two-pass contention evaluation;
//   * wall time, events/s and process peak RSS for the week.
//
// stdout is the deterministic half (topology, workload and simulation
// metrics — byte-identical at any --threads); wall-clock quantities go only
// to the --json report. --enforce-floors turns the report into a gate: the
// column scan must stay within kScanCeilingNs ns/node at every scale, and
// the incremental refresh must beat the full evaluation >= 5x at >= 100k
// nodes. The default scales, grizzly and 10k, are the CI smoke configuration.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_common.hpp"
#include "core/dmsim.hpp"
#include "harness/sweep.hpp"
#include "workload/exa_grizzly.hpp"

namespace {

using namespace dmsim;

constexpr MiB kGiB = 1024;
// Column-scan budget: ~5x the ~0.6 ns/node median of the committed
// BENCH_scale.json runs (Release, 4-vCPU shared VM).
constexpr double kScanCeilingNs = 3.0;
constexpr double kRefreshFloor = 5.0;   // incremental vs full refresh
constexpr int kRefreshFloorNodes = 100'000;  // refresh floor applies from here

/// Process peak RSS in MiB (0 where getrusage is unavailable). ru_maxrss is
/// KiB on Linux, bytes on macOS.
[[nodiscard]] long peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / (1024 * 1024);
#else
  return usage.ru_maxrss / 1024;
#endif
#else
  return 0;
#endif
}

struct ScalePoint {
  std::string name;  ///< as given on the command line
  int nodes = 0;
};

struct Options {
  std::vector<ScalePoint> scales;
  std::size_t threads = 0;
  std::string json_path;
  bool enforce_floors = false;
  bool progress = false;
};

/// Node count of a --scale value: a named scale or an integer.
[[nodiscard]] int scale_nodes(const std::string& name) {
  if (name == "grizzly") return 1490;
  if (name == "10k") return 10'000;
  if (name == "100k") return 100'000;
  if (name == "1m" || name == "1M") return 1'000'000;
  return static_cast<int>(util::parse_integer(
      name, 1, std::numeric_limits<int>::max(), "--scale"));
}

[[nodiscard]] Options parse_options(int argc, char** argv) {
  Options opts;
  std::vector<std::string> names;
  util::FlagTable flags({"[options]"});
  flags
      .repeated("--scale", "S",
                "grizzly|10k|100k|1m|N, repeatable (default: grizzly, 10k)",
                names)
      .integer("--threads", "N",
               "sweep workers (0 = all cores); output identical at any N",
               0, util::kMaxThreads, opts.threads)
      .text("--json", "FILE", "write the BENCH_scale.json report",
            opts.json_path)
      .flag("--enforce-floors", "exit 1 when a probe misses its floor",
            opts.enforce_floors)
      .flag("--progress", "stream per-cell progress lines to stderr",
            opts.progress);
  flags.parse_or_exit(argc, argv, [&] {
    for (const std::string& name : names) {
      opts.scales.push_back({name, scale_nodes(name)});
    }
  });
  if (opts.scales.empty()) {
    opts.scales = {{"grizzly", 1490}, {"10k", 10'000}};
  }
  return opts;
}

/// Probe timings for one scale point. All wall-clock; JSON-only.
struct ProbeReport {
  double soa_scan_ns_per_node = 0.0;
  double refresh_incremental_us = 0.0;
  double refresh_full_us = 0.0;
  double refresh_speedup = 0.0;
};

/// A deterministically-busy cluster at the scaled topology: three of every
/// five nodes host a one-node job with varied local fill and every third
/// job borrows remote memory (the busy_sc_cluster layout from the micro
/// benches, generalized to any node count).
cluster::Cluster busy_cluster(const cluster::ClusterConfig& topology,
                              std::vector<std::uint32_t>* running_out) {
  cluster::Cluster c(topology);
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

/// Run `op` until it has consumed >= min_seconds of wall clock (at least
/// once) and return the mean seconds per call.
template <typename Op>
[[nodiscard]] double time_loop(double min_seconds, Op&& op) {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  std::size_t iters = 0;
  double elapsed = 0.0;
  do {
    op();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_seconds);
  return elapsed / static_cast<double>(iters);
}

/// The hostability question every placement asks, over the whole ledger:
/// three column scans.
[[nodiscard]] std::size_t scan_soa(const cluster::Cluster& c, MiB need) {
  const std::span<const MiB> free = c.free_column();
  const std::span<const std::uint8_t> mem = c.memory_node_column();
  const std::span<const std::uint32_t> running = c.running_job_column();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < free.size(); ++i) {
    hits += static_cast<std::size_t>(running[i] == NodeId::kInvalid &&
                                     mem[i] == 0 && free[i] >= need);
  }
  return hits;
}

[[nodiscard]] ProbeReport run_probes(const cluster::ClusterConfig& topology) {
  ProbeReport out;
  std::vector<std::uint32_t> running;
  cluster::Cluster c = busy_cluster(topology, &running);
  const double n = static_cast<double>(c.node_count());
  const MiB need = 40 * kGiB;

  const double soa_s = time_loop(0.05, [&] {
    volatile std::size_t sink = scan_soa(c, need);
    (void)sink;
  });
  out.soa_scan_ns_per_node = soa_s * 1e9 / n;

  // Slowdown refresh after one borrow-edge perturbation: the dirty-set
  // incremental path vs a full two-pass evaluation of every running job.
  const slowdown::AppPool pool = slowdown::AppPool::synthetic(util::Rng(1), 32);
  const slowdown::ContentionModel model(&pool);
  slowdown::IncrementalSlowdowns inc(&model);
  const auto app_of = [](JobId id) { return static_cast<int>(id.get() % 32); };
  std::vector<slowdown::IncrementalSlowdowns::Update> updates;
  inc.refresh(c, running, app_of, updates);  // prime the pressure buffer
  c.clear_contention_dirty();
  const JobId victim{running.front()};  // node 0 hosts a borrower (0 % 3 == 0)
  const NodeId host = c.hosts_of(victim)[0];

  const double inc_s = time_loop(0.05, [&] {
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
  const double full_s = time_loop(0.05, [&] {
    (void)c.grow_remote(victim, host, kGiB);
    (void)c.shrink_remote(victim, host, kGiB);
    c.clear_contention_dirty();
    volatile std::size_t sink = model.evaluate(c, inputs).size();
    (void)sink;
  });
  out.refresh_incremental_us = inc_s * 1e6;
  out.refresh_full_us = full_s * 1e6;
  out.refresh_speedup = inc_s > 0.0 ? full_s / inc_s : 0.0;
  return out;
}

/// Everything recorded for one scale point.
struct ScaleReport {
  ScalePoint point;
  workload::ExaGrizzlyScale scale;  ///< topology + week (kept for the sweep)
  harness::CellResult cell;
  double wall_seconds = 0.0;
  long rss_mib = 0;  ///< process peak after this scale (cumulative max)
  ProbeReport probes;
};

void print_scale_block(std::ostream& os, const ScaleReport& r) {
  const workload::ExaGrizzlyScale& s = r.scale;
  const metrics::WorkloadSummary& sum = r.cell.summary;
  os << "## scale " << r.point.name << ": " << r.point.nodes << " nodes ("
     << s.normal_nodes << " normal x 64 GiB + " << s.large_nodes
     << " large x 128 GiB), " << s.replicas << " grizzly-week replica"
     << (s.replicas == 1 ? "" : "s") << "\n";
  os << std::fixed;
  os << "jobs: " << sum.total_jobs << " submitted, " << sum.completed
     << " completed, " << sum.infeasible << " infeasible, " << sum.abandoned
     << " abandoned\n";
  os << std::setprecision(1) << "makespan: " << sum.makespan()
     << " s   mean response: " << sum.response_time.mean()
     << " s   mean wait: " << sum.wait_time.mean() << " s\n";
  os << std::setprecision(4) << "throughput: " << sum.throughput
     << " jobs/s   oom events: " << sum.oom_events << "\n";
  os << std::setprecision(1) << "avg allocated: " << r.cell.avg_allocated_mib
     << " MiB   avg busy nodes: " << r.cell.avg_busy_nodes << "\n\n";
  os.unsetf(std::ios_base::floatfield);
  os << std::setprecision(6);
}

void write_report(const Options& opts, const std::vector<ScaleReport>& reports,
                  bool floors_pass) {
  metrics::JsonWriter w;
  w.begin_object();
  w.key("bench").value("scale_sweep");
  w.key("threads").value(static_cast<std::uint64_t>(opts.threads));
  w.key("scales").begin_array();
  for (const ScaleReport& r : reports) {
    w.begin_object();
    w.key("name").value(r.point.name);
    w.key("nodes").value(static_cast<std::uint64_t>(r.point.nodes));
    w.key("normal_nodes").value(static_cast<std::uint64_t>(r.scale.normal_nodes));
    w.key("large_nodes").value(static_cast<std::uint64_t>(r.scale.large_nodes));
    w.key("replicas").value(static_cast<std::uint64_t>(r.scale.replicas));
    w.key("week_jobs").value(static_cast<std::uint64_t>(r.scale.week_jobs.size()));
    w.key("completed").value(static_cast<std::uint64_t>(r.cell.summary.completed));
    w.key("sim_seconds").value(r.cell.summary.makespan());
    w.key("engine_events").value(r.cell.engine_events);
    w.key("wall_seconds").value(r.wall_seconds);
    w.key("events_per_second")
        .value(r.wall_seconds > 0.0
                   ? static_cast<double>(r.cell.engine_events) / r.wall_seconds
                   : 0.0);
    w.key("peak_rss_mib").value(static_cast<std::uint64_t>(
        r.rss_mib > 0 ? static_cast<std::uint64_t>(r.rss_mib) : 0));
    w.key("probes").begin_object();
    w.key("soa_scan_ns_per_node").value(r.probes.soa_scan_ns_per_node);
    w.key("refresh_incremental_us").value(r.probes.refresh_incremental_us);
    w.key("refresh_full_us").value(r.probes.refresh_full_us);
    w.key("refresh_speedup").value(r.probes.refresh_speedup);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("floors").begin_object();
  w.key("scan_ns_per_node_max").value(kScanCeilingNs);
  w.key("refresh_speedup_min").value(kRefreshFloor);
  w.key("refresh_floor_nodes").value(
      static_cast<std::uint64_t>(kRefreshFloorNodes));
  w.key("enforced").value(opts.enforce_floors);
  w.key("pass").value(floors_pass);
  w.end_object();
  w.end_object();

  std::ofstream out(opts.json_path);
  out << w.str() << '\n';
  if (!out) {
    std::cerr << "error: failed to write " << opts.json_path << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_options(argc, argv);

  std::cout << "# dmsim exascale trajectory: one exa-Grizzly week per scale\n"
            << "# sweep threads: "
            << (opts.threads == 0 ? std::string("auto")
                                  : std::to_string(opts.threads))
            << " (--threads N; output is identical at any setting)\n\n";

  // Generate every scale's system + week up front so the sweep can fan the
  // cells out together (the workloads are borrowed by the runner).
  std::vector<ScaleReport> reports;
  reports.reserve(opts.scales.size());
  for (const ScalePoint& point : opts.scales) {
    ScaleReport r;
    r.point = point;
    r.scale = workload::exa_grizzly(point.nodes);
    reports.push_back(std::move(r));
  }

  harness::SweepRunner sweep(opts.threads);
  if (opts.progress) sweep.set_progress(&std::cerr);
  std::vector<std::size_t> handles;
  for (ScaleReport& r : reports) {
    harness::CellConfig cell;
    cell.system.total_nodes = r.point.nodes;
    cell.system.pct_large_nodes = static_cast<double>(r.scale.large_nodes) /
                                  static_cast<double>(r.point.nodes);
    cell.system.normal_capacity = 64 * kGiB;
    cell.system.large_capacity = 128 * kGiB;
    cell.system.cores_per_node = 36;  // Grizzly: 2x18-core Xeon E5-2695v4
    cell.policy = policy::PolicyKind::Dynamic;
    cell.label = "exa-" + r.point.name + "/dynamic";
    handles.push_back(sweep.add(std::move(cell), r.scale.week_jobs,
                                r.scale.apps));
  }
  sweep.run_all();
  bench::throughput_tally().merge(sweep.report());

  bool floors_pass = true;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    ScaleReport& r = reports[i];
    const harness::SweepCellResult& cell = sweep.result(handles[i]);
    r.cell = cell.cell;
    r.wall_seconds = cell.wall_seconds;
    print_scale_block(std::cout, r);

    // Ledger probes run serially after the sweep so they time an otherwise
    // quiet process.
    r.probes = run_probes(r.scale.topology);
    r.rss_mib = peak_rss_mib();
    std::cerr << "# " << r.point.name << " probes: soa "
              << r.probes.soa_scan_ns_per_node << " ns/node; refresh "
              << r.probes.refresh_incremental_us << " us vs full "
              << r.probes.refresh_full_us << " us ("
              << r.probes.refresh_speedup << "x)\n";

    if (r.probes.soa_scan_ns_per_node > kScanCeilingNs) floors_pass = false;
    if (r.point.nodes >= kRefreshFloorNodes &&
        r.probes.refresh_speedup < kRefreshFloor) {
      floors_pass = false;
    }
  }

  bench::print_throughput_tally(std::cout);
  if (!opts.json_path.empty()) write_report(opts, reports, floors_pass);

  if (opts.enforce_floors && !floors_pass) {
    std::cerr << "error: perf floors not met (scan <= " << kScanCeilingNs
              << " ns/node everywhere; refresh >= " << kRefreshFloor << "x at >= "
              << kRefreshFloorNodes << " nodes)\n";
    return 1;
  }
  return 0;
}
