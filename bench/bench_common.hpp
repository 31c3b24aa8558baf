// Shared plumbing for the table/figure reproduction binaries.
//
// Every bench accepts the flags of bench::flag_table (--help lists them).
// --full runs at the paper's scale (1024-node synthetic system, 1490-node
// Grizzly system); the default reduced scale keeps the result *shapes* (who
// wins, by what factor, where crossovers sit), which is the reproduction
// target (see EXPERIMENTS.md).
//
// Cells run through bench::Runner, a thin deferred-execution wrapper over
// harness::SweepRunner: benches enqueue every cell up front (add), fan out
// once (run), then format tables from the in-order results (get).
#pragma once

#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/dmsim.hpp"
#include "metrics/json_export.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace dmsim::bench {

/// Process-wide simulator-throughput tally across every cell a bench runs,
/// including cells executed inside harness library drivers. Merges may come
/// from sweep worker threads, so the accumulator is mutex-guarded.
class ThroughputTally {
 public:
  void merge(const obs::ThroughputReport& report) {
    const std::lock_guard<std::mutex> lock(mutex_);
    report_.engine_events += report.engine_events;
    report_.sim_seconds += report.sim_seconds;
    report_.wall_seconds += report.wall_seconds;
  }

  [[nodiscard]] obs::ThroughputReport snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return report_;
  }

 private:
  mutable std::mutex mutex_;
  obs::ThroughputReport report_;
};

inline ThroughputTally& throughput_tally() {
  static ThroughputTally tally;
  return tally;
}

inline void print_throughput_tally(std::ostream& os = std::cout) {
  const obs::ThroughputReport tally = throughput_tally().snapshot();
  if (tally.engine_events == 0) return;
  os << "\n# simulator throughput: ";
  obs::print_throughput(os, tally);
}

struct Scale {
  bool full = false;
  int synth_nodes = 384;
  std::size_t synth_jobs = 768;
  int synth_max_job_nodes = 48;
  int grizzly_nodes = 256;
  int grizzly_max_job_nodes = 48;
  int grizzly_weeks = 16;
  std::uint64_t seed = 42;
};

struct Options {
  Scale scale;
  std::size_t threads = 0;  ///< sweep workers; 0 = hardware concurrency
  std::string json_path;    ///< --json FILE perf report (empty = none)
  bool progress = false;    ///< --progress: live per-cell lines on stderr
};

/// The flags every bench accepts, bound to `opts`. A bench with flags of
/// its own adds rows to the table before parse_options.
[[nodiscard]] inline util::FlagTable flag_table(Options& opts) {
  util::FlagTable flags({"[options]"});
  flags.flag("--full", "run at the paper's scale (default: reduced scale)",
             opts.scale.full)
      .integer("--threads", "N",
               "sweep workers (0 = all cores); output identical at any N",
               0, util::kMaxThreads, opts.threads)
      .text("--json", "FILE", "write the machine-readable perf report",
            opts.json_path)
      .flag("--progress", "stream per-cell progress lines to stderr",
            opts.progress);
  return flags;
}

/// Parse argv against `flags` (FlagTable::parse_or_exit: --help and flag
/// errors exit), then apply --full's paper scale.
inline void parse_options(util::FlagTable& flags, Options& opts, int argc,
                          char** argv) {
  flags.parse_or_exit(argc, argv);
  if (opts.scale.full) {
    opts.scale.synth_nodes = 1024;
    opts.scale.synth_jobs = 2048;
    opts.scale.synth_max_job_nodes = 128;
    opts.scale.grizzly_nodes = 1490;
    opts.scale.grizzly_max_job_nodes = 128;
    opts.scale.grizzly_weeks = 52;
  }
}

[[nodiscard]] inline Options parse_options(int argc, char** argv) {
  Options opts;
  util::FlagTable flags = flag_table(opts);
  parse_options(flags, opts, argc, argv);
  return opts;
}

/// Per-cell perf sample for the --json report.
struct CellPerf {
  std::string label;
  bool valid = false;
  std::uint64_t engine_events = 0;
  double wall_seconds = 0.0;
  double sim_seconds = 0.0;
};

/// Write the machine-readable perf report: per-cell samples plus the
/// process-wide tally (which also covers harness library sweeps). Returns
/// false (with a stderr note) if the file cannot be written.
inline bool write_json_report(const std::string& bench_name,
                              const Options& opts,
                              const std::vector<CellPerf>& cells) {
  metrics::JsonWriter w;
  w.begin_object();
  w.key("bench").value(bench_name);
  w.key("scale").value(opts.scale.full ? "full" : "reduced");
  w.key("threads").value(static_cast<std::uint64_t>(opts.threads));
  w.key("cells").begin_array();
  for (const CellPerf& cell : cells) {
    w.begin_object();
    w.key("label").value(cell.label);
    w.key("valid").value(cell.valid);
    w.key("engine_events").value(cell.engine_events);
    w.key("wall_seconds").value(cell.wall_seconds);
    w.key("sim_seconds").value(cell.sim_seconds);
    w.key("events_per_second")
        .value(cell.wall_seconds > 0.0
                   ? static_cast<double>(cell.engine_events) / cell.wall_seconds
                   : 0.0);
    w.key("sim_speedup")
        .value(cell.wall_seconds > 0.0 ? cell.sim_seconds / cell.wall_seconds
                                       : 0.0);
    w.end_object();
  }
  w.end_array();
  const obs::ThroughputReport tally = throughput_tally().snapshot();
  w.key("aggregate").begin_object();
  w.key("engine_events").value(tally.engine_events);
  w.key("wall_seconds").value(tally.wall_seconds);
  w.key("sim_seconds").value(tally.sim_seconds);
  w.key("events_per_second").value(tally.events_per_second());
  w.key("sim_speedup").value(tally.sim_seconds_per_wall_second());
  w.end_object();
  w.end_object();

  std::ofstream out(opts.json_path);
  out << w.str() << '\n';
  if (!out) {
    std::cerr << "error: failed to write perf report to " << opts.json_path
              << '\n';
    return false;
  }
  return true;
}

/// End-of-bench boilerplate: print the tally, write the --json report.
inline void finish_bench(const std::string& bench_name, const Options& opts,
                         const std::vector<CellPerf>& cells = {},
                         std::ostream& os = std::cout) {
  print_throughput_tally(os);
  if (!opts.json_path.empty()) (void)write_json_report(bench_name, opts, cells);
}

/// Generate (and memoize) the synthetic workload for a (mix, overestimation)
/// pair: one workload is shared by every system/policy cell in a column.
/// std::map nodes are stable, so references returned by get() survive later
/// insertions — cells enqueued on a Runner may borrow them freely.
class WorkloadCache {
 public:
  explicit WorkloadCache(const Scale& scale) : scale_(scale) {}

  const workload::SyntheticWorkload& get(double pct_large,
                                         double overestimation) {
    const auto key = std::make_pair(pct_large, overestimation);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      workload::SyntheticWorkloadConfig cfg;
      cfg.cirne.num_jobs = scale_.synth_jobs;
      cfg.cirne.system_nodes = scale_.synth_nodes;
      cfg.cirne.max_job_nodes = scale_.synth_max_job_nodes;
      cfg.cirne.target_load = 0.85;
      cfg.pct_large_jobs = pct_large;
      cfg.overestimation = overestimation;
      cfg.seed = scale_.seed;
      it = cache_.emplace(key, workload::generate_synthetic(cfg)).first;
    }
    return it->second;
  }

 private:
  Scale scale_;
  std::map<std::pair<double, double>, workload::SyntheticWorkload> cache_;
};

/// Deferred-execution cell runner for the bench binaries. Enqueue every
/// cell of the figure grid (add), execute the whole grid in one parallel
/// fan-out (run), then read results in submission order (get) while
/// formatting tables. finish() merges the sweep's throughput into the
/// process tally and emits the --json report.
class Runner {
 public:
  struct Handle {
    std::size_t index = static_cast<std::size_t>(-1);
    [[nodiscard]] bool valid() const noexcept {
      return index != static_cast<std::size_t>(-1);
    }
  };

  Runner(std::string bench_name, const Options& opts)
      : name_(std::move(bench_name)), opts_(opts), sweep_(opts.threads) {
    // Progress is stderr-only wall-clock telemetry; stdout (tables, JSON
    // reports) stays byte-deterministic.
    if (opts.progress) sweep_.set_progress(&std::cerr);
  }

  [[nodiscard]] Handle add(const harness::SystemConfig& system,
                           policy::PolicyKind kind,
                           const trace::Workload& jobs,
                           const slowdown::AppPool& apps, std::string label,
                           const sched::SchedulerConfig& sched = {}) {
    harness::CellConfig cell;
    cell.system = system;
    cell.policy = kind;
    cell.sched = sched;
    cell.label = label;
    labels_.push_back(std::move(label));
    return Handle{sweep_.add(std::move(cell), jobs, apps)};
  }

  /// Execute all cells enqueued so far (incremental across calls).
  void run() { sweep_.run_all(); }

  [[nodiscard]] const harness::CellResult& get(Handle handle) const {
    return sweep_.result(handle.index).cell;
  }

  /// Normalized throughput against `reference`, or 0 when invalid.
  [[nodiscard]] double normalized(Handle handle, double reference) const {
    const harness::CellResult& r = get(handle);
    if (!r.valid || reference <= 0.0) return 0.0;
    return r.throughput() / reference;
  }

  [[nodiscard]] const Options& options() const noexcept { return opts_; }

  void finish(std::ostream& os = std::cout) {
    throughput_tally().merge(sweep_.report());
    std::vector<CellPerf> cells;
    cells.reserve(sweep_.results().size());
    for (std::size_t i = 0; i < sweep_.results().size(); ++i) {
      const harness::SweepCellResult& r = sweep_.results()[i];
      CellPerf perf;
      perf.label = labels_[i];
      perf.valid = r.cell.valid;
      perf.engine_events = r.cell.engine_events;
      perf.wall_seconds = r.wall_seconds;
      perf.sim_seconds = r.cell.valid ? r.cell.summary.makespan() : 0.0;
      cells.push_back(std::move(perf));
    }
    finish_bench(name_, opts_, cells, os);
  }

 private:
  std::string name_;
  Options opts_;
  harness::SweepRunner sweep_;
  std::vector<std::string> labels_;
};

/// The memory ladder restricted to the points the paper's figures display
/// (>= ~37% of a fully-large system).
[[nodiscard]] inline std::vector<harness::SystemConfig> figure_ladder(
    int total_nodes) {
  std::vector<harness::SystemConfig> out;
  for (const auto& sys : harness::memory_ladder(total_nodes)) {
    if (sys.memory_fraction() >= 0.37) out.push_back(sys);
  }
  return out;
}

[[nodiscard]] inline std::string mem_label(const harness::SystemConfig& sys) {
  return std::to_string(
      static_cast<int>(sys.memory_fraction() * 100.0 + 0.5));
}

inline void print_scale_banner(const Options& opts, const char* what) {
  const Scale& scale = opts.scale;
  std::cout << "# dmsim reproduction: " << what << "\n"
            << "# scale: " << (scale.full ? "FULL (paper)" : "reduced")
            << " — synthetic " << scale.synth_nodes << " nodes / "
            << scale.synth_jobs << " jobs; grizzly " << scale.grizzly_nodes
            << " nodes (pass --full for paper scale)\n"
            << "# sweep threads: "
            << (opts.threads == 0 ? std::string("auto")
                                  : std::to_string(opts.threads))
            << " (--threads N; output is identical at any setting)\n\n";
}

}  // namespace dmsim::bench
