// dmsim_run — command-line simulation driver (the Fig. 1b "sim_mgr" role).
//
// Runs one simulation from a slurm.conf-style configuration plus either a
// synthetic workload (workload keys in the config) or an SWF job trace with
// optional per-job usage traces. Prints a summary and can export per-job
// records, system samples, and generated traces.
//
//   dmsim_run --config cluster.conf
//   dmsim_run --config cluster.conf --swf jobs.swf --usage jobs.usage
//   dmsim_run --config cluster.conf --export-swf out.swf --export-usage out.usage
//   dmsim_run --config cluster.conf --jobs-csv records.csv --samples-csv util.csv
//   dmsim_run --config cluster.conf --trace run.ndjson --counters
//   dmsim_run --config cluster.conf --trace run.json --trace-format chrome
//   dmsim_run --config cluster.conf --checkpoint run.snap --checkpoint-every 3600
//   dmsim_run --config cluster.conf --restore run.snap --json resumed.json
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dmsim.hpp"
#include "harness/config_file.hpp"
#include "metrics/json_export.hpp"
#include "slowdown/profile_io.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/image.hpp"
#include "trace/swf_validate.hpp"
#include "trace/usage_io.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

// Build metadata injected by tools/CMakeLists.txt; the fallbacks keep the
// file compilable standalone.
#ifndef DMSIM_VERSION_STRING
#define DMSIM_VERSION_STRING "unknown"
#endif
#ifndef DMSIM_GIT_DESCRIBE
#define DMSIM_GIT_DESCRIBE "unknown"
#endif
#ifndef DMSIM_BUILD_TYPE
#define DMSIM_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dmsim;

struct Options {
  std::string config_path;
  std::optional<std::string> swf_path;
  std::optional<std::string> usage_path;
  std::optional<std::string> export_swf;
  std::optional<std::string> export_usage;
  std::optional<std::string> jobs_csv;
  std::optional<std::string> samples_csv;
  std::optional<std::string> json_out;
  std::optional<std::string> profiles_path;
  std::optional<std::string> export_profiles;
  std::optional<std::string> trace_path;
  std::string trace_format_name = "ndjson";
  obs::TraceFormat trace_format = obs::TraceFormat::Ndjson;
  std::size_t trace_flush_every = 0;
  std::optional<std::string> checkpoint_path;
  std::optional<Seconds> checkpoint_every;
  std::vector<Seconds> checkpoint_at;
  std::optional<std::string> restore_path;
  std::optional<std::string> snapshot_info;
  bool counters = false;
  bool version = false;
};

void print_version(std::ostream& os) {
  os << "dmsim_run " << DMSIM_VERSION_STRING << " (" << DMSIM_GIT_DESCRIBE
     << ", " << DMSIM_BUILD_TYPE << ")\n"
     << "compiler: " << __VERSION__ << '\n'
     << "snapshot format: v" << snapshot::kFormatVersion << " (reads v"
     << snapshot::kMinFormatVersion << "+)\n";
}

[[nodiscard]] Options parse_args(int argc, char** argv) {
  Options opt;
  util::FlagTable flags({"--config FILE [options]"});
  flags.text("--config", "FILE", "slurm.conf-style configuration (required)",
             opt.config_path)
      .text("--swf", "FILE",
            "read jobs from an SWF trace, not the workload keys",
            opt.swf_path)
      .text("--usage", "FILE", "per-job usage traces to attach to SWF jobs",
            opt.usage_path)
      .text("--export-swf", "FILE", "write the simulated workload as SWF",
            opt.export_swf)
      .text("--export-usage", "FILE", "write the per-job usage traces",
            opt.export_usage)
      .text("--jobs-csv", "FILE", "write per-job records (CSV)", opt.jobs_csv)
      .text("--samples-csv", "FILE", "write system utilization samples (CSV)",
            opt.samples_csv)
      .text("--json", "FILE", "write the full result document (JSON)",
            opt.json_out)
      .text("--profiles", "FILE",
            "application profiles for the slowdown model", opt.profiles_path)
      .text("--export-profiles", "FILE", "write the app pool used by this run",
            opt.export_profiles)
      .text("--trace", "FILE", "write a structured event trace of the run",
            opt.trace_path)
      .text("--trace-format", "FMT",
            "ndjson (default) or chrome (loads into Perfetto)",
            opt.trace_format_name)
      .integer("--trace-flush-every", "N",
               "flush the NDJSON trace every N events (0: on close)", 0,
               std::numeric_limits<std::int64_t>::max(), opt.trace_flush_every)
      .flag("--counters",
            "print counters and a self-profile after the summary",
            opt.counters)
      .text("--checkpoint", "FILE",
            "save simulation snapshots to FILE while running",
            opt.checkpoint_path)
      .real("--checkpoint-every", "N",
            "save a snapshot every N simulated seconds", opt.checkpoint_every)
      .repeated("--checkpoint-at", "T",
                "save a snapshot at simulated time T (repeatable)",
                opt.checkpoint_at)
      .text("--restore", "FILE",
            "resume from a --checkpoint snapshot (same inputs)",
            opt.restore_path)
      .text("--snapshot-info", "FILE",
            "validate a snapshot, print its metadata and exit",
            opt.snapshot_info)
      .flag("--version", "print build/version information", opt.version);
  flags.parse_or_exit(argc, argv, [&] {
    opt.trace_format = obs::parse_trace_format(opt.trace_format_name);
    if (opt.checkpoint_every && *opt.checkpoint_every <= 0.0) {
      throw ConfigError("--checkpoint-every must be positive");
    }
    for (const Seconds at : opt.checkpoint_at) {
      if (at <= 0.0) throw ConfigError("--checkpoint-at must be positive");
    }
    const bool cuts = opt.checkpoint_every || !opt.checkpoint_at.empty();
    if (cuts && !opt.checkpoint_path) {
      throw ConfigError("--checkpoint-every/--checkpoint-at need --checkpoint");
    }
    if (opt.checkpoint_path && !cuts) {
      throw ConfigError(
          "--checkpoint needs --checkpoint-every and/or --checkpoint-at");
    }
    if (!opt.version && !opt.snapshot_info && opt.config_path.empty()) {
      throw ConfigError("--config is required");
    }
  });
  return opt;
}

/// --snapshot-info: parse + validate the envelope (magic, version,
/// checksums, section table) without constructing any simulation state.
int print_snapshot_info(const std::string& path, std::ostream& os) {
  const std::shared_ptr<const snapshot::Image> image =
      snapshot::Image::open(path);
  const auto hex = [](std::uint64_t v) {
    char buf[17] = {};
    static constexpr char kHex[] = "0123456789abcdef";
    for (int i = 15; i >= 0; --i) {
      buf[i] = kHex[v & 0xf];
      v >>= 4;
    }
    return std::string(buf, 16);
  };
  util::TextTable table("snapshot " + path);
  table.set_header({"field", "value"});
  table.add_row({"format version", "v" + std::to_string(image->version())});
  table.add_row({"config fingerprint", hex(image->fingerprint())});
  table.add_row({"payload checksum", hex(image->payload_checksum())});
  table.add_row({"total bytes", std::to_string(image->size_bytes())});
  table.add_row({"payload bytes", std::to_string(image->payload().size())});
  table.add_row({"section table",
                 image->has_section_table() ? "yes" : "no (pre-TOC writer)"});
  table.print(os);
  if (image->has_section_table()) {
    util::TextTable sections("sections");
    sections.set_header({"name", "offset", "bytes", "checksum"});
    for (const auto& s : image->sections()) {
      sections.add_row({s.name, std::to_string(s.offset),
                        std::to_string(s.size), hex(s.checksum)});
    }
    sections.print(os);
  }
  return 0;
}

[[nodiscard]] const char* outcome_name(sched::JobOutcome outcome) {
  switch (outcome) {
    case sched::JobOutcome::Completed:
      return "completed";
    case sched::JobOutcome::AbandonedOom:
      return "abandoned_oom";
    case sched::JobOutcome::KilledWalltime:
      return "killed_walltime";
    case sched::JobOutcome::NeverStarted:
      return "never_started";
  }
  return "unknown";
}

void write_jobs_csv(const std::string& path,
                    const std::vector<sched::JobRecord>& records) {
  std::ofstream out(path);
  if (!out) throw ConfigError("cannot open " + path);
  out << "job,submit,first_start,end,nodes,requested_mib,peak_mib,"
         "oom_failures,guaranteed,infeasible,outcome,response,wait\n";
  for (const auto& r : records) {
    out << r.id.get() << ',' << r.submit_time << ',' << r.first_start << ','
        << r.end_time << ',' << r.num_nodes << ',' << r.requested_mem << ','
        << r.peak_usage << ',' << r.oom_failures << ',' << r.ran_guaranteed
        << ',' << r.infeasible << ',' << outcome_name(r.outcome) << ','
        << (r.outcome == sched::JobOutcome::Completed ? r.response_time() : -1.0)
        << ','
        << (r.first_start != kNoTime ? r.wait_time() : -1.0) << '\n';
  }
  out.flush();
  if (!out.good()) throw ConfigError("failed writing " + path);
}

void write_samples_csv(const std::string& path,
                       const std::vector<sched::SystemSample>& samples) {
  std::ofstream out(path);
  if (!out) throw ConfigError("cannot open " + path);
  out << "time,allocated_mib,used_mib,busy_nodes,pending_jobs\n";
  for (const auto& s : samples) {
    out << s.time << ',' << s.allocated << ',' << s.used << ',' << s.busy_nodes
        << ',' << s.pending_jobs << '\n';
  }
  out.flush();
  if (!out.good()) throw ConfigError("failed writing " + path);
}

int run(const Options& opt) {
  obs::Profiler prof;
  prof.begin_phase("config");
  harness::FileConfig cfg = harness::parse_config_file(opt.config_path);

  prof.begin_phase("workload");
  trace::Workload jobs;
  slowdown::AppPool apps;
  if (opt.swf_path) {
    const trace::SwfTrace swf = trace::read_swf_file(*opt.swf_path);
    const auto issues = trace::validate_swf(swf);
    constexpr std::size_t kMaxPrintedIssues = 20;
    const std::size_t printed = std::min(issues.size(), kMaxPrintedIssues);
    for (std::size_t i = 0; i < printed; ++i) {
      const auto& issue = issues[i];
      std::cerr << "swf warning (record " << issue.record_index
                << "): " << trace::to_string(issue.kind) << " — "
                << issue.message << '\n';
    }
    if (issues.size() > printed) {
      std::cerr << "… and " << issues.size() - printed << " more issues\n";
    }
    if (!trace::swf_simulatable(issues)) {
      throw ConfigError("SWF trace has blocking issues; fix them first");
    }
    jobs = trace::from_swf(swf, cfg.simulation.system.cores_per_node);
    if (opt.usage_path) {
      const auto traces = trace::read_usage_traces_file(*opt.usage_path);
      const std::size_t attached = trace::attach_usage_traces(jobs, traces);
      std::cout << "attached usage traces to " << attached << "/" << jobs.size()
                << " jobs\n";
    }
    // SWF carries no app profiles; match jobs against the supplied pool, or
    // a synthetic one for a contention-realistic default.
    apps = opt.profiles_path
               ? slowdown::read_app_pool_file(*opt.profiles_path)
               : slowdown::AppPool::synthetic(util::Rng(cfg.workload.seed), 64);
    for (auto& j : jobs) {
      j.app_profile = apps.match(j.num_nodes, j.duration);
    }
  } else if (cfg.has_workload) {
    auto generated = workload::generate_synthetic(cfg.workload);
    jobs = std::move(generated.jobs);
    apps = opt.profiles_path
               ? slowdown::read_app_pool_file(*opt.profiles_path)
               : std::move(generated.apps);
  } else {
    throw ConfigError(
        "no workload: pass --swf or add workload keys (Jobs=...) to the config");
  }

  prof.begin_phase("exports");
  if (opt.export_swf) {
    trace::write_swf_file(*opt.export_swf,
                          trace::to_swf(jobs, cfg.simulation.system.cores_per_node));
    std::cout << "wrote " << jobs.size() << " jobs to " << *opt.export_swf << '\n';
  }
  if (opt.export_usage) {
    trace::write_usage_traces_file(*opt.export_usage,
                                   trace::collect_usage_traces(jobs));
    std::cout << "wrote usage traces to " << *opt.export_usage << '\n';
  }
  if (opt.export_profiles) {
    slowdown::write_app_pool_file(*opt.export_profiles, apps);
    std::cout << "wrote " << apps.size() << " app profiles to "
              << *opt.export_profiles << '\n';
  }

  if (cfg.simulation.sched.sample_interval <= 0.0 && opt.samples_csv) {
    cfg.simulation.sched.sample_interval = 300.0;  // sensible default
  }

  std::unique_ptr<obs::TraceSink> sink;
  if (opt.trace_path) {
    sink = obs::make_file_sink(opt.trace_format, *opt.trace_path,
                               opt.trace_flush_every);
  }
  obs::Counters counters;

  prof.begin_phase("simulate");
  snapshot::Plan plan;
  if (opt.checkpoint_path) {
    plan.path = *opt.checkpoint_path;
    plan.every = opt.checkpoint_every.value_or(0.0);
    plan.cuts = opt.checkpoint_at;
  }
  std::unique_ptr<Simulator> sim;
  if (opt.restore_path) {
    sim = Simulator::restore_from(*opt.restore_path, cfg.simulation, jobs,
                                  &apps, sink.get(),
                                  opt.counters ? &counters : nullptr);
    std::cout << "restored snapshot " << *opt.restore_path << '\n';
  } else {
    sim = std::make_unique<Simulator>(cfg.simulation, jobs, &apps, sink.get(),
                                      opt.counters ? &counters : nullptr);
  }
  const SimulationResult result = plan.active() ? sim->run(plan) : sim->run();
  if (opt.checkpoint_path && sim->checkpoint_stats().saves > 0) {
    std::cout << "wrote " << sim->checkpoint_stats().saves
              << " snapshot(s) to " << *opt.checkpoint_path << '\n';
  }
  prof.begin_phase("write-results");

  if (sink) {
    sink->close();
    std::cout << "wrote event trace to " << *opt.trace_path << '\n';
  }

  util::TextTable table("dmsim_run summary");
  table.set_header({"metric", "value"});
  table.add_row({"policy", std::string(policy::to_string(cfg.simulation.policy))});
  table.add_row({"nodes", std::to_string(cfg.simulation.system.total_nodes)});
  table.add_row({"provisioned memory (GiB)",
                 util::fmt(to_gib(result.provisioned_memory), 0)});
  table.add_row({"system cost ($)", util::fmt(result.system_cost_usd, 0)});
  table.add_row({"jobs", std::to_string(jobs.size())});
  table.add_row({"valid", result.valid ? "yes" : "no (infeasible jobs)"});
  if (result.valid) {
    table.add_row({"completed", std::to_string(result.summary.completed)});
    table.add_row({"throughput (jobs/s)",
                   util::fmt_sci(result.summary.throughput, 4)});
    table.add_row({"throughput per dollar",
                   util::fmt_sci(result.summary.throughput /
                                     std::max(result.system_cost_usd, 1.0),
                                 4)});
    if (!result.summary.response_times.empty()) {
      const util::Ecdf ecdf(result.summary.response_times);
      table.add_row({"median response (s)", util::fmt(ecdf.quantile(0.5), 0)});
      table.add_row({"p90 response (s)", util::fmt(ecdf.quantile(0.9), 0)});
    }
    table.add_row({"mean wait (s)",
                   util::fmt(result.summary.wait_time.mean(), 0)});
    table.add_row({"oom events", std::to_string(result.totals.oom_events)});
    table.add_row({"oom job fraction",
                   util::fmt_pct(result.summary.oom_job_fraction(), 2)});
    table.add_row({"avg busy nodes", util::fmt(result.avg_busy_nodes, 1)});
    table.add_row(
        {"avg allocated (GiB)",
         util::fmt(to_gib(static_cast<MiB>(result.avg_allocated_mib)), 0)});
  }
  table.print(std::cout);

  if (opt.jobs_csv) {
    write_jobs_csv(*opt.jobs_csv, result.records);
    std::cout << "wrote per-job records to " << *opt.jobs_csv << '\n';
  }
  if (opt.samples_csv) {
    write_samples_csv(*opt.samples_csv, result.samples);
    std::cout << "wrote system samples to " << *opt.samples_csv << '\n';
  }
  if (opt.json_out) {
    std::ofstream out(*opt.json_out);
    if (!out) throw ConfigError("cannot open " + *opt.json_out);
    out << metrics::to_json(result) << '\n';
    out.flush();
    if (!out.good()) throw ConfigError("failed writing " + *opt.json_out);
    std::cout << "wrote JSON result to " << *opt.json_out << '\n';
  }
  prof.end_phase();

  if (opt.counters) {
    const obs::CountersSnapshot snap = counters.snapshot();
    util::TextTable ctable("counters");
    ctable.set_header({"counter", "value"});
    for (const auto& c : snap.counters) {
      ctable.add_row({c.name, std::to_string(c.value)});
    }
    for (const auto& g : snap.gauges) {
      ctable.add_row({g.name + " (high water)", std::to_string(g.high_water)});
    }
    // Checkpoint activity lives in its own registry: the sim registry is
    // embedded in the JSON document and must stay byte-identical between an
    // uninterrupted run and a restored one.
    const snapshot::Stats& ck = sim->checkpoint_stats();
    if (ck.saves > 0 || ck.restores > 0) {
      obs::Counters ck_registry;
      ck.publish(ck_registry);
      for (const auto& c : ck_registry.snapshot().counters) {
        ctable.add_row({c.name, std::to_string(c.value)});
      }
    }
    ctable.print(std::cout);

    util::TextTable ptable("self-profile");
    ptable.set_header({"phase", "wall (s)"});
    for (const auto& phase : prof.phases()) {
      ptable.add_row({phase.name, util::fmt(phase.wall_seconds, 3)});
    }
    ptable.add_row({"total", util::fmt(prof.total_seconds(), 3)});
    ptable.print(std::cout);

    const obs::ThroughputReport throughput{
        result.engine_events, result.summary.makespan(),
        prof.phase_seconds("simulate")};
    obs::print_throughput(std::cout, throughput);
  }
  return result.valid ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    if (opt.version) {
      print_version(std::cout);
      return 0;
    }
    if (opt.snapshot_info) {
      return print_snapshot_info(*opt.snapshot_info, std::cout);
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "dmsim_run: " << e.what() << '\n';
    return 1;
  }
}
