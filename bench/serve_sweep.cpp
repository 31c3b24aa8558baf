// Serve sweep: the cost model behind the what-if serving daemon.
//
// The two-level snapshot model (immutable snapshot::Image + per-fork
// overlays) exists so a serve loop can answer many queries against one warm
// image without re-reading or re-validating bytes. This bench pins that
// economics down:
//
//   BM_RestoreFromFile — snapshot::restore_file per query: file read, byte
//                        copy, checksum sweep, full config-fingerprint
//                        recompute (topology + entire workload), decode.
//   BM_ForkFromImage   — Image::materialize_trusted per query: decode plus
//                        one 64-bit fingerprint compare; the image was
//                        opened and validated once.
//
// The fork path must be at least 5x faster (kForkSpeedupFloor); CI runs
// with --enforce-floors so a regression that sneaks validation or copies
// back into the per-fork path fails the build. A what-if fan-out (submit /
// policy / topology overlays racing over a SweepRunner from the shared
// image) exercises the full serve path and its determinism: the results
// table is byte-identical at any --threads setting.
//
// --json FILE writes BENCH_serve.json (timings, speedup, floors, fan-out).
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "snapshot/image.hpp"

namespace {

using namespace dmsim;

constexpr double kForkSpeedupFloor = 5.0;
constexpr int kTimingIterations = 30;

[[nodiscard]] double mean_ms(const std::vector<double>& ms) {
  if (ms.empty()) return 0.0;
  return std::accumulate(ms.begin(), ms.end(), 0.0) /
         static_cast<double>(ms.size());
}

}  // namespace

int main(int argc, char** argv) {
  dmsim::bench::Options opts;
  bool enforce_floors = false;
  std::string snapshot_path = "BENCH_serve.snap";
  dmsim::util::FlagTable flags = dmsim::bench::flag_table(opts);
  flags
      .flag("--enforce-floors", "exit 1 unless forks beat file restores 5x",
            enforce_floors)
      .text("--snapshot", "FILE", "warm image path (default BENCH_serve.snap)",
            snapshot_path);
  dmsim::bench::parse_options(flags, opts, argc, argv);
  dmsim::bench::print_scale_banner(
      opts, "serve sweep — fork-from-image vs file restore");

  dmsim::bench::WorkloadCache cache(opts.scale);
  const auto& w = cache.get(0.25, 0.4);

  const auto ladder = dmsim::bench::figure_ladder(opts.scale.synth_nodes);
  const harness::SystemConfig sys = ladder[ladder.size() / 2];
  const sched::SchedulerConfig sched;
  constexpr policy::PolicyKind kPolicy = policy::PolicyKind::Dynamic;

  // Phase 1: baseline run (for the makespan), then re-run with a snapshot
  // cut at one third of it — the warm image every fork starts from.
  harness::CellConfig base;
  base.system = sys;
  base.policy = kPolicy;
  base.sched = sched;
  const harness::CellResult baseline = harness::run_cell(base, w.jobs, w.apps);
  if (!baseline.valid) {
    std::cerr << "error: baseline scenario is infeasible\n";
    return 1;
  }
  const Seconds cut = baseline.summary.makespan() / 3.0;
  harness::CellConfig saver = base;
  saver.checkpoint = harness::CheckpointSpec{snapshot_path, 0.0, {cut}, false};
  const harness::CellResult saved = harness::run_cell(saver, w.jobs, w.apps);
  if (!saved.valid || saved.checkpoint.saves == 0) {
    std::cerr << "error: snapshot save run failed\n";
    return 1;
  }

  // Phase 2: the two restore paths, timed over fresh components each
  // iteration (construction excluded — both paths start identically).
  const auto open_start = std::chrono::steady_clock::now();
  const std::shared_ptr<const snapshot::Image> image =
      snapshot::Image::open(snapshot_path);
  const double open_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - open_start)
                             .count();
  const std::uint64_t base_fp = image->fingerprint();

  std::vector<double> restore_ms;
  std::vector<double> fork_ms;
  for (int i = 0; i < kTimingIterations; ++i) {
    {
      harness::Cell fresh(base, w.jobs, &w.apps);
      const auto t0 = std::chrono::steady_clock::now();
      snapshot::restore_file(snapshot_path, fresh.components());
      restore_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    }
    {
      harness::Cell fresh(base, w.jobs, &w.apps);
      const auto t0 = std::chrono::steady_clock::now();
      image->materialize_trusted(fresh.components(), base_fp);
      fork_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
  }
  const double restore_mean = mean_ms(restore_ms);
  const double fork_mean = mean_ms(fork_ms);
  const double speedup = fork_mean > 0.0 ? restore_mean / fork_mean : 0.0;
  const bool floors_pass = speedup >= kForkSpeedupFloor;

  // Phase 3: what-if fan-out from the shared image — the serve daemon's
  // inner loop. Every cell holds the same Image pointer; overlays diverge.
  std::vector<harness::CellConfig> whatif;
  const auto forked = [&](const char* label) {
    harness::CellConfig cell = base;
    cell.restore_image = image;
    cell.trusted_fingerprint = base_fp;
    cell.label = label;
    return cell;
  };
  {
    harness::CellConfig cell = forked("baseline");
    whatif.push_back(cell);
  }
  for (const policy::PolicyKind kind :
       {policy::PolicyKind::Baseline, policy::PolicyKind::Static}) {
    harness::CellConfig cell = forked("policy-swap");
    harness::WhatIfOverlay overlay;
    overlay.policy = kind;
    cell.overlay = std::move(overlay);
    whatif.push_back(std::move(cell));
  }
  {
    harness::CellConfig cell = forked("submit");
    harness::WhatIfOverlay overlay;
    trace::JobSpec extra;
    extra.id = JobId{900'000};
    extra.submit_time = cut;
    extra.num_nodes = 4;
    extra.requested_mem = sys.normal_capacity / 2;
    extra.duration = 3600.0;
    extra.walltime = 7200.0;
    extra.usage = trace::UsageTrace::constant(sys.normal_capacity / 2);
    overlay.extra_jobs.push_back(std::move(extra));
    cell.overlay = std::move(overlay);
    whatif.push_back(std::move(cell));
  }
  {
    harness::CellConfig cell = forked("topology");
    harness::WhatIfOverlay overlay;
    cluster::NodeConfig node;
    node.capacity = sys.large_capacity;
    node.cores = sys.cores_per_node;
    node.large = true;
    overlay.extra_nodes.assign(8, node);
    cell.overlay = std::move(overlay);
    whatif.push_back(std::move(cell));
  }

  harness::SweepRunner runner(opts.threads);
  std::vector<std::size_t> handles;
  handles.reserve(whatif.size());
  for (const harness::CellConfig& cell : whatif) {
    handles.push_back(runner.add(cell, w.jobs, w.apps));
  }
  const auto fan_start = std::chrono::steady_clock::now();
  runner.run_all();
  const double fan_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - fan_start)
                                 .count();

  util::TextTable table("What-if fan-out from one warm image | mem=" +
                        dmsim::bench::mem_label(sys) + "%");
  table.set_header({"cell", "valid", "completed", "throughput", "provisioned GiB"});
  for (std::size_t i = 0; i < whatif.size(); ++i) {
    const harness::CellResult& r = runner.result(handles[i]).cell;
    table.add_row({whatif[i].label, r.valid ? "yes" : "no",
                   std::to_string(r.summary.completed),
                   util::fmt_sci(r.valid ? r.throughput() : 0.0, 4),
                   util::fmt(to_gib(r.provisioned_memory), 0)});
  }
  table.print(std::cout);
  // The fork-equals-resume contract: the unmodified fork must reproduce
  // the checkpointed save run exactly.
  const harness::CellResult& fork_base = runner.result(handles[0]).cell;
  if (fork_base.summary.completed != saved.summary.completed) {
    std::cerr << "error: forked baseline diverged from the resumed run\n";
    return 1;
  }

  std::cout << "# image open (once): " << util::fmt(open_ms, 3) << " ms\n"
            << "# restore_file mean: " << util::fmt(restore_mean, 3)
            << " ms | fork mean: " << util::fmt(fork_mean, 3)
            << " ms | speedup: " << util::fmt(speedup, 1) << "x (floor "
            << util::fmt(kForkSpeedupFloor, 1) << "x)\n";

  if (!opts.json_path.empty()) {
    metrics::JsonWriter jw;
    jw.begin_object();
    jw.key("bench").value("serve_sweep");
    jw.key("scale").value(opts.scale.full ? "full" : "reduced");
    jw.key("snapshot_bytes").value(static_cast<std::uint64_t>(image->size_bytes()));
    jw.key("sections").value(static_cast<std::uint64_t>(image->sections().size()));
    jw.key("image_open_ms").value(open_ms);
    jw.key("BM_RestoreFromFile_ms").value(restore_mean);
    jw.key("BM_ForkFromImage_ms").value(fork_mean);
    jw.key("fork_speedup").value(speedup);
    jw.key("floors").begin_object();
    jw.key("fork_speedup_min").value(kForkSpeedupFloor);
    jw.key("enforced").value(enforce_floors);
    jw.key("pass").value(floors_pass);
    jw.end_object();
    jw.key("whatif").begin_object();
    jw.key("cells").value(static_cast<std::uint64_t>(whatif.size()));
    jw.key("wall_seconds").value(fan_seconds);
    jw.key("threads").value(static_cast<std::uint64_t>(runner.threads()));
    jw.end_object();
    jw.end_object();
    std::ofstream out(opts.json_path);
    out << jw.str() << '\n';
    if (!out) {
      std::cerr << "error: failed to write " << opts.json_path << '\n';
      return 1;
    }
  }

  if (enforce_floors && !floors_pass) {
    std::cerr << "error: fork-from-image speedup " << util::fmt(speedup, 2)
              << "x below the " << util::fmt(kForkSpeedupFloor, 1)
              << "x floor\n";
    return 1;
  }
  return 0;
}
