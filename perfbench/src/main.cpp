// perfbench: dmsim's benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE] [--pinned SEED=HEX ...]
//
// Workloads: exa_week_dynamic, cirne_grid_static, whatif_serve. With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a traced run (and writes its spans to
// --trace-out). Human-readable lines come first; the last stdout line is
// the JSON result {"correct","attempted","failed","metrics"}. Exit status
// is 0 when a result was printed, 2 on bad arguments and 1 when the run
// could not complete.
//
// Each --pinned SEED=HEX gives the expected output digest of one seed. A
// run checks its own output when its seed is pinned, and otherwise re-runs
// the workload untimed at the first pinned seed and checks that.
#include <charconv>
#include <cmath>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload exa_week_dynamic|"
               "cirne_grid_static|whatif_serve --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE] [--pinned SEED=HEX ...]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else if (flag == "--pinned") {
        const std::size_t eq = value.find('=');
        if (eq == std::string::npos || eq + 1 == value.size()) {
          usage("--pinned takes SEED=HEX");
        }
        o.pinned.emplace_back(std::stoull(value.substr(0, eq)),
                              value.substr(eq + 1));
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty() || !have_seed || o.work_dir.empty()) {
    usage("--workload, --seed and --work-dir are required");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print(const Options& opts, Report& report) {
  for (const perfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) report.fail(m.name + " is not finite");
  }
  std::cout << "# perfbench " << opts.workload << " seed " << opts.seed
            << " trace " << opts.trace << " | build " << PERFBENCH_BUILD_TYPE
            << ", " << PERFBENCH_COMPILER << "\n";
  for (const std::string& note : report.notes) std::cout << "# " << note << "\n";
  for (const perfbench::Metric& m : report.metrics) {
    std::cout << m.name << " = " << number(m.value) << " " << m.unit;
    if (m.samples > 0) std::cout << " (n=" << m.samples << ")";
    std::cout << "\n";
  }
  std::cout << "# ops attempted " << report.attempted << ", failed "
            << report.failed << "\n";
  std::cout << "{\"correct\":" << (report.correct ? "true" : "false")
            << ",\"attempted\":" << report.attempted
            << ",\"failed\":" << report.failed << ",\"metrics\":{";
  bool first = true;
  for (const perfbench::Metric& m : report.metrics) {
    std::cout << (first ? "" : ",") << "\"" << m.name << "\":{\"value\":"
              << number(std::isfinite(m.value) ? m.value : 0.0)
              << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  try {
    Report report;
    if (opts.workload == "exa_week_dynamic") {
      report = perfbench::exa_week_dynamic(opts);
    } else if (opts.workload == "cirne_grid_static") {
      report = perfbench::cirne_grid_static(opts);
    } else if (opts.workload == "whatif_serve") {
      report = perfbench::whatif_serve(opts);
    } else {
      usage("unknown workload " + opts.workload);
    }
    if (report.attempted == 0) report.fail("no operation ran");
    print(opts, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return 0;
}
