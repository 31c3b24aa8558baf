// dmsim_trace — offline analyzer for NDJSON event traces.
//
// Reads a trace produced by `dmsim_run --trace run.ndjson` and prints a
// deterministic report: event counts, wait/run latency percentiles built
// from the causal queue/run spans, queue-depth percentiles from sched_pass
// samples, and a per-job critical-path attribution (where did each job's
// response time go — queued, running, or lost to OOM restarts).
//
//   dmsim_trace run.ndjson
//   dmsim_trace run.ndjson --json          # machine-readable report
//   dmsim_trace run.ndjson --top 5        # longest-response jobs listed
//
// The report is byte-deterministic for a given trace: inputs are sorted,
// percentiles are exact (nearest-rank on the sorted sample vector), and all
// numbers are printed through fixed explicit formats.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/json.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace dmsim;

// ---------------------------------------------------------------------------
// Flat NDJSON line parsing
// ---------------------------------------------------------------------------

/// One parsed trace event. Field names mirror the NdjsonSink schema; any
/// extra integer fields land in `fields` (insertion order preserved).
struct TraceEvent {
  double t = 0.0;
  std::string ev;
  std::int64_t job = -1;
  std::int64_t node = -1;
  std::int64_t span = -1;
  std::int64_t parent = -1;
  std::string detail;
  std::vector<std::pair<std::string, std::int64_t>> fields;

  [[nodiscard]] std::optional<std::int64_t> field(std::string_view key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return v;
    }
    return std::nullopt;
  }
};

/// Read one line of the flat NDJSON schema the sinks emit. Unknown string
/// keys are ignored so the analyzer keeps working when newer sinks add
/// fields. Throws ServeError on malformed input, including any value that is
/// neither a number nor a string.
TraceEvent parse_event(std::string_view line) {
  const serve::JsonValue v = serve::json_parse(line);
  if (!v.is_object()) throw serve::ServeError("json: expected an object");
  TraceEvent e;
  e.t = v.num_or("t", 0.0);
  e.ev = v.str_or("ev", "");
  e.detail = v.str_or("detail", "");
  e.job = v.int_or("job", -1);
  e.node = v.int_or("node", -1);
  e.span = v.int_or("span", -1);
  e.parent = v.int_or("parent", -1);
  for (const auto& [key, value] : v.object) {
    if (value.kind == serve::JsonValue::Kind::String) continue;
    if (value.kind != serve::JsonValue::Kind::Number) {
      throw serve::ServeError("json: field '" + key +
                              "' is neither a number nor a string");
    }
    if (key != "t" && key != "job" && key != "node" && key != "span" &&
        key != "parent" && key != "when") {
      e.fields.emplace_back(key, v.int_or(key, 0));
    }
  }
  return e;
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Samples gathered while reading; seal() sorts them into an ECDF, whose
/// nearest-rank quantiles the report prints.
struct LatencyStats {
  std::vector<double> samples;
  util::Ecdf sorted;

  void add(double v) { samples.push_back(v); }
  void seal() { sorted = util::Ecdf(std::move(samples)); }
  [[nodiscard]] std::size_t count() const { return sorted.size(); }
  [[nodiscard]] double mean() const {
    const std::vector<double>& v = sorted.sorted();
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  }
  [[nodiscard]] double p(double q) const { return sorted.quantile(q); }
  [[nodiscard]] double max() const {
    return sorted.empty() ? 0.0 : sorted.sorted().back();
  }
};

/// Per-job attribution accumulated from the causal spans.
struct JobStats {
  double submit_time = -1.0;   ///< first job_submit
  double end_time = -1.0;      ///< last terminal event
  double queued_seconds = 0.0; ///< sum over all queue spans
  double run_seconds = 0.0;    ///< sum over all run spans
  double wasted_seconds = 0.0; ///< run time of incarnations that were killed
  std::int64_t requeues = 0;
  std::string outcome = "never_started";

  [[nodiscard]] double response() const {
    return (submit_time >= 0.0 && end_time >= 0.0) ? end_time - submit_time
                                                   : 0.0;
  }
  /// Span-covered share of the response time; <1.0 means the trace was cut
  /// (restore) or the job never finished.
  [[nodiscard]] double coverage() const {
    const double r = response();
    return r > 0.0 ? (queued_seconds + run_seconds) / r : 1.0;
  }
};

struct Report {
  std::map<std::string, std::uint64_t> event_counts;
  LatencyStats wait;           ///< queue-span durations (all incarnations)
  LatencyStats run;            ///< run-span durations (all incarnations)
  LatencyStats queue_depth;    ///< sched_pass pending samples
  std::map<std::int64_t, JobStats> jobs;
  std::uint64_t lines = 0;
  std::uint64_t skipped = 0;   ///< malformed lines (reported, not fatal)
  double t_min = 0.0;
  double t_max = 0.0;
};

bool is_terminal(std::string_view ev) {
  return ev == "job_complete" || ev == "job_oom_kill" ||
         ev == "job_walltime_kill";
}

void analyze_event(const TraceEvent& e, Report& r,
                   std::map<std::int64_t, double>& open_queue,
                   std::map<std::int64_t, double>& open_run) {
  ++r.event_counts[e.ev];
  if (r.lines == 1) {
    r.t_min = e.t;
    r.t_max = e.t;
  } else {
    r.t_min = std::min(r.t_min, e.t);
    r.t_max = std::max(r.t_max, e.t);
  }
  if (e.ev == "job_submit" || e.ev == "job_requeue") {
    if (e.span >= 0) open_queue[e.span] = e.t;
    if (e.job >= 0) {
      JobStats& j = r.jobs[e.job];
      if (e.ev == "job_submit") {
        j.submit_time = j.submit_time < 0.0 ? e.t : std::min(j.submit_time, e.t);
      } else {
        ++j.requeues;
      }
    }
  } else if (e.ev == "job_start" || e.ev == "backfill_start") {
    if (e.parent >= 0) {
      const auto it = open_queue.find(e.parent);
      if (it != open_queue.end()) {
        const double waited = e.t - it->second;
        r.wait.add(waited);
        if (e.job >= 0) r.jobs[e.job].queued_seconds += waited;
        open_queue.erase(it);
      }
    }
    const std::int64_t key = e.span >= 0 ? e.span : e.job;
    if (key >= 0) open_run[key] = e.t;
  } else if (is_terminal(e.ev)) {
    const std::int64_t key = e.span >= 0 ? e.span : e.job;
    const auto it = open_run.find(key);
    if (it != open_run.end()) {
      const double ran = e.t - it->second;
      r.run.add(ran);
      if (e.job >= 0) {
        JobStats& j = r.jobs[e.job];
        j.run_seconds += ran;
        if (e.ev != "job_complete") j.wasted_seconds += ran;
      }
      open_run.erase(it);
    }
    if (e.job >= 0) {
      JobStats& j = r.jobs[e.job];
      j.end_time = std::max(j.end_time, e.t);
      if (e.ev == "job_complete") {
        j.outcome = "completed";
      } else if (e.ev == "job_walltime_kill") {
        j.outcome = "killed_walltime";
      } else if (j.outcome != "completed") {
        j.outcome = "oom_killed";
      }
    }
  } else if (e.ev == "job_abandon") {
    if (e.job >= 0) {
      JobStats& j = r.jobs[e.job];
      j.outcome = "abandoned_oom";
      j.end_time = std::max(j.end_time, e.t);
    }
  } else if (e.ev == "sched_pass") {
    if (const auto pending = e.field("pending")) {
      r.queue_depth.add(static_cast<double>(*pending));
    }
  }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

using util::fmt;

/// Jobs by descending response time, ties by id (deterministic).
std::vector<std::pair<std::int64_t, const JobStats*>> slowest(
    const Report& r) {
  std::vector<std::pair<std::int64_t, const JobStats*>> order;
  order.reserve(r.jobs.size());
  for (const auto& [id, j] : r.jobs) order.emplace_back(id, &j);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.second->response() != b.second->response()) {
      return a.second->response() > b.second->response();
    }
    return a.first < b.first;
  });
  return order;
}

void print_latency_row(std::ostream& os, const char* label,
                       const LatencyStats& s) {
  os << "  " << label << ": n=" << s.count();
  if (s.count() > 0) {
    os << " mean=" << fmt(s.mean()) << " p50=" << fmt(s.p(0.50))
       << " p95=" << fmt(s.p(0.95)) << " p99=" << fmt(s.p(0.99))
       << " max=" << fmt(s.max());
  }
  os << '\n';
}

void print_text(std::ostream& os, const Report& r, std::size_t top) {
  os << "dmsim_trace report\n";
  os << "events: " << r.lines << " (skipped " << r.skipped << " malformed)\n";
  os << "sim time: [" << fmt(r.t_min) << ", " << fmt(r.t_max) << "]\n";
  os << "\nevent counts:\n";
  for (const auto& [name, count] : r.event_counts) {
    os << "  " << name << ": " << count << '\n';
  }
  os << "\nlatency (seconds):\n";
  print_latency_row(os, "wait", r.wait);
  print_latency_row(os, "run", r.run);
  os << "\nqueue depth (jobs):\n";
  print_latency_row(os, "pending", r.queue_depth);

  // Critical-path attribution: overall, then the slowest responders.
  double queued = 0.0;
  double running = 0.0;
  double wasted = 0.0;
  std::uint64_t requeues = 0;
  for (const auto& [id, j] : r.jobs) {
    queued += j.queued_seconds;
    running += j.run_seconds;
    wasted += j.wasted_seconds;
    requeues += static_cast<std::uint64_t>(j.requeues);
  }
  os << "\ncritical path (all jobs):\n";
  os << "  jobs: " << r.jobs.size() << "  requeues: " << requeues << '\n';
  os << "  queued: " << fmt(queued) << "s  running: " << fmt(running)
     << "s  wasted-by-kills: " << fmt(wasted) << "s\n";
  const double denom = queued + running;
  if (denom > 0.0) {
    os << "  wait share of response: " << fmt(100.0 * queued / denom, 1)
       << "%\n";
  }

  if (top > 0 && !r.jobs.empty()) {
    const auto order = slowest(r);
    os << "\nslowest jobs (top " << std::min(top, order.size()) << "):\n";
    os << "  job  response  queued  running  requeues  outcome\n";
    for (std::size_t i = 0; i < order.size() && i < top; ++i) {
      const auto& [id, j] = order[i];
      os << "  " << id << "  " << fmt(j->response()) << "  "
         << fmt(j->queued_seconds) << "  " << fmt(j->run_seconds) << "  "
         << j->requeues << "  " << j->outcome << '\n';
    }
  }
}

void json_latency(std::ostream& os, const char* key, const LatencyStats& s) {
  os << '"' << key << "\":{\"count\":" << s.count();
  if (s.count() > 0) {
    os << ",\"mean\":" << fmt(s.mean(), 6) << ",\"p50\":" << fmt(s.p(0.50), 6)
       << ",\"p95\":" << fmt(s.p(0.95), 6) << ",\"p99\":" << fmt(s.p(0.99), 6)
       << ",\"max\":" << fmt(s.max(), 6);
  }
  os << '}';
}

void print_json(std::ostream& os, const Report& r, std::size_t top) {
  os << "{\"events\":" << r.lines << ",\"skipped\":" << r.skipped
     << ",\"t_min\":" << fmt(r.t_min, 6) << ",\"t_max\":" << fmt(r.t_max, 6);
  os << ",\"event_counts\":{";
  bool first = true;
  for (const auto& [name, count] : r.event_counts) {
    if (!first) os << ',';
    first = false;
    os << '"' << name << "\":" << count;
  }
  os << "},";
  json_latency(os, "wait_seconds", r.wait);
  os << ',';
  json_latency(os, "run_seconds", r.run);
  os << ',';
  json_latency(os, "queue_depth", r.queue_depth);
  os << ",\"jobs\":" << r.jobs.size();
  if (top > 0 && !r.jobs.empty()) {
    const auto order = slowest(r);
    os << ",\"slowest\":[";
    for (std::size_t i = 0; i < order.size() && i < top; ++i) {
      const auto& [id, j] = order[i];
      if (i > 0) os << ',';
      os << "{\"job\":" << id << ",\"response\":" << fmt(j->response(), 6)
         << ",\"queued\":" << fmt(j->queued_seconds, 6)
         << ",\"running\":" << fmt(j->run_seconds, 6)
         << ",\"requeues\":" << j->requeues << ",\"outcome\":\"" << j->outcome
         << "\"}";
    }
    os << ']';
  }
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool as_json = false;
  std::size_t top = 10;
  util::FlagTable flags({"TRACE.ndjson [options]"});
  flags.positional("TRACE.ndjson", "trace to analyze ('-' reads stdin)", path)
      .flag("--json", "emit the report as a single JSON object", as_json)
      .integer("--top", "N", "list the N slowest-responding jobs (default 10)",
               0, std::numeric_limits<int>::max(), top);
  flags.parse_or_exit(argc, argv, [&] {
    if (path.empty()) throw ConfigError("a trace file is required");
  });
  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::cerr << "dmsim_trace: cannot open " << path << '\n';
      return 1;
    }
  }
  std::istream& in = (path == "-") ? std::cin : file;

  Report report;
  std::map<std::int64_t, double> open_queue;
  std::map<std::int64_t, double> open_run;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    TraceEvent event;
    try {
      event = parse_event(line);
    } catch (const serve::ServeError& e) {
      ++report.skipped;
      if (report.skipped <= 5) {
        std::cerr << "dmsim_trace: line " << line_number << ": " << e.what()
                  << '\n';
      }
      continue;
    }
    ++report.lines;
    analyze_event(event, report, open_queue, open_run);
  }
  report.wait.seal();
  report.run.seal();
  report.queue_depth.seal();
  if (report.lines == 0) {
    std::cerr << "dmsim_trace: no events in " << path << '\n';
    return 2;
  }
  if (as_json) {
    print_json(std::cout, report, top);
  } else {
    print_text(std::cout, report, top);
  }
  return 0;
}
