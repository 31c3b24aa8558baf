#include "trace/swf.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace dmsim::trace {

namespace {

constexpr int kSwfFieldCount = 18;
constexpr double kMaxSwfInteger = 9007199254740992.0;  // 2^53
/// Longest run, wait, requested or think time accepted, in seconds (~31.7
/// years; serve caps job times at the same value). Simulating past it is
/// not slow but endless: the engine clock stalls on an unbounded run.
constexpr double kMaxSwfSeconds = 1.0e9;

[[nodiscard]] std::string strip(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return {};
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

}  // namespace

SwfTrace read_swf(std::istream& in) {
  SwfTrace out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string text = strip(line);
    if (text.empty()) continue;
    if (text.front() == ';') {
      out.header_comments.push_back(strip(text.substr(1)));
      continue;
    }
    const auto error = [line_no](const std::string& what) {
      return TraceError("SWF line " + std::to_string(line_no) + ": " + what);
    };
    std::istringstream fields(text);
    double v[kSwfFieldCount];
    for (int i = 0; i < kSwfFieldCount; ++i) {
      if (!(fields >> v[i])) {
        throw error("expected 18 fields, got " + std::to_string(i));
      }
    }
    SwfRecord r;
    // Past 2^53 a double no longer holds every integer (and llround is
    // undefined past int64); no real SWF count comes near it.
    const auto as_int = [&](int i) {
      if (!(std::fabs(v[i]) <= kMaxSwfInteger)) {
        throw error("field " + std::to_string(i + 1) + " out of range");
      }
      return static_cast<std::int64_t>(std::llround(v[i]));
    };
    // SWF writes -1 for unknown, so only the upper end is capped.
    const auto as_seconds = [&](int i) {
      if (!std::isfinite(v[i]) || v[i] > kMaxSwfSeconds) {
        throw error("field " + std::to_string(i + 1) + " exceeds " +
                    std::to_string(static_cast<long long>(kMaxSwfSeconds)) +
                    " s");
      }
      return v[i];
    };
    r.job_number = as_int(0);
    r.submit_time = v[1];
    r.wait_time = as_seconds(2);
    r.run_time = as_seconds(3);
    r.allocated_procs = as_int(4);
    r.avg_cpu_time = v[5];
    r.used_memory_kb = as_int(6);
    r.requested_procs = as_int(7);
    r.requested_time = as_seconds(8);
    r.requested_memory_kb = as_int(9);
    r.status = as_int(10);
    r.user_id = as_int(11);
    r.group_id = as_int(12);
    r.executable = as_int(13);
    r.queue = as_int(14);
    r.partition = as_int(15);
    r.preceding_job = as_int(16);
    r.think_time = as_seconds(17);
    // Job ids are 32-bit; a wider number would be silently truncated.
    if (r.job_number >= std::int64_t{JobId::kInvalid} ||
        r.preceding_job >= std::int64_t{JobId::kInvalid}) {
      throw error("job number out of range");
    }
    out.records.push_back(r);
  }
  return out;
}

SwfTrace read_swf_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw TraceError("cannot open SWF file: " + path);
  return read_swf(in);
}

void write_swf(std::ostream& out, const SwfTrace& trace) {
  // Full double precision: times must survive a write/read round trip.
  out.precision(17);
  for (const auto& c : trace.header_comments) out << "; " << c << '\n';
  for (const auto& r : trace.records) {
    out << r.job_number << ' ' << r.submit_time << ' ' << r.wait_time << ' '
        << r.run_time << ' ' << r.allocated_procs << ' ' << r.avg_cpu_time
        << ' ' << r.used_memory_kb << ' ' << r.requested_procs << ' '
        << r.requested_time << ' ' << r.requested_memory_kb << ' ' << r.status
        << ' ' << r.user_id << ' ' << r.group_id << ' ' << r.executable << ' '
        << r.queue << ' ' << r.partition << ' ' << r.preceding_job << ' '
        << r.think_time << '\n';
  }
}

void write_swf_file(const std::string& path, const SwfTrace& trace) {
  std::ofstream out(path);
  if (!out) throw TraceError("cannot open SWF file for writing: " + path);
  write_swf(out, trace);
}

SwfTrace to_swf(const Workload& jobs, int cores_per_node) {
  DMSIM_ASSERT(cores_per_node > 0, "cores_per_node must be positive");
  SwfTrace out;
  out.header_comments = {"generated by dmsim", "UnixStartTime: 0",
                         "Preemption: No"};
  out.records.reserve(jobs.size());
  for (const auto& j : jobs) {
    SwfRecord r;
    r.job_number = j.id.valid() ? static_cast<std::int64_t>(j.id.get()) : -1;
    r.submit_time = j.submit_time;
    r.run_time = j.duration;
    r.allocated_procs = static_cast<std::int64_t>(j.num_nodes) * cores_per_node;
    r.requested_procs = r.allocated_procs;
    r.requested_time = j.walltime;
    // SWF reports memory in KB per processor.
    r.requested_memory_kb = j.requested_mem * 1024 / cores_per_node;
    r.used_memory_kb = j.peak_usage() * 1024 / cores_per_node;
    r.status = 1;
    if (j.preceding_job.valid()) {
      r.preceding_job = static_cast<std::int64_t>(j.preceding_job.get());
      r.think_time = j.think_time;
    }
    out.records.push_back(r);
  }
  return out;
}

Workload from_swf(const SwfTrace& trace, int cores_per_node) {
  DMSIM_ASSERT(cores_per_node > 0, "cores_per_node must be positive");
  Workload jobs;
  jobs.reserve(trace.records.size());
  std::uint32_t next_id = 0;
  for (const auto& r : trace.records) {
    JobSpec j;
    j.id = JobId{r.job_number >= 0 ? static_cast<std::uint32_t>(r.job_number)
                                   : next_id};
    next_id = std::max(next_id, j.id.get() + 1);
    j.submit_time = r.submit_time >= 0 ? r.submit_time : 0.0;
    const std::int64_t procs =
        r.requested_procs > 0 ? r.requested_procs : r.allocated_procs;
    // Saturate rather than wrap: a job wider than any cluster is infeasible.
    j.num_nodes = static_cast<int>(std::clamp<std::int64_t>(
        (procs + cores_per_node - 1) / cores_per_node, 1,
        std::numeric_limits<int>::max()));
    j.duration = r.run_time > 0 ? r.run_time : 0.0;
    j.walltime = r.requested_time > 0 ? r.requested_time : j.duration;
    const std::int64_t mem_kb =
        r.requested_memory_kb > 0 ? r.requested_memory_kb : r.used_memory_kb;
    constexpr std::int64_t kMaxKb = std::numeric_limits<std::int64_t>::max();
    j.requested_mem = mem_kb <= 0 ? 0
                      : mem_kb > kMaxKb / cores_per_node
                          ? kMaxKb / 1024
                          : (mem_kb * cores_per_node) / 1024;
    j.usage = UsageTrace::constant(j.requested_mem);
    if (r.preceding_job >= 0) {
      j.preceding_job = JobId{static_cast<std::uint32_t>(r.preceding_job)};
      j.think_time = r.think_time > 0 ? r.think_time : 0.0;
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

}  // namespace dmsim::trace
