#include "trace/usage_io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/error.hpp"

namespace dmsim::trace {

void write_usage_traces(std::ostream& out, const UsageTraceMap& traces) {
  std::vector<std::uint32_t> ids;
  ids.reserve(traces.size());
  for (const auto& [id, t] : traces) {
    (void)t;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  out << "# dmsim usage traces: job <id> <num_points>, optional scales line,\n"
         "# then one `progress mem_mib` pair per line\n";
  out.precision(17);
  for (const std::uint32_t id : ids) {
    const JobUsage& usage = traces.at(id);
    out << "job " << id << ' ' << usage.trace.size() << '\n';
    if (!usage.node_scales.empty()) {
      out << "scales " << usage.node_scales.size();
      for (const double s : usage.node_scales) out << ' ' << s;
      out << '\n';
    }
    for (const auto& p : usage.trace.points()) {
      out << p.progress << ' ' << p.mem << '\n';
    }
  }
}

void write_usage_traces_file(const std::string& path,
                             const UsageTraceMap& traces) {
  std::ofstream out(path);
  if (!out) throw TraceError("cannot open usage trace file for writing: " + path);
  write_usage_traces(out, traces);
}

UsageTraceMap read_usage_traces(std::istream& in) {
  UsageTraceMap out;
  std::string line;
  std::size_t line_no = 0;
  std::uint32_t current_id = 0;
  std::size_t remaining = 0;
  bool in_block = false;
  // Both vectors grow from the lines actually read: a header count sizes
  // nothing, so an absurd count costs an "ended early" error, not memory.
  std::vector<UsagePoint> points;
  std::vector<double> scales;
  const auto error = [&line_no](const std::string& what) {
    return TraceError("usage trace line " + std::to_string(line_no) + ": " +
                      what);
  };

  const auto finish_block = [&] {
    if (!in_block) return;
    if (remaining != 0) {
      throw TraceError("usage trace for job " + std::to_string(current_id) +
                       " ended early (" + std::to_string(remaining) +
                       " points missing)");
    }
    const auto [it, inserted] = out.emplace(
        current_id, JobUsage{UsageTrace(std::move(points)), std::move(scales)});
    (void)it;
    if (!inserted) {
      throw TraceError("duplicate usage trace for job " +
                       std::to_string(current_id));
    }
    points = {};
    scales = {};
    in_block = false;
  };

  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head == "job") {
      finish_block();
      std::int64_t id = -1;
      std::int64_t count = -1;
      if (!(fields >> id >> count) || id < 0 || count <= 0) {
        throw error("malformed job header");
      }
      if (id >= std::int64_t{JobId::kInvalid}) {
        throw error("job id " + std::to_string(id) + " out of range");
      }
      current_id = static_cast<std::uint32_t>(id);
      remaining = static_cast<std::size_t>(count);
      in_block = true;
      continue;
    }
    if (head == "scales") {
      if (!in_block || !points.empty()) {
        throw error("scales must follow the job header");
      }
      std::size_t n = 0;
      if (!(fields >> n) || n == 0) throw error("malformed scales header");
      for (std::size_t k = 0; k < n; ++k) {
        double s = 0.0;
        if (!(fields >> s) || !(s > 0.0 && s <= 1.0)) {
          throw error("scale factors must be in (0, 1]");
        }
        scales.push_back(s);
      }
      continue;
    }
    if (!in_block || remaining == 0) {
      throw error("data point outside a job block");
    }
    UsagePoint p;
    std::istringstream point_fields(line);
    if (!(point_fields >> p.progress >> p.mem)) {
      throw error("malformed data point");
    }
    // UsageTrace's own contract, checked here so bad input is an error
    // naming its line rather than an assertion.
    if (points.empty() && p.progress != 0.0) {
      throw error("first point must be at progress 0");
    }
    if (!points.empty() && !(p.progress > points.back().progress)) {
      throw error("progress must be strictly increasing");
    }
    if (!(p.progress >= 0.0 && p.progress <= 1.0)) {
      throw error("progress out of [0, 1]");
    }
    if (p.mem < 0) throw error("memory must be non-negative");
    points.push_back(p);
    --remaining;
  }
  finish_block();
  return out;
}

UsageTraceMap read_usage_traces_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw TraceError("cannot open usage trace file: " + path);
  return read_usage_traces(in);
}

UsageTraceMap collect_usage_traces(const Workload& jobs) {
  UsageTraceMap out;
  out.reserve(jobs.size());
  for (const auto& j : jobs) {
    DMSIM_ASSERT(j.id.valid(), "workload job without id");
    const auto [it, inserted] =
        out.emplace(j.id.get(), JobUsage{j.usage, j.node_usage_scale});
    (void)it;
    DMSIM_ASSERT(inserted, "duplicate job id while collecting usage traces");
  }
  return out;
}

std::size_t attach_usage_traces(Workload& jobs, const UsageTraceMap& traces) {
  std::size_t updated = 0;
  for (auto& j : jobs) {
    const auto it = traces.find(j.id.get());
    if (it != traces.end()) {
      j.usage = it->second.trace;
      j.node_usage_scale = it->second.node_scales;
      ++updated;
    }
  }
  return updated;
}

}  // namespace dmsim::trace
