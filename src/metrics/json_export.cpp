#include "metrics/json_export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace dmsim::metrics {

void JsonWriter::comma_if_needed() {
  if (!stack_.empty() && stack_.back().second && !pending_key_) {
    out_ << ',';
  }
}

void JsonWriter::note_value() {
  started_ = true;
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!stack_.empty()) stack_.back().second = true;
}

JsonWriter& JsonWriter::begin_object() {
  comma_if_needed();
  note_value();
  out_ << '{';
  stack_.emplace_back(Scope::Object, false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  DMSIM_ASSERT(!stack_.empty() && stack_.back().first == Scope::Object,
               "end_object without matching begin_object");
  DMSIM_ASSERT(!pending_key_, "dangling key before end_object");
  stack_.pop_back();
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_if_needed();
  note_value();
  out_ << '[';
  stack_.emplace_back(Scope::Array, false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  DMSIM_ASSERT(!stack_.empty() && stack_.back().first == Scope::Array,
               "end_array without matching begin_array");
  stack_.pop_back();
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  DMSIM_ASSERT(!stack_.empty() && stack_.back().first == Scope::Object,
               "key outside of an object");
  DMSIM_ASSERT(!pending_key_, "two keys in a row");
  if (stack_.back().second) out_ << ',';
  stack_.back().second = true;
  out_ << '"' << json_escape(name) << "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma_if_needed();
  note_value();
  out_ << '"' << json_escape(s) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma_if_needed();
  note_value();
  if (std::isfinite(v)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ << buf;
  } else {
    out_ << "null";  // JSON has no NaN/Inf
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma_if_needed();
  note_value();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma_if_needed();
  note_value();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma_if_needed();
  note_value();
  out_ << (b ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma_if_needed();
  note_value();
  out_ << "null";
  return *this;
}

std::string JsonWriter::str() const {
  DMSIM_ASSERT(complete(), "JSON document is incomplete");
  return out_.str();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

const char* outcome_string(sched::JobOutcome outcome) {
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

/// Nearest-rank quantile over a snapshot histogram entry: walk the occupied
/// buckets to the rank'd one and clamp its lower bound into [min, max] —
/// the same rule Histogram::quantile applies to its live bucket array.
std::int64_t entry_quantile(const obs::CountersSnapshot::HistogramEntry& h,
                            double q) {
  if (h.count == 0) return 0;
  const auto rank = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(h.count))),
      1);
  std::uint64_t seen = 0;
  for (const auto& [bucket, count] : h.buckets) {
    seen += count;
    if (seen >= rank) {
      const std::int64_t lower = obs::Histogram::bucket_lower_bound(bucket);
      return std::clamp(lower, h.min, h.max);
    }
  }
  return h.max;
}

}  // namespace

void write_telemetry(JsonWriter& w, const obs::CountersSnapshot& snap) {
  w.key("counters").begin_object();
  for (const auto& c : snap.counters) {
    w.key(c.name).value(c.value);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& g : snap.gauges) {
    w.key(g.name).begin_object();
    w.key("value").value(g.value);
    w.key("high_water").value(g.high_water);
    w.end_object();
  }
  w.end_object();
  if (!snap.histograms.empty()) {
    w.key("histograms").begin_object();
    for (const auto& h : snap.histograms) {
      w.key(h.name).begin_object();
      w.key("count").value(h.count);
      w.key("sum").value(h.sum);
      w.key("min").value(h.min);
      w.key("max").value(h.max);
      w.key("p50").value(entry_quantile(h, 0.50));
      w.key("p95").value(entry_quantile(h, 0.95));
      w.key("p99").value(entry_quantile(h, 0.99));
      w.key("buckets").begin_array();
      for (const auto& [bucket, count] : h.buckets) {
        w.begin_array();
        w.value(static_cast<std::uint64_t>(bucket));
        w.value(count);
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
  }
  if (!snap.series.empty()) {
    w.key("series").begin_object();
    for (const auto& s : snap.series) {
      w.key(s.name).begin_object();
      w.key("window_width").value(s.window_width);
      w.key("points").begin_array();
      for (const auto& p : s.points) {
        w.begin_object();
        w.key("window").value(p.window);
        w.key("count").value(p.count);
        w.key("sum").value(p.sum);
        w.key("min").value(p.min);
        w.key("max").value(p.max);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
  }
}

std::string telemetry_to_json(const obs::CountersSnapshot& snap) {
  JsonWriter w;
  w.begin_object();
  write_telemetry(w, snap);
  w.end_object();
  return w.str();
}

std::string to_json(const SimulationResult& result, bool include_records,
                    bool include_samples) {
  JsonWriter w;
  w.begin_object();
  w.key("valid").value(result.valid);
  w.key("provisioned_memory_mib").value(result.provisioned_memory);
  w.key("system_cost_usd").value(result.system_cost_usd);
  w.key("avg_allocated_mib").value(result.avg_allocated_mib);
  w.key("avg_busy_nodes").value(result.avg_busy_nodes);

  w.key("summary").begin_object();
  const auto& s = result.summary;
  w.key("total_jobs").value(static_cast<std::uint64_t>(s.total_jobs));
  w.key("completed").value(static_cast<std::uint64_t>(s.completed));
  w.key("infeasible").value(static_cast<std::uint64_t>(s.infeasible));
  w.key("abandoned").value(static_cast<std::uint64_t>(s.abandoned));
  w.key("oom_events").value(s.oom_events);
  w.key("oom_job_fraction").value(s.oom_job_fraction());
  w.key("throughput_jobs_per_s").value(s.throughput);
  w.key("makespan_s").value(s.makespan());
  w.key("mean_response_s").value(s.response_time.mean());
  w.key("mean_wait_s").value(s.wait_time.mean());
  w.end_object();

  w.key("totals").begin_object();
  const auto& t = result.totals;
  w.key("fcfs_starts").value(t.fcfs_starts);
  w.key("backfill_starts").value(t.backfill_starts);
  w.key("guaranteed_starts").value(t.guaranteed_starts);
  w.key("requeues").value(t.requeues);
  w.key("update_events").value(t.update_events);
  w.key("scheduling_passes").value(t.scheduling_passes);
  w.key("walltime_kills").value(t.walltime_kills);
  w.end_object();

  w.key("engine_events").value(result.engine_events);

  if (!result.telemetry.empty()) {
    write_telemetry(w, result.telemetry);
  }

  if (include_records) {
    w.key("jobs").begin_array();
    for (const auto& r : result.records) {
      w.begin_object();
      w.key("id").value(static_cast<std::uint64_t>(r.id.get()));
      w.key("submit").value(r.submit_time);
      w.key("first_start").value(r.first_start);
      w.key("end").value(r.end_time);
      w.key("nodes").value(r.num_nodes);
      w.key("requested_mib").value(r.requested_mem);
      w.key("peak_mib").value(r.peak_usage);
      w.key("oom_failures").value(r.oom_failures);
      w.key("guaranteed").value(r.ran_guaranteed);
      w.key("infeasible").value(r.infeasible);
      w.key("outcome").value(outcome_string(r.outcome));
      w.end_object();
    }
    w.end_array();
  }

  if (include_samples) {
    w.key("samples").begin_array();
    for (const auto& sample : result.samples) {
      w.begin_object();
      w.key("time").value(sample.time);
      w.key("allocated_mib").value(sample.allocated);
      w.key("used_mib").value(sample.used);
      w.key("busy_nodes").value(sample.busy_nodes);
      w.key("pending_jobs").value(static_cast<std::uint64_t>(sample.pending_jobs));
      w.end_object();
    }
    w.end_array();
  }

  w.end_object();
  return w.str();
}

}  // namespace dmsim::metrics
