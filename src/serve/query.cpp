#include "serve/query.hpp"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "harness/config_file.hpp"
#include "serve/json.hpp"
#include "trace/usage_trace.hpp"
#include "util/units.hpp"

namespace dmsim::serve {

std::string_view to_string(QueryOp op) noexcept {
  switch (op) {
    case QueryOp::Info:
      return "info";
    case QueryOp::Baseline:
      return "baseline";
    case QueryOp::Submit:
      return "submit";
    case QueryOp::Policy:
      return "policy";
    case QueryOp::Topology:
      return "topology";
    case QueryOp::Shutdown:
      return "shutdown";
  }
  return "?";
}

namespace {

[[nodiscard]] QueryOp parse_op(const std::string& name) {
  if (name == "info") return QueryOp::Info;
  if (name == "baseline") return QueryOp::Baseline;
  if (name == "submit") return QueryOp::Submit;
  if (name == "policy") return QueryOp::Policy;
  if (name == "topology") return QueryOp::Topology;
  if (name == "shutdown") return QueryOp::Shutdown;
  throw ServeError("query: unknown op '" + name + "'");
}

/// int_or narrowed to T, refusing values T cannot hold instead of letting the
/// cast wrap them (4294967297 nodes must not become 1).
template <typename T>
[[nodiscard]] T int_in(const JsonValue& obj, std::string_view key,
                       T fallback) {
  const std::int64_t v = obj.int_or(key, fallback);
  if (!std::in_range<T>(v)) {
    throw ServeError("query: \"" + std::string(key) + "\" is out of range");
  }
  return static_cast<T>(v);
}

/// Largest submit time, duration or walltime, in seconds (about 31.7
/// years), a submitted job may carry. A fork simulates the job's whole run,
/// one Monitor update after another, so the reply time grows with the
/// job's span: 1e9 s answers in about half a second on the example config,
/// 1e11 s takes minutes, and 1e308 never answers.
constexpr double kMaxJobSeconds = 1.0e9;

/// num_or for a job time, refusing non-finite values and values beyond
/// kMaxJobSeconds.
[[nodiscard]] double job_seconds(const JsonValue& obj, std::string_view key,
                                 double fallback) {
  const double v = obj.num_or(key, fallback);
  if (!std::isfinite(v) || v > kMaxJobSeconds) {
    throw ServeError("query: job \"" + std::string(key) +
                     "\" must be finite and at most 1e9 seconds");
  }
  return v;
}

[[nodiscard]] trace::JobSpec parse_job(const JsonValue& obj) {
  if (!obj.is_object()) throw ServeError("query: jobs[] entries are objects");
  const std::int64_t id = obj.int_or("id", -1);
  if (id < 0 || id >= std::numeric_limits<std::uint32_t>::max()) {
    throw ServeError("query: job needs an \"id\" in [0, 2^32-1)");
  }
  trace::JobSpec spec;
  spec.id = JobId{static_cast<std::uint32_t>(id)};
  spec.submit_time = job_seconds(obj, "submit_time", 0.0);
  spec.num_nodes = int_in<int>(obj, "num_nodes", 1);
  spec.requested_mem = static_cast<MiB>(obj.int_or("mem_mib", 0));
  spec.duration = job_seconds(obj, "duration", 0.0);
  // The default walltime derives from a bounded duration, so only an
  // explicit one needs the bound.
  spec.walltime = obj.find("walltime") != nullptr
                      ? job_seconds(obj, "walltime", 0.0)
                      : 2.0 * spec.duration;
  const MiB used =
      static_cast<MiB>(obj.int_or("used_mib", spec.requested_mem));
  spec.usage = trace::UsageTrace::constant(used);
  if (spec.num_nodes < 1) throw ServeError("query: job num_nodes must be >= 1");
  if (spec.requested_mem <= 0) {
    throw ServeError("query: job mem_mib must be > 0");
  }
  if (used <= 0 || used > spec.requested_mem) {
    throw ServeError("query: job used_mib must be in (0, mem_mib]");
  }
  if (spec.duration <= 0.0) throw ServeError("query: job duration must be > 0");
  if (spec.walltime < spec.duration) {
    throw ServeError("query: job walltime must be >= duration");
  }
  return spec;
}

[[nodiscard]] sched::SchedulerConfig parse_sched_swap(
    const JsonValue& obj, const sched::SchedulerConfig& base) {
  if (!obj.is_object()) throw ServeError("query: \"sched\" must be an object");
  sched::SchedulerConfig sc = base;
  sc.sched_interval = obj.num_or("sched_interval", sc.sched_interval);
  sc.update_interval = obj.num_or("update_interval", sc.update_interval);
  sc.queue_depth = int_in<int>(obj, "queue_depth", sc.queue_depth);
  sc.backfill_depth = int_in<int>(obj, "backfill_depth", sc.backfill_depth);
  sc.enable_backfill = obj.bool_or("backfill", sc.enable_backfill);
  if (sc.sched_interval <= 0.0 || sc.update_interval <= 0.0 ||
      sc.queue_depth < 1 || sc.backfill_depth < 0) {
    throw ServeError("query: sched swap values out of range");
  }
  return sc;
}

}  // namespace

Query parse_query(std::string_view line,
                  const sched::SchedulerConfig& base_sched) {
  const JsonValue doc = json_parse(line);
  if (!doc.is_object()) throw ServeError("query: expected a JSON object");

  Query q;
  q.op = parse_op(doc.str_or("op", ""));
  q.id = doc.str_or("id", "");
  q.snapshot = doc.str_or("snapshot", "");
  if (const JsonValue* sched = doc.find("sched"); sched != nullptr) {
    q.sched = parse_sched_swap(*sched, base_sched);
  }

  switch (q.op) {
    case QueryOp::Submit: {
      const JsonValue* jobs = doc.find("jobs");
      if (jobs == nullptr || !jobs->is_array() || jobs->array.empty()) {
        throw ServeError("query: submit needs a non-empty \"jobs\" array");
      }
      q.extra_jobs.reserve(jobs->array.size());
      for (const JsonValue& j : jobs->array) q.extra_jobs.push_back(parse_job(j));
      break;
    }
    case QueryOp::Policy: {
      const JsonValue* policies = doc.find("policies");
      if (policies == nullptr || !policies->is_array() ||
          policies->array.empty()) {
        throw ServeError("query: policy needs a non-empty \"policies\" array");
      }
      q.policies.reserve(policies->array.size());
      for (const JsonValue& p : policies->array) {
        if (p.kind != JsonValue::Kind::String) {
          throw ServeError("query: policies[] entries are strings");
        }
        try {
          q.policies.push_back(harness::parse_policy(p.string));
        } catch (const Error& e) {
          throw ServeError(std::string("query: ") + e.what());
        }
      }
      break;
    }
    case QueryOp::Topology: {
      const std::int64_t count = doc.int_or("add_nodes", 0);
      if (count < 1 || count > 1'000'000) {
        throw ServeError("query: topology needs \"add_nodes\" in [1, 1e6]");
      }
      cluster::NodeConfig node;
      node.capacity = static_cast<MiB>(doc.int_or("capacity_mib", 0));
      node.cores = int_in<int>(doc, "cores", node.cores);
      node.large = doc.bool_or("large", true);
      node.tier = int_in<std::uint8_t>(doc, "tier", 0);
      node.rack = int_in<std::uint16_t>(doc, "rack", 0);
      if (node.capacity <= 0) {
        throw ServeError("query: topology needs \"capacity_mib\" > 0");
      }
      if (node.cores < 1) throw ServeError("query: topology cores must be >= 1");
      q.extra_nodes.assign(static_cast<std::size_t>(count), node);
      break;
    }
    case QueryOp::Info:
    case QueryOp::Baseline:
    case QueryOp::Shutdown:
      break;
  }
  return q;
}

}  // namespace dmsim::serve
