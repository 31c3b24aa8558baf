// What-if query protocol: one JSON object per line.
//
//   {"op":"info"}                               image + cache metadata
//   {"op":"baseline"}                           run the warm image unmodified
//   {"op":"submit","jobs":[{"id":9001,"num_nodes":2,"mem_mib":4096,
//                           "duration":600}]}   inject extra jobs
//                                               (submit_time, duration and
//                                               walltime at most 1e9 s)
//   {"op":"policy","policies":["baseline","static","dynamic"]}
//                                               race policy variants
//   {"op":"topology","add_nodes":4,"capacity_mib":65536}
//                                               add idle memory-pool nodes
//   {"op":"shutdown"}                           stop the daemon
//
// Every query may carry:
//   "id"       — client correlation token, echoed verbatim in the reply,
//   "snapshot" — image path (default: the daemon's --snapshot),
//   "sched"    — scheduler-config swap object (keys: sched_interval,
//                update_interval, queue_depth, backfill_depth, backfill).
//
// A query line may hold at most kMaxQueryLineBytes (1 MiB) before its
// newline. A longer line gets one "status":"error" reply, and then the
// connection (or the --once input) is closed: nothing after it is read.
//
// Replies are single JSON lines; for a given query against a given image
// they are byte-identical at any thread count (simulation results are pure
// functions of the forked cell, and reply serialization is deterministic).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "policy/policy.hpp"
#include "sched/scheduler.hpp"
#include "trace/job_spec.hpp"

namespace dmsim::serve {

/// Longest query line accepted, newline excluded.
inline constexpr std::size_t kMaxQueryLineBytes = std::size_t{1} << 20;

enum class QueryOp { Info, Baseline, Submit, Policy, Topology, Shutdown };

[[nodiscard]] std::string_view to_string(QueryOp op) noexcept;

struct Query {
  QueryOp op = QueryOp::Baseline;
  std::string id;        ///< echoed in the reply; empty = none given
  std::string snapshot;  ///< image path; empty = server default
  std::vector<trace::JobSpec> extra_jobs;        ///< Submit
  std::vector<policy::PolicyKind> policies;      ///< Policy (raced variants)
  std::vector<cluster::NodeConfig> extra_nodes;  ///< Topology
  /// Scheduler-config swap: base config with the query's overrides applied.
  std::optional<sched::SchedulerConfig> sched;
};

/// Parse one query line. `base_sched` seeds the "sched" swap (overrides
/// apply on top of the daemon's base scheduler config). Throws ServeError
/// on malformed JSON, unknown ops/keys, or out-of-range values.
[[nodiscard]] Query parse_query(std::string_view line,
                                const sched::SchedulerConfig& base_sched);

}  // namespace dmsim::serve
