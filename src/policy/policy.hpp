// Memory allocation policies (paper §3.5):
//
//   * Baseline — no disaggregation. A job only starts on nodes whose local
//     capacity covers its request; node memory is exclusive to the job.
//   * Static — disaggregated memory with a fixed allocation equal to the
//     submission request (Zacarias et al., ICPADS 2021). Prefers nodes with
//     enough free memory; otherwise picks the nodes with the most free
//     memory and borrows the remainder from lender nodes.
//   * Dynamic — this paper's contribution (§2.2): starts like Static, then
//     tracks actual usage, releasing over-allocation (remote first) and
//     growing on demand (local first). Out-of-memory growth is resolved by
//     the scheduler via Fail/Restart or Checkpoint/Restart.
//
// A policy's try_start() both selects hosts and performs the initial memory
// allocation; on failure the cluster is left untouched.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/observer.hpp"
#include "trace/job_spec.hpp"
#include "util/units.hpp"

namespace dmsim::policy {

enum class PolicyKind { Baseline, Static, Dynamic };

[[nodiscard]] std::string_view to_string(PolicyKind kind) noexcept;

/// Map a denial-reason's *content* back onto the static literal the policies
/// use, or nullptr for an empty view. Deny reasons are compared and cached
/// by pointer identity in the scheduler's deny-replay cache; a snapshot can
/// only carry the content, so restore re-interns it here. Throws
/// util::Error for a reason no policy produces.
[[nodiscard]] const char* intern_deny_reason(std::string_view reason);

class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;

  [[nodiscard]] virtual PolicyKind kind() const noexcept = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Whether jobs under this policy receive Monitor/Decider updates.
  [[nodiscard]] virtual bool dynamic_updates() const noexcept { return false; }

  /// Attempt to place `spec` and perform its initial memory allocation.
  /// On success the cluster ledger holds the job; on failure the cluster is
  /// unchanged and the job stays pending.
  [[nodiscard]] virtual bool try_start(const trace::JobSpec& spec,
                                       cluster::Cluster& cluster) = 0;

  /// Whether the job could ever start on an *empty* instance of this
  /// cluster. Infeasible jobs would head-block the FCFS queue forever; the
  /// harness uses this to mark a whole scenario as "missing bar" (Fig. 5).
  [[nodiscard]] virtual bool feasible(const trace::JobSpec& spec,
                                      const cluster::Cluster& cluster) const = 0;

  /// Wire observability: grant/deny decision events (with a reason token)
  /// and the policy.grants / policy.denies counters. nullptr disables.
  void set_observer(const obs::Observer* observer);

  /// Reason token of the most recent denial (a static string), or nullptr
  /// if the last decision was a grant. The scheduler caches it alongside the
  /// cluster's change epoch to replay a denial without re-running selection.
  [[nodiscard]] const char* last_deny_reason() const noexcept {
    return last_deny_reason_;
  }

  /// Re-report a previously returned denial verbatim (same counters, same
  /// trace event). Only valid with a reason token this policy produced; used
  /// by the scheduler when the cluster is unchanged since the original
  /// decision, which makes re-running try_start provably redundant.
  void report_denied(const trace::JobSpec& spec, const char* reason) {
    (void)denied(spec, reason);
  }

 protected:
  /// try_start implementations report every decision through these so the
  /// trace explains *why* a job did not start (the §4 analyses hinge on it).
  bool granted(const trace::JobSpec& spec);
  bool denied(const trace::JobSpec& spec, const char* reason);

 private:
  const obs::Observer* obs_ = nullptr;
  std::uint64_t* c_grants_ = nullptr;
  std::uint64_t* c_denies_ = nullptr;
  /// Shape of granted placements: node counts and requested MiB. Simulated
  /// magnitudes only, so the distributions are deterministic by
  /// construction.
  obs::Histogram* h_grant_nodes_ = nullptr;
  obs::Histogram* h_grant_mib_ = nullptr;
  const char* last_deny_reason_ = nullptr;
};

/// Baseline: exclusive node memory, no lending.
class BaselinePolicy final : public AllocationPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const noexcept override {
    return PolicyKind::Baseline;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "baseline";
  }
  [[nodiscard]] bool try_start(const trace::JobSpec& spec,
                               cluster::Cluster& cluster) override;
  [[nodiscard]] bool feasible(const trace::JobSpec& spec,
                              const cluster::Cluster& cluster) const override;

 private:
  std::vector<NodeId> hosts_;  ///< selection scratch, reused across calls
};

/// Static disaggregated: fixed request-sized allocation with borrowing.
class StaticPolicy : public AllocationPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const noexcept override {
    return PolicyKind::Static;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "static";
  }
  [[nodiscard]] bool try_start(const trace::JobSpec& spec,
                               cluster::Cluster& cluster) override;
  [[nodiscard]] bool feasible(const trace::JobSpec& spec,
                              const cluster::Cluster& cluster) const override;

 private:
  std::vector<NodeId> hosts_;  ///< selection scratch, reused across calls
};

/// Dynamic disaggregated: Static initial allocation + usage-driven resizing.
class DynamicPolicy final : public StaticPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const noexcept override {
    return PolicyKind::Dynamic;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "dynamic";
  }
  [[nodiscard]] bool dynamic_updates() const noexcept override { return true; }
};

/// Outcome of a Decider/Actuator resize step on one (job, host) slot.
struct ResizeOutcome {
  bool satisfied = false;     ///< allocation now covers the demand
  bool remote_changed = false;///< borrow edges changed (contention must be re-evaluated)
  MiB allocated = 0;          ///< slot total after the attempt
  MiB released = 0;           ///< memory given back (shrink path)
  MiB acquired = 0;           ///< memory obtained (grow path)
};

/// Actuator primitive (§2.2): bring the slot's allocation to `demand`.
/// Shrinks release remote memory before local; grows take local memory
/// before remote; a slot already at `demand` is left untouched. On an
/// unsatisfiable grow the slot keeps whatever it obtained and `satisfied`
/// is false — the caller (scheduler) then applies the configured
/// out-of-memory handling.
[[nodiscard]] ResizeOutcome resize_to_demand(cluster::Cluster& cluster,
                                             JobId job, NodeId host,
                                             MiB demand);

/// Outcome of a batched Actuator step over every slot of one job.
struct JobResizeOutcome {
  bool satisfied = true;       ///< every slot covers its demand (false = OOM)
  bool remote_changed = false; ///< some borrow edge changed
  MiB released = 0;            ///< memory given back across the job
  MiB acquired = 0;            ///< memory obtained across the job
};

/// Batched Actuator (§2.2): bring every slot of `spec.id` to its share of
/// `base_demand` — host i's demand is llround(base_demand * usage_scale(i)).
/// One walk of the job's slot span: a host already at its demand is
/// skipped without touching the ledger; every other host goes through
/// resize_to_demand in assignment order (lender choice depends on that
/// order). Stops at the first unsatisfiable grow, like the per-host loop it
/// replaces.
[[nodiscard]] JobResizeOutcome resize_job(cluster::Cluster& cluster,
                                          const trace::JobSpec& spec,
                                          MiB base_demand);

/// Outcome of a tier-migration pass over one (job, host) slot.
struct MigrateOutcome {
  MiB migrated = 0;            ///< MiB moved to a strictly nearer tier
  bool remote_changed = false; ///< borrow edges changed
};

/// Tier-migration primitive (Dynamic policy, tiered topologies only):
/// promote the slot's borrowed memory toward the nearest tiers. Edges are
/// visited farthest tier first; each is moved only as far as strictly
/// lower-latency tiers have free capacity (grow_remote's nearest-first
/// spill guarantees the refill lands there). Demotion needs no action of
/// its own — when near tiers are full, new grows spill outward, and later
/// promotion pulls them back in as capacity frees up. A no-op (all zeros)
/// on flat topologies.
[[nodiscard]] MigrateOutcome migrate_to_nearest_tier(cluster::Cluster& cluster,
                                                     JobId job, NodeId host);

[[nodiscard]] std::unique_ptr<AllocationPolicy> make_policy(PolicyKind kind);

}  // namespace dmsim::policy
