#include "policy/policy.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace dmsim::policy {

std::string_view to_string(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::Baseline:
      return "baseline";
    case PolicyKind::Static:
      return "static";
    case PolicyKind::Dynamic:
      return "dynamic";
  }
  return "unknown";
}

const char* intern_deny_reason(std::string_view reason) {
  // The full deny-reason vocabulary. Keep in sync with the literals passed
  // to denied() below — the scheduler serializes cached denials by content
  // and re-interns them here on snapshot restore.
  static constexpr const char* kReasons[] = {
      "not_enough_fitting_idle_nodes",
      "not_enough_hostable_nodes",
      "exceeds_total_free",
      "lenders_dry",
  };
  if (reason.empty()) return nullptr;
  for (const char* r : kReasons) {
    if (reason == r) return r;
  }
  throw Error("unknown deny reason: '" + std::string(reason) + "'");
}

// ---------------------------------------------------------------------------
// Decision reporting
// ---------------------------------------------------------------------------

void AllocationPolicy::set_observer(const obs::Observer* observer) {
  obs_ = observer;
  c_grants_ = obs::counter_handle(observer, "policy.grants");
  c_denies_ = obs::counter_handle(observer, "policy.denies");
  h_grant_nodes_ = obs::histogram_handle(observer, "policy.grant_nodes");
  h_grant_mib_ = obs::histogram_handle(observer, "policy.grant_mib");
}

bool AllocationPolicy::granted(const trace::JobSpec& spec) {
  last_deny_reason_ = nullptr;
  obs::bump(c_grants_);
  obs::record(h_grant_nodes_, spec.num_nodes);
  obs::record(h_grant_mib_, static_cast<std::int64_t>(spec.requested_mem));
  if (obs::tracing(obs_)) {
    obs_->sink->emit(
        obs::Event{obs::EventKind::PolicyGrant, obs_->now(), spec.id.get()}
            .with("nodes", spec.num_nodes)
            .with("mib", spec.requested_mem));
  }
  return true;
}

bool AllocationPolicy::denied(const trace::JobSpec& spec, const char* reason) {
  last_deny_reason_ = reason;
  obs::bump(c_denies_);
  if (obs::tracing(obs_)) {
    obs::Event e{obs::EventKind::PolicyDeny, obs_->now(), spec.id.get()};
    e.detail = reason;
    obs_->sink->emit(e.with("nodes", spec.num_nodes)
                         .with("mib", spec.requested_mem));
  }
  return false;
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

bool BaselinePolicy::try_start(const trace::JobSpec& spec,
                               cluster::Cluster& cluster) {
  DMSIM_ASSERT(spec.num_nodes > 0, "job must request at least one node");
  // Baseline nodes never lend, so an idle node has its whole capacity free.
  // Best fit: smallest sufficient node first, saving large nodes for large
  // jobs (deterministic id tie-break) — the capacity index is already in
  // that order, so take the first num_nodes idle entries.
  hosts_.clear();
  for (NodeId id : cluster.nodes_by_capacity_at_least(spec.requested_mem)) {
    if (!cluster.is_idle(id)) continue;
    hosts_.push_back(id);
    if (std::cmp_equal(hosts_.size(), spec.num_nodes)) break;
  }
  if (std::cmp_less(hosts_.size(), spec.num_nodes)) {
    return denied(spec, "not_enough_fitting_idle_nodes");
  }
  cluster.assign_job(spec.id, hosts_);
  for (NodeId h : hosts_) {
    const MiB local = cluster.grow_local(spec.id, h, spec.requested_mem);
    DMSIM_ASSERT(local == spec.requested_mem,
                 "baseline host unexpectedly short of memory");
  }
  return granted(spec);
}

bool BaselinePolicy::feasible(const trace::JobSpec& spec,
                              const cluster::Cluster& cluster) const {
  return std::cmp_greater_equal(
      cluster.nodes_by_capacity_at_least(spec.requested_mem).size(),
      spec.num_nodes);
}

// ---------------------------------------------------------------------------
// Static (and Dynamic's initial placement)
// ---------------------------------------------------------------------------

bool StaticPolicy::try_start(const trace::JobSpec& spec,
                             cluster::Cluster& cluster) {
  DMSIM_ASSERT(spec.num_nodes > 0, "job must request at least one node");
  // Hosts must be idle and not memory nodes (§2.1 half-capacity rule).
  // The hostable count is an O(1) index size now.
  if (cluster.idle_hostable_nodes() < spec.num_nodes) {
    return denied(spec, "not_enough_hostable_nodes");
  }

  // Fast reject before any host selection: the whole allocation can never
  // exceed system free memory, so a hopeless job is denied in O(1).
  const MiB total_need =
      static_cast<MiB>(spec.num_nodes) * spec.requested_mem;
  if (total_need > cluster.total_free()) {
    return denied(spec, "exceeds_total_free");
  }

  // The policy "tries to run the job on nodes with enough free memory. If
  // this is not possible, then it will choose nodes with the most free
  // memory and borrow the remaining memory from other nodes" (§2.1).
  // Among sufficient nodes we take the tightest fit so large-memory nodes
  // stay available for large jobs. The cluster's hostable index serves both
  // orders directly — (free asc, id asc) at or above the request, then
  // (free desc, id asc) below it — replacing the former scan + two sorts.
  hosts_.clear();
  const auto want_more = [this, &spec](NodeId id) {
    hosts_.push_back(id);
    return std::cmp_less(hosts_.size(), spec.num_nodes);
  };
  cluster.visit_hostable_at_least(spec.requested_mem, want_more);
  if (std::cmp_less(hosts_.size(), spec.num_nodes)) {
    cluster.visit_hostable_below_desc(spec.requested_mem, want_more);
  }
  DMSIM_ASSERT(std::cmp_equal(hosts_.size(), spec.num_nodes),
               "hostable count checked above");

  cluster.assign_job(spec.id, hosts_);
  for (NodeId h : hosts_) {
    MiB need = spec.requested_mem;
    need -= cluster.grow_local(spec.id, h, need);
    if (need > 0) need -= cluster.grow_remote(spec.id, h, need);
    if (need > 0) {
      // Lenders ran dry (free memory was fragmented into host-local shares
      // we already consumed). Roll the whole job back.
      cluster.finish_job(spec.id);
      return denied(spec, "lenders_dry");
    }
  }
  return granted(spec);
}

bool StaticPolicy::feasible(const trace::JobSpec& spec,
                            const cluster::Cluster& cluster) const {
  if (std::cmp_less(cluster.node_count(), spec.num_nodes)) return false;
  const MiB total_need =
      static_cast<MiB>(spec.num_nodes) * spec.requested_mem;
  return total_need <= cluster.total_capacity();
}

// ---------------------------------------------------------------------------
// Resize primitive (Dynamic's Actuator, §2.2)
// ---------------------------------------------------------------------------

ResizeOutcome resize_to_demand(cluster::Cluster& cluster, JobId job,
                               NodeId host, MiB demand) {
  DMSIM_ASSERT(demand >= 0, "demand must be non-negative");
  ResizeOutcome out;
  const MiB current = cluster.slot(job, host).total();
  if (demand == current) {
    out.satisfied = true;
    out.allocated = current;
    return out;
  }
  if (demand < current) {
    // Shrink: deallocate remote memory before local (§2.2).
    MiB excess = current - demand;
    const MiB from_remote = cluster.shrink_remote(job, host, excess);
    excess -= from_remote;
    const MiB from_local = cluster.shrink_local(job, host, excess);
    out.released = from_remote + from_local;
    out.remote_changed = from_remote > 0;
    out.satisfied = true;
  } else {
    // Grow: allocate locally if possible, then remotely (§2.2).
    MiB need = demand - current;
    const MiB local = cluster.grow_local(job, host, need);
    need -= local;
    const MiB remote = need > 0 ? cluster.grow_remote(job, host, need) : 0;
    need -= remote;
    out.acquired = local + remote;
    out.remote_changed = remote > 0;
    out.satisfied = (need == 0);
  }
  out.allocated = cluster.slot(job, host).total();
  return out;
}

JobResizeOutcome resize_job(cluster::Cluster& cluster,
                            const trace::JobSpec& spec, MiB base_demand) {
  JobResizeOutcome out;
  // Resizes mutate slot contents, never the span itself, so one view serves
  // the whole walk.
  const std::span<const cluster::AllocationSlot> slots =
      cluster.job_slots(spec.id);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    // Per-node heterogeneity: lighter nodes demand a scaled-down footprint.
    const MiB demand = static_cast<MiB>(std::llround(
        static_cast<double>(base_demand) * spec.usage_scale(i)));
    if (demand == slots[i].total()) continue;
    const ResizeOutcome r =
        resize_to_demand(cluster, spec.id, slots[i].host, demand);
    out.released += r.released;
    out.acquired += r.acquired;
    out.remote_changed |= r.remote_changed;
    if (!r.satisfied) {
      out.satisfied = false;
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tier-migration primitive (tiered topologies only)
// ---------------------------------------------------------------------------

MigrateOutcome migrate_to_nearest_tier(cluster::Cluster& cluster, JobId job,
                                       NodeId host) {
  MigrateOutcome out;
  if (!cluster.tiered()) return out;
  const cluster::AllocationSlot& slot = cluster.slot(job, host);
  if (slot.remote.empty()) return out;

  // Free lendable capacity in every tier strictly nearer than tier `t`
  // (tier_order_ walks latency ascending). Ties in latency are "equally
  // near": not worth a move. The host's own free memory is excluded —
  // grow_remote never lends a slot memory from its own host, so it cannot
  // absorb the refill.
  const std::span<const std::uint8_t> order = cluster.tier_order();
  const std::span<const cluster::MemoryTier> tiers = cluster.tiers();
  const std::uint8_t host_tier = cluster.tier_of(host);
  const MiB host_free = cluster.free_of(host);
  const auto nearer_free = [&](std::uint8_t t) {
    MiB free = 0;
    for (const std::uint8_t o : order) {
      if (tiers[o].latency_ns >= tiers[t].latency_ns) break;
      free += cluster.tier_free(o);
      if (o == host_tier) free -= host_free;
    }
    return free;
  };

  // Snapshot the edges farthest tier first (latency desc, lender id asc) —
  // the mutation loop below rewrites slot.remote, so it cannot iterate the
  // live vector, and the worst-placed memory should claim near-tier
  // capacity first.
  std::vector<std::pair<NodeId, MiB>> edges(slot.remote.begin(),
                                            slot.remote.end());
  std::sort(edges.begin(), edges.end(),
            [&](const auto& a, const auto& b) {
              const double la = tiers[cluster.tier_of(a.first)].latency_ns;
              const double lb = tiers[cluster.tier_of(b.first)].latency_ns;
              if (la != lb) return la > lb;
              return a.first < b.first;
            });
  for (const auto& [lender, amount] : edges) {
    const std::uint8_t t = cluster.tier_of(lender);
    // Capped by what strictly-nearer tiers can absorb *before* the shrink:
    // shrinking frees memory in tier t itself, which must not count, and
    // grow_remote's nearest-first walk then provably lands every MiB in a
    // nearer tier.
    const MiB take = std::min(amount, nearer_free(t));
    if (take <= 0) continue;
    const MiB released = cluster.shrink_remote_edge(job, host, lender, take);
    DMSIM_ASSERT(released == take, "migration shrink released a short amount");
    const MiB granted = cluster.grow_remote(job, host, take);
    DMSIM_ASSERT(granted == take, "migration grow landed short");
    out.migrated += take;
    out.remote_changed = true;
  }
  return out;
}

std::unique_ptr<AllocationPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Baseline:
      return std::make_unique<BaselinePolicy>();
    case PolicyKind::Static:
      return std::make_unique<StaticPolicy>();
    case PolicyKind::Dynamic:
      return std::make_unique<DynamicPolicy>();
  }
  DMSIM_ASSERT(false, "unknown policy kind");
  return nullptr;
}

}  // namespace dmsim::policy
