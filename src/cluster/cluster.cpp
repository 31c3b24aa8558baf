#include "cluster/cluster.hpp"

#include <algorithm>
#include <utility>

#include "snapshot/snapshot.hpp"
#include "util/error.hpp"

namespace dmsim::cluster {

namespace {
/// Raw column value of an idle node's running_job_ entry.
constexpr std::uint32_t kIdle = NodeId::kInvalid;
}  // namespace

MemoryTier default_memory_tier() {
  return MemoryTier{"pool", kTierReferenceLatencyNs, kTierReferenceBandwidthGbs,
                    TierScope::Rack};
}

ClusterConfig make_cluster_config(int normal_count, MiB normal_mib,
                                  int large_count, MiB large_mib, int cores) {
  DMSIM_ASSERT(normal_count >= 0 && large_count >= 0,
               "node counts must be non-negative");
  DMSIM_ASSERT(normal_count + large_count > 0, "cluster must have nodes");
  ClusterConfig cfg;
  cfg.nodes.reserve(static_cast<std::size_t>(normal_count + large_count));
  for (int i = 0; i < normal_count; ++i) {
    cfg.nodes.push_back(NodeConfig{cores, normal_mib, false});
  }
  for (int i = 0; i < large_count; ++i) {
    cfg.nodes.push_back(NodeConfig{cores, large_mib, true});
  }
  return cfg;
}

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  DMSIM_ASSERT(!config_.nodes.empty(), "cluster must have at least one node");
  const std::size_t n = config_.nodes.size();
  // Normalize the tier table first: an empty table is the paper's flat
  // single-pool model, one implicit tier at the reference point.
  tiers_ = config_.tiers;
  if (tiers_.empty()) tiers_.push_back(default_memory_tier());
  DMSIM_ASSERT(tiers_.size() <= 255, "at most 255 memory tiers");
  tier_latency_factor_.reserve(tiers_.size());
  tier_bandwidth_factor_.reserve(tiers_.size());
  for (const MemoryTier& t : tiers_) {
    DMSIM_ASSERT(t.latency_ns > 0.0, "tier latency must be positive");
    DMSIM_ASSERT(t.bandwidth_gbs > 0.0, "tier bandwidth must be positive");
    tier_latency_factor_.push_back(t.latency_ns / kTierReferenceLatencyNs);
    tier_bandwidth_factor_.push_back(kTierReferenceBandwidthGbs /
                                     t.bandwidth_gbs);
  }
  tier_order_.resize(tiers_.size());
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    tier_order_[t] = static_cast<std::uint8_t>(t);
  }
  std::sort(tier_order_.begin(), tier_order_.end(),
            [this](std::uint8_t a, std::uint8_t b) {
              if (tiers_[a].latency_ns != tiers_[b].latency_ns) {
                return tiers_[a].latency_ns < tiers_[b].latency_ns;
              }
              return a < b;
            });
  // Every column and index container is sized up front: the node count is
  // immutable, so nothing on the ledger's hot paths ever reallocates.
  capacity_.reserve(n);
  cores_.reserve(n);
  large_.reserve(n);
  tier_.reserve(n);
  rack_.reserve(n);
  for (const auto& nc : config_.nodes) {
    DMSIM_ASSERT(nc.capacity > 0, "node capacity must be positive");
    DMSIM_ASSERT(nc.cores > 0, "node cores must be positive");
    DMSIM_ASSERT(nc.tier < tiers_.size(), "node tier out of range");
    capacity_.push_back(nc.capacity);
    cores_.push_back(nc.cores);
    large_.push_back(nc.large ? 1 : 0);
    tier_.push_back(nc.tier);
    rack_.push_back(nc.rack);
    total_capacity_ += nc.capacity;
  }
  running_job_.assign(n, kIdle);
  local_used_.assign(n, 0);
  lent_.assign(n, 0);
  lender_dirty_flag_.assign(n, 0);
  slot_ref_.assign(n, SlotRef{});
  borrow_slab_.init(n);
  rebuild_indexes_bulk();
  nodes_by_capacity_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) nodes_by_capacity_.push_back(NodeId{i});
  std::sort(nodes_by_capacity_.begin(), nodes_by_capacity_.end(),
            [this](NodeId a, NodeId b) {
              const MiB ca = capacity_[a.get()];
              const MiB cb = capacity_[b.get()];
              if (ca != cb) return ca < cb;
              return a < b;
            });
  capacities_sorted_.reserve(n);
  for (NodeId id : nodes_by_capacity_) {
    capacities_sorted_.push_back(capacity_[id.get()]);
  }
}

void Cluster::add_nodes(std::span<const NodeConfig> new_nodes) {
  if (new_nodes.empty()) return;
  const std::size_t n = capacity_.size() + new_nodes.size();
  DMSIM_ASSERT(n <= NodeId::kInvalid, "node count overflows NodeId");
  for (const NodeConfig& nc : new_nodes) {
    DMSIM_ASSERT(nc.capacity > 0, "node capacity must be positive");
    DMSIM_ASSERT(nc.cores > 0, "node cores must be positive");
    DMSIM_ASSERT(nc.tier < tiers_.size(), "node tier out of range");
    config_.nodes.push_back(nc);
    capacity_.push_back(nc.capacity);
    cores_.push_back(nc.cores);
    large_.push_back(nc.large ? 1 : 0);
    tier_.push_back(nc.tier);
    rack_.push_back(nc.rack);
    running_job_.push_back(kIdle);
    local_used_.push_back(0);
    lent_.push_back(0);
    lender_dirty_flag_.push_back(0);
    slot_ref_.emplace_back();
    total_capacity_ += nc.capacity;
  }
  borrow_slab_.grow(n);
  // The bulk pass resizes free_/mem_node_/index_bits_ and re-derives every
  // ordered index and per-tier total from the columns.
  rebuild_indexes_bulk();
  nodes_by_capacity_.clear();
  nodes_by_capacity_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) nodes_by_capacity_.push_back(NodeId{i});
  std::sort(nodes_by_capacity_.begin(), nodes_by_capacity_.end(),
            [this](NodeId a, NodeId b) {
              const MiB ca = capacity_[a.get()];
              const MiB cb = capacity_[b.get()];
              if (ca != cb) return ca < cb;
              return a < b;
            });
  capacities_sorted_.clear();
  capacities_sorted_.reserve(n);
  for (NodeId id : nodes_by_capacity_) {
    capacities_sorted_.push_back(capacity_[id.get()]);
  }
  ++change_epoch_;
}

void Cluster::set_observer(const obs::Observer* observer) {
  obs_ = observer;
  c_lend_ops_ = obs::counter_handle(observer, "ledger.lend_ops");
  c_lent_mib_ = obs::counter_handle(observer, "ledger.lent_mib_total");
  c_reclaim_ops_ = obs::counter_handle(observer, "ledger.reclaim_ops");
  c_reclaimed_mib_ = obs::counter_handle(observer, "ledger.reclaimed_mib_total");
  c_local_grow_mib_ = obs::counter_handle(observer, "ledger.local_grow_mib_total");
  c_local_shrink_mib_ =
      obs::counter_handle(observer, "ledger.local_shrink_mib_total");
  g_lent_ = obs::gauge_handle(observer, "ledger.lent_mib");
  g_allocated_ = obs::gauge_handle(observer, "ledger.allocated_mib");
  s_lend_mib_ = obs::series_handle(observer, "ledger.lend_mib");
  s_reclaim_mib_ = obs::series_handle(observer, "ledger.reclaim_mib");
  s_edge_churn_ = obs::series_handle(observer, "ledger.edge_churn");
  h_lenders_per_grow_ = obs::histogram_handle(observer, "ledger.lenders_per_grow");
  // Per-tier occupancy gauges exist only on tiered topologies, keeping the
  // flat model's exported instrument set (and its goldens) unchanged.
  g_tier_lent_.clear();
  if (tiered()) {
    g_tier_lent_.reserve(tiers_.size());
    for (std::size_t t = 0; t < tiers_.size(); ++t) {
      g_tier_lent_.push_back(obs::gauge_handle(
          observer, "ledger.tier_occupancy." + std::to_string(t)));
    }
  }
}

void Cluster::publish_tier_gauges() {
  for (std::size_t t = 0; t < g_tier_lent_.size(); ++t) {
    if (g_tier_lent_[t]) g_tier_lent_[t]->set(tier_lent_mib_[t]);
  }
}

std::uint32_t Cluster::checked(NodeId id) const {
  DMSIM_ASSERT(id.valid() && id.get() < capacity_.size(),
               "node id out of range");
  return id.get();
}

std::span<const NodeId> Cluster::nodes_by_capacity_at_least(
    MiB capacity) const noexcept {
  const auto it = std::lower_bound(capacities_sorted_.begin(),
                                   capacities_sorted_.end(), capacity);
  const auto offset =
      static_cast<std::size_t>(it - capacities_sorted_.begin());
  return std::span<const NodeId>(nodes_by_capacity_).subspan(offset);
}

// ---------------------------------------------------------------------------
// Index maintenance
// ---------------------------------------------------------------------------

void Cluster::rekey(FreeIndex& index, bool had, bool has, FreeKey old_key,
                    FreeKey new_key) {
  if (had && has) {
    if (old_key == new_key) return;
    auto node = index.extract(old_key);
    node.value() = new_key;
    index.insert(std::move(node));
  } else if (had) {
    index.erase(old_key);
  } else if (has) {
    index.insert(new_key);
  }
}

MiB Cluster::lender_rank(MiB free, bool mem) const noexcept {
  if (free <= 0) return LenderKey::kNoLender;
  switch (config_.lender_policy) {
    case LenderPolicy::MostFree:
      return free;
    case LenderPolicy::LeastFree:
      return -free;
    case LenderPolicy::MemoryNodesFirst:
      break;
  }
  // Capacities are far below 2^62 MiB, so the memory-node bit never
  // collides with a free value.
  return mem ? free + (MiB{1} << 62) : free;
}

void Cluster::reindex_node(std::uint32_t i) {
  // The old host-index key is the free_ column entry (what the node was
  // last indexed under); the new one is re-derived from the occupancy
  // columns.
  const MiB old_free = free_[i];
  const std::uint8_t old_bits = index_bits_[i];
  const MiB free = capacity_[i] - local_used_[i] - lent_[i];
  const bool mem = lent_[i] * 2 > capacity_[i];
  const bool host = running_job_[i] == kIdle && !mem;
  rekey(host_index_, (old_bits & kInHost) != 0, host, FreeKey{old_free, i},
        FreeKey{free, i});
  if (tiered()) tier_free_mib_[tier_[i]] += free - old_free;
  free_[i] = free;
  mem_node_[i] = mem ? 1 : 0;
  // The lender tree only learns that the node moved; its leaf is rewritten
  // at the next lender pick (sync_lender_indexes).
  if ((old_bits & kStale) == 0) stale_lenders_.push_back(i);
  index_bits_[i] = static_cast<std::uint8_t>(kStale | (host ? kInHost : 0));
}

void Cluster::sync_lender_indexes() {
  for (const std::uint32_t i : stale_lenders_) {
    LenderKey* tree = lender_trees_[tier_[i]].data();
    std::size_t p = lender_leaf_[i];
    tree[p].rank = lender_rank(free_[i], mem_node_[i] != 0);
    // Replay the winners up the root path; above an unchanged winner every
    // ancestor is unchanged too.
    for (p >>= 1; p != 0; p >>= 1) {
      const LenderKey win = better(tree[2 * p], tree[2 * p + 1]);
      if (tree[p] == win) break;
      tree[p] = win;
    }
    index_bits_[i] &= static_cast<std::uint8_t>(~kStale);
  }
  stale_lenders_.clear();
}

void Cluster::rebuild_indexes_bulk() {
  const std::size_t n = capacity_.size();
  const std::size_t tc = tiers_.size();
  free_.resize(n);
  mem_node_.resize(n);
  index_bits_.resize(n);
  lender_leaf_.resize(n);
  stale_lenders_.clear();
  stale_lenders_.reserve(n);
  // Each tier's leaves sit at [k, 2k) for its k nodes, in node-id order.
  std::vector<std::uint32_t> tier_nodes(tc, 0);
  for (std::uint32_t i = 0; i < n; ++i) ++tier_nodes[tier_[i]];
  lender_trees_.resize(tc);
  std::vector<std::uint32_t> next_leaf(tier_nodes);
  for (std::size_t t = 0; t < tc; ++t) {
    lender_trees_[t].assign(2 * std::max<std::size_t>(tier_nodes[t], 1),
                            LenderKey{});
  }
  // One linear pass derives every column, fills every leaf and gathers the
  // host keys; sorting those and range-constructing the set builds it with
  // O(size) comparisons (sorted-range guarantee) instead of n individual
  // O(log n) inserts.
  std::vector<FreeKey> host_keys;
  host_keys.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const MiB free = capacity_[i] - local_used_[i] - lent_[i];
    const bool mem = lent_[i] * 2 > capacity_[i];
    const bool host = running_job_[i] == kIdle && !mem;
    free_[i] = free;
    mem_node_[i] = mem ? 1 : 0;
    index_bits_[i] = host ? kInHost : 0;
    if (host) host_keys.emplace_back(free, i);
    lender_leaf_[i] = next_leaf[tier_[i]]++;
    lender_trees_[tier_[i]][lender_leaf_[i]] =
        LenderKey{lender_rank(free, mem), i};
  }
  std::sort(host_keys.begin(), host_keys.end());
  host_index_ = FreeIndex(host_keys.begin(), host_keys.end());
  for (std::size_t t = 0; t < tc; ++t) {
    std::vector<LenderKey>& tree = lender_trees_[t];
    for (std::size_t p = tier_nodes[t]; p-- > 1;) {
      tree[p] = better(tree[2 * p], tree[2 * p + 1]);
    }
  }
  if (tiered()) {
    tier_free_mib_.assign(tc, 0);
    tier_lent_mib_.assign(tc, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      tier_free_mib_[tier_[i]] += free_[i];
      tier_lent_mib_[tier_[i]] += lent_[i];
    }
  }
}

void Cluster::mark_lender_dirty(NodeId id) {
  std::uint8_t& flag = lender_dirty_flag_[id.get()];
  if (flag == 0) {
    flag = 1;
    dirty_lenders_.push_back(id);
  }
}

void Cluster::mark_slot_dirty(const AllocationSlot& slot) {
  mark_job_dirty(slot.job);
  for (const auto& [lender, amount] : slot.remote) {
    (void)amount;
    mark_lender_dirty(lender);
  }
}

void Cluster::clear_contention_dirty() {
  for (const NodeId id : dirty_lenders_) lender_dirty_flag_[id.get()] = 0;
  dirty_lenders_.clear();
  dirty_jobs_.clear();
}

// ---------------------------------------------------------------------------
// Job placement
// ---------------------------------------------------------------------------

void Cluster::assign_job(JobId job, std::span<const NodeId> hosts) {
  DMSIM_ASSERT(job.valid(), "cannot assign an invalid job");
  DMSIM_ASSERT(!hosts.empty(), "job needs at least one host");
  DMSIM_ASSERT(!handle_of_.contains(job.get()), "job already assigned");
  for (NodeId h : hosts) {
    DMSIM_ASSERT(can_host(h), "host is busy or a memory node");
  }
  std::uint32_t handle;
  if (!free_handles_.empty()) {
    handle = free_handles_.back();
    free_handles_.pop_back();
  } else {
    handle = static_cast<std::uint32_t>(jobs_.size());
    jobs_.emplace_back();
  }
  JobSlots& entry = jobs_[handle];
  entry.job = job;
  entry.hosts.assign(hosts.begin(), hosts.end());
  entry.slots.reserve(hosts.size());
  for (std::uint32_t pos = 0; pos < hosts.size(); ++pos) {
    const std::uint32_t h = hosts[pos].get();
    DMSIM_ASSERT(running_job_[h] == kIdle, "duplicate host in job assignment");
    running_job_[h] = job.get();
    reindex_node(h);
    slot_ref_[h] = SlotRef{handle, pos};
    AllocationSlot& slot = entry.slots.emplace_back();
    slot.job = job;
    slot.host = hosts[pos];
  }
  handle_of_.emplace(job.get(), handle);
  ++change_epoch_;
}

void Cluster::return_to_lender(std::uint32_t lender, MiB amount) {
  DMSIM_ASSERT(lent_[lender] >= amount, "lender under-ledgered");
  lent_[lender] -= amount;
  total_allocated_ -= amount;
  total_lent_ -= amount;
  if (tiered()) tier_lent_mib_[tier_[lender]] -= amount;
  reindex_node(lender);
}

void Cluster::finish_job(JobId job) {
  const auto hit = handle_of_.find(job.get());
  DMSIM_ASSERT(hit != handle_of_.end(), "finishing a job that is not assigned");
  const std::uint32_t handle = hit->second;
  JobSlots& entry = jobs_[handle];
  for (std::uint32_t pos = 0; pos < entry.slots.size(); ++pos) {
    const AllocationSlot& slot = entry.slots[pos];
    // Return all borrows.
    for (const auto& [lender, amount] : slot.remote) {
      return_to_lender(lender.get(), amount);
      mark_lender_dirty(lender);
      const bool removed =
          borrow_slab_.remove(lender.get(), SlotRef{handle, pos});
      DMSIM_ASSERT(removed, "borrow edge missing from reverse slab");
    }
    // Release local share and the host itself.
    const std::uint32_t hi = slot.host.get();
    DMSIM_ASSERT(local_used_[hi] >= slot.local, "host under-ledgered");
    local_used_[hi] -= slot.local;
    total_allocated_ -= slot.local;
    DMSIM_ASSERT(running_job_[hi] == job.get(), "host running a different job");
    running_job_[hi] = kIdle;
    reindex_node(hi);
  }
  // The handle goes back on the free list with its storage released, so a
  // recycled handle holds no memory sized for an earlier, larger job.
  entry = JobSlots{};
  free_handles_.push_back(handle);
  handle_of_.erase(hit);
  ++change_epoch_;
  // The scheduler emits the job's terminal event; here only the aggregate
  // gauges move (all of the job's local + borrowed memory was returned).
  if (g_lent_) g_lent_->set(total_lent_);
  if (g_allocated_) g_allocated_->set(total_allocated_);
  publish_tier_gauges();
}

// ---------------------------------------------------------------------------
// Memory operations
// ---------------------------------------------------------------------------

MiB Cluster::grow_local(JobId job, NodeId host, MiB amount) {
  DMSIM_ASSERT(amount >= 0, "grow_local amount must be non-negative");
  AllocationSlot& slot = slot_mut(job, host);
  const std::uint32_t h = host.get();
  const MiB granted = std::min(amount, free_[h]);
  slot.local += granted;
  slot.cached_total += granted;
  local_used_[h] += granted;
  total_allocated_ += granted;
  if (granted > 0) {
    reindex_node(h);
    ++change_epoch_;
    // Remote-borrowing slots see their amount/total pressure ratios shift.
    if (!slot.remote.empty()) mark_slot_dirty(slot);
    obs::bump(c_local_grow_mib_, static_cast<std::uint64_t>(granted));
    if (g_allocated_) g_allocated_->set(total_allocated_);
    if (obs::tracing(obs_)) {
      obs_->sink->emit(obs::Event{obs::EventKind::SlotGrow, obs_->now(),
                                  job.get(), host.get()}
                           .with("mib", granted));
    }
  }
  return granted;
}

MiB Cluster::shrink_local(JobId job, NodeId host, MiB amount) {
  DMSIM_ASSERT(amount >= 0, "shrink_local amount must be non-negative");
  AllocationSlot& slot = slot_mut(job, host);
  const std::uint32_t h = host.get();
  const MiB released = std::min(amount, slot.local);
  slot.local -= released;
  slot.cached_total -= released;
  local_used_[h] -= released;
  total_allocated_ -= released;
  if (released > 0) {
    reindex_node(h);
    ++change_epoch_;
    if (!slot.remote.empty()) mark_slot_dirty(slot);
    obs::bump(c_local_shrink_mib_, static_cast<std::uint64_t>(released));
    if (g_allocated_) g_allocated_->set(total_allocated_);
    if (obs::tracing(obs_)) {
      obs_->sink->emit(obs::Event{obs::EventKind::SlotShrink, obs_->now(),
                                  job.get(), host.get()}
                           .with("mib", released));
    }
  }
  return released;
}

NodeId Cluster::next_lender(NodeId exclude) const {
  // Nearest tier with free capacity first, spilling outward.
  for (const std::uint8_t t : tier_order_) {
    const std::vector<LenderKey>& tree = lender_trees_[t];
    LenderKey best = tree[1];
    if (best.rank != LenderKey::kNoLender && best.id == exclude.get()) {
      // The siblings along the excluded leaf's root path cover every other
      // leaf of the tier exactly once.
      best = LenderKey{};
      for (std::uint32_t p = lender_leaf_[exclude.get()]; p > 1; p >>= 1) {
        best = better(best, tree[p ^ 1]);
      }
    }
    if (best.rank != LenderKey::kNoLender) return NodeId{best.id};
  }
  return NodeId{};
}

MiB Cluster::grow_remote(JobId job, NodeId host, MiB amount) {
  DMSIM_ASSERT(amount >= 0, "grow_remote amount must be non-negative");
  if (amount == 0) return 0;
  AllocationSlot& slot = slot_mut(job, host);
  MiB remaining = amount;
  int lenders_touched = 0;
  std::int64_t edges_added = 0;
  // Lenders are picked one at a time straight from the lender trees, which
  // are synced first: every node mutated since the last pick (Monitor
  // resizes, placements, returns — and the previous pick) has its leaf
  // rewritten to its current state. Each pick is either drained to
  // free() == 0 — so the sync before the next lookup ranks it below every
  // lender — or the grow is satisfied and the loop ends, so the sequence of
  // picks is identical to ranking all lenders by their state at the start
  // of the grow (the historical snapshot semantics), including memory-node
  // status flips: a flipped node has free() == 0 and cannot lend.
  while (remaining > 0) {
    sync_lender_indexes();
    const NodeId lender = next_lender(host);
    if (!lender.valid()) break;
    const std::uint32_t l = lender.get();
    const MiB take = std::min(remaining, free_[l]);
    DMSIM_ASSERT(take > 0, "free-index lender must have free memory");
    lent_[l] += take;
    total_allocated_ += take;
    total_lent_ += take;
    if (tiered()) tier_lent_mib_[tier_[l]] += take;
    remaining -= take;
    ++lenders_touched;
    reindex_node(l);
    slot.cached_total += take;
    // Merge into an existing edge if present.
    auto edge = std::find_if(slot.remote.begin(), slot.remote.end(),
                             [lender](const auto& e) { return e.first == lender; });
    if (edge != slot.remote.end()) {
      edge->second += take;
    } else {
      slot.remote.emplace_back(lender, take);
      borrow_slab_.add(l, slot_ref_[host.get()]);
      ++edges_added;
    }
  }
  const MiB granted = amount - remaining;
  if (granted > 0) {
    ++change_epoch_;
    // The slot's total moved too, so every edge's pressure ratio changed.
    mark_slot_dirty(slot);
    obs::bump(c_lend_ops_);
    obs::bump(c_lent_mib_, static_cast<std::uint64_t>(granted));
    obs::record(h_lenders_per_grow_, lenders_touched);
    if (obs_ != nullptr) {
      const Seconds now = obs_->now();
      obs::record(s_lend_mib_, now, granted);
      if (edges_added > 0) obs::record(s_edge_churn_, now, edges_added);
    }
    if (g_lent_) g_lent_->set(total_lent_);
    if (g_allocated_) g_allocated_->set(total_allocated_);
    publish_tier_gauges();
    if (obs::tracing(obs_)) {
      obs_->sink->emit(obs::Event{obs::EventKind::MemLend, obs_->now(),
                                  job.get(), host.get()}
                           .with("mib", granted)
                           .with("lent_total", total_lent_));
    }
  }
  return granted;
}

MiB Cluster::shrink_remote(JobId job, NodeId host, MiB amount) {
  DMSIM_ASSERT(amount >= 0, "shrink_remote amount must be non-negative");
  AllocationSlot& slot = slot_mut(job, host);
  MiB remaining = std::min(amount, slot.remote_total());
  const MiB released = remaining;
  std::int64_t edges_removed = 0;
  // Return the largest borrows first: frees memory-node status soonest.
  std::sort(slot.remote.begin(), slot.remote.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  for (auto& [lender, borrowed] : slot.remote) {
    if (remaining == 0) break;
    const MiB give = std::min(remaining, borrowed);
    const std::uint32_t l = lender.get();
    return_to_lender(l, give);
    borrowed -= give;
    remaining -= give;
    slot.cached_total -= give;
    // Mark here, not via mark_slot_dirty below: a fully-returned edge is
    // erased from the slot before that call, yet its lender's pressure
    // still changed.
    mark_lender_dirty(lender);
    if (borrowed == 0) {
      const bool removed = borrow_slab_.remove(l, slot_ref_[host.get()]);
      DMSIM_ASSERT(removed, "borrow edge missing from reverse slab");
      ++edges_removed;
    }
  }
  std::erase_if(slot.remote, [](const auto& e) { return e.second == 0; });
  if (released > 0) {
    ++change_epoch_;
    mark_slot_dirty(slot);
    obs::bump(c_reclaim_ops_);
    obs::bump(c_reclaimed_mib_, static_cast<std::uint64_t>(released));
    if (obs_ != nullptr) {
      const Seconds now = obs_->now();
      obs::record(s_reclaim_mib_, now, released);
      if (edges_removed > 0) obs::record(s_edge_churn_, now, edges_removed);
    }
    if (g_lent_) g_lent_->set(total_lent_);
    if (g_allocated_) g_allocated_->set(total_allocated_);
    publish_tier_gauges();
    if (obs::tracing(obs_)) {
      obs_->sink->emit(obs::Event{obs::EventKind::MemReclaim, obs_->now(),
                                  job.get(), host.get()}
                           .with("mib", released)
                           .with("lent_total", total_lent_));
    }
  }
  return released;
}

MiB Cluster::shrink_remote_edge(JobId job, NodeId host, NodeId lender,
                                MiB amount) {
  DMSIM_ASSERT(amount >= 0, "shrink_remote_edge amount must be non-negative");
  AllocationSlot& slot = slot_mut(job, host);
  const auto edge =
      std::find_if(slot.remote.begin(), slot.remote.end(),
                   [lender](const auto& e) { return e.first == lender; });
  if (edge == slot.remote.end() || amount == 0) return 0;
  const MiB give = std::min(amount, edge->second);
  const std::uint32_t l = lender.get();
  return_to_lender(l, give);
  edge->second -= give;
  slot.cached_total -= give;
  mark_lender_dirty(lender);
  std::int64_t edges_removed = 0;
  if (edge->second == 0) {
    const bool removed = borrow_slab_.remove(l, slot_ref_[host.get()]);
    DMSIM_ASSERT(removed, "borrow edge missing from reverse slab");
    slot.remote.erase(edge);
    edges_removed = 1;
  }
  ++change_epoch_;
  mark_slot_dirty(slot);
  obs::bump(c_reclaim_ops_);
  obs::bump(c_reclaimed_mib_, static_cast<std::uint64_t>(give));
  if (obs_ != nullptr) {
    const Seconds now = obs_->now();
    obs::record(s_reclaim_mib_, now, give);
    if (edges_removed > 0) obs::record(s_edge_churn_, now, edges_removed);
  }
  if (g_lent_) g_lent_->set(total_lent_);
  if (g_allocated_) g_allocated_->set(total_allocated_);
  publish_tier_gauges();
  if (obs::tracing(obs_)) {
    obs_->sink->emit(obs::Event{obs::EventKind::MemReclaim, obs_->now(),
                                job.get(), host.get()}
                         .with("mib", give)
                         .with("lent_total", total_lent_));
  }
  return give;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

const AllocationSlot& Cluster::slot(JobId job, NodeId host) const {
  const std::uint32_t h = checked(host);
  DMSIM_ASSERT(job.valid() && running_job_[h] == job.get(),
               "no allocation slot for (job, host)");
  const SlotRef ref = slot_ref_[h];
  return jobs_[ref.handle].slots[ref.pos];
}

bool Cluster::has_slot(JobId job, NodeId host) const {
  return job.valid() && host.valid() && host.get() < node_count() &&
         running_job_[host.get()] == job.get();
}

AllocationSlot& Cluster::slot_mut(JobId job, NodeId host) {
  return const_cast<AllocationSlot&>(std::as_const(*this).slot(job, host));
}

std::uint32_t Cluster::handle_of(JobId job) const {
  const auto it = handle_of_.find(job.get());
  return it == handle_of_.end() ? kNil : it->second;
}

std::span<const NodeId> Cluster::hosts_of(JobId job) const {
  const std::uint32_t handle = handle_of(job);
  if (handle == kNil) return {};
  return jobs_[handle].hosts;
}

std::span<const AllocationSlot> Cluster::job_slots(JobId job) const {
  const std::uint32_t handle = handle_of(job);
  if (handle == kNil) return {};
  return jobs_[handle].slots;
}

void Cluster::borrowers_of(NodeId lender,
                           std::vector<BorrowEdge>& out) const {
  const std::size_t first = out.size();
  const std::uint8_t tier = tier_[checked(lender)];
  borrow_slab_.for_each(lender.get(), [&](SlotRef ref) {
    const AllocationSlot& slot = jobs_[ref.handle].slots[ref.pos];
    for (const auto& [from, amount] : slot.remote) {
      if (from == lender) {
        DMSIM_ASSERT(amount > 0, "reverse index holds a zero edge");
        out.push_back(
            BorrowEdge{slot.job, slot.host, amount, tier, slot.total()});
        break;  // edges are merged: at most one per lender
      }
    }
  });
  // Canonical order: borrower job id ascending, then the host's position in
  // the job's assignment. This matches a job-id-ordered walk of each job's
  // slots, which the incremental contention refresh relies on for
  // reproducible pressure summation.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            [this](const BorrowEdge& a, const BorrowEdge& b) {
              if (a.job != b.job) return a.job < b.job;
              return slot_ref_[a.host.get()].pos < slot_ref_[b.host.get()].pos;
            });
}

std::vector<Cluster::BorrowEdge> Cluster::borrowers_of(NodeId lender) const {
  std::vector<BorrowEdge> out;
  borrowers_of(lender, out);
  return out;
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

void Cluster::check_invariants() const {
  const std::size_t n = node_count();
  std::vector<MiB> local(n, 0);
  std::vector<MiB> lent(n, 0);
  // Every (lender, slot) borrow pair implied by the slots, to compare
  // against the reverse slab wholesale (sort + one linear scan) instead of
  // probing the slab once per edge.
  std::vector<std::pair<std::uint32_t, SlotRef>> expected_edges;
  MiB allocated = 0;
  std::size_t live_jobs = 0;
  std::size_t live_slots = 0;
  std::vector<std::uint8_t> listed_free(jobs_.size(), 0);
  for (const std::uint32_t f : free_handles_) {
    DMSIM_ASSERT(f < jobs_.size() && listed_free[f] == 0,
                 "free-handle list corrupt");
    listed_free[f] = 1;
  }
  for (std::uint32_t handle = 0; handle < jobs_.size(); ++handle) {
    const JobSlots& entry = jobs_[handle];
    if (!entry.job.valid()) {
      DMSIM_ASSERT(listed_free[handle] != 0 && entry.hosts.empty() &&
                       entry.slots.empty(),
                   "free handle not recycled cleanly");
      continue;
    }
    DMSIM_ASSERT(listed_free[handle] == 0, "live handle on the free list");
    DMSIM_ASSERT(handle_of(entry.job) == handle,
                 "job handle map disagrees with the slab");
    DMSIM_ASSERT(!entry.slots.empty() &&
                     entry.hosts.size() == entry.slots.size(),
                 "slab entry hosts and slots disagree");
    ++live_jobs;
    for (std::uint32_t pos = 0; pos < entry.slots.size(); ++pos) {
      const AllocationSlot& slot = entry.slots[pos];
      DMSIM_ASSERT(slot.job == entry.job && slot.host == entry.hosts[pos],
                   "slot disagrees with its slab entry");
      const std::uint32_t h = checked(slot.host);
      DMSIM_ASSERT(running_job_[h] == slot.job.get(),
                   "slot host not running the slot's job");
      DMSIM_ASSERT((slot_ref_[h] == SlotRef{handle, pos}),
                   "slot-reference column out of date");
      DMSIM_ASSERT(slot.local >= 0, "negative local share");
      local[h] += slot.local;
      allocated += slot.local;
      MiB total = slot.local;
      for (const auto& [lender, amount] : slot.remote) {
        DMSIM_ASSERT(amount > 0, "zero/negative borrow edge left in ledger");
        DMSIM_ASSERT(lender != slot.host, "self-borrow edge");
        lent[lender.get()] += amount;
        allocated += amount;
        total += amount;
        expected_edges.emplace_back(lender.get(), SlotRef{handle, pos});
      }
      DMSIM_ASSERT(slot.cached_total == total, "cached slot total out of date");
      ++live_slots;
    }
  }
  DMSIM_ASSERT(live_jobs == handle_of_.size(),
               "job handle map holds unassigned jobs");
  // Reverse slab must hold exactly the implied edge set (each edge once).
  std::vector<std::pair<std::uint32_t, SlotRef>> actual_edges;
  actual_edges.reserve(expected_edges.size());
  for (std::uint32_t l = 0; l < n; ++l) {
    std::size_t row = 0;
    borrow_slab_.for_each(l, [&](SlotRef ref) {
      actual_edges.emplace_back(l, ref);
      ++row;
    });
    DMSIM_ASSERT(row == borrow_slab_.degree[l],
                 "reverse slab degree disagrees with its row");
  }
  std::sort(expected_edges.begin(), expected_edges.end());
  std::sort(actual_edges.begin(), actual_edges.end());
  DMSIM_ASSERT(expected_edges == actual_edges,
               "reverse slab disagrees with live borrow edges");
  DMSIM_ASSERT(borrow_slab_.live == expected_edges.size(),
               "reverse slab live count out of sync");

  // One cache-linear pass over the columns: occupancy sums, bounds, the
  // derived free/memory-node/membership columns and every node's lender
  // leaf. The host bit is exact for every node; a leaf holds its node's id,
  // and its rank equals the state-derived one unless the node is stale.
  const std::size_t tc = tiers_.size();
  DMSIM_ASSERT(lender_trees_.size() == tc, "one lender tree per tier");
  std::vector<MiB> tier_free(tc, 0);
  std::vector<MiB> tier_lent(tc, 0);
  std::vector<std::size_t> tier_nodes(tc, 0);
  std::size_t host_entries = 0;
  std::size_t stale_entries = 0;
  std::size_t busy_nodes = 0;
  MiB lent_total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    busy_nodes += running_job_[i] != kIdle ? 1 : 0;
    DMSIM_ASSERT(local_used_[i] == local[i],
                 "node local_used disagrees with slots");
    DMSIM_ASSERT(lent_[i] == lent[i], "node lent disagrees with edges");
    DMSIM_ASSERT(local_used_[i] + lent_[i] <= capacity_[i],
                 "node over-committed");
    DMSIM_ASSERT(local_used_[i] >= 0 && lent_[i] >= 0,
                 "negative ledger entry");
    const MiB free = capacity_[i] - local_used_[i] - lent_[i];
    const bool mem = lent_[i] * 2 > capacity_[i];
    const bool host = running_job_[i] == kIdle && !mem;
    DMSIM_ASSERT(free_[i] == free, "free column out of date");
    DMSIM_ASSERT((mem_node_[i] != 0) == mem, "memory-node column out of date");
    const std::uint8_t bits = index_bits_[i];
    DMSIM_ASSERT((bits & ~(kInHost | kStale)) == 0,
                 "unknown index membership bits");
    DMSIM_ASSERT(((bits & kInHost) != 0) == host,
                 "host-index bit disagrees with node state");
    const std::uint8_t t = tier_[i];
    DMSIM_ASSERT(t < tc, "tier column out of range");
    const std::vector<LenderKey>& tree = lender_trees_[t];
    const std::uint32_t leaf = lender_leaf_[i];
    DMSIM_ASSERT(leaf >= tree.size() / 2 && leaf < tree.size() &&
                     tree[leaf].id == i,
                 "lender leaf does not hold its node");
    if ((bits & kStale) != 0) {
      ++stale_entries;
    } else {
      DMSIM_ASSERT(tree[leaf].rank == lender_rank(free, mem),
                   "lender leaf of a synced node disagrees with node state");
    }
    host_entries += host ? 1 : 0;
    lent_total += lent_[i];
    tier_free[t] += free;
    tier_lent[t] += lent_[i];
    ++tier_nodes[t];
  }
  // The stale list and the stale bits match one to one: every listed node
  // carries the bit and is listed once, and as many nodes carry it.
  {
    std::vector<std::uint8_t> listed(n, 0);
    for (const std::uint32_t i : stale_lenders_) {
      DMSIM_ASSERT(i < n && (index_bits_[i] & kStale) != 0 && listed[i] == 0,
                   "stale-lender list disagrees with the stale bits");
      listed[i] = 1;
    }
    DMSIM_ASSERT(stale_lenders_.size() == stale_entries,
                 "stale-lender list misses a stale node");
  }
  // The host index: every entry it holds must be a node whose host bit is
  // set, keyed by its free_ entry; with the bit count matching the set size,
  // membership is exact. Each lender tree has one leaf per node of its tier
  // (each leaf holds its own node, checked above), and every internal entry
  // holds the better of its two children.
  DMSIM_ASSERT(host_index_.size() == host_entries,
               "host index disagrees with node state");
  for (const FreeKey& k : host_index_) {
    DMSIM_ASSERT(k.second < n && (index_bits_[k.second] & kInHost) != 0 &&
                     free_[k.second] == k.first,
                 "host index disagrees with node state");
  }
  for (std::size_t t = 0; t < tc; ++t) {
    const std::vector<LenderKey>& tree = lender_trees_[t];
    DMSIM_ASSERT(tree.size() == 2 * std::max<std::size_t>(tier_nodes[t], 1),
                 "lender tree size disagrees with its tier");
    DMSIM_ASSERT(tier_nodes[t] != 0 || tree[1] == LenderKey{},
                 "empty tier's lender tree holds a lender");
    for (std::size_t p = 1; p < tier_nodes[t]; ++p) {
      DMSIM_ASSERT(tree[p] == better(tree[2 * p], tree[2 * p + 1]),
                   "lender tree entry is not the winner of its children");
    }
    if (tiered()) {
      DMSIM_ASSERT(tier_free_mib_[t] == tier_free[t],
                   "per-tier free total out of sync");
      DMSIM_ASSERT(tier_lent_mib_[t] == tier_lent[t],
                   "per-tier lent total out of sync");
    }
  }
  // Each slot points its host back at itself (checked above), so equal
  // counts make slots and busy nodes a bijection.
  DMSIM_ASSERT(busy_nodes == live_slots, "busy node without an allocation slot");
  DMSIM_ASSERT(allocated == total_allocated_,
               "aggregate allocation counter out of sync");
  DMSIM_ASSERT(lent_total == total_lent_, "aggregate lent counter out of sync");
}

// ---------------------------------------------------------------------------
// Snapshot (checkpoint/restore)
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint32_t kClusterSection =
    snapshot::section_tag('C', 'L', 'U', 'S');
}  // namespace

void Cluster::save_state(snapshot::Writer& writer) const {
  writer.section(kClusterSection);
  writer.u32(static_cast<std::uint32_t>(node_count()));
  // v4: the tier table and the tier/rack topology columns lead the section.
  // They are immutable, but carrying them makes a tier-topology mixup a
  // loud restore error instead of a silently different simulation.
  writer.u32(static_cast<std::uint32_t>(tiers_.size()));
  for (const MemoryTier& t : tiers_) {
    writer.str(t.name);
    writer.f64(t.latency_ns);
    writer.f64(t.bandwidth_gbs);
    writer.u8(static_cast<std::uint8_t>(t.scope));
  }
  writer.column(tier_);
  for (const std::uint16_t r : rack_) writer.u32(r);  // u16 stored as u32
  // Occupancy columns back to back (all running_job, then all local_used,
  // then all lent): each one block copy out, and one straight back in.
  writer.column(running_job_);
  writer.column(local_used_);
  writer.column(lent_);

  // Jobs in id order (handles are an in-memory detail: recycling makes
  // them history-dependent, so they never reach the format); each job's
  // hosts in assignment order, each slot's borrow edges in their live
  // merged order.
  std::vector<std::pair<JobId, std::uint32_t>> jobs;
  jobs.reserve(handle_of_.size());
  for (std::uint32_t handle = 0; handle < jobs_.size(); ++handle) {
    if (jobs_[handle].job.valid()) jobs.emplace_back(jobs_[handle].job, handle);
  }
  std::sort(jobs.begin(), jobs.end());
  writer.u32(static_cast<std::uint32_t>(jobs.size()));
  for (const auto& [job, handle] : jobs) {
    const std::vector<AllocationSlot>& slots = jobs_[handle].slots;
    writer.u32(job.get());
    writer.u32(static_cast<std::uint32_t>(slots.size()));
    for (const AllocationSlot& slot : slots) {
      writer.u32(slot.host.get());
      writer.i64(slot.local);
      writer.u32(static_cast<std::uint32_t>(slot.remote.size()));
      for (const auto& [lender, amount] : slot.remote) {
        writer.u32(lender.get());
        writer.i64(amount);
      }
    }
  }

  writer.i64(total_allocated_);
  writer.i64(total_lent_);
  writer.u64(change_epoch_);
}

void Cluster::restore_state(snapshot::Reader& reader,
                            std::uint32_t format_version) {
  reader.expect_section(kClusterSection, "cluster");
  const std::size_t n = node_count();
  if (reader.u32() != n) {
    throw snapshot::SnapshotError(
        "snapshot: node count mismatch — different cluster configuration");
  }
  if (format_version >= 4) {
    // The stored tier topology must match this cluster's exactly; v2/v3
    // files predate tiers and can only have been written by a flat
    // topology (the fingerprint already pins that).
    if (reader.u32() != tiers_.size()) {
      throw snapshot::SnapshotError(
          "snapshot: tier table size mismatch — different memory topology");
    }
    for (const MemoryTier& t : tiers_) {
      const std::string_view name = reader.str();
      const double latency = reader.f64();
      const double bandwidth = reader.f64();
      const std::uint8_t scope = reader.u8();
      if (name != t.name || latency != t.latency_ns ||
          bandwidth != t.bandwidth_gbs ||
          scope != static_cast<std::uint8_t>(t.scope)) {
        throw snapshot::SnapshotError(
            "snapshot: tier table mismatch — different memory topology");
      }
    }
    std::vector<std::uint8_t> tier(n);
    reader.column(tier);
    if (tier != tier_) {
      throw snapshot::SnapshotError(
          "snapshot: node tier column mismatch — different memory topology");
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      if (reader.u32() != rack_[i]) {
        throw snapshot::SnapshotError(
            "snapshot: node rack column mismatch — different memory topology");
      }
    }
  }

  // Wipe all mutable state back to the empty ledger.
  jobs_.clear();
  free_handles_.clear();
  handle_of_.clear();
  slot_ref_.assign(n, SlotRef{});
  borrow_slab_.init(n);
  dirty_lenders_.clear();
  dirty_jobs_.clear();
  lender_dirty_flag_.assign(n, 0);

  if (format_version >= 3) {
    // Columnar layout: each occupancy column stored contiguously.
    reader.column(running_job_);
    reader.column(local_used_);
    reader.column(lent_);
  } else {
    // v2 layout: one interleaved (running_job, local_used, lent) record per
    // node.
    for (std::uint32_t i = 0; i < n; ++i) {
      running_job_[i] = reader.u32();
      local_used_[i] = reader.i64();
      lent_[i] = reader.i64();
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (local_used_[i] < 0 || lent_[i] < 0 ||
        local_used_[i] + lent_[i] > capacity_[i]) {
      throw snapshot::SnapshotError("snapshot: node ledger out of range");
    }
  }
  // Derived columns, the host index and the lender trees come back in one
  // bulk pass over the restored occupancy columns.
  rebuild_indexes_bulk();

  const std::uint32_t n_jobs = reader.u32();
  for (std::uint32_t j = 0; j < n_jobs; ++j) {
    const JobId job{reader.u32()};
    const std::uint32_t n_hosts = reader.u32();
    if (!job.valid()) throw snapshot::SnapshotError("snapshot: invalid job id");
    if (n_hosts == 0 || n_hosts > n) {
      throw snapshot::SnapshotError(
          "snapshot: assigned job host count out of range");
    }
    // Handles are dealt densely in job-id order; the saving run's handles
    // are not part of the format.
    const auto handle = static_cast<std::uint32_t>(jobs_.size());
    if (!handle_of_.emplace(job.get(), handle).second) {
      throw snapshot::SnapshotError("snapshot: duplicate job assignment");
    }
    JobSlots& entry = jobs_.emplace_back();
    entry.job = job;
    entry.hosts.reserve(n_hosts);
    entry.slots.reserve(n_hosts);
    for (std::uint32_t pos = 0; pos < n_hosts; ++pos) {
      const std::uint32_t host = reader.u32();
      if (host >= n || running_job_[host] != job.get()) {
        throw snapshot::SnapshotError(
            "snapshot: slot host is not running the slot's job");
      }
      if (slot_ref_[host].handle != kNil) {
        throw snapshot::SnapshotError("snapshot: duplicate allocation slot");
      }
      slot_ref_[host] = SlotRef{handle, pos};
      entry.hosts.emplace_back(NodeId{host});
      AllocationSlot& slot = entry.slots.emplace_back();
      slot.job = job;
      slot.host = NodeId{host};
      slot.local = reader.i64();
      if (slot.local < 0 || slot.local > capacity_[host]) {
        throw snapshot::SnapshotError("snapshot: local share out of range");
      }
      slot.cached_total = slot.local;
      // Edges are merged per lender and never self-borrow.
      const std::uint32_t n_edges = reader.u32();
      if (n_edges >= n) {
        throw snapshot::SnapshotError("snapshot: invalid borrow edge");
      }
      slot.remote.reserve(n_edges);
      for (std::uint32_t e = 0; e < n_edges; ++e) {
        const std::uint32_t lender = reader.u32();
        const MiB amount = reader.i64();
        if (lender >= n || lender == host || amount <= 0 ||
            amount > capacity_[lender]) {
          throw snapshot::SnapshotError("snapshot: invalid borrow edge");
        }
        slot.remote.emplace_back(NodeId{lender}, amount);
        slot.cached_total += amount;
        borrow_slab_.add(lender, SlotRef{handle, pos});
      }
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (running_job_[i] != kIdle && slot_ref_[i].handle == kNil) {
      throw snapshot::SnapshotError(
          "snapshot: busy node without an allocation slot");
    }
  }

  total_allocated_ = reader.i64();
  total_lent_ = reader.i64();
  change_epoch_ = reader.u64();

  // Full validation: per-node sums vs slots, index memberships, reverse
  // index, aggregate counters. A snapshot that passes this is exactly a
  // state the mutation API could have produced.
  check_invariants();
}

}  // namespace dmsim::cluster
