// Cluster model with a disaggregated memory ledger.
//
// A cluster is a set of nodes, each with cores and local DRAM. Node
// allocation is exclusive (one job per node, as in the paper's Slurm setup),
// but memory is a pooled resource: a job hosted on node H may have part of
// its allocation *borrowed* from lender nodes L1..Lk. The ledger tracks, per
// (job, host) slot, the local share and every borrow edge, and enforces the
// paper's rules:
//
//   * free memory on a node = capacity - hosted-job local share - lent,
//   * any free memory may be lent to remote jobs,
//   * a node that has lent more than half of its capacity temporarily becomes
//     a "memory node": it keeps lending but accepts no new jobs (§2.1).
//
// All mutation goes through grow/shrink operations that keep aggregate
// counters consistent; `check_invariants()` revalidates the full ledger and
// is exercised heavily by the test suite.
//
// Storage layout: the ledger is a structure of arrays. Each per-node
// attribute (capacity, local share, lent, derived free, running job, the
// memory-node flag) lives in its own contiguous column indexed by node id,
// so full-ledger scans — invariant sweeps, slowdown evaluation, snapshot
// serialization, the scale_sweep probes — touch only the columns they need
// and stay cache-linear at 100k-1M nodes, where the former vector<Node> of
// fat per-node objects paid a full struct line per probe. The columns are
// the only representation of a node: callers read one attribute with the
// `*_of()` accessors (one array element each) or a whole column as a span.
//
// The allocation ledger is job-major: each assigned job owns a dense slab
// entry (a recycled internal handle) holding its hosts and slots
// contiguously in assignment order, and each node's slot-reference column
// points at the slot of the job it runs. A job-wide call (finish, the
// Actuator's batched resize, the contention model's per-job walks) hashes
// the job id once; a (job, host) call hashes nothing.
//
// Scalability: an ordered free-memory index of hostable nodes, one
// tournament tree of lenders per memory tier, and a reverse lender ->
// borrow-edge slab (a CSR-style flat edge pool with per-lender rows) mean
// host selection, lender picks, `idle_hostable_nodes()` and `borrowers_of()`
// never rescan all nodes or all slots. The host index is keyed (free asc,
// id asc); its descending-free order is produced by walking equal-free
// buckets back to front, which reproduces the exact (free desc, id asc)
// order of the former sort-based comparator.
//
// The host index is maintained eagerly by every mutation (it is read on
// every placement attempt, and busy hosts are not in it). The lender trees
// are lazy: a mutation only marks the node stale, and grow_remote rewrites
// each stale node's leaf and its root path just before each lender pick,
// its only read. A Monitor resize of a busy host — the bulk of all ledger
// traffic under the Dynamic policy — therefore costs no tree work unless
// something is lent before the node changes again. Each tree's leaves are
// ranked by the configured LenderPolicy, so a synced root is exactly the
// lender the former ordered indexes yielded.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/observer.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace dmsim::snapshot {
class Writer;
class Reader;
}  // namespace dmsim::snapshot

namespace dmsim::cluster {

/// How the ledger picks lender nodes when a job needs remote memory.
/// The paper does not pin this down; MemoryNodesFirst keeps lending
/// concentrated (fewer contended nodes), MostFree spreads it. The ablation
/// bench compares them.
enum class LenderPolicy {
  MostFree,          ///< lend from nodes with the most free memory first
  MemoryNodesFirst,  ///< prefer nodes already past the half-capacity mark, then most-free
  LeastFree,         ///< pack lenders tightly (worst-fit inverse)
};

/// Interconnect reach of a memory tier, in increasing distance order.
enum class TierScope : std::uint8_t {
  Local = 0,      ///< same-node DRAM exposed to the pool
  Rack = 1,       ///< rack-local CXL switch hop
  CrossRack = 2,  ///< cross-rack fabric
};

/// The latency/bandwidth point the paper's flat remote pool implicitly
/// models (one rack-scale CXL hop). A tier at exactly this point has
/// latency and bandwidth factors of 1.0, so the single-default-tier
/// topology reproduces the flat-pool arithmetic bit for bit.
inline constexpr double kTierReferenceLatencyNs = 350.0;
inline constexpr double kTierReferenceBandwidthGbs = 50.0;

/// One row of the memory-tier descriptor table. Tiers describe how far a
/// lender's memory is from a borrowing host: slower tiers amplify a job's
/// remote-latency exposure (latency_ns / reference) and congest faster
/// under shared bandwidth (reference / bandwidth_gbs).
struct MemoryTier {
  std::string name = "pool";
  double latency_ns = kTierReferenceLatencyNs;
  double bandwidth_gbs = kTierReferenceBandwidthGbs;
  TierScope scope = TierScope::Rack;
};

/// The implicit tier of every flat-pool (un-tiered) configuration.
[[nodiscard]] MemoryTier default_memory_tier();

struct NodeConfig {
  int cores = 32;
  MiB capacity = 0;
  bool large = false;  ///< classification only; capacity carries the size
  std::uint8_t tier = 0;   ///< index into ClusterConfig::tiers
  std::uint16_t rack = 0;  ///< physical grouping; topology metadata only
};

struct ClusterConfig {
  std::vector<NodeConfig> nodes;
  LenderPolicy lender_policy = LenderPolicy::MemoryNodesFirst;
  /// Memory-tier descriptor table. Empty means the flat single-pool model
  /// of the paper: one implicit default_memory_tier() covering every node.
  std::vector<MemoryTier> tiers;
};

/// Convenience builder: `normal_count` nodes of `normal_mib` plus
/// `large_count` nodes of `large_mib`.
[[nodiscard]] ClusterConfig make_cluster_config(int normal_count, MiB normal_mib,
                                                int large_count, MiB large_mib,
                                                int cores = 32);

/// One job's memory on one of its hosts: local share plus borrow edges.
struct AllocationSlot {
  JobId job{};
  NodeId host{};
  MiB local = 0;
  /// Lender -> amount; kept merged (at most one entry per lender).
  std::vector<std::pair<NodeId, MiB>> remote;
  /// local + the sum of `remote`, kept current by every Cluster mutation so
  /// total() is one read — the Actuator compares it against each host's
  /// demand on every Monitor update.
  MiB cached_total = 0;

  [[nodiscard]] MiB remote_total() const noexcept {
    return cached_total - local;
  }
  [[nodiscard]] MiB total() const noexcept { return cached_total; }
  /// Fraction of the allocation that is remote (0 when empty).
  [[nodiscard]] double remote_fraction() const noexcept {
    const MiB t = total();
    return t == 0 ? 0.0 : static_cast<double>(remote_total()) / static_cast<double>(t);
  }
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  /// Wire observability: trace ledger churn (lend/reclaim, slot grow/shrink)
  /// and register the ledger.* counters. nullptr (default) disables.
  void set_observer(const obs::Observer* observer);

  // --- topology / aggregate queries -------------------------------------
  [[nodiscard]] std::size_t node_count() const noexcept {
    return capacity_.size();
  }
  [[nodiscard]] MiB total_capacity() const noexcept { return total_capacity_; }
  [[nodiscard]] MiB total_allocated() const noexcept { return total_allocated_; }
  [[nodiscard]] MiB total_free() const noexcept {
    return total_capacity_ - total_allocated_;
  }
  /// Aggregate memory currently lent across all nodes. Zero means no job
  /// has any remote memory (the contention model is trivially idle).
  [[nodiscard]] MiB total_lent() const noexcept { return total_lent_; }
  [[nodiscard]] int idle_hostable_nodes() const noexcept {
    return static_cast<int>(host_index_.size());
  }
  [[nodiscard]] LenderPolicy lender_policy() const noexcept {
    return config_.lender_policy;
  }

  // --- memory-tier topology ----------------------------------------------
  /// Normalized tier table (never empty: a flat config gets the implicit
  /// default tier at index 0).
  [[nodiscard]] std::span<const MemoryTier> tiers() const noexcept {
    return tiers_;
  }
  [[nodiscard]] std::size_t tier_count() const noexcept {
    return tiers_.size();
  }
  /// True when more than one tier exists. Every tier-aware code path is
  /// gated on this so a degenerate single-tier topology takes exactly the
  /// flat-pool instructions (the byte-identity contract).
  [[nodiscard]] bool tiered() const noexcept { return tiers_.size() > 1; }
  [[nodiscard]] std::uint8_t tier_of(NodeId id) const {
    return tier_[checked(id)];
  }
  [[nodiscard]] std::uint16_t rack_of(NodeId id) const {
    return rack_[checked(id)];
  }
  [[nodiscard]] std::span<const std::uint8_t> tier_column() const noexcept {
    return tier_;
  }
  [[nodiscard]] std::span<const std::uint16_t> rack_column() const noexcept {
    return rack_;
  }
  /// latency_ns / reference-latency of tier `t` (1.0 for the default tier).
  [[nodiscard]] double tier_latency_factor(std::uint8_t t) const {
    return tier_latency_factor_[t];
  }
  /// reference-bandwidth / bandwidth_gbs of tier `t` (1.0 for the default
  /// tier); scales how fast the tier's lenders congest under pressure.
  [[nodiscard]] double tier_bandwidth_factor(std::uint8_t t) const {
    return tier_bandwidth_factor_[t];
  }
  /// Tier ids ordered nearest first (latency asc, id asc) — the spill-out
  /// order lender selection walks when tiered.
  [[nodiscard]] std::span<const std::uint8_t> tier_order() const noexcept {
    return tier_order_;
  }
  /// Lendable free memory in tier `t` (sum of free() over its nodes).
  [[nodiscard]] MiB tier_free(std::uint8_t t) const {
    return tiered() ? tier_free_mib_[t] : total_free();
  }
  /// Memory currently lent out of tier `t`.
  [[nodiscard]] MiB tier_lent(std::uint8_t t) const {
    return tiered() ? tier_lent_mib_[t] : total_lent_;
  }

  // --- single-column accessors (one array read each; hot-path safe) -------
  [[nodiscard]] MiB capacity_of(NodeId id) const {
    return capacity_[checked(id)];
  }
  [[nodiscard]] MiB local_used_of(NodeId id) const {
    return local_used_[checked(id)];
  }
  [[nodiscard]] MiB lent_of(NodeId id) const { return lent_[checked(id)]; }
  [[nodiscard]] MiB free_of(NodeId id) const { return free_[checked(id)]; }
  [[nodiscard]] int cores_of(NodeId id) const { return cores_[checked(id)]; }
  [[nodiscard]] bool is_large(NodeId id) const {
    return large_[checked(id)] != 0;
  }
  [[nodiscard]] JobId running_job_of(NodeId id) const {
    return JobId{running_job_[checked(id)]};
  }
  [[nodiscard]] bool is_idle(NodeId id) const {
    return running_job_[checked(id)] == NodeId::kInvalid;
  }
  [[nodiscard]] bool is_memory_node(NodeId id) const {
    return mem_node_[checked(id)] != 0;
  }

  // --- whole-column spans (SoA scan surface) ------------------------------
  // Contiguous, indexed by node id. `free_column()[i]` is maintained
  // incrementally (== capacity - local_used - lent at all times), so a
  // full-ledger probe like "count hostable nodes with free >= X" is a
  // branch-light linear scan over two or three columns.
  [[nodiscard]] std::span<const MiB> capacity_column() const noexcept {
    return capacity_;
  }
  [[nodiscard]] std::span<const std::int32_t> cores_column() const noexcept {
    return cores_;
  }
  /// 1 where the node was configured large (classification only).
  [[nodiscard]] std::span<const std::uint8_t> large_column() const noexcept {
    return large_;
  }
  [[nodiscard]] std::span<const MiB> local_used_column() const noexcept {
    return local_used_;
  }
  [[nodiscard]] std::span<const MiB> lent_column() const noexcept {
    return lent_;
  }
  [[nodiscard]] std::span<const MiB> free_column() const noexcept {
    return free_;
  }
  [[nodiscard]] std::span<const std::uint32_t> running_job_column()
      const noexcept {
    return running_job_;
  }
  /// 1 where lent*2 > capacity (derived, maintained incrementally).
  [[nodiscard]] std::span<const std::uint8_t> memory_node_column()
      const noexcept {
    return mem_node_;
  }

  /// Monotonic counter bumped by every mutation that changes ledger state
  /// (assignment, completion, any grow/shrink that moved memory). A policy
  /// decision is a pure function of ledger state, so an unchanged epoch
  /// means an unchanged decision — the scheduler uses this to replay cached
  /// denials instead of re-running host selection.
  [[nodiscard]] std::uint64_t change_epoch() const noexcept {
    return change_epoch_;
  }

  /// True if the node is idle and not a memory node (may accept a job).
  [[nodiscard]] bool can_host(NodeId id) const {
    const std::uint32_t i = checked(id);
    return running_job_[i] == NodeId::kInvalid && mem_node_[i] == 0;
  }

  // --- ordered-index queries (policy/scheduler hot paths) -----------------
  /// Nodes with capacity >= `capacity`, ordered (capacity asc, id asc).
  /// Capacities are immutable, so the span is a suffix of a static order.
  [[nodiscard]] std::span<const NodeId> nodes_by_capacity_at_least(
      MiB capacity) const noexcept;

  /// Visit idle, non-memory nodes with free() >= `min_free` in ascending
  /// (free, id) order — the Static policy's "tightest sufficient fit"
  /// order. `fn(NodeId)` returns false to stop early.
  template <typename Fn>
  void visit_hostable_at_least(MiB min_free, Fn&& fn) const {
    const auto begin = host_index_.lower_bound(FreeKey{min_free, 0});
    for (auto it = begin; it != host_index_.end(); ++it) {
      if (!fn(NodeId{it->second})) return;
    }
  }

  /// Visit idle, non-memory nodes with free() < `max_free` in descending
  /// free order (ties by ascending id) — the Static policy's "most free
  /// insufficient" order. `fn(NodeId)` returns false to stop early.
  template <typename Fn>
  void visit_hostable_below_desc(MiB max_free, Fn&& fn) const {
    visit_desc(host_index_, host_index_.lower_bound(FreeKey{max_free, 0}),
               [&](const FreeKey& k) { return fn(NodeId{k.second}); });
  }

  // --- topology edits ------------------------------------------------------
  /// Append idle nodes to the cluster — the what-if overlay's "+N memory
  /// nodes" edit. New nodes take the next ids, start empty, and every
  /// derived column/index is rebuilt in one bulk pass. Must be called while
  /// no simulation events are in flight for the new nodes (the serve layer
  /// applies it right after restoring a snapshot, before resuming). Note
  /// the config fingerprint hashes the ORIGINAL topology; callers restoring
  /// snapshots must apply topology edits after the restore.
  void add_nodes(std::span<const NodeConfig> new_nodes);

  // --- job placement -----------------------------------------------------
  /// Mark `hosts` as running `job` and create empty allocation slots, one
  /// per host in the given order. The job takes a dense internal handle
  /// (recycled from finished jobs). Every host must currently satisfy
  /// can_host().
  void assign_job(JobId job, std::span<const NodeId> hosts);

  /// Release all of the job's memory (local + every borrow edge) and free
  /// its hosts.
  void finish_job(JobId job);

  // --- memory operations (policy layer calls these) ----------------------
  /// Grow the slot's local share by up to `amount`; returns granted MiB.
  MiB grow_local(JobId job, NodeId host, MiB amount);

  /// Shrink the slot's local share by up to `amount`; returns released MiB.
  MiB shrink_local(JobId job, NodeId host, MiB amount);

  /// Grow the slot's remote share by up to `amount`, choosing lenders
  /// according to the configured LenderPolicy; returns granted MiB.
  MiB grow_remote(JobId job, NodeId host, MiB amount);

  /// Shrink the slot's remote share by up to `amount`, returning memory to
  /// lenders (largest borrow first, to clear memory-node status soonest);
  /// returns released MiB.
  MiB shrink_remote(JobId job, NodeId host, MiB amount);

  /// Shrink one specific borrow edge by up to `amount`, returning memory to
  /// exactly `lender`; returns released MiB (0 when no such edge). The
  /// tier-migration primitive: paired with grow_remote (which refills from
  /// the nearest tier with free capacity) it moves borrowed memory between
  /// tiers without touching any other edge.
  MiB shrink_remote_edge(JobId job, NodeId host, NodeId lender, MiB amount);

  /// The slot of `job` on `host`: O(1) through the host's slot-reference
  /// column, no hashing.
  [[nodiscard]] const AllocationSlot& slot(JobId job, NodeId host) const;
  [[nodiscard]] bool has_slot(JobId job, NodeId host) const;

  /// Hosts of a job in assignment order (empty span if not assigned).
  [[nodiscard]] std::span<const NodeId> hosts_of(JobId job) const;

  /// All slots of a job (one per host), contiguous in assignment order
  /// (empty span if not assigned). Valid until the job's next assign/finish.
  [[nodiscard]] std::span<const AllocationSlot> job_slots(JobId job) const;

  /// Jobs borrowing from `lender` as (job, host, amount) triples. Edges are
  /// tier-tagged with the lender's tier (every edge of one lender shares it)
  /// and carry the borrowing slot's total, the denominator of the edge's
  /// contention pressure.
  struct BorrowEdge {
    JobId job{};
    NodeId host{};
    MiB amount = 0;
    std::uint8_t tier = 0;
    MiB slot_total = 0;
  };
  /// Append `lender`'s borrow edges to `out` in canonical order: ascending
  /// borrower job id, then the host's position in the job's assignment.
  /// O(edges of this lender) via the reverse slab.
  void borrowers_of(NodeId lender, std::vector<BorrowEdge>& out) const;
  [[nodiscard]] std::vector<BorrowEdge> borrowers_of(NodeId lender) const;

  // --- contention dirty tracking ------------------------------------------
  /// Lenders whose bandwidth pressure may have changed since the last
  /// clear_contention_dirty(): an edge was added/removed/resized, or a
  /// borrowing slot's total allocation moved. Deduplicated.
  [[nodiscard]] std::span<const NodeId> dirty_lenders() const noexcept {
    return dirty_lenders_;
  }
  /// Jobs whose slowdown inputs changed (slot totals or borrow edges). May
  /// contain duplicates and ids of jobs that have since finished.
  [[nodiscard]] std::span<const JobId> dirty_jobs() const noexcept {
    return dirty_jobs_;
  }
  void clear_contention_dirty();

  /// Full-ledger consistency check (including every incremental index);
  /// aborts (DMSIM_ASSERT) on violation. One cache-linear pass over the
  /// columns plus one walk of the host index and of each lender tree — no
  /// per-node tree probes.
  void check_invariants() const;

  /// Serialize mutable ledger state: the tier table and tier/rack columns
  /// (v4 — restore cross-checks them against the configured topology so a
  /// tier mixup fails loudly), per-node occupancy columns, every job's
  /// hosts and slots (borrow edges in their exact merged order —
  /// grow_remote merges into existing edges positionally, so order is
  /// state), aggregate totals and the change epoch. The rest of the
  /// topology (capacities, lender policy) is NOT serialized; the checkpoint
  /// layer fingerprints it instead. Writes the v4 layout.
  void save_state(snapshot::Writer& writer) const;

  /// Rebuild ledger state from save_state bytes onto this (identically
  /// configured) cluster. `format_version` is the enclosing snapshot
  /// version: 2 reads the legacy interleaved per-node layout, 3 the
  /// columnar layout, >= 4 columnar plus the tier table/columns. The
  /// host index, the lender trees and the reverse borrow slab are rebuilt
  /// in one bulk pass from the restored columns (not n individual tree
  /// inserts), contention dirty sets are cleared (the scheduler resets its
  /// slowdown cache to a full rebuild), and check_invariants() validates
  /// the result.
  void restore_state(snapshot::Reader& reader, std::uint32_t format_version = 4);

 private:
  [[nodiscard]] std::uint32_t checked(NodeId id) const;

  /// (free MiB, node id): the ordered-set key of the host index.
  using FreeKey = std::pair<MiB, std::uint32_t>;
  using FreeIndex = std::set<FreeKey>;

  /// Index-membership bits a node holds. kInHost is exact at all times;
  /// its key is the free_ column entry (reindex_node updates both). kStale
  /// marks a node on stale_lenders_ whose lender-tree leaf may lag its
  /// current state.
  static constexpr std::uint8_t kInHost = 1;  ///< host_index_: idle, not a memory node
  static constexpr std::uint8_t kStale = 2;   ///< lender leaf awaits a sync

  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// A lender-tree entry: a node's rank under the LenderPolicy and its id.
  /// The higher rank wins and equal ranks go to the lower id; a node with
  /// no free memory ranks kNoLender, below every node that can lend.
  struct LenderKey {
    static constexpr MiB kNoLender = std::numeric_limits<MiB>::min();
    MiB rank = kNoLender;
    std::uint32_t id = kNil;
    friend bool operator==(LenderKey, LenderKey) noexcept = default;
  };
  [[nodiscard]] static LenderKey better(LenderKey a, LenderKey b) noexcept {
    return a.rank > b.rank || (a.rank == b.rank && a.id < b.id) ? a : b;
  }
  /// The rank of a node with this free value and memory-node flag:
  /// MostFree ranks free desc, LeastFree free asc, MemoryNodesFirst puts
  /// memory nodes above every other node and ranks free desc within each.
  [[nodiscard]] MiB lender_rank(MiB free, bool mem) const noexcept;

  /// Where a slot lives in the job-major slab: the job's handle and the
  /// host's position in the job's assignment order.
  struct SlotRef {
    std::uint32_t handle = kNil;
    std::uint32_t pos = 0;
    friend bool operator==(SlotRef, SlotRef) noexcept = default;
    friend auto operator<=>(SlotRef, SlotRef) noexcept = default;
  };

  /// One job's allocation in the slab: its hosts and their slots, both in
  /// assignment order. A free handle has an invalid job and empty vectors.
  struct JobSlots {
    JobId job{};
    std::vector<NodeId> hosts;
    std::vector<AllocationSlot> slots;
  };

  /// Reverse lender -> borrow-edge index: a CSR-style edge slab. All edges
  /// of all lenders live in one flat entry pool; each lender's row is a
  /// singly-linked chain through the pool (head_[lender]), and freed
  /// entries recycle through a free list. Compared with the former
  /// vector<vector<...>>, rows cost no per-lender heap allocation and the
  /// whole structure is two contiguous arrays plus the pool.
  struct BorrowSlab {
    struct Entry {
      SlotRef slot;                ///< the borrowing slot
      std::uint32_t next = kNil;   ///< next edge of the same lender
    };
    std::vector<Entry> pool;
    std::vector<std::uint32_t> head;    ///< per lender: first edge or kNil
    std::vector<std::uint32_t> degree;  ///< per lender: live edge count
    std::uint32_t free_head = kNil;
    std::size_t live = 0;

    void init(std::size_t lenders) {
      pool.clear();
      head.assign(lenders, kNil);
      degree.assign(lenders, 0);
      free_head = kNil;
      live = 0;
    }
    /// Extend the lender rows (new lenders start with no edges) while
    /// preserving the existing pool — the add_nodes companion.
    void grow(std::size_t lenders) {
      DMSIM_ASSERT(lenders >= head.size(), "borrow slab cannot shrink");
      head.resize(lenders, kNil);
      degree.resize(lenders, 0);
    }
    void add(std::uint32_t lender, SlotRef ref) {
      std::uint32_t entry;
      if (free_head != kNil) {
        entry = free_head;
        free_head = pool[entry].next;
      } else {
        entry = static_cast<std::uint32_t>(pool.size());
        pool.emplace_back();
      }
      pool[entry].slot = ref;
      pool[entry].next = head[lender];
      head[lender] = entry;
      ++degree[lender];
      ++live;
    }
    /// Unlink the (unique) entry holding `ref` under `lender`.
    /// Returns false if absent (callers assert).
    bool remove(std::uint32_t lender, SlotRef ref) {
      std::uint32_t* link = &head[lender];
      while (*link != kNil) {
        Entry& e = pool[*link];
        if (e.slot == ref) {
          const std::uint32_t dead = *link;
          *link = e.next;
          e.next = free_head;
          free_head = dead;
          --degree[lender];
          --live;
          return true;
        }
        link = &e.next;
      }
      return false;
    }
    template <typename Fn>
    void for_each(std::uint32_t lender, Fn&& fn) const {
      for (std::uint32_t it = head[lender]; it != kNil; it = pool[it].next) {
        fn(pool[it].slot);
      }
    }
  };

  /// Walk `[index.begin(), end)` in descending-free order, visiting equal-
  /// free buckets back to front and each bucket in ascending id order. This
  /// is exactly the (free desc, id asc) order of the former sort-based
  /// lender/host comparators. `fn` returns false to stop.
  template <typename Fn>
  static void visit_desc(const FreeIndex& index, FreeIndex::const_iterator end,
                         Fn&& fn) {
    auto it = end;
    while (it != index.begin()) {
      const auto highest = std::prev(it);
      const auto bucket = index.lower_bound(FreeKey{highest->first, 0});
      for (auto b = bucket; b != it; ++b) {
        if (!fn(*b)) return;
      }
      it = bucket;
    }
  }

  [[nodiscard]] AllocationSlot& slot_mut(JobId job, NodeId host);
  /// The job's slab handle, or kNil when the job is not assigned. The one
  /// hash lookup of every job-wide call.
  [[nodiscard]] std::uint32_t handle_of(JobId job) const;
  /// Return the borrowed `amount` to `lender` and update its column, the
  /// aggregate/tier totals and its index memberships.
  void return_to_lender(std::uint32_t lender, MiB amount);

  /// Move one node's entry in `index` from `old_key` to `new_key` given its
  /// membership before (`had`) and after (`has`). A key change of a member
  /// reuses its tree node instead of freeing one and allocating another.
  static void rekey(FreeIndex& index, bool had, bool has, FreeKey old_key,
                    FreeKey new_key);
  /// Re-derive node `i`'s free value, memory-node flag, per-tier free total
  /// and host-index membership after a mutation of its local_used_/lent_/
  /// running_job_ columns. The lender trees are not touched: the node is
  /// only marked stale.
  void reindex_node(std::uint32_t i);
  /// Bring the lender trees up to date: rewrite each stale node's leaf from
  /// its free_/mem_node_ columns and replay the winners up its root path
  /// (stopping where a winner is unchanged), then empty the stale list.
  /// Called before every lender pick.
  void sync_lender_indexes();
  /// Rebuild free_, mem_node_, membership bits, the host index and every
  /// lender tree from the capacity/local_used/lent/running_job columns in
  /// one bulk pass: the host keys are sorted and range-constructed into the
  /// set, each tree's leaves are filled and its winners built bottom-up in
  /// O(n). Leaves no node stale.
  void rebuild_indexes_bulk();
  void mark_lender_dirty(NodeId id);
  void mark_job_dirty(JobId job) { dirty_jobs_.push_back(job); }
  /// Mark the job and every lender of `slot` dirty: the slot's total moved,
  /// so the amount/total pressure ratio of all its edges changed.
  void mark_slot_dirty(const AllocationSlot& slot);

  /// Best current lender (free memory, excluding `exclude`) under the
  /// configured LenderPolicy, read off the lender trees, which the caller
  /// must have synced (sync_lender_indexes); invalid id when no lender
  /// remains. Tiers are walked nearest first (tier_order_): each is its
  /// tree's root, or, when the root is `exclude`, the best of the siblings
  /// along `exclude`'s leaf path — O(log n) either way. grow_remote drains
  /// each pick completely before asking again, so repeated calls walk the
  /// same sequence a full materialized ordering would.
  [[nodiscard]] NodeId next_lender(NodeId exclude) const;
  /// Push tier_lent_mib_ into the ledger.tier_occupancy.* gauges (no-op on
  /// flat topologies, where none are registered).
  void publish_tier_gauges();

  ClusterConfig config_;

  // --- memory-tier topology (immutable after construction) ----------------
  std::vector<MemoryTier> tiers_;           ///< normalized, never empty
  std::vector<std::uint8_t> tier_;          ///< per-node tier column
  std::vector<std::uint16_t> rack_;         ///< per-node rack column
  std::vector<double> tier_latency_factor_;    ///< latency_ns / reference
  std::vector<double> tier_bandwidth_factor_;  ///< reference / bandwidth_gbs
  std::vector<std::uint8_t> tier_order_;    ///< tier ids, latency asc, id asc
  std::vector<MiB> tier_free_mib_;  ///< sum of free() per tier
  std::vector<MiB> tier_lent_mib_;  ///< sum of lent per tier

  // --- structure-of-arrays ledger columns (index = node id) ---------------
  // Immutable topology columns:
  std::vector<MiB> capacity_;
  std::vector<std::int32_t> cores_;
  std::vector<std::uint8_t> large_;
  // Mutable occupancy columns:
  std::vector<std::uint32_t> running_job_;  ///< JobId raw; kInvalid when idle
  std::vector<MiB> local_used_;
  std::vector<MiB> lent_;
  // Derived columns, maintained by reindex_node():
  std::vector<MiB> free_;               ///< capacity - local_used - lent
  std::vector<std::uint8_t> mem_node_;  ///< 1 iff lent*2 > capacity
  std::vector<std::uint8_t> index_bits_;  ///< kInHost|kStale
  /// Nodes with kStale set, each once, in marking order; bounded by the
  /// node count and emptied by sync_lender_indexes().
  std::vector<std::uint32_t> stale_lenders_;

  // Job-major allocation slab: one entry per assigned job, indexed by a
  // dense handle; finished jobs' handles recycle through a free list.
  std::vector<JobSlots> jobs_;
  std::vector<std::uint32_t> free_handles_;
  std::unordered_map<std::uint32_t, std::uint32_t> handle_of_;  ///< job id -> handle
  /// Per node: the slot of the job it runs (meaningless while idle).
  std::vector<SlotRef> slot_ref_;
  MiB total_capacity_ = 0;
  MiB total_allocated_ = 0;
  MiB total_lent_ = 0;

  // Incremental indexes (see file comment): the host index is eager, the
  // lender trees lazy.
  FreeIndex host_index_;
  /// One winner tree per tier over that tier's nodes (a flat topology has
  /// one). A tier of k nodes holds its leaves at [k, 2k) and the winner of
  /// entries 2p and 2p+1 at p, so entry 1 is the tier's best lender; an
  /// empty tier is the lone entry 1 = LenderKey{}.
  std::vector<std::vector<LenderKey>> lender_trees_;
  std::vector<std::uint32_t> lender_leaf_;  ///< per node: its leaf in its tier's tree
  std::vector<NodeId> nodes_by_capacity_;  ///< static (capacity asc, id asc)
  std::vector<MiB> capacities_sorted_;     ///< capacities in the same order
  BorrowSlab borrow_slab_;  ///< reverse borrow index (lender -> slots)
  std::uint64_t change_epoch_ = 0;

  // Contention dirty sets (consumed via clear_contention_dirty()).
  std::vector<NodeId> dirty_lenders_;
  std::vector<JobId> dirty_jobs_;
  std::vector<std::uint8_t> lender_dirty_flag_;

  // Observability (all nullptr when disabled).
  const obs::Observer* obs_ = nullptr;
  std::uint64_t* c_lend_ops_ = nullptr;
  std::uint64_t* c_lent_mib_ = nullptr;
  std::uint64_t* c_reclaim_ops_ = nullptr;
  std::uint64_t* c_reclaimed_mib_ = nullptr;
  std::uint64_t* c_local_grow_mib_ = nullptr;
  std::uint64_t* c_local_shrink_mib_ = nullptr;
  obs::Gauge* g_lent_ = nullptr;
  obs::Gauge* g_allocated_ = nullptr;
  /// Windowed ledger activity (simulated time on the x axis): MiB moved by
  /// lend/reclaim operations, and borrow-edge churn (edges created or fully
  /// returned per operation). Contention shows up as hot lend windows paired
  /// with high churn.
  obs::TimeSeries* s_lend_mib_ = nullptr;
  obs::TimeSeries* s_reclaim_mib_ = nullptr;
  obs::TimeSeries* s_edge_churn_ = nullptr;
  /// Lenders drained per satisfied grow — the fragmentation signal: a grow
  /// spread across many lenders creates many edges to reclaim later.
  obs::Histogram* h_lenders_per_grow_ = nullptr;
  /// Per-tier lent-MiB gauges ("ledger.tier_occupancy.<i>"); registered
  /// only when tiered, so flat-topology telemetry is unchanged.
  std::vector<obs::Gauge*> g_tier_lent_;
};

}  // namespace dmsim::cluster
