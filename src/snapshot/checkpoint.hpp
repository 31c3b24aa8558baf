// Checkpoint/restore orchestration.
//
// Stitches the per-component save_state/restore_state sections (engine,
// cluster, scheduler, counters) into one versioned, checksummed snapshot:
//
//   "DMSIMSNP" | u32 version | u64 config fingerprint | u64 payload size |
//   payload sections | u64 FNV-1a(payload)
//
// The workload and system configuration are deliberately NOT serialized —
// they are regenerated deterministically from the run configuration, and
// the fingerprint (a hash over cluster topology, policy, scheduler config
// and every job spec) refuses a restore against anything else. This keeps
// snapshots small and makes "restore under a silently different config"
// a loud error instead of a divergent replay.
//
// Determinism contract: restoring a snapshot cut at time T and running to
// completion produces byte-identical results (JSON document, metrics,
// counters) to the uninterrupted run, and an NDJSON trace identical from
// the cut point onward. Saves are side-effect-free — every save path is
// const — so checkpointing cannot perturb the simulation it observes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/job_spec.hpp"
#include "util/units.hpp"

namespace dmsim::obs {
class Counters;
}
namespace dmsim::sim {
class Engine;
}
namespace dmsim::cluster {
class Cluster;
}
namespace dmsim::sched {
class Scheduler;
struct SchedulerConfig;
}

namespace dmsim::snapshot {

/// Snapshot envelope format version written by save_bytes, and the oldest
/// version restore_bytes still reads. Exposed so tools (dmsim_run
/// --version) report the real format instead of a hardcoded string.
///   v2: counters section gained histogram and time-series state.
///   v3: cluster occupancy ledger stored as whole columns.
///   v4: cluster section carries the memory-tier table plus per-node
///       tier/rack columns (v3/v2 files predate tiers and can only describe
///       flat topologies, so they stay readable).
///   v5: scheduler section carries per-running-job monitor fold state
///       (overhead factor, provisioned MiB) plus the memory-monitor's
///       per-job state (noise counters / adaptive regions). Older files
///       predate the monitor subsystem — necessarily oracle runs — and
///       restore with oracle-equivalent defaults.
inline constexpr std::uint32_t kFormatVersion = 5;
inline constexpr std::uint32_t kMinFormatVersion = 2;

/// The simulation objects a checkpoint spans. All pointers are borrowed;
/// `counters` may be nullptr (counter state is then neither saved nor
/// restored).
struct Components {
  sim::Engine* engine = nullptr;
  cluster::Cluster* cluster = nullptr;
  sched::Scheduler* scheduler = nullptr;
  obs::Counters* counters = nullptr;
};

/// Checkpoint activity counters + wall-clock phase timers. Kept OUT of the
/// simulation's counters registry: the registry is embedded in the JSON
/// result document, and a restored run performs a different number of
/// checkpoint operations than the uninterrupted run it must match byte for
/// byte.
///
/// A save is counted once its file is written (for run_with_checkpoints, at
/// the join that collects it), so a failed write is never counted.
/// save_seconds is the time saves cost the calling thread: serialisation,
/// the fingerprint hash, and any wait for the background writer.
struct Stats {
  std::uint64_t saves = 0;
  std::uint64_t restores = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  double save_seconds = 0.0;
  double restore_seconds = 0.0;
  /// Largest single snapshot and slowest single save seen so far; exported
  /// as gauge high-water marks (per-save visibility the totals can't give).
  std::uint64_t max_save_bytes = 0;
  double max_save_seconds = 0.0;

  /// Export as sim.checkpoint.* into a (separate) counters registry:
  /// totals as counters plus `sim.checkpoint.bytes` / `sim.checkpoint.save_us`
  /// gauges carrying the per-save high-water marks.
  void publish(obs::Counters& registry) const;
};

/// When to cut checkpoints while driving a run (see run_with_checkpoints).
struct Plan {
  std::string path;            ///< snapshot file, overwritten on each save
  Seconds every = 0.0;         ///< periodic save interval; 0 disables
  std::vector<Seconds> cuts;   ///< additional explicit cut times

  [[nodiscard]] bool active() const noexcept {
    return every > 0.0 || !cuts.empty();
  }
};

/// Hash of everything a snapshot assumes but does not carry: cluster
/// topology + lender policy, scheduler config, and the full workload.
[[nodiscard]] std::uint64_t config_fingerprint(const Components& components);

/// Same hash computed from the raw configuration pieces, without live
/// components. Lets a serve loop fingerprint a scenario ONCE (cluster built
/// from config, base scheduler config, base workload) and fork images with
/// the cheap trusted compare instead of re-hashing per fork.
[[nodiscard]] std::uint64_t config_fingerprint(
    const cluster::Cluster& cluster, const sched::SchedulerConfig& config,
    const trace::Workload& workload);

/// Serialize the full simulation state to snapshot bytes (envelope
/// included). Const in effect: the simulation is not perturbed.
[[nodiscard]] std::string save_bytes(const Components& components);

/// save_bytes with the envelope's config fingerprint supplied by the
/// caller, who must have computed it as config_fingerprint(components).
/// The configuration cannot change mid-run, so a run that saves many times
/// hashes its workload once instead of once per save.
[[nodiscard]] std::string save_bytes(const Components& components,
                                     std::uint64_t fingerprint);

/// Restore simulation state from save_bytes output. The components must be
/// freshly constructed from the identical configuration with the workload
/// already submitted (fingerprint-enforced). Throws SnapshotError on
/// corruption, truncation, version or fingerprint mismatch.
void restore_bytes(std::string_view bytes, const Components& components);

/// save_bytes + atomic-ish file write (write temp, rename). Updates
/// `stats` (saves, bytes, timing) when non-null.
void save_file(const std::string& path, const Components& components,
               Stats* stats = nullptr);

/// save_file with a caller-computed fingerprint (see the save_bytes
/// overload).
void save_file(const std::string& path, const Components& components,
               std::uint64_t fingerprint, Stats* stats = nullptr);

/// Read + restore_bytes. Updates `stats` when non-null.
void restore_file(const std::string& path, const Components& components,
                  Stats* stats = nullptr);

/// Drive the scheduler to completion, saving a checkpoint to plan.path at
/// each cut: explicit `cuts` plus every `every` seconds of sim time. Cuts
/// at or before the current clock (e.g. the cut a restore resumed from) are
/// skipped, as is a save after the engine drains (there is nothing left to
/// resume). The config fingerprint is computed once, at the first save.
/// The caller must still call scheduler->finalize() afterwards.
///
/// Saves are write-behind: at a cut the calling thread only serialises the
/// state; one background writer checksums, writes, fsyncs and renames it
/// while the run goes on. Each save joins the previous write first, and so
/// does the return, so every file is complete and in place when this
/// returns, byte-identical to save_file's at the same cut. A write error is
/// thrown as SnapshotError from the next join.
void run_with_checkpoints(const Components& components, const Plan& plan,
                          Stats* stats = nullptr);

}  // namespace dmsim::snapshot
