// Shared plumbing for the perfbench binary: clocks, order statistics, the
// result document and output digests.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nanoseconds since a process-wide epoch; span timestamps use it.
[[nodiscard]] std::int64_t now_ns();

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Arithmetic mean of `v`; 0 for an empty vector.
[[nodiscard]] double mean(const std::vector<double>& v);

/// Nearest-rank percentile (p in (0,100]) — the convention for tail
/// latencies, where the reported value must be an observed sample.
[[nodiscard]] double percentile_rank(std::vector<double> v, double p);

/// Process peak resident set size in MiB.
[[nodiscard]] double peak_rss_mib();

/// Milliseconds of one pass of a fixed kernel that belongs to the benchmark,
/// not to dmsim, shaped like a simulator's hot loop: an event heap, an
/// ordered index and a slot table, about 2 MiB in all. It allocates from its
/// own mapping, so the state of the heap it runs beside does not change it.
[[nodiscard]] double host_probe_ms();

/// The probe's time on the host the bounds were set on, in its fast state.
/// End-to-end timings are scaled to this host speed.
inline constexpr double kHostProbeReferenceMs = 26.5;

/// Runs host_probe_ms() in a child process, pausing kHostProbePauseMs
/// between probes, from construction until stop() or destruction, which end the
/// child and wait for it. Runs are timed on a shared host whose speed shifts
/// by up to 1.5x for seconds to minutes at a time; probing beside the
/// workload for the whole run measures the host's speed over the same time.
/// A process, not a thread, so the probe's memory stays out of the
/// benchmark's peak RSS. Construct it while the caller has no other thread.
class HostSampler {
 public:
  static constexpr int kHostProbePauseMs = 100;

  HostSampler();
  ~HostSampler();
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  /// End the child and wait for it; returns every probe time (ms) taken.
  std::vector<double> stop();

 private:
  int pid_ = -1;
  int results_ = -1;  ///< read end: probe times from the child
  int control_ = -1;  ///< write end: closing it tells the child to exit
  std::vector<double> probe_ms_;
};

/// 64-bit FNV-1a of `bytes`, as 16 hex digits — the per-cell output digest.
[[nodiscard]] std::string digest(std::string_view bytes);

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< temporary files (snapshots); created and removed by the caller
  std::string trace_out;  ///< span file written at exit of a traced run; empty = none
  /// Expected output digest per seed (--pinned SEED=HEX, repeatable).
  std::vector<std::pair<std::uint64_t, std::string>> pinned;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value; 0 = derived
};

/// What one run reports: operation tallies, metrics and the output checks.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable check results

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Record a failed check; the run is then reported incorrect.
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
};

}  // namespace perfbench
