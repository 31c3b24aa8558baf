// Google-style per-job memory-usage shape library (paper §3.1.3, §3.2.2).
//
// The paper mines the 2019 Google Borg cell-b trace for per-job memory usage
// over time: best-effort batch jobs, 5-minute windows carrying average and
// maximum usage, runtimes scaled to the job's wallclock, and memory
// denormalized against a 12 TB ceiling. That dataset is not redistributable
// here, so this module synthesizes an equivalent *library of usage shapes*
// with the properties the evaluation relies on (DESIGN.md substitution 3):
//
//   * multi-phase plateaus with a ramp-up and occasional spikes,
//   * exactly one phase touching the peak, so average usage is well below
//     the maximum (the reclaimable gap of Table 3 / Fig. 4),
//   * 5-minute-window granularity, compressed with RDP as in Fig. 3 step 6.
//
// Synthetic jobs are matched to a shape by Euclidean distance over
// (log nodes, log runtime, log memory) — the same similarity the paper uses
// to map a synthetic job onto a Google job.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "trace/usage_trace.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dmsim::workload {

/// One normalized usage shape. The trace's peak is exactly kShapeScale;
/// instantiate() rescales it to a job's actual peak memory.
struct UsageShape {
  trace::UsageTrace shape;
  double avg_peak_ratio = 0.0;  ///< average / peak of the normalized shape

  // Matching features of the (synthetic) Google job this shape came from.
  double typical_nodes = 1.0;
  double typical_runtime_s = 3600.0;
  MiB typical_mem = 0;
};

class GoogleUsageLibrary {
 public:
  static constexpr MiB kShapeScale = 1 << 16;

  GoogleUsageLibrary() = default;
  explicit GoogleUsageLibrary(std::vector<UsageShape> shapes);

  /// Deterministically synthesize a library of `count` shapes.
  [[nodiscard]] static GoogleUsageLibrary synthetic(const util::Rng& rng,
                                                    std::size_t count);

  [[nodiscard]] std::size_t size() const noexcept { return shapes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return shapes_.empty(); }
  [[nodiscard]] const UsageShape& shape(std::size_t index) const;

  /// Nearest shape by Euclidean distance over (log nodes, log runtime,
  /// log memory) — Fig. 3 step 6.
  [[nodiscard]] std::size_t match(double nodes, double runtime_s, MiB mem) const;

  /// Scale a shape to a job's peak memory and compress it with RDP
  /// (epsilon = `rdp_epsilon_frac` of the peak; 0 disables compression).
  [[nodiscard]] trace::UsageTrace instantiate(std::size_t shape_index, MiB peak,
                                              double rdp_epsilon_frac = 0.02) const;

 private:
  std::vector<UsageShape> shapes_;
  /// util::log_features of each shape, for match.
  std::vector<std::array<double, 3>> log_features_;
};

}  // namespace dmsim::workload
