#include "workload/google_usage.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/log_feature.hpp"

namespace dmsim::workload {

namespace {

/// Build one normalized multi-phase shape out of `windows` 5-minute samples.
[[nodiscard]] trace::UsageTrace make_shape(util::Rng& rng, int windows) {
  const int phases = static_cast<int>(rng.uniform_int(1, 6));
  // Phase boundaries: sorted uniform cut points over the window range.
  std::vector<int> cuts = {0, windows};
  for (int i = 1; i < phases; ++i) {
    cuts.push_back(static_cast<int>(rng.uniform_int(1, windows - 1)));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  const int real_phases = static_cast<int>(cuts.size()) - 1;
  // Exactly one phase carries the peak; the rest sit well below it, giving
  // the avg << max property that dynamic provisioning exploits.
  const int peak_phase = static_cast<int>(rng.uniform_int(0, real_phases - 1));
  std::vector<double> level(static_cast<std::size_t>(real_phases));
  for (int p = 0; p < real_phases; ++p) {
    if (p == peak_phase) {
      level[static_cast<std::size_t>(p)] = 1.0;
    } else {
      const double u = rng.uniform();
      level[static_cast<std::size_t>(p)] = 0.08 + 0.55 * u * u;
    }
  }

  const double scale = static_cast<double>(GoogleUsageLibrary::kShapeScale);
  std::vector<trace::UsagePoint> points;
  points.reserve(static_cast<std::size_t>(windows));
  for (int w = 0; w < windows; ++w) {
    // Locate the phase of this window.
    int p = 0;
    while (p + 1 < real_phases && w >= cuts[static_cast<std::size_t>(p) + 1]) ++p;
    double value = level[static_cast<std::size_t>(p)];
    // Ramp-up across the first phase: memory grows as the job initializes.
    if (p == 0) {
      const int phase_len = std::max(1, cuts[1] - cuts[0]);
      const double ramp = static_cast<double>(w + 1) / phase_len;
      value *= 0.3 + 0.7 * std::min(1.0, ramp);
    }
    // Small within-phase wobble (sampling noise), sparing the peak window
    // so the shape's maximum stays exactly at the scale.
    value *= 1.0 - 0.04 * rng.uniform();
    points.push_back(trace::UsagePoint{
        static_cast<double>(w) / windows,
        std::max<MiB>(1, static_cast<MiB>(std::llround(value * scale)))});
  }
  // Pin the peak: ensure some window in the peak phase hits exactly scale.
  const int peak_start = cuts[static_cast<std::size_t>(peak_phase)];
  points[static_cast<std::size_t>(peak_start)].mem =
      GoogleUsageLibrary::kShapeScale;
  return trace::UsageTrace(std::move(points));
}

}  // namespace

GoogleUsageLibrary GoogleUsageLibrary::synthetic(const util::Rng& rng,
                                                 std::size_t count) {
  std::vector<UsageShape> shapes;
  shapes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    util::Rng r = rng.child("google_shape", i);
    UsageShape s;
    // Number of 5-min windows the original "Google job" spanned.
    const int windows = static_cast<int>(r.uniform_int(6, 400));
    s.shape = make_shape(r, windows);
    s.avg_peak_ratio = s.shape.average() / static_cast<double>(kShapeScale);
    s.typical_nodes = std::pow(2.0, static_cast<double>(r.uniform_int(0, 7)));
    s.typical_runtime_s = static_cast<double>(windows) * 300.0;
    s.typical_mem =
        static_cast<MiB>(std::clamp(r.lognormal(9.2, 1.3), 128.0, 131072.0));
    shapes.push_back(std::move(s));
  }
  return GoogleUsageLibrary(std::move(shapes));
}

GoogleUsageLibrary::GoogleUsageLibrary(std::vector<UsageShape> shapes)
    : shapes_(std::move(shapes)) {
  log_features_.reserve(shapes_.size());
  for (const UsageShape& s : shapes_) {
    log_features_.push_back(
        util::log_features(s.typical_nodes, s.typical_runtime_s,
                           static_cast<double>(s.typical_mem)));
  }
}

const UsageShape& GoogleUsageLibrary::shape(std::size_t index) const {
  DMSIM_ASSERT(index < shapes_.size(), "usage shape index out of range");
  return shapes_[index];
}

std::size_t GoogleUsageLibrary::match(double nodes, double runtime_s,
                                      MiB mem) const {
  DMSIM_ASSERT(!shapes_.empty(), "matching against an empty usage library");
  const std::array<double, 3> q =
      util::log_features(nodes, runtime_s, static_cast<double>(mem));
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < log_features_.size(); ++i) {
    const std::array<double, 3>& f = log_features_[i];
    const double a = q[0] - f[0];
    const double b = q[1] - f[1];
    const double c = q[2] - f[2];
    const double d = a * a + b * b + c * c;
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

trace::UsageTrace GoogleUsageLibrary::instantiate(std::size_t shape_index,
                                                  MiB peak,
                                                  double rdp_epsilon_frac) const {
  DMSIM_ASSERT(peak > 0, "job peak memory must be positive");
  const UsageShape& s = shape(shape_index);
  const double factor =
      static_cast<double>(peak) / static_cast<double>(kShapeScale);
  trace::UsageTrace scaled = s.shape.scaled(factor);
  if (rdp_epsilon_frac <= 0.0) return scaled;
  return scaled.compressed(rdp_epsilon_frac * static_cast<double>(peak));
}

}  // namespace dmsim::workload
