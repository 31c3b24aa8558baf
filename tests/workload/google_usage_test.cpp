#include "workload/google_usage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/rng.hpp"

namespace dmsim::workload {
namespace {

GoogleUsageLibrary library(std::size_t n = 64) {
  return GoogleUsageLibrary::synthetic(util::Rng(31), n);
}

TEST(GoogleUsage, SyntheticLibrarySize) {
  EXPECT_EQ(library(10).size(), 10u);
  EXPECT_TRUE(GoogleUsageLibrary().empty());
}

TEST(GoogleUsage, Deterministic) {
  const auto a = library();
  const auto b = library();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.shape(i).avg_peak_ratio, b.shape(i).avg_peak_ratio);
    EXPECT_EQ(a.shape(i).shape.size(), b.shape(i).shape.size());
  }
}

TEST(GoogleUsage, EveryShapePeaksExactlyAtScale) {
  const auto lib = library();
  for (std::size_t i = 0; i < lib.size(); ++i) {
    EXPECT_EQ(lib.shape(i).shape.peak(), GoogleUsageLibrary::kShapeScale);
  }
}

TEST(GoogleUsage, AverageWellBelowPeak) {
  // The reclaimable-gap property (Table 3/Fig. 4): on average, usage sits
  // well below the maximum.
  const auto lib = library(128);
  double ratio_sum = 0.0;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const double r = lib.shape(i).avg_peak_ratio;
    EXPECT_GT(r, 0.0);
    EXPECT_LE(r, 1.0);
    ratio_sum += r;
  }
  EXPECT_LT(ratio_sum / static_cast<double>(lib.size()), 0.65);
}

TEST(GoogleUsage, ShapesStartAtProgressZero) {
  const auto lib = library();
  for (std::size_t i = 0; i < lib.size(); ++i) {
    EXPECT_EQ(lib.shape(i).shape.points().front().progress, 0.0);
  }
}

TEST(GoogleUsage, MatchPrefersSimilarJobs) {
  const auto lib = library(256);
  const std::size_t small = lib.match(1, 600.0, 512);
  const UsageShape& s = lib.shape(small);
  // The matched shape should be in the neighbourhood of the query.
  EXPECT_LT(s.typical_runtime_s, 4.0 * 3600.0);
  const std::size_t big = lib.match(128, 100000.0, 100000);
  EXPECT_NE(small, big);
}

// match reads each shape's log features from the constructor's cache; it
// must pick exactly what taking both logs per shape picks, floor included.
TEST(GoogleUsage, CachedLogMatchEqualsBruteForce) {
  const auto lib = library(256);
  const auto log_dist2 = [](double a, double b) {
    const double d =
        std::log(std::max(a, 1e-9)) - std::log(std::max(b, 1e-9));
    return d * d;
  };
  util::Rng rng(7);
  for (int q = 0; q < 4000; ++q) {
    // Every seventh query probes the 1e-9 floor with zero, tiny or negative
    // features; the rest span the library's ranges and beyond.
    const bool edge = q % 7 == 0;
    const double nodes = edge ? rng.uniform(-2.0, 1e-9)
                              : std::pow(2.0, rng.uniform(0.0, 12.0));
    const double runtime =
        edge && q % 2 == 0 ? 0.0 : std::exp(rng.uniform(0.0, 14.0));
    const MiB mem =
        edge ? rng.uniform_int(-1, 1) : rng.uniform_int(1, 1 << 20);
    std::size_t want = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < lib.size(); ++i) {
      const UsageShape& s = lib.shape(i);
      const double d = log_dist2(nodes, s.typical_nodes) +
                       log_dist2(runtime, s.typical_runtime_s) +
                       log_dist2(static_cast<double>(mem),
                                 static_cast<double>(s.typical_mem));
      if (d < best) {
        best = d;
        want = i;
      }
    }
    ASSERT_EQ(lib.match(nodes, runtime, mem), want)
        << "nodes=" << nodes << " runtime=" << runtime << " mem=" << mem;
  }
}

TEST(GoogleUsage, InstantiateScalesToPeak) {
  const auto lib = library();
  const trace::UsageTrace t = lib.instantiate(0, 4096, 0.0);
  EXPECT_EQ(t.peak(), 4096);
}

TEST(GoogleUsage, InstantiateCompressesWithRdp) {
  const auto lib = library();
  // Pick the largest shape so compression has room to bite.
  std::size_t big = 0;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    if (lib.shape(i).shape.size() > lib.shape(big).shape.size()) big = i;
  }
  const trace::UsageTrace raw = lib.instantiate(big, 100000, 0.0);
  const trace::UsageTrace compressed = lib.instantiate(big, 100000, 0.05);
  EXPECT_LT(compressed.size(), raw.size());
  // Peak error bounded by epsilon.
  EXPECT_NEAR(static_cast<double>(compressed.peak()),
              static_cast<double>(raw.peak()), 0.05 * 100000 + 1.0);
}

TEST(GoogleUsage, InstantiatePreservesAveragePeakGap) {
  const auto lib = library();
  for (std::size_t i = 0; i < 16; ++i) {
    const trace::UsageTrace t = lib.instantiate(i, 50000);
    EXPECT_LE(t.average(), static_cast<double>(t.peak()));
  }
}

// Window granularity property: shapes use 5-minute-style windows, so the
// number of points before compression equals the window count.
class ShapeWindowTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShapeWindowTest, PointCountMatchesWindows) {
  const auto lib = library(64);
  const UsageShape& s = lib.shape(GetParam());
  // typical_runtime_s was set to windows * 300.
  const auto windows =
      static_cast<std::size_t>(s.typical_runtime_s / 300.0 + 0.5);
  EXPECT_EQ(s.shape.size(), windows);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeWindowTest,
                         ::testing::Values(0u, 7u, 15u, 31u, 63u));

}  // namespace
}  // namespace dmsim::workload
