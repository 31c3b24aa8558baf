// The log feature behind nearest-neighbour job matching (paper Fig. 3 steps
// 3 and 6): jobs, applications and usage shapes are compared by Euclidean
// distance over (log nodes, log runtime, log memory).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>

namespace dmsim::util {

/// log(x), floored at 1e-9 so zero and negative features stay finite. A
/// matcher takes each candidate's features once, when it is built, and each
/// query's once per match; the distances are the same bits as taking both
/// logs per candidate.
[[nodiscard]] inline double log_feature(double x) noexcept {
  return std::log(std::max(x, 1e-9));
}

/// (log nodes, log runtime, log memory) of one job, app or shape.
[[nodiscard]] inline std::array<double, 3> log_features(double nodes,
                                                        double runtime_s,
                                                        double mem) noexcept {
  return {log_feature(nodes), log_feature(runtime_s), log_feature(mem)};
}

}  // namespace dmsim::util
