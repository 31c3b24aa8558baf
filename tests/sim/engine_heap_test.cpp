// The engine's 4-ary heap sifts by moving a hole, not by swapping. The
// engine section of a snapshot stores the heap array as it lies, so the hole
// sift must leave exactly the array the swap sift left: this replays one
// seeded push/pop/cancel stream through both and compares after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace dmsim::sim {
namespace {

using detail::EventHeap;
using detail::HeapEntry;

/// The swap-sift heap the hole sift replaced, kept as the layout reference.
class SwapSiftHeap {
 public:
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  [[nodiscard]] const HeapEntry& top() const noexcept { return v_.front(); }
  [[nodiscard]] const std::vector<HeapEntry>& entries() const noexcept {
    return v_;
  }

  void push(const HeapEntry& e) {
    std::size_t i = v_.size();
    v_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!v_[i].before(v_[parent])) break;
      std::swap(v_[i], v_[parent]);
      i = parent;
    }
  }

  void pop() {
    v_.front() = v_.back();
    v_.pop_back();
    const std::size_t n = v_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (v_[c].before(v_[best])) best = c;
      }
      if (!v_[best].before(v_[i])) break;
      std::swap(v_[i], v_[best]);
      i = best;
    }
  }

 private:
  static constexpr std::size_t kArity = 4;
  std::vector<HeapEntry> v_;
};

[[nodiscard]] bool same_layout(const std::vector<HeapEntry>& a,
                               const std::vector<HeapEntry>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const HeapEntry& x, const HeapEntry& y) {
                      return x.time == y.time && x.seq == y.seq &&
                             x.slot == y.slot && x.generation == y.generation;
                    });
}

TEST(EngineHeap, HoleSiftMatchesSwapSiftLayout) {
  util::Rng rng(20231112);
  EventHeap heap;
  SwapSiftHeap reference;
  // Cancelled schedule numbers; as in the engine, a cancelled entry stays in
  // the heap until it surfaces and is popped.
  std::vector<bool> cancelled;
  std::vector<std::uint64_t> live;
  std::uint64_t next_seq = 0;
  Seconds now = 0.0;
  std::size_t ops = 0;
  // Grow to ~3000 entries, churn, then drain: every heap depth and both the
  // four-child and the partial last-level paths are exercised.
  for (int phase = 0; phase < 3; ++phase) {
    const double push_share = phase == 0 ? 0.75 : phase == 1 ? 0.5 : 0.15;
    for (int step = 0; step < 6000; ++step) {
      const double u = rng.uniform();
      if (u < push_share || heap.empty()) {
        // Coarse times make ties common, so seq decides many orderings.
        const Seconds when =
            now + static_cast<Seconds>(rng.uniform_int(0, 40)) * 0.5;
        const HeapEntry e{when, next_seq,
                          static_cast<std::uint32_t>(next_seq % 977),
                          static_cast<std::uint32_t>(next_seq / 977)};
        heap.push(e);
        reference.push(e);
        cancelled.push_back(false);
        live.push_back(next_seq);
        ++next_seq;
      } else if (u < push_share + 0.1 && !live.empty()) {
        const auto k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        cancelled[live[k]] = true;
        live[k] = live.back();
        live.pop_back();
      } else {
        ASSERT_EQ(heap.top().seq, reference.top().seq);
        now = heap.top().time;
        const std::uint64_t seq = heap.top().seq;
        heap.pop();
        reference.pop();
        if (!cancelled[seq]) {
          live.erase(std::find(live.begin(), live.end(), seq));
        }
        // Drop cancelled entries as they surface, like the engine's drain.
        while (!heap.empty() && cancelled[heap.top().seq]) {
          heap.pop();
          reference.pop();
          ASSERT_TRUE(same_layout(heap.entries(), reference.entries()));
        }
      }
      ++ops;
      ASSERT_TRUE(same_layout(heap.entries(), reference.entries()))
          << "layouts diverge after operation " << ops;
    }
  }
  while (!heap.empty()) {
    heap.pop();
    reference.pop();
    ASSERT_TRUE(same_layout(heap.entries(), reference.entries()));
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_GT(next_seq, 5000U);
}

}  // namespace
}  // namespace dmsim::sim
