// Deterministic, splittable random number generation.
//
// Every stochastic component of dmsim (trace generators, the CIRNE model,
// usage-trace phase machines, the app pool) draws from a *named child* of a
// master Rng. Children are derived by hashing the parent's seed with the
// child name, so:
//   * the same (master seed, name) pair always yields the same stream,
//   * adding a new consumer never perturbs existing streams, and
//   * parallel sweep cells are reproducible independent of execution order.
//
// The generator is xoshiro256** (public domain, Blackman & Vigna), seeded via
// SplitMix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace dmsim::util {

/// SplitMix64 step: used for seeding and for hashing names into seeds.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a 64-bit offset basis and prime.
inline constexpr std::uint64_t kFnv1aBasis = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001B3ULL;

/// One FNV-1a step: fold byte `c` into running hash `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a_step(std::uint64_t h,
                                                 char c) noexcept {
  return (h ^ static_cast<std::uint8_t>(c)) * kFnv1aPrime;
}

/// FNV-1a 64-bit hash of a string, used to fold child names into seeds.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = kFnv1aBasis;
  for (char c : s) h = fnv1a_step(h, c);
  return h;
}

/// xoshiro256** engine with named-child splitting.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }

  [[nodiscard]] result_type operator()() noexcept;

  /// Derive an independent child stream. The child depends only on this
  /// generator's original seed and the name (and index), not on how many
  /// numbers have been drawn from the parent.
  [[nodiscard]] Rng child(std::string_view name, std::uint64_t index = 0) const noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Standard normal via Box–Muller (no cached spare: keeps state minimal).
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) noexcept;
  /// Log-normal: exp(N(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;
  /// Exponential with given rate (lambda > 0).
  [[nodiscard]] double exponential(double rate) noexcept;
  /// Weibull with shape k > 0 and scale lambda > 0.
  [[nodiscard]] double weibull(double shape, double scale) noexcept;
  /// Gamma(shape k > 0, scale theta > 0) via Marsaglia–Tsang.
  [[nodiscard]] double gamma(double shape, double scale) noexcept;
  /// Bernoulli trial with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;
  /// Index drawn from unnormalized non-negative weights. Requires sum > 0.
  [[nodiscard]] std::size_t discrete(std::span<const double> weights) noexcept;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Full serializable generator state: the original seed (child derivation
  /// depends on it) plus the four xoshiro256** words (the stream position).
  /// restore_state(state()) round-trips exactly, so a snapshotted stream
  /// resumes bit-for-bit where it left off.
  struct State {
    std::uint64_t seed = 0;
    std::array<std::uint64_t, 4> words{};
    friend constexpr bool operator==(const State&, const State&) noexcept =
        default;
  };

  [[nodiscard]] State state() const noexcept { return State{seed_, s_}; }

  void restore_state(const State& state) noexcept {
    seed_ = state.seed;
    s_ = state.words;
  }

 private:
  std::uint64_t seed_;
  std::array<std::uint64_t, 4> s_;
};

}  // namespace dmsim::util
