// Deterministic random number generation.
//
// All stochastic behaviour in the simulator flows through Rng so that a
// single 64-bit seed reproduces an entire experiment. The generator is
// xoshiro256**, seeded via splitmix64; both are tiny, fast and well studied.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace cfs {

// splitmix64 finalizer: a stateless 64-bit hash for values that must be a
// pure function of their key (fault schedules, alias probe schedules).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Top 53 bits of a hash as a uniform real in [0, 1).
inline double unit_interval(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Copying an Rng silently duplicates its stream — two owners then replay
  // the same draws, which is never what deterministic code wants. Streams
  // are split explicitly via fork(); moves transfer ownership.
  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) = default;
  Rng& operator=(Rng&&) = default;

  // Core generator: uniform 64-bit value.
  std::uint64_t next();

  // Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_in(std::int64_t lo, std::int64_t hi);

  // Uniform real in [0, 1).
  double uniform01();

  // Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  // Gaussian via Box-Muller.
  double normal(double mean, double stddev);

  // Exponential with given mean (> 0).
  double exponential(double mean);

  // Zipf-distributed integer in [1, n] with exponent s. Uses inverse-CDF
  // over precomputed weights for small n; callers cache via ZipfSampler for
  // hot paths.
  std::uint64_t zipf(std::uint64_t n, double s);

  // Pick a uniformly random element index of a non-empty container size.
  std::size_t index(std::size_t size);

  // Pick an index according to non-negative weights (at least one positive).
  std::size_t weighted_index(std::span<const double> weights);

  // Fisher-Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  // Derive an independent child generator, advancing this stream by one
  // draw (for sequentially-created subsystems).
  Rng fork();

  // Pure stream split: derive the child keyed by `salt` without touching
  // this generator's state. Equal (parent state, salt) always yields the
  // same child, so parallel workers can mint per-shard / per-trace streams
  // in any order and still replay exactly.
  [[nodiscard]] Rng fork(std::uint64_t salt) const;

 private:
  std::uint64_t state_[4];
};

// Cached Zipf sampler for repeated draws with fixed (n, s).
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);
  // Returns a value in [1, n].
  std::uint64_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace cfs
