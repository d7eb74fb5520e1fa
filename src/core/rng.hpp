// Deterministic random source.
//
// Every stochastic process in the simulator draws from an explicitly seeded
// Rng so experiments and tests are reproducible bit-for-bit. fork() derives
// independent child streams so adding a new consumer does not perturb
// existing draws (important when comparing eras, e.g. Fig 1 pre/post-TAS).
#pragma once

#include <cstdint>
#include <random>
#include <span>

namespace hpcmon::core {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Derive an independent child stream. Deterministic in (parent seed,
  /// number of prior forks).
  Rng fork() { return Rng(engine_() ^ 0xD1B54A32D192ED03ull); }

  /// Uniform in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  /// Normal draw; stddev 0 returns `mean`. Scales a standard normal, which
  /// is bit-identical to normal_distribution(mean, stddev) (libstdc++
  /// computes z * stddev + mean) without its stddev > 0 precondition.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(0.0, 1.0)(engine_) * stddev + mean;
  }
  /// Exponential with the given mean (not rate).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  /// Log-normal parameterized by the mean/sigma of the underlying normal.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }
  std::int64_t poisson(double mean) {
    return std::poisson_distribution<std::int64_t>(mean)(engine_);
  }
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }
  /// Pick a uniformly random element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    return items[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace hpcmon::core
