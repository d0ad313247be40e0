// Deterministic random-number streams.
//
// Every stochastic component draws from its own named stream derived from the
// experiment's master seed, so adding a component (or reordering draws inside
// one) never perturbs the numbers another component sees. Stream derivation
// uses SplitMix64 over (master_seed, fnv1a(name)).
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

namespace spothost::sim {

/// SplitMix64 step — used for seed derivation, also handy in tests.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// FNV-1a 64-bit hash of a string (stream names).
std::uint64_t fnv1a(std::string_view s) noexcept;

/// A single random stream with the distributions the simulator needs.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Normal with the given mean and standard deviation (>= 0; 0 returns
  /// `mean` but still consumes the draw).
  double normal(double mean, double stddev);

  /// Log-normal parameterised by the *target* mean and coefficient of
  /// variation (cv = stddev/mean) of the resulting distribution — far easier
  /// to calibrate from measured latency tables than (mu, sigma).
  double lognormal_mean_cv(double mean, double cv);

  /// Pareto with scale x_m > 0 and shape alpha > 0 (heavy-tailed spikes).
  double pareto(double x_m, double alpha);

  /// Bernoulli.
  bool chance(double p);

  /// Raw engine access (for std:: distributions in tests).
  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Derives independent named streams from one master seed.
class RngFactory {
 public:
  explicit RngFactory(std::uint64_t master_seed) : master_seed_(master_seed) {}

  /// Stream for a named component, e.g. "market/us-east-1a/small".
  [[nodiscard]] RngStream stream(std::string_view name) const;

  /// Stream for a named component plus an index (per-run, per-instance, ...).
  [[nodiscard]] RngStream stream(std::string_view name, std::uint64_t index) const;

  [[nodiscard]] std::uint64_t master_seed() const noexcept { return master_seed_; }

 private:
  std::uint64_t master_seed_;
};

}  // namespace spothost::sim
