#include "simcore/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace spothost::sim {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001B3ULL;
  }
  return h;
}

double RngStream::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

std::int64_t RngStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

double RngStream::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("exponential: mean must be > 0");
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

double RngStream::normal(double mean, double stddev) {
  if (stddev < 0) throw std::invalid_argument("normal: stddev must be >= 0");
  // std::normal_distribution requires stddev > 0, so scale a standard draw
  // by hand. libstdc++ applies the same z * stddev + mean internally, so
  // values and engine consumption are unchanged, and stddev = 0 still draws:
  // skipping the draw would shift every later value of the stream.
  std::normal_distribution<double> standard;
  return standard(engine_) * stddev + mean;
}

double RngStream::lognormal_mean_cv(double mean, double cv) {
  if (mean <= 0 || cv < 0) {
    throw std::invalid_argument("lognormal_mean_cv: mean must be > 0 and cv >= 0");
  }
  if (cv == 0) return mean;
  // If X ~ LogNormal(mu, sigma): E[X] = exp(mu + sigma^2/2),
  // CV[X]^2 = exp(sigma^2) - 1. Invert for (mu, sigma).
  const double sigma2 = std::log1p(cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  std::lognormal_distribution<double> d(mu, std::sqrt(sigma2));
  return d(engine_);
}

double RngStream::pareto(double x_m, double alpha) {
  if (x_m <= 0 || alpha <= 0) {
    throw std::invalid_argument("pareto: x_m and alpha must be > 0");
  }
  // Inverse-CDF sampling; guard u away from 0 to avoid infinity.
  std::uniform_real_distribution<double> d(0.0, 1.0);
  double u = d(engine_);
  if (u < 1e-12) u = 1e-12;
  return x_m / std::pow(u, 1.0 / alpha);
}

bool RngStream::chance(double p) {
  std::bernoulli_distribution d(p);
  return d(engine_);
}

RngStream RngFactory::stream(std::string_view name) const {
  std::uint64_t state = master_seed_ ^ fnv1a(name);
  // Two warm-up steps decorrelate nearby master seeds.
  (void)splitmix64(state);
  return RngStream(splitmix64(state));
}

RngStream RngFactory::stream(std::string_view name, std::uint64_t index) const {
  std::uint64_t state = master_seed_ ^ fnv1a(name) ^ (index * 0x9E3779B97F4A7C15ULL);
  (void)splitmix64(state);
  return RngStream(splitmix64(state));
}

}  // namespace spothost::sim
