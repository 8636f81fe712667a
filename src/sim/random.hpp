// Deterministic random-number infrastructure.
//
// Every stochastic component of the simulation (link loss, server load,
// processing times, workload choice) draws from its own named stream derived
// from a single experiment seed. Components therefore stay reproducible and
// statistically independent even when the set of components changes: adding
// a tap to one link does not perturb the draws seen by another.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace dyncdn::sim {

/// One independent random stream. Thin wrapper over std::mt19937_64 with the
/// distribution draws the simulator needs, expressed in domain units.
///
/// The engine is seeded on the first draw, not at construction: filling
/// its 312-word state is what a stream costs, and most streams a scenario
/// creates (the loss streams of lossless links and of links nothing sends
/// on) are never drawn from. A copy taken before the first draw replays
/// the original.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : seed_(seed) {}

  /// Uniform real in [0, 1).
  double uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine());
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine());
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine());
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform01() < p; }

  /// Normal draw (mean, stddev).
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine());
  }

  /// Lognormal draw parameterized by the *resulting* median and a
  /// multiplicative sigma (sigma of the underlying normal). Used for server
  /// processing-time variability, which is right-skewed in practice.
  double lognormal_median(double median, double sigma) {
    return std::lognormal_distribution<double>(std::log(median),
                                               sigma)(engine());
  }

  /// Exponential draw with the given mean.
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine());
  }

  /// Pareto draw with scale xm and shape alpha (heavy-tailed sizes).
  double pareto(double xm, double alpha) {
    const double u = 1.0 - uniform01();
    return xm / std::pow(u, 1.0 / alpha);
  }

  /// Draw a SimTime from a normal in milliseconds, clamped at min_ms.
  SimTime normal_ms(double mean_ms, double stddev_ms, double min_ms = 0.0) {
    double v = normal(mean_ms, stddev_ms);
    if (v < min_ms) v = min_ms;
    return SimTime::from_milliseconds(v);
  }

  /// Draw a SimTime from a lognormal in milliseconds.
  SimTime lognormal_ms(double median_ms, double sigma) {
    return SimTime::from_milliseconds(lognormal_median(median_ms, sigma));
  }

  std::mt19937_64& engine() {
    if (!engine_) engine_.emplace(seed_);
    return *engine_;
  }

 private:
  std::uint64_t seed_;
  std::optional<std::mt19937_64> engine_;
};

/// Derives independent named streams from one experiment seed via
/// SplitMix64-based hashing of the stream name. Same (seed, name) always
/// yields the same stream.
class RngFactory {
 public:
  explicit RngFactory(std::uint64_t experiment_seed)
      : experiment_seed_(experiment_seed) {}

  /// Create the stream for `name` (e.g. "link/client3-fe1/loss").
  RngStream stream(std::string_view name) const;

  /// Derive a sub-factory, e.g. one per experiment repetition.
  RngFactory derive(std::string_view name) const;

  std::uint64_t seed() const { return experiment_seed_; }

 private:
  static std::uint64_t mix(std::uint64_t x);

  std::uint64_t experiment_seed_;
};

}  // namespace dyncdn::sim
