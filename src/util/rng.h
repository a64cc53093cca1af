// Deterministic random number generation.
//
// Every stochastic component of the simulator (switch jitter, application
// compute noise, Monte-Carlo particle routing, ...) draws from its own Rng
// stream obtained by `split()`ing a parent stream. Splitting hashes the
// parent state with a distinct stream index so sibling streams are
// statistically independent and experiments stay reproducible when one
// component changes how many numbers it draws.
#pragma once

#include <cstdint>

namespace actnet {

/// xoshiro256** PRNG seeded through SplitMix64.
///
/// Small, fast, and high quality; satisfies UniformRandomBitGenerator so it
/// can also feed <random> distributions where convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the stream; equal seeds produce equal streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next 64 uniformly random bits.
  std::uint64_t operator()();

  /// Derives an independent child stream. Deterministic in (parent seed,
  /// sequence of split calls); does not perturb this stream's output.
  Rng split();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal via Box–Muller (no state cached; one value per call).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal with the given *linear-space* mean and standard deviation.
  /// (Parameters are converted to the underlying normal's mu/sigma.)
  double lognormal_by_moments(double mean, double stddev);

  /// The underlying normal's parameters of a log-normal with linear-space
  /// `mean` (> 0) and `stddev` (> 0).
  struct LognormalParams {
    double mu = 0.0;
    double sigma = 0.0;
  };
  static LognormalParams lognormal_params(double mean, double stddev);

  /// Log-normal from the underlying normal's mu/sigma. With parameters
  /// from lognormal_params() it returns bit for bit what
  /// lognormal_by_moments() returns, minus the per-call conversion.
  double lognormal(double mu, double sigma);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

 private:
  std::uint64_t s_[4];
  std::uint64_t split_counter_ = 0;
};

}  // namespace actnet
