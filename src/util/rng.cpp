#include "util/rng.h"

#include <cmath>

#include "util/error.h"

namespace actnet {
namespace {

constexpr std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::split() {
  // Mix the current state with a per-parent split counter rather than
  // drawing from the stream, so splitting leaves this stream's output
  // sequence untouched.
  std::uint64_t mix = s_[0] ^ rotl(s_[2], 29) ^ (0xd1342543de82ef95ULL *
                                                 ++split_counter_);
  return Rng(splitmix64(mix));
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  ACTNET_CHECK(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection-free bounded draw (Lemire); bias is negligible for our spans.
  const unsigned __int128 m =
      static_cast<unsigned __int128>((*this)()) * span;
  return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::exponential(double mean) {
  ACTNET_CHECK(mean > 0.0);
  double u = uniform();
  // Avoid log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(6.283185307179586 * u2);
}

double Rng::lognormal_by_moments(double mean, double stddev) {
  ACTNET_CHECK(mean > 0.0);
  ACTNET_CHECK(stddev >= 0.0);
  if (stddev == 0.0) return mean;
  const LognormalParams p = lognormal_params(mean, stddev);
  return lognormal(p.mu, p.sigma);
}

Rng::LognormalParams Rng::lognormal_params(double mean, double stddev) {
  ACTNET_CHECK(mean > 0.0);
  ACTNET_CHECK(stddev > 0.0);
  const double cv2 = (stddev / mean) * (stddev / mean);
  const double sigma2 = std::log1p(cv2);
  return {std::log(mean) - 0.5 * sigma2, std::sqrt(sigma2)};
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::chance(double p) { return uniform() < p; }

}  // namespace actnet
