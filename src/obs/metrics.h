// Metrics registry: named counters, gauges, and log2-bucketed histograms.
//
// Design constraints (see DESIGN.md §5.8):
//  * The owner counts. Every observed quantity lives in a plain field of
//    the object that produces it (Engine, Network, Link's owner, Comm,
//    ...), written by that object's one thread. Nothing on the simulation
//    path touches a shared atomic, so observation costs the same at N
//    workers as at one.
//  * Publish once. An owner folds its fields into `default_registry()`
//    when it is destroyed: one relaxed add per counter, one CAS-max per
//    peak, one bucket-wise merge per histogram. The registry only
//    aggregates; there is no switch to turn counting on or off.
//  * Non-perturbing. Nothing in here touches the simulation: no engine
//    events, no RNG draws, no virtual time. Metrics observe, never steer.
//
// Metrics live in a `Registry` keyed by dotted names ("sim.engine.
// events_executed"). Handles returned by the registry are stable for the
// registry's lifetime (deque-backed storage), so publishers look each name
// up once per process and keep the reference. Same-named metrics aggregate
// across instances: every destroyed `sim::Engine` adds to the same counter.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace actnet::obs {

class LocalHistogram;

/// Monotonic event count. Relaxed increments: totals are exact, but
/// cross-metric ordering is unspecified under concurrency.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written (or maximum) level. `set` races resolve to one writer's
/// value; `max` is a CAS loop and keeps the true maximum.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const {
    if (read_) return read_();
    return value_.load(std::memory_order_relaxed);
  }
  bool is_callback() const { return static_cast<bool>(read_); }

 private:
  friend class Registry;
  std::atomic<double> value_{0.0};
  std::function<double()> read_;  // callback gauges evaluate at read time
};

/// Power-of-two bucketed histogram of non-negative integer samples
/// (latencies in ns, queue depths). Bucket i holds values with
/// bit_width == i, i.e. bucket 0 is {0}, bucket i covers
/// [2^(i-1), 2^i). Cheap enough for per-packet use: one bit_width and
/// two relaxed adds.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit_width(uint64) in [0, 64]

  void add(std::uint64_t v);
  /// Adds every sample of `h` (bucket-wise, so the result is exactly what
  /// adding them one by one would have produced).
  void merge(const LocalHistogram& h);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const auto n = count();
    return n > 0 ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  /// Smallest value that lands in bucket i.
  static std::uint64_t bucket_floor(int i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  /// Upper bound (inclusive) of the smallest bucket whose cumulative count
  /// reaches quantile q of all samples; 0 when empty. Coarse by design —
  /// buckets are octaves — but monotone and allocation-free.
  std::uint64_t quantile_upper_bound(double q) const;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Single-writer twin of Histogram: the same buckets in plain fields, plus
/// the largest sample. Owners fill one on their own thread and merge it
/// into a registry Histogram when they publish.
class LocalHistogram {
 public:
  void add(std::uint64_t v) {
    ++buckets_[static_cast<std::size_t>(std::bit_width(v))];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
    if (v < min_) min_ = v;
  }
  /// Adds the `n` samples 1, 2, ..., n (the depths a burst of n enqueues
  /// onto an idle port records): exactly what n add() calls would, in
  /// bit_width(n) steps.
  void add_run(std::uint64_t n) {
    if (n == 0) return;
    const int top = std::bit_width(n);
    for (int b = 1; b < top; ++b)
      buckets_[static_cast<std::size_t>(b)] += std::uint64_t{1} << (b - 1);
    buckets_[static_cast<std::size_t>(top)] +=
        n - (std::uint64_t{1} << (top - 1)) + 1;
    count_ += n;
    sum_ += n % 2 == 0 ? n / 2 * (n + 1) : (n / 2 + 1) * n;  // wraps as add()
    if (n > max_) max_ = n;
    if (min_ > 1) min_ = 1;
  }
  void merge(const LocalHistogram& o) {
    for (std::size_t i = 0; i < buckets_.size(); ++i)
      buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.max_ > max_) max_ = o.max_;
    if (o.min_ < min_) min_ = o.min_;
  }
  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  /// Largest sample so far (0 when empty).
  std::uint64_t max() const { return max_; }
  /// Smallest sample so far (0 when empty).
  std::uint64_t min() const { return count_ > 0 ? min_ : 0; }
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)];
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::array<std::uint64_t, Histogram::kBuckets> buckets_{};
};

/// Named metric store. Get-or-create is mutex-guarded; returned references
/// remain valid for the registry's lifetime. Requesting an existing name
/// with a different kind throws.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// A gauge whose value is computed by `read` at snapshot time. Reuses an
  /// existing callback gauge of the same name (keeping the first callback),
  /// so aggregate names stay single-valued.
  Gauge& callback_gauge(const std::string& name, std::function<double()> read);
  Histogram& histogram(const std::string& name);

  struct Sample {
    std::string name;
    char kind = 'c';            // 'c'ounter, 'g'auge, 'h'istogram
    double value = 0.0;         // count / level / mean
    std::uint64_t count = 0;    // histogram sample count
    std::uint64_t p50_bound = 0;  // histogram median bucket upper bound
    std::uint64_t p90_bound = 0;  // histogram p90 bucket upper bound
    std::uint64_t p99_bound = 0;  // histogram p99 bucket upper bound
  };
  /// Point-in-time view, sorted by name.
  std::vector<Sample> snapshot() const;

  void write_json(std::ostream& os) const;
  std::size_t size() const;

 private:
  struct Slot {
    char kind;
    std::size_t index;
  };
  const Slot* find_locked(const std::string& name, char kind) const;

  mutable std::mutex mu_;
  std::map<std::string, Slot> names_;
  // Deques so handles stay stable while the registry grows.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

/// The process-wide registry every owner publishes into.
Registry& default_registry();

}  // namespace actnet::obs
