#include "obs/metrics.h"

#include <bit>
#include <ostream>

#include "util/error.h"
#include "util/json.h"

namespace actnet::obs {

void Histogram::add(std::uint64_t v) {
  const int b = std::bit_width(v);  // 0 for v==0, else floor(log2(v))+1
  buckets_[static_cast<std::size_t>(b)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::merge(const LocalHistogram& h) {
  if (h.count() == 0) return;
  for (int i = 0; i < kBuckets; ++i)
    if (const std::uint64_t n = h.bucket(i); n > 0)
      buckets_[static_cast<std::size_t>(i)].fetch_add(
          n, std::memory_order_relaxed);
  count_.fetch_add(h.count(), std::memory_order_relaxed);
  sum_.fetch_add(h.sum(), std::memory_order_relaxed);
}

std::uint64_t Histogram::quantile_upper_bound(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.5);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen >= target) {
      return i == 0 ? 0 : (bucket_floor(i) << 1) - 1;  // inclusive top of bucket
    }
  }
  return bucket_floor(kBuckets - 1);
}

const Registry::Slot* Registry::find_locked(const std::string& name,
                                            char kind) const {
  auto it = names_.find(name);
  if (it == names_.end()) return nullptr;
  ACTNET_CHECK_MSG(it->second.kind == kind,
                   "metric '" << name << "' already registered with kind '"
                              << it->second.kind << "'");
  return &it->second;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const Slot* s = find_locked(name, 'c')) return counters_[s->index];
  names_.emplace(name, Slot{'c', counters_.size()});
  return counters_.emplace_back();
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const Slot* s = find_locked(name, 'g')) return gauges_[s->index];
  names_.emplace(name, Slot{'g', gauges_.size()});
  return gauges_.emplace_back();
}

Gauge& Registry::callback_gauge(const std::string& name,
                                std::function<double()> read) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const Slot* s = find_locked(name, 'g')) return gauges_[s->index];
  names_.emplace(name, Slot{'g', gauges_.size()});
  Gauge& g = gauges_.emplace_back();
  g.read_ = std::move(read);
  return g;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const Slot* s = find_locked(name, 'h')) return histograms_[s->index];
  names_.emplace(name, Slot{'h', histograms_.size()});
  return histograms_.emplace_back();
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_.size();
}

std::vector<Registry::Sample> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  out.reserve(names_.size());
  for (const auto& [name, slot] : names_) {  // std::map: sorted by name
    Sample s;
    s.name = name;
    s.kind = slot.kind;
    switch (slot.kind) {
      case 'c':
        s.value = static_cast<double>(counters_[slot.index].value());
        break;
      case 'g':
        s.value = gauges_[slot.index].value();
        break;
      case 'h': {
        const Histogram& h = histograms_[slot.index];
        s.value = h.mean();
        s.count = h.count();
        s.p50_bound = h.quantile_upper_bound(0.50);
        s.p90_bound = h.quantile_upper_bound(0.90);
        s.p99_bound = h.quantile_upper_bound(0.99);
        break;
      }
      default: break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void Registry::write_json(std::ostream& os) const {
  const auto samples = snapshot();
  os << "{\n";
  bool first = true;
  for (const auto& s : samples) {
    if (!first) os << ",\n";
    first = false;
    os << "  ";
    util::write_json_string(os, s.name);
    os << ": ";
    if (s.kind == 'h') {
      os << "{\"count\": " << s.count << ", \"mean\": " << s.value
         << ", \"p50_le\": " << s.p50_bound << ", \"p90_le\": " << s.p90_bound
         << ", \"p99_le\": " << s.p99_bound << "}";
    } else {
      os << s.value;
    }
  }
  os << "\n}\n";
}

Registry& default_registry() {
  // Leaked: owners destroyed during static teardown still publish here.
  static Registry* r = new Registry;
  return *r;
}

}  // namespace actnet::obs
