#include "core/db.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/fsio.h"
#include "util/log.h"
#include "util/parse.h"

namespace actnet::core {
namespace {

constexpr const char* kFingerprintKey = "_fingerprint";
/// File-format version header; first line of every v2 cache file.
constexpr std::string_view kHeader = "#actnet-cache v2";

/// Formats one v2 record line "key\tvalue\tcrc32hex\n" onto `buf`; the CRC
/// covers "key\tvalue".
void append_record(std::string& buf, const std::string& key,
                   const std::string& value) {
  const std::size_t start = buf.size();
  buf += key;
  buf += '\t';
  buf += value;
  util::seal_crc_line(buf, start);
}

/// Validates one v2 line: trailing 8-hex CRC over the rest, exactly one
/// interior tab, non-empty key. Any deviation means corruption.
bool parse_v2_record(std::string_view line, std::string_view& key,
                     std::string_view& value) {
  std::string_view data;
  if (!util::open_crc_line(line, data)) return false;
  const auto sep = data.find('\t');
  if (sep == std::string_view::npos || sep == 0) return false;
  if (data.find('\t', sep + 1) != std::string_view::npos) return false;
  key = data.substr(0, sep);
  value = data.substr(sep + 1);
  return true;
}

/// The "core.cache.*" counters in the default registry.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& corrupt;
  obs::Counter& recovered;
};

const CacheMetrics& cache_metrics() {
  obs::Registry& r = obs::default_registry();
  static const CacheMetrics m{
      r.counter("core.cache.hits"), r.counter("core.cache.misses"),
      r.counter("core.cache.corrupt_lines"), r.counter("core.cache.recovered")};
  return m;
}

}  // namespace

MeasurementDb::MeasurementDb(std::string path) : path_(std::move(path)) {
  if (path_.empty()) return;
  load_file();
}

MeasurementDb::~MeasurementDb() {
  // Destruction may race deferred-flush workers finishing up; take the
  // lock like every other path, and degrade write failures to a log line
  // (throwing from a destructor would terminate).
  std::lock_guard<std::mutex> lock(mu_);
  if (deferred_ && dirty_) {
    try {
      rewrite_file();
      dirty_ = false;
    } catch (const std::exception& e) {
      ACTNET_ERROR("measurement cache " << path_
                                        << ": final flush failed: " << e.what());
    }
  }
  close_append_handle();
}

void MeasurementDb::load_file() {
  obs::ProfScope prof(obs::Subsystem::kCacheIo);
  std::ifstream in(path_, std::ios::binary);
  if (!in.good()) return;
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (raw.empty()) return;

  // Every line but the header must carry a valid CRC. A torn final line
  // almost surely fails it; if it passes, the record is intact (only the
  // newline was lost) and is safe to keep. Pre-CRC lines count as corrupt.
  std::size_t corrupt = 0;
  std::string_view key, value;
  for (std::size_t start = 0; start < raw.size();) {
    std::size_t end = raw.find('\n', start);
    if (end == std::string::npos) end = raw.size();
    std::string_view line(raw.data() + start, end - start);
    start = end + 1;
    // Failpoint: emulate a short read() that lost the tail of a line.
    if (ACTNET_FAILPOINT_FIRES("db.load.short_read"))
      line = line.substr(0, line.size() / 2);
    if (line.empty() || line == kHeader) continue;
    if (parse_v2_record(line, key, value))
      entries_[std::string(key)] = std::string(value);
    else
      ++corrupt;
  }

  corrupt_lines_ = corrupt;
  if (corrupt > 0) {
    recovered_ = entries_.size();
    cache_metrics().corrupt.inc(corrupt);
    cache_metrics().recovered.inc(recovered_);
    ACTNET_WARN("measurement cache " << path_ << ": skipped " << corrupt
                                     << " corrupt line(s), recovered "
                                     << recovered_ << " record(s)");
  }
  ACTNET_INFO("measurement cache " << path_ << ": " << entries_.size()
                                   << " entries loaded");
  // Repair on read: scrub corrupt bytes from disk immediately, so a torn
  // tail can't swallow the next appended record and later opens see a
  // healthy file instead of re-warning forever.
  if (corrupt > 0) rewrite_file();  // single-threaded: inside the constructor
}

void MeasurementDb::bind_fingerprint(const std::string& fingerprint) {
  ACTNET_CHECK(!fingerprint.empty());
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(kFingerprintKey);
  if (it != entries_.end() && it->second == fingerprint) return;
  if (it != entries_.end())
    ACTNET_WARN("measurement cache fingerprint changed; discarding "
                << entries_.size() << " cached entries");
  else if (!entries_.empty())
    ACTNET_WARN("measurement cache has no (or a corrupted) fingerprint; "
                "discarding " << entries_.size() << " unverifiable entries");
  entries_.clear();
  entries_[kFingerprintKey] = fingerprint;
  rewrite_file();
}

std::optional<std::string> MeasurementDb::get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    cache_metrics().misses.inc();
    return std::nullopt;
  }
  cache_metrics().hits.inc();
  return it->second;
}

void MeasurementDb::put(const std::string& key, const std::string& value) {
  ACTNET_CHECK(!key.empty());
  ACTNET_CHECK_MSG(key.find('\t') == std::string::npos &&
                       key.find('\n') == std::string::npos,
                   "key contains separator characters: " << key);
  ACTNET_CHECK_MSG(value.find('\t') == std::string::npos &&
                       value.find('\n') == std::string::npos,
                   "value contains separator characters");
  std::lock_guard<std::mutex> lock(mu_);
  entries_[key] = value;
  if (deferred_) {
    dirty_ = true;
    return;
  }
  append_to_file(key, value);
}

std::optional<double> MeasurementDb::get_double(const std::string& key) const {
  const auto v = get(key);
  if (!v.has_value()) return std::nullopt;
  const auto d = util::parse_double(*v);
  if (!d.has_value()) {
    if (!warned_unparseable_.exchange(true))
      ACTNET_WARN("measurement cache: unparseable numeric value for '"
                  << key << "' (\"" << *v << "\"); treating as a miss");
    cache_metrics().corrupt.inc();
    cache_metrics().misses.inc();
    return std::nullopt;
  }
  return d;
}

void MeasurementDb::put_double(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  put(key, os.str());
}

void MeasurementDb::invalidate(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.erase(key) == 0) return;
  ++corrupt_lines_;
  cache_metrics().corrupt.inc();
  if (deferred_) dirty_ = true;
  ACTNET_WARN("measurement cache: discarding undecodable value for '"
              << key << "'; it will be re-measured");
}

void MeasurementDb::set_deferred_flush(bool deferred) {
  bool need_flush = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (deferred_ == deferred) return;
    deferred_ = deferred;
    need_flush = !deferred && dirty_;
  }
  if (need_flush) flush();
}

void MeasurementDb::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  rewrite_file();
  dirty_ = false;
}

std::size_t MeasurementDb::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::size_t MeasurementDb::corrupt_lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corrupt_lines_;
}

std::size_t MeasurementDb::recovered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovered_;
}

void MeasurementDb::ensure_append_handle() {
  if (append_fd_ >= 0) return;
  const std::string dir_err = util::ensure_parent_dir(path_);
  ACTNET_CHECK_MSG(dir_err.empty(), dir_err);
  // O_RDWR (not O_WRONLY): append_to_file pread()s the last byte to detect
  // a torn tail left by another crashed writer.
  append_fd_ =
      ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  ACTNET_CHECK_MSG(append_fd_ >= 0, "cannot open cache file " << path_);
}

void MeasurementDb::close_append_handle() {
  if (append_fd_ < 0) return;
  ::close(append_fd_);
  append_fd_ = -1;
}

void MeasurementDb::append_to_file(const std::string& key,
                                   const std::string& value) {
  if (path_.empty()) return;
  obs::ProfScope prof(obs::Subsystem::kCacheIo);
  ensure_append_handle();
  std::string line;
  append_record(line, key, value);
  // Advisory lock so concurrent processes sharing the cache interleave
  // whole lines; O_APPEND makes each single write() land at the tail.
  ::flock(append_fd_, LOCK_EX);
  struct ::stat st{};
  if (::fstat(append_fd_, &st) == 0) {
    if (st.st_size == 0) {
      std::string header(kHeader);
      header += '\n';
      util::write_all(append_fd_, header.data(), header.size());
    } else {
      // If another writer crashed mid-append since we opened the file, the
      // tail has no newline; appending straight after it would merge two
      // records into one corrupt line. Seal the torn tail first — it then
      // fails its CRC on the next load and only that line is lost.
      char last = '\n';
      if (::pread(append_fd_, &last, 1, st.st_size - 1) == 1 && last != '\n')
        util::write_all(append_fd_, "\n", 1);
    }
  }
  // Failpoint: a torn write, as a crash mid-write(2) would leave it.
  const std::size_t n = ACTNET_FAILPOINT_FIRES("db.append.short_write")
                            ? line.size() / 2
                            : line.size();
  const bool ok = util::write_all(append_fd_, line.data(), n);
  ::flock(append_fd_, LOCK_UN);
  ACTNET_CHECK_MSG(ok, "cannot write cache file " << path_);
}

void MeasurementDb::rewrite_file() {
  if (path_.empty()) return;
  obs::ProfScope prof(obs::Subsystem::kCacheIo);
  // The rename below replaces the inode the append handle points at.
  close_append_handle();
  const std::filesystem::path p(path_);
  const std::string dir_err = util::ensure_parent_dir(path_);
  ACTNET_CHECK_MSG(dir_err.empty(), dir_err);
  const std::string tmp = path_ + ".tmp";
  std::string buf(kHeader);
  buf += '\n';
  for (const auto& [k, v] : entries_) append_record(buf, k, v);

  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  ACTNET_CHECK_MSG(fd >= 0, "cannot write cache tmp file " << tmp);
  // Failpoint: die after half the bytes — the torn tmp file must never be
  // visible under the real path.
  if (ACTNET_FAILPOINT_FIRES("db.rewrite.mid_write")) {
    util::write_all(fd, buf.data(), buf.size() / 2);
    ::close(fd);
    throw util::FaultInjected("db.rewrite.mid_write");
  }
  const bool ok = util::write_all(fd, buf.data(), buf.size());
  if (!ok) {
    ::close(fd);
    ACTNET_CHECK_MSG(false, "cannot write cache tmp file " << tmp);
  }
  ::fsync(fd);
  ::close(fd);

  // Failpoint: die between the durable tmp write and the publish; also
  // stands in for a failed rename(2) — either way the old file survives.
  ACTNET_FAILPOINT("db.rewrite.before_rename");
  std::error_code ec;
  std::filesystem::rename(tmp, p, ec);
  ACTNET_CHECK_MSG(!ec, "cannot rename " << tmp << " -> " << path_ << ": "
                                         << ec.message());
  util::fsync_parent_dir(path_);
}

}  // namespace actnet::core
