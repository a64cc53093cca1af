// Measurement cache: a tiny append-only key/value store backed by a file.
//
// Full campaigns simulate hundreds of experiments; the cache lets the
// figure/table benches share raw measurements instead of re-simulating.
// Values are written (and flushed) immediately on put, so an interrupted
// campaign resumes where it stopped. A fingerprint entry ties the cache to
// the experiment configuration; on mismatch the store is cleared.
//
// Durability (file format v2, see DESIGN.md "Cache durability"):
//  * Every record line is "key\tvalue\tcrc32hex"; the file opens with a
//    "#actnet-cache v2" version header. A line without a valid CRC is
//    corrupt, whatever wrote it.
//  * Loads are corruption-tolerant: lines that fail CRC, fail to parse, or
//    are truncated mid-line (torn final write) degrade to a cache miss and
//    are counted (corrupt_lines/recovered, mirrored into the obs registry
//    as core.cache.corrupt_lines / core.cache.recovered). A load never
//    throws on bad content and never admits a corrupted value.
//  * Full rewrites are atomic: write "<path>.tmp", fsync, rename over the
//    original — a crash mid-rewrite leaves the previous file intact.
//  * Appends go through one persistent O_APPEND descriptor, one write()
//    per record under an advisory flock, so concurrent processes sharing a
//    cache file interleave whole lines, never bytes.
//  * Crash-sensitive spots carry ACTNET_FAILPOINT sites
//    (db.rewrite.mid_write, db.rewrite.before_rename,
//    db.append.short_write, db.load.short_read) for deterministic
//    fault-injection tests.
//
// Inserts are thread-safe (campaign workers put results concurrently).
// During a parallel run the file write is deferred — set_deferred_flush
// buffers puts in memory and flush() rewrites the whole sorted map from a
// single writer, so the on-disk bytes are independent of worker scheduling.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace actnet::core {

class MeasurementDb {
 public:
  /// Opens (and loads) `path`; empty path = in-memory only.
  explicit MeasurementDb(std::string path);

  /// Flushes any deferred writes; failures are logged, never thrown.
  ~MeasurementDb();

  MeasurementDb(const MeasurementDb&) = delete;
  MeasurementDb& operator=(const MeasurementDb&) = delete;

  /// Clears the store when the recorded fingerprint differs (or was lost
  /// to corruption), then records `fingerprint`. Call once right after
  /// construction.
  void bind_fingerprint(const std::string& fingerprint);

  std::optional<std::string> get(const std::string& key) const;
  void put(const std::string& key, const std::string& value);

  /// Parses the cached value as a double; unparseable (corrupted) values
  /// degrade to a miss with a one-time warning instead of throwing.
  std::optional<double> get_double(const std::string& key) const;
  void put_double(const std::string& key, double value);

  /// Drops a cached entry whose *value* failed to decode downstream (e.g.
  /// a LatencySummary that no longer parses); counted as corruption so the
  /// caller re-measures instead of crashing.
  void invalidate(const std::string& key);

  /// While enabled, put() only updates memory; flush() (or disabling, or
  /// destruction) rewrites the file once, in sorted key order.
  void set_deferred_flush(bool deferred);

  /// Writes the full sorted store to the backing file (single writer).
  void flush();

  std::size_t size() const;
  const std::string& path() const { return path_; }

  /// Lines skipped during load (CRC mismatch, parse failure, torn write)
  /// plus values invalidated since; 0 for a healthy cache.
  std::size_t corrupt_lines() const;
  /// Records successfully loaded from a file that contained corruption.
  std::size_t recovered() const;

 private:
  void load_file();
  void append_to_file(const std::string& key, const std::string& value);
  void rewrite_file();
  void ensure_append_handle();
  void close_append_handle();

  std::string path_;
  mutable std::mutex mu_;
  std::map<std::string, std::string> entries_;
  bool deferred_ = false;
  bool dirty_ = false;
  /// Persistent O_APPEND descriptor for put(); -1 when closed. Invalidated
  /// by rewrite_file() (the rename makes it point at the dead inode).
  int append_fd_ = -1;
  std::size_t corrupt_lines_ = 0;
  std::size_t recovered_ = 0;
  mutable std::atomic<bool> warned_unparseable_{false};
};

}  // namespace actnet::core
