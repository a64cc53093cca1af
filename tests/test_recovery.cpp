// Crash-safety of the measurement cache, proven with deterministic fault
// injection (util::FaultInjector): killed rewrites, torn appends, short
// reads, CRC corruption, byte-mutation fuzzing, and concurrent two-process
// appends. Labelled `recovery` in ctest.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/db.h"
#include "core/keys.h"
#include "core/latency.h"
#include "core/measure.h"
#include "core/parallel.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/parse.h"

namespace actnet::core {
namespace {

struct TempFile {
  explicit TempFile(const char* tag) {
    path = (std::filesystem::temp_directory_path() /
            ("actnet_recovery_" + std::string(tag) + "_" +
             std::to_string(::getpid()) + ".tsv"))
               .string();
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
  }
  ~TempFile() {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
  }
  std::string path;
};

/// Every test disarms failpoints on the way out so later tests (and later
/// suites in this binary) start clean.
struct FailpointGuard {
  ~FailpointGuard() { util::FaultInjector::reset(); }
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(Recovery, CrashBeforeRenameRecoversAllCommittedRecords) {
  FailpointGuard guard;
  TempFile f("before_rename");
  {
    MeasurementDb db(f.path);
    db.bind_fingerprint("fp");
    for (int i = 0; i < 20; ++i)
      db.put("k" + std::to_string(i), "v" + std::to_string(i));
    // Kill the next full rewrite between the tmp write and the publish.
    util::FaultInjector::install("db.rewrite.before_rename=1");
    db.set_deferred_flush(true);
    db.put("extra", "not-yet-flushed");
    EXPECT_THROW(db.flush(), util::FaultInjected);
    util::FaultInjector::reset();
  }  // destructor retries the flush; let it succeed or not — the point
     // below is that nothing committed before the crash is ever lost

  MeasurementDb db2(f.path);
  EXPECT_EQ(db2.corrupt_lines(), 0u);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(db2.get("k" + std::to_string(i)).value(),
              "v" + std::to_string(i));
}

TEST(Recovery, CrashMidRewriteLeavesOldFileIntact) {
  FailpointGuard guard;
  TempFile f("mid_write");
  {
    MeasurementDb db(f.path);
    db.bind_fingerprint("fp");
    for (int i = 0; i < 20; ++i)
      db.put("k" + std::to_string(i), "v" + std::to_string(i));
  }
  const std::string before = read_bytes(f.path);

  {
    MeasurementDb db(f.path);
    db.set_deferred_flush(true);
    db.put("extra", "1");
    util::FaultInjector::install("db.rewrite.mid_write=1");
    EXPECT_THROW(db.flush(), util::FaultInjected);
    // The torn tmp file must never have been published over the real path
    // (checked before destruction: the destructor retries the flush).
    EXPECT_EQ(read_bytes(f.path), before);
    util::FaultInjector::reset();
  }
  MeasurementDb db2(f.path);
  EXPECT_EQ(db2.corrupt_lines(), 0u);
  EXPECT_EQ(db2.get("k7").value(), "v7");
}

TEST(Recovery, DestructorLogsInsteadOfThrowingOnInjectedCrash) {
  FailpointGuard guard;
  TempFile f("dtor");
  {
    MeasurementDb db(f.path);
    db.set_deferred_flush(true);
    db.put("k", "v");
    util::FaultInjector::install("db.rewrite.before_rename=1");
    // Destruction flushes; the injected fault must be swallowed.
  }
  util::FaultInjector::reset();
  MeasurementDb db2(f.path);
  EXPECT_FALSE(db2.get("k").has_value());  // flush died pre-publish
  EXPECT_EQ(db2.corrupt_lines(), 0u);      // ...but nothing was corrupted
}

TEST(Recovery, TornAppendIsSkippedOnLoad) {
  FailpointGuard guard;
  TempFile f("torn_append");
  {
    MeasurementDb db(f.path);
    db.put("good1", "1");
    util::FaultInjector::install("db.append.short_write=1");
    db.put("torn", "this-line-dies-halfway");
    util::FaultInjector::reset();
  }
  MeasurementDb db2(f.path);
  EXPECT_EQ(db2.get("good1").value(), "1");
  EXPECT_FALSE(db2.get("torn").has_value());
  EXPECT_EQ(db2.corrupt_lines(), 1u);
  EXPECT_EQ(db2.recovered(), 1u);
}

TEST(Recovery, CorruptLinesAreScrubbedFromDiskOnLoad) {
  TempFile f("scrub");
  {
    MeasurementDb db(f.path);
    db.put("alpha", "1");
    db.put("beta", "2");
  }
  std::string bytes = read_bytes(f.path);
  write_bytes(f.path, bytes.substr(0, bytes.size() - 5));  // tear "beta"
  {
    MeasurementDb db(f.path);
    EXPECT_EQ(db.corrupt_lines(), 1u);  // repair happens on this load...
  }
  MeasurementDb db2(f.path);  // ...so later opens see a healthy file
  EXPECT_EQ(db2.corrupt_lines(), 0u);
  EXPECT_EQ(db2.get("alpha").value(), "1");
  EXPECT_EQ(read_bytes(f.path).back(), '\n');
}

TEST(Recovery, AppendAfterForeignTornWriteDoesNotMergeLines) {
  TempFile f("torn_merge");
  {
    MeasurementDb db(f.path);
    db.put("a", "1");
    // Another process crashes mid-append while our handle is open: the
    // file now ends without a newline. Our next append must not fuse its
    // record onto the torn tail (which would lose it to the tail's CRC).
    {
      std::ofstream out(f.path, std::ios::binary | std::ios::app);
      out << "zz\t9";
    }
    db.put("b", "2");
  }
  MeasurementDb db2(f.path);
  EXPECT_EQ(db2.get("a").value(), "1");
  EXPECT_EQ(db2.get("b").value(), "2");
  EXPECT_FALSE(db2.get("zz").has_value());
  EXPECT_EQ(db2.corrupt_lines(), 1u);  // only the foreign torn line is lost
}

TEST(Recovery, TruncatedLastLineIsSkippedOnLoad) {
  TempFile f("truncate");
  {
    MeasurementDb db(f.path);
    db.put("alpha", "1");
    db.put("beta", "2");
  }
  std::string bytes = read_bytes(f.path);
  write_bytes(f.path, bytes.substr(0, bytes.size() - 5));  // tear "beta"

  MeasurementDb db2(f.path);
  EXPECT_EQ(db2.get("alpha").value(), "1");
  EXPECT_FALSE(db2.get("beta").has_value());
  EXPECT_EQ(db2.corrupt_lines(), 1u);
  EXPECT_EQ(db2.recovered(), 1u);
}

TEST(Recovery, CrcMismatchIsSkippedOnLoad) {
  TempFile f("crc");
  {
    MeasurementDb db(f.path);
    db.put("alpha", "100");
    db.put("beta", "200");
  }
  std::string bytes = read_bytes(f.path);
  const auto pos = bytes.find("100");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] = '9';  // flip a value byte; the line's CRC no longer matches
  write_bytes(f.path, bytes);

  MeasurementDb db2(f.path);
  EXPECT_FALSE(db2.get("alpha").has_value());
  EXPECT_EQ(db2.get("beta").value(), "200");
  EXPECT_EQ(db2.corrupt_lines(), 1u);
}

TEST(Recovery, ShortReadFailpointDegradesToMiss) {
  FailpointGuard guard;
  TempFile f("short_read");
  {
    MeasurementDb db(f.path);
    db.put("alpha", "1");
    db.put("beta", "2");
  }
  // The first line read back (the version header) loses its tail.
  util::FaultInjector::install("db.load.short_read=1");
  MeasurementDb db2(f.path);
  util::FaultInjector::reset();
  // The mangled header line is skipped as corrupt; CRC-valid records
  // still load (each line is vouched for by its own CRC, not the header).
  EXPECT_EQ(db2.get("alpha").value(), "1");
  EXPECT_EQ(db2.get("beta").value(), "2");
  EXPECT_EQ(db2.corrupt_lines(), 1u);
}

TEST(Recovery, PreCrcCacheIsScrubbedAndMeasuredAgain) {
  TempFile f("pre_crc");
  // A pre-CRC cache: plain key\tvalue lines, no header. Even under the
  // current fingerprint its records are corrupt: nothing vouches for them.
  CampaignConfig cfg;
  cfg.opts.window = units::ms(8);
  cfg.opts.warmup = units::ms(2);
  cfg.cache_path = f.path;
  const std::string fingerprint = Campaign(cfg).fingerprint();
  const std::string calibration = calibrate(cfg.opts).idle.serialize();
  write_bytes(f.path, "_fingerprint\t" + fingerprint + "\ncalibration\t" +
                          calibration + "\n");
  {
    MeasurementDb db(f.path);
    EXPECT_EQ(db.size(), 0u);
    EXPECT_EQ(db.corrupt_lines(), 2u);
  }
  // The load scrubbed the file down to the version header.
  EXPECT_EQ(read_bytes(f.path), "#actnet-cache v2\n");
  write_bytes(f.path, "_fingerprint\t" + fingerprint + "\ncalibration\t" +
                          calibration + "\n");
  Campaign c(cfg);
  EXPECT_EQ(c.db().size(), 1u);  // the fingerprint the campaign bound
  EXPECT_EQ(ParallelRunner(c).prefetch(PrefetchScope::kCalibration).executed,
            1u);
  EXPECT_EQ(c.db().get(keys::calibration()).value(), calibration);
}

TEST(Recovery, UnparseableCachedDoubleIsAMiss) {
  TempFile f("bad_double");
  {
    MeasurementDb db(f.path);
    db.put("num", "not-a-number");  // framing intact, payload garbage
    db.put_double("ok", 2.5);
  }
  MeasurementDb db2(f.path);
  EXPECT_FALSE(db2.get_double("num").has_value());  // no throw
  EXPECT_EQ(db2.get("num").value(), "not-a-number");
  EXPECT_DOUBLE_EQ(db2.get_double("ok").value(), 2.5);
}

TEST(Recovery, InvalidateDropsEntryAndCounts) {
  MeasurementDb db("");
  db.put("k", "junk");
  db.invalidate("k");
  EXPECT_FALSE(db.get("k").has_value());
  EXPECT_EQ(db.corrupt_lines(), 1u);
  db.invalidate("k");  // second call: nothing left to drop
  EXPECT_EQ(db.corrupt_lines(), 1u);
}

TEST(Recovery, CorruptSerializedSummariesDegradeToNullopt) {
  // The decoders behind Campaign's cache reads must never throw on
  // arbitrary CRC-clean-but-wrong payloads.
  for (const char* text :
       {"", ";;;", "abc", "1;2;3", "1;2;3;4;5", "-1;2;3;4;5;0|0",
        "1;x;3;4;5;0|0|0", "999999999999999999999999;1;1;1;1;0|0"})
    EXPECT_FALSE(LatencySummary::try_deserialize(text).has_value()) << text;
  EXPECT_FALSE(PairTimes::try_deserialize("1.5").has_value());
  EXPECT_FALSE(PairTimes::try_deserialize("1.5;x").has_value());

  // And the round trip still works through the non-throwing paths.
  LatencySummary s;
  s.count = 3;
  s.mean_us = 1.5;
  const auto r = LatencySummary::try_deserialize(s.serialize());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->count, 3u);
  EXPECT_DOUBLE_EQ(r->mean_us, 1.5);
}

TEST(Recovery, FuzzRandomByteMutationsNeverCrashOrAdmitCorruption) {
  TempFile f("fuzz");
  std::map<std::string, std::string> truth;
  {
    MeasurementDb db(f.path);
    db.bind_fingerprint("fp-fuzz");
    truth["_fingerprint"] = "fp-fuzz";
    for (int i = 0; i < 20; ++i) {
      const std::string k = "key" + std::to_string(i);
      const std::string v = "value-" + std::to_string(i * 37) + "." +
                            std::to_string(i);
      db.put(k, v);
      truth[k] = v;
    }
  }
  const std::string original = read_bytes(f.path);
  ASSERT_FALSE(original.empty());

  // 1000 corrupt loads would each log a recovery warning; keep the run
  // quiet without changing behaviour.
  const log::Level prev_level = log::level();
  log::set_level(log::Level::kError);

  std::mt19937 rng(0xC0FFEE);
  std::uniform_int_distribution<std::size_t> pos_dist(0, original.size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::uniform_int_distribution<int> count_dist(1, 3);

  for (int iter = 0; iter < 1000; ++iter) {
    std::string mutated = original;
    const int mutations = count_dist(rng);
    for (int m = 0; m < mutations; ++m)
      mutated[pos_dist(rng)] = static_cast<char>(byte_dist(rng));
    if (mutated == original) continue;
    write_bytes(f.path, mutated);

    // Must not throw on construction, and every admitted value must be
    // byte-identical to what was originally written — a corrupted line
    // yields a miss, never a different parsed value.
    MeasurementDb db(f.path);
    for (const auto& [k, v] : truth) {
      const auto got = db.get(k);
      if (got.has_value()) {
        EXPECT_EQ(*got, v) << "iter " << iter << " key " << k;
      }
    }
  }
  log::set_level(prev_level);
}

TEST(Recovery, ConcurrentTwoProcessAppendsInterleaveWholeLines) {
  TempFile f("two_proc");
  {
    // Parent seeds the file (and fingerprint) so the children only append.
    MeasurementDb db(f.path);
    db.bind_fingerprint("fp");
  }
  constexpr int kPerChild = 100;
  std::vector<pid_t> children;
  for (int child = 0; child < 2; ++child) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      {
        MeasurementDb db(f.path);
        for (int i = 0; i < kPerChild; ++i)
          db.put("c" + std::to_string(child) + "/k" + std::to_string(i),
                 std::to_string(i));
      }
      ::_exit(0);  // skip gtest/atexit teardown in the forked child
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    EXPECT_TRUE(clean_exit);
  }

  MeasurementDb db(f.path);
  EXPECT_EQ(db.corrupt_lines(), 0u);
  for (int child = 0; child < 2; ++child)
    for (int i = 0; i < kPerChild; ++i)
      EXPECT_EQ(db.get("c" + std::to_string(child) + "/k" +
                       std::to_string(i))
                    .value(),
                std::to_string(i));
}

TEST(Recovery, FailpointSpecParsing) {
  FailpointGuard guard;
  util::FaultInjector::install("a.b=2,c.d,bogus=-1,=9,");
  util::FaultInjector* fi =
      util::detail::g_failpoints.load(std::memory_order_relaxed);
  ASSERT_NE(fi, nullptr);
  EXPECT_TRUE(fi->fires("a.b"));
  EXPECT_TRUE(fi->fires("a.b"));
  EXPECT_FALSE(fi->fires("a.b"));   // count exhausted
  EXPECT_TRUE(fi->fires("c.d"));    // bare name = once
  EXPECT_FALSE(fi->fires("c.d"));
  EXPECT_FALSE(fi->fires("bogus"));  // non-positive count ignored
  EXPECT_FALSE(fi->fires("unknown"));
  util::FaultInjector::reset();
  EXPECT_EQ(util::detail::g_failpoints.load(std::memory_order_relaxed),
            nullptr);
}

TEST(Recovery, ParseNumberStrictness) {
  EXPECT_DOUBLE_EQ(util::parse_double("1.25e-3").value(), 1.25e-3);
  EXPECT_DOUBLE_EQ(util::parse_double("-4").value(), -4.0);
  EXPECT_FALSE(util::parse_double("").has_value());
  EXPECT_FALSE(util::parse_double(" 1").has_value());
  EXPECT_FALSE(util::parse_double("1x").has_value());
  EXPECT_FALSE(util::parse_double("1e999999").has_value());
  EXPECT_EQ(util::parse_u64("18446744073709551615").value(),
            18446744073709551615ull);
  EXPECT_FALSE(util::parse_u64("18446744073709551616").has_value());
  EXPECT_FALSE(util::parse_u64("-1").has_value());
  EXPECT_FALSE(util::parse_u64("+1").has_value());
  EXPECT_FALSE(util::parse_u64("12.5").has_value());
}

}  // namespace
}  // namespace actnet::core
