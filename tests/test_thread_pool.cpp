// ThreadPool: result/exception propagation through futures, clean shutdown
// with queued work, wait_idle, and the ACTNET_JOBS default (strictly
// parsed, like every numeric ACTNET_* knob, every on/off switch and every
// bench flag).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "util/env.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace actnet::util {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  auto good = pool.submit([] { return 1; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing job keeps serving.
  EXPECT_EQ(good.get(), 1);
}

TEST(ThreadPool, DestructionFinishesQueuedWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i)
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    // No waiting: the destructor must drain the queue before joining.
  }
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, WaitIdleBlocksUntilQueueDrains) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, MoreWorkersThanCoresStillCompletes) {
  ThreadPool pool(8);  // host may have a single core; must still finish
  EXPECT_EQ(pool.size(), 8);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, DefaultJobsHonorsEnv) {
  const char* saved = std::getenv("ACTNET_JOBS");
  const std::string saved_value = saved ? saved : "";
  ::setenv("ACTNET_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::default_jobs(), 3);
  ::setenv("ACTNET_JOBS", "0", 1);  // 0 → hardware default
  const int hw_default = ThreadPool::default_jobs();
  EXPECT_GE(hw_default, 1);
  ::setenv("ACTNET_JOBS", "", 1);  // empty = unset → hardware default
  EXPECT_EQ(ThreadPool::default_jobs(), hw_default);
  // Malformed values are typed errors naming the variable and the value,
  // never a silent default ("abc") or a silently used prefix ("4x").
  for (const char* bad : {"abc", "4x", "-2", " 3", "3 ", "1.5"}) {
    ::setenv("ACTNET_JOBS", bad, 1);
    try {
      ThreadPool::default_jobs();
      ADD_FAILURE() << "ACTNET_JOBS='" << bad << "' was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ACTNET_JOBS"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
    }
  }
  if (saved)
    ::setenv("ACTNET_JOBS", saved_value.c_str(), 1);
  else
    ::unsetenv("ACTNET_JOBS");
}

TEST(ThreadPool, NumericKnobsAreStrict) {
  const auto with_env = [](const char* name, const char* value, auto fn) {
    const char* saved = std::getenv(name);
    const std::string saved_value = saved ? saved : "";
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
    fn();
    if (saved)
      ::setenv(name, saved_value.c_str(), 1);
    else
      ::unsetenv(name);
  };
  // Integers: unset/empty/0 → fallback, digits → value, anything else throws.
  with_env("ACTNET_TEST_INT", nullptr,
           [] { EXPECT_EQ(env_int("ACTNET_TEST_INT", 7), 7); });
  with_env("ACTNET_TEST_INT", "",
           [] { EXPECT_EQ(env_int("ACTNET_TEST_INT", 7), 7); });
  with_env("ACTNET_TEST_INT", "0",
           [] { EXPECT_EQ(env_int("ACTNET_TEST_INT", 7), 7); });
  with_env("ACTNET_TEST_INT", "12",
           [] { EXPECT_EQ(env_int("ACTNET_TEST_INT", 7), 12); });
  for (const char* bad : {"abc", "12ms", "-1", "+3", "99999999999"})
    with_env("ACTNET_TEST_INT", bad,
             [] { EXPECT_THROW(env_int("ACTNET_TEST_INT", 7), Error); });
  // Doubles: the same rule, plus fractions.
  with_env("ACTNET_TEST_DBL", "",
           [] { EXPECT_EQ(env_double("ACTNET_TEST_DBL", 2.5), 2.5); });
  with_env("ACTNET_TEST_DBL", "0",
           [] { EXPECT_EQ(env_double("ACTNET_TEST_DBL", 2.5), 2.5); });
  with_env("ACTNET_TEST_DBL", "0.75",
           [] { EXPECT_EQ(env_double("ACTNET_TEST_DBL", 2.5), 0.75); });
  for (const char* bad : {"fast", "8ms", "-4", "nan", "inf", " 1"})
    with_env("ACTNET_TEST_DBL", bad,
             [] { EXPECT_THROW(env_double("ACTNET_TEST_DBL", 2.5), Error); });
  // Command-line flags share the integer rule.
  EXPECT_EQ(parse_count("--jobs", "4"), 4);
  EXPECT_EQ(parse_count("--jobs", "0"), 0);
  EXPECT_THROW(parse_count("--jobs", "4x"), Error);
  EXPECT_THROW(parse_count("--jobs", ""), Error);
  // The bench command line: known flags parse, anything else throws an
  // error naming the argument — a retired flag, a flag missing its value,
  // a misspelling.
  const auto parse = [](std::vector<std::string> args) {
    args.insert(args.begin(), "bench");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    return bench::parse_cli(static_cast<int>(argv.size()), argv.data());
  };
  const bench::CliOptions cli =
      parse({"--jobs=4", "--trace", "t.json", "--report=r.json"});
  EXPECT_EQ(cli.jobs, 4);
  EXPECT_EQ(cli.trace, "t.json");
  EXPECT_EQ(cli.report, "r.json");
  for (const std::vector<std::string>& bad :
       {std::vector<std::string>{"--telemetry=100"},
        std::vector<std::string>{"--telemetry-out=t.jsonl"},
        std::vector<std::string>{"--jobs=2", "--jobs"},
        std::vector<std::string>{"--report"},
        std::vector<std::string>{"--jobz=4"},
        std::vector<std::string>{"results.csv"}}) {
    try {
      parse(bad);
      ADD_FAILURE() << "accepted " << bad.back();
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(bad.back()), std::string::npos)
          << e.what();
    }
  }
}

TEST(EnvFlag, SwitchesAreStrict) {
  // Switches (ACTNET_FAST, ACTNET_PROFILE) take the on/off words; a value
  // that merely starts with '1' or is any other word throws, naming the
  // variable.
  const char* name = "ACTNET_TEST_FLAG";
  ::unsetenv(name);
  EXPECT_FALSE(env_flag(name));
  for (const char* off : {"", "0", "off", "false", "no"}) {
    ::setenv(name, off, 1);
    EXPECT_FALSE(env_flag(name)) << "'" << off << "'";
  }
  for (const char* on : {"1", "on", "true", "yes"}) {
    ::setenv(name, on, 1);
    EXPECT_TRUE(env_flag(name)) << on;
  }
  for (const char* bad : {"10", "1x", "2", "enabled", " 1"}) {
    ::setenv(name, bad, 1);
    try {
      env_flag(name);
      ADD_FAILURE() << name << "='" << bad << "' was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
  ::unsetenv(name);
}

TEST(BenchCli, UsageErrorsExitTwoWithTheMessage) {
  // A bench body that throws actnet::Error (here the real parser on a
  // retired flag) returns exit code 2 with the message on stderr, instead
  // of aborting through std::terminate; a body that returns passes its
  // code through.
  std::string flag = "--telemetry=100";
  std::string name = "bench";
  char* argv[] = {name.data(), flag.data()};
  testing::internal::CaptureStderr();
  const int code = bench::run([&] {
    bench::parse_cli(2, argv);
    return 0;
  });
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find("error: "), std::string::npos) << err;
  EXPECT_NE(err.find(flag), std::string::npos) << err;
  EXPECT_EQ(bench::run([] { return 0; }), 0);
  EXPECT_EQ(bench::run([] { return 3; }), 3);
}

}  // namespace
}  // namespace actnet::util
