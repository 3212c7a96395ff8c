// Unit tests for src/util: logging, timers, RNG, bitsets, CLI, memory
// accounting.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "src/util/bitset.h"
#include "src/util/cli.h"
#include "src/util/logging.h"
#include "src/util/memory.h"
#include "src/util/random.h"
#include "src/util/timer.h"

namespace graphbolt {
namespace {

TEST(Logging, LevelNames) {
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(LogLevelName(LogLevel::kWarning), "WARN");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "ERROR");
  EXPECT_STREQ(LogLevelName(LogLevel::kFatal), "FATAL");
}

TEST(Logging, SetAndGetLevel) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(before);
}

TEST(Logging, CheckPassesOnTrue) {
  GB_CHECK(1 + 1 == 2) << "never shown";
}

TEST(Logging, CheckAbortsOnFalse) {
  EXPECT_DEATH({ GB_CHECK(false) << "boom"; }, "Check failed");
}

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.Millis(), 15.0);
  EXPECT_LT(timer.Seconds(), 5.0);
}

TEST(Timer, ResetRestartsEpoch) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  timer.Reset();
  EXPECT_LT(timer.Millis(), 10.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next();
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoundedCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.NextBounded(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(AtomicBitset, SetTestClear) {
  AtomicBitset bits(200);
  EXPECT_FALSE(bits.Test(63));
  EXPECT_TRUE(bits.Set(63));
  EXPECT_TRUE(bits.Test(63));
  EXPECT_FALSE(bits.Set(63));  // second set reports already-set
  bits.Clear(63);
  EXPECT_FALSE(bits.Test(63));
}

TEST(AtomicBitset, CountAndClearAll) {
  AtomicBitset bits(130);
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_EQ(bits.Count(), 3u);
  bits.ClearAll();
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(AtomicBitset, GrowPreservesBits) {
  AtomicBitset bits(10);
  bits.Set(3);
  bits.Set(9);
  bits.Grow(500);
  EXPECT_EQ(bits.size(), 500u);
  EXPECT_TRUE(bits.Test(3));
  EXPECT_TRUE(bits.Test(9));
  EXPECT_FALSE(bits.Test(100));
  bits.Set(499);
  EXPECT_TRUE(bits.Test(499));
}

TEST(AtomicBitset, ConcurrentSetIsExact) {
  AtomicBitset bits(100000);
  std::atomic<int> claims{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&bits, &claims] {
      for (size_t i = 0; i < 100000; ++i) {
        if (bits.Set(i)) {
          claims.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(claims.load(), 100000);  // each bit claimed exactly once
  EXPECT_EQ(bits.Count(), 100000u);
}

TEST(ArgParser, ParsesAllKinds) {
  ArgParser parser("test");
  parser.AddString("name", "default", "a string")
      .AddInt("count", 5, "an int")
      .AddDouble("rate", 0.5, "a double")
      .AddBool("verbose", false, "a bool");
  const char* argv[] = {"prog", "--name", "alice", "--count=12", "--rate", "0.25", "--verbose"};
  ASSERT_TRUE(parser.Parse(7, const_cast<char**>(argv)));
  EXPECT_EQ(parser.GetString("name"), "alice");
  EXPECT_EQ(parser.GetInt("count"), 12);
  EXPECT_DOUBLE_EQ(parser.GetDouble("rate"), 0.25);
  EXPECT_TRUE(parser.GetBool("verbose"));
}

TEST(ArgParser, DefaultsApplyWhenUnset) {
  ArgParser parser("test");
  parser.AddInt("count", 42, "int");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.Parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(parser.GetInt("count"), 42);
}

TEST(ArgParser, RejectsUnknownFlag) {
  ArgParser parser("test");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(parser.Parse(3, const_cast<char**>(argv)));
}

TEST(ArgParser, CollectsPositional) {
  ArgParser parser("test");
  parser.AddInt("n", 1, "int");
  const char* argv[] = {"prog", "input.txt", "--n", "3", "more"};
  ASSERT_TRUE(parser.Parse(5, const_cast<char**>(argv)));
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "input.txt");
  EXPECT_EQ(parser.positional()[1], "more");
}

TEST(MemoryAccountant, AddAndTotal) {
  MemoryAccountant& acc = MemoryAccountant::Instance();
  acc.Reset();
  acc.Add("deps", 100);
  acc.Add("deps", 50);
  acc.Add("bits", 8);
  EXPECT_EQ(acc.Total("deps"), 150);
  EXPECT_EQ(acc.Total("bits"), 8);
  EXPECT_EQ(acc.Total("absent"), 0);
  const auto snapshot = acc.Snapshot();
  EXPECT_EQ(snapshot.size(), 2u);
  acc.Reset();
  EXPECT_EQ(acc.Total("deps"), 0);
}

}  // namespace
}  // namespace graphbolt
