#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <set>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace jepo {
namespace {

// ---------------------------------------------------------------- strings

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_TRUE(endsWith("foo.mjava", ".mjava"));
  EXPECT_FALSE(endsWith("mjava", ".mjava"));
  EXPECT_TRUE(startsWith("x", ""));
  EXPECT_TRUE(endsWith("x", ""));
}

TEST(Strings, JoinRoundTripsSplit) {
  const std::vector<std::string> parts = {"a", "bb", "", "c"};
  EXPECT_EQ(split(join(parts, ";"), ';'), parts);
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replaceAll("a%b%c", "%", "%%"), "a%%b%%c");
  EXPECT_EQ(replaceAll("aaa", "aa", "b"), "ba");  // non-overlapping, greedy
  EXPECT_EQ(replaceAll("none", "x", "y"), "none");
  EXPECT_THROW(replaceAll("x", "", "y"), PreconditionError);
}

TEST(Strings, Padding) {
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("abcd", 2), "abcd");  // never truncates
  EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

TEST(Strings, FixedFormatting) {
  EXPECT_EQ(fixed(14.456, 2), "14.46");
  EXPECT_EQ(fixed(0.0, 2), "0.00");
  EXPECT_EQ(fixed(-1.005, 1), "-1.0");
  EXPECT_THROW(fixed(1.0, -1), PreconditionError);
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(withCommas(0), "0");
  EXPECT_EQ(withCommas(999), "999");
  EXPECT_EQ(withCommas(1000), "1,000");
  EXPECT_EQ(withCommas(101172), "101,172");
  EXPECT_EQ(withCommas(539383), "539,383");
  EXPECT_EQ(withCommas(-1234567), "-1,234,567");
}

TEST(Strings, CountLines) {
  EXPECT_EQ(countLines(""), 0u);
  EXPECT_EQ(countLines("one"), 1u);
  EXPECT_EQ(countLines("one\n"), 1u);
  EXPECT_EQ(countLines("one\ntwo"), 2u);
  EXPECT_EQ(countLines("one\ntwo\n"), 2u);
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowCoversRangeUniformly) {
  Rng rng(11);
  std::array<int, 10> hist{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++hist[rng.nextBelow(10)];
  for (int h : hist) {
    EXPECT_GT(h, n / 10 - n / 50);
    EXPECT_LT(h, n / 10 + n / 50);
  }
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.nextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values occur
  EXPECT_EQ(rng.nextInt(5, 5), 5);
  EXPECT_THROW(rng.nextInt(2, 1), PreconditionError);
}

TEST(Rng, GaussianMoments) {
  Rng rng(99);
  const int n = 200000;
  double sum = 0.0;
  double sumSq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.nextGaussian();
    sum += g;
    sumSq += g * g;
  }
  const double mean = sum / n;
  const double var = sumSq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, DeriveSeedIsAPureFunctionOfCoordinates) {
  EXPECT_EQ(deriveSeed(2020, 3, 1, 7), deriveSeed(2020, 3, 1, 7));
  // Each coordinate matters independently.
  EXPECT_NE(deriveSeed(2020, 3, 1, 7), deriveSeed(2021, 3, 1, 7));
  EXPECT_NE(deriveSeed(2020, 3, 1, 7), deriveSeed(2020, 4, 1, 7));
  EXPECT_NE(deriveSeed(2020, 3, 1, 7), deriveSeed(2020, 3, 0, 7));
  EXPECT_NE(deriveSeed(2020, 3, 1, 7), deriveSeed(2020, 3, 1, 8));
  // Coordinates do not alias (swapping adjacent coordinates changes the
  // stream — a plain XOR of the raw values would collide here).
  EXPECT_NE(deriveSeed(2020, 1, 3, 7), deriveSeed(2020, 3, 1, 7));
}

TEST(Rng, DeriveSeedStreamsAreStatisticallyIndependent) {
  // Adjacent run indices must land in unrelated streams: count matching
  // outputs between consecutive-seed generators.
  int same = 0;
  for (std::uint64_t run = 0; run < 64; ++run) {
    Rng a(deriveSeed(2020, 2, 1, run));
    Rng b(deriveSeed(2020, 2, 1, run + 1));
    same += (a() == b());
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStreamsAreIndependentOfParentUse) {
  Rng parent1(5);
  Rng child1 = parent1.split();
  Rng parent2(5);
  Rng child2 = parent2.split();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child1(), child2());
}

// ---------------------------------------------------------------- table

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Name", "Value"}, {Align::kLeft, Align::kRight});
  t.addRow({"alpha", "1"});
  t.addRow({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Name  | Value"), std::string::npos);
  EXPECT_NE(out.find("alpha |     1"), std::string::npos);
  EXPECT_NE(out.find("b     |    22"), std::string::npos);
  EXPECT_NE(out.find("------+------"), std::string::npos);
}

TEST(TextTable, HandlesRaggedRowsAndTitle) {
  TextTable t({"A", "B", "C"});
  t.setTitle("Title");
  t.addRow({"x"});
  const std::string out = t.render();
  EXPECT_EQ(out.substr(0, 6), "Title\n");
  EXPECT_EQ(t.rowCount(), 1u);
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hit(1000, 0);
  parallelFor(pool, hit.size(), [&](std::size_t i) { hit[i] = 1; });
  EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), 0), 1000);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallelFor(pool, 8,
                  [](std::size_t i) {
                    if (i == 3) throw Error("boom");
                  }),
      Error);
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  parallelFor(pool, 0, [](std::size_t) { FAIL(); });
}

// Regression: parallelFor used to rethrow on the FIRST failed future while
// later tasks were still queued — those tasks then invoked the by-reference
// `body` after it went out of scope (use-after-scope, caught by TSan/ASan).
// The fix drains every future first; this asserts the drain by counting.
TEST(ThreadPool, ParallelForRunsEveryTaskBeforeRethrowing) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  // The throwing task is early in the batch so plenty of tasks are still
  // queued when the exception is captured.
  auto runOnce = [&] {
    parallelFor(pool, 64, [&completed](std::size_t i) {
      if (i == 1) throw Error("mid-batch boom");
      ++completed;
    });
  };
  EXPECT_THROW(runOnce(), Error);
  // Every non-throwing task ran to completion before parallelFor returned;
  // none of them can touch a dangling body afterwards.
  EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPool, ParallelForRethrowsFirstExceptionInIndexOrder) {
  ThreadPool pool(4);
  try {
    parallelFor(pool, 16, [](std::size_t i) {
      if (i == 3) throw Error("three");
      if (i == 11) throw Error("eleven");
    });
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("three"), std::string::npos);
  }
}

TEST(ParallelConfig, ResolvesThreadCounts) {
  EXPECT_TRUE(ParallelConfig{1}.serial());
  EXPECT_FALSE(ParallelConfig{0}.serial());
  EXPECT_FALSE(ParallelConfig{8}.serial());
  EXPECT_EQ(ParallelConfig{8}.resolvedThreads(), 8u);
  EXPECT_GE(ParallelConfig{0}.resolvedThreads(), 1u);
}

TEST(ThreadPool, ManyMoreTasksThanThreads) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  parallelFor(pool, 500, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, EachSubmittedFutureCarriesItsOwnResult) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(pool.submit([i, &ran] {
      ++ran;
      return i * i;
    }));
  }
  for (int i = 0; i < 40; ++i) EXPECT_EQ(futures[i].get(), i * i);
  EXPECT_EQ(ran.load(), 40);
}

TEST(ThreadPool, DestructorRunsEveryQueuedTask) {
  // Workers exit only once the queue is drained: tasks still queued when
  // the pool goes out of scope run before the destructor returns.
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    pool.submit([gate] { gate.wait(); });
    for (int i = 0; i < 20; ++i) pool.submit([&count] { ++count; });
    EXPECT_EQ(count.load(), 0);
    release.set_value();
  }
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, CountsEveryTaskAndDrainsTheQueueDepthGauge) {
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t before = reg.counter("pool.tasks").value();
  ThreadPool pool(2);
  parallelFor(pool, 50, [](std::size_t) {});
  EXPECT_EQ(reg.counter("pool.tasks").value() - before, 50u);
  EXPECT_EQ(reg.gauge("pool.queue.depth").value(), 0);
}

// ---------------------------------------------------------------- error

TEST(Error, RequireThrowsWithContext) {
  try {
    JEPO_REQUIRE(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, ParseErrorCarriesLocation) {
  ParseError e("bad token", 12, 7);
  EXPECT_EQ(e.line(), 12);
  EXPECT_EQ(e.col(), 7);
  EXPECT_NE(std::string(e.what()).find("12:7"), std::string::npos);
}

}  // namespace
}  // namespace jepo
