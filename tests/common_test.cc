#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <thread>

#include "common/random.h"
#include "common/status.h"
#include "common/status_or.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace flock {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("table t");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: table t");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
  EXPECT_FALSE(Status::Internal("x") == Status::Aborted("x"));
}

TEST(StatusTest, DataLossCarriesCodeAndMessage) {
  Status st = Status::DataLoss("wal record 7: checksum mismatch");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(st.ToString(), "DataLoss: wal record 7: checksum mismatch");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DataLoss");
}

TEST(StatusTest, DataLossIsDistinctFromInternal) {
  // Durability code must not overload Internal for corruption; the two
  // codes have different retry/alerting semantics.
  EXPECT_FALSE(Status::DataLoss("x") == Status::Internal("x"));
  EXPECT_EQ(Status::DataLoss("x"), Status::DataLoss("x"));
}

StatusOr<int> ReturnsValue() { return 42; }
StatusOr<int> ReturnsError() { return Status::InvalidArgument("bad"); }

TEST(StatusOrTest, HoldsValue) {
  auto v = ReturnsValue();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  auto v = ReturnsError();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(v.value_or(7), 7);
}

StatusOr<int> UsesAssignOrReturn() {
  FLOCK_ASSIGN_OR_RETURN(int x, ReturnsValue());
  return x + 1;
}

StatusOr<int> PropagatesError() {
  FLOCK_ASSIGN_OR_RETURN(int x, ReturnsError());
  return x + 1;
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  EXPECT_EQ(*UsesAssignOrReturn(), 43);
  EXPECT_EQ(PropagatesError().status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StringUtilTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitWhitespace) {
  auto parts = SplitWhitespace("  foo\t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "bar");
}

TEST(StringUtilTest, TrimAndCase) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(ToUpper("SeLeCt"), "SELECT");
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreCase("Model", "MODEL"));
  EXPECT_FALSE(EqualsIgnoreCase("Model", "Models"));
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("flock_engine", "flock"));
  EXPECT_FALSE(StartsWith("flock", "flock_engine"));
  EXPECT_TRUE(EndsWith("model.bin", ".bin"));
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(22330), "22,330");
  EXPECT_EQ(FormatWithCommas(-1234567), "-1,234,567");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(0), "0");
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, UniformIntStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(99);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(ZipfTest, HeavyHead) {
  ZipfSampler zipf(1000, 1.2, 42);
  size_t head = 0;
  const size_t kSamples = 20000;
  for (size_t i = 0; i < kSamples; ++i) {
    if (zipf.Next() < 10) ++head;
  }
  // With s=1.2 over 1000 ranks, the top-10 should dominate.
  EXPECT_GT(head, kSamples / 2);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndexes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&done] { done++; });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPoolTest, TrySubmitShedsWhenQueueFull) {
  ThreadPool pool(1, /*max_queue_depth=*/2);
  // Block the single worker so queued tasks pile up deterministically.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> started;
  pool.Submit([&, gate] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();

  std::atomic<int> ran{0};
  // The worker is busy, so these two fill the bounded queue...
  EXPECT_TRUE(pool.TrySubmit([&ran] { ran++; }));
  EXPECT_TRUE(pool.TrySubmit([&ran] { ran++; }));
  EXPECT_EQ(pool.queue_depth(), 2u);
  // ...and the next ones are shed without blocking.
  EXPECT_FALSE(pool.TrySubmit([&ran] { ran++; }));
  EXPECT_FALSE(pool.TrySubmit([&ran] { ran++; }));

  release.set_value();
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 2);  // shed tasks never ran

  // Once drained, the queue has room again.
  EXPECT_TRUE(pool.TrySubmit([&ran] { ran++; }));
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, UnboundedTrySubmitNeverSheds) {
  ThreadPool pool(2);  // max_queue_depth = 0 -> unbounded
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(pool.TrySubmit([&ran] { ran++; }));
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 64);
}

// Idle workers wake last-parked first: with the pool idle between them,
// sequential submissions all run on the one warm worker.
TEST(ThreadPoolTest, SequentialSubmissionsRunOnTheLastIdleWorker) {
  ThreadPool pool(4);
  std::set<std::thread::id> ran_on;
  for (int i = 0; i < 20; ++i) {
    while (pool.idle_workers() < pool.num_threads()) {
      std::this_thread::yield();  // every worker parked
    }
    std::thread::id id;
    pool.Submit([&id] { id = std::this_thread::get_id(); });
    pool.WaitIdle();
    ran_on.insert(id);
  }
  EXPECT_EQ(ran_on.size(), 1u);
}

}  // namespace
}  // namespace flock
