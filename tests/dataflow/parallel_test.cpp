#include "dataflow/parallel.h"

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace kbt::dataflow {
namespace {

TEST(ParallelTest, ParallelForVisitsEveryIndexOnce) {
  Executor exec(4);
  std::vector<std::atomic<int>> visits(1000);
  exec.ParallelFor(1000, [&visits](size_t i) { visits[i].fetch_add(1); });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelTest, ParallelForZeroIsNoop) {
  Executor exec(2);
  exec.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelTest, ParallelForComputesCorrectSum) {
  Executor exec(8);
  std::vector<long long> values(10000);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<long long> total{0};
  exec.ParallelForRanges(values.size(), [&](size_t begin, size_t end) {
    long long local = 0;
    for (size_t i = begin; i < end; ++i) local += values[i];
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 10000LL * 9999 / 2);
}

TEST(ParallelTest, ParallelForRangesCoversWithoutOverlap) {
  Executor exec(4);
  std::vector<std::atomic<int>> visits(777);
  exec.ParallelForRanges(
      777,
      [&visits](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
      },
      /*num_chunks=*/13);
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelTest, ParallelForGroupsRunsEachGroup) {
  Executor exec(4);
  std::vector<std::atomic<int>> visits(57);
  exec.ParallelForGroups(57, [&visits](size_t g) { visits[g].fetch_add(1); });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelTest, ForRangeAndForGroupsRunSeriallyWithoutExecutor) {
  // Null executor: one range on the calling thread (none for n = 0), and
  // groups in ascending order.
  std::vector<std::pair<size_t, size_t>> ranges;
  ForRange(nullptr, 7, [&](size_t b, size_t e) { ranges.emplace_back(b, e); });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], std::make_pair(size_t{0}, size_t{7}));
  ForRange(nullptr, 0, [](size_t, size_t) { FAIL() << "must not be called"; });
  std::vector<size_t> order;
  ForGroups(nullptr, 4, [&](size_t g) { order.push_back(g); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3}));

  // With an executor, every index and every group is visited once.
  Executor exec(3);
  std::vector<std::atomic<int>> visits(500);
  ForRange(&exec, visits.size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) visits[i].fetch_add(1);
  });
  ForGroups(&exec, visits.size(), [&](size_t g) { visits[g].fetch_add(1); });
  for (auto& v : visits) EXPECT_EQ(v.load(), 2);
}

TEST(ParallelTest, SingleThreadExecutorStillCorrect) {
  Executor exec(1);
  std::atomic<int> count{0};
  exec.ParallelFor(100, [&count](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelTest, ExecutorIsReusableAcrossStages) {
  Executor exec(4);
  std::atomic<int> count{0};
  for (int stage = 0; stage < 10; ++stage) {
    exec.ParallelFor(100, [&count](size_t) { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 1000);
}

TEST(ParallelTest, DefaultExecutorIsSingleton) {
  Executor& a = DefaultExecutor();
  Executor& b = DefaultExecutor();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1);
}

TEST(ParallelTest, NestedParallelForIsReentrant) {
  // A parallel body opening another parallel loop on the SAME executor is
  // the serving pattern (a request task runs inference stages). The scoped
  // joins + thread donation must keep a saturated pool from deadlocking.
  Executor exec(2);
  std::atomic<int> count{0};
  exec.ParallelFor(8, [&exec, &count](size_t) {
    exec.ParallelFor(16, [&count](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ParallelTest, NestedParallelForOnSingleThreadExecutor) {
  Executor exec(1);
  std::atomic<int> count{0};
  exec.ParallelForGroups(4, [&exec, &count](size_t) {
    exec.ParallelForRanges(10, [&count](size_t begin, size_t end) {
      count.fetch_add(static_cast<int>(end - begin));
    });
  });
  EXPECT_EQ(count.load(), 40);
}

TEST(ParallelTest, SubmitReturnsResultThroughFuture) {
  Executor exec(2);
  std::future<long long> f = exec.Submit([] {
    long long sum = 0;
    for (int i = 1; i <= 100; ++i) sum += i;
    return sum;
  });
  EXPECT_EQ(f.get(), 5050);
}

TEST(ParallelTest, SubmitPropagatesExceptions) {
  Executor exec(2);
  std::future<int> f =
      exec.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ParallelTest, SubmittedTaskCanRunParallelLoops) {
  // The TrustService composition in miniature: a request submitted as one
  // task fans out its own stages on the same executor and joins them.
  Executor exec(2);
  std::atomic<int> count{0};
  std::future<int> f = exec.Submit([&exec, &count] {
    exec.ParallelFor(32, [&count](size_t) { count.fetch_add(1); });
    return count.load();
  });
  EXPECT_EQ(f.get(), 32);
}

TEST(ParallelTest, ConcurrentSubmittedTasksWithNestedLoops) {
  Executor exec(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 8; ++t) {
    futures.push_back(exec.Submit([&exec, &count] {
      exec.ParallelForRanges(100, [&count](size_t begin, size_t end) {
        count.fetch_add(static_cast<int>(end - begin));
      });
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 800);
}

}  // namespace
}  // namespace kbt::dataflow
