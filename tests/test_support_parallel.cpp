#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/parallel.h"
#include "support/thread_pool.h"

namespace fjs {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&counter] { ++counter; });
    }
  }  // destructor must run all 50
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, RethrowsTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 8,
                            [](std::size_t i) {
                              if (i == 3) {
                                throw std::runtime_error("task failed");
                              }
                            }),
               std::runtime_error);
}

TEST(ParallelMap, PreservesIndexOrder) {
  ThreadPool pool(4);
  const auto out =
      parallel_map(pool, 100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(ParallelReduce, MatchesSerialSum) {
  ThreadPool pool(4);
  const std::size_t n = 5000;
  const auto parallel_sum = parallel_reduce<std::uint64_t>(
      pool, n, 0, [](std::size_t i) { return static_cast<std::uint64_t>(i); },
      [](std::uint64_t acc, std::uint64_t v) { return acc + v; });
  EXPECT_EQ(parallel_sum, n * (n - 1) / 2);
}

TEST(ParallelFor, DeterministicAcrossThreadCounts) {
  auto compute = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(256);
    parallel_for(pool, out.size(), [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    return out;
  };
  EXPECT_EQ(compute(1), compute(7));
}

TEST(ParallelForDynamic, VisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; }, 1,
               ChunkPolicy::kDynamic);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForDynamic, RespectsMinChunk) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(97);  // not a multiple of min_chunk
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; }, 8,
               ChunkPolicy::kDynamic);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForDynamic, DeterministicAcrossThreadCounts) {
  // Slot-indexed writes make the output independent of which worker
  // claims which chunk; 1, 2, and 8 threads must agree exactly even with
  // deliberately uneven per-item costs.
  auto compute = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(512);
    parallel_for(
        pool, out.size(),
        [&](std::size_t i) {
          std::uint64_t acc = i;
          // Uneven work: later indices spin longer.
          for (std::size_t k = 0; k < i * 10; ++k) {
            acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
          }
          out[i] = acc;
        },
        1, ChunkPolicy::kDynamic);
    return out;
  };
  const auto one = compute(1);
  EXPECT_EQ(one, compute(2));
  EXPECT_EQ(one, compute(8));
}

TEST(ParallelForDynamic, MatchesStaticPolicy) {
  ThreadPool pool(4);
  std::vector<double> dynamic_out(300);
  std::vector<double> static_out(300);
  parallel_for(
      pool, dynamic_out.size(),
      [&](std::size_t i) { dynamic_out[i] = static_cast<double>(i) * 0.5; },
      1, ChunkPolicy::kDynamic);
  parallel_for(
      pool, static_out.size(),
      [&](std::size_t i) { static_out[i] = static_cast<double>(i) * 0.5; },
      1, ChunkPolicy::kStatic);
  EXPECT_EQ(dynamic_out, static_out);
}

TEST(ParallelForDynamic, RethrowsTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(
                   pool, 64,
                   [](std::size_t i) {
                     if (i == 17) {
                       throw std::runtime_error("dynamic task failed");
                     }
                   },
                   1, ChunkPolicy::kDynamic),
               std::runtime_error);
}

TEST(ParallelMapDynamic, PreservesIndexOrder) {
  ThreadPool pool(4);
  const auto out = parallel_map(
      pool, 100, [](std::size_t i) { return i * i; }, ChunkPolicy::kDynamic);
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(GlobalPool, IsUsable) {
  auto f = global_pool().submit([] { return 1; });
  EXPECT_EQ(f.get(), 1);
}

// --- Work-stealing pool: nesting and exception plumbing ---------------

TEST(TaskGroup, NestedParallelForOnOnePoolDoesNotDeadlock) {
  // The old futures-per-chunk design deadlocked the moment an outer task
  // blocked a worker waiting on inner work; the TaskGroup helping wait
  // must make this complete even on a pool of ONE thread.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(24, 0);
    parallel_for(pool, out.size(), [&](std::size_t i) {
      std::vector<std::uint64_t> inner(16);
      parallel_for(pool, inner.size(),
                   [&](std::size_t j) { inner[j] = i * 100 + j; }, 1,
                   ChunkPolicy::kDynamic);
      std::uint64_t sum = 0;
      for (const auto v : inner) {
        sum += v;
      }
      out[i] = sum;
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], i * 100 * 16 + 120) << "threads=" << threads;
    }
  }
}

TEST(TaskGroup, DeeplyNestedGroupsComplete) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  std::function<void(int)> spawn = [&](int depth) {
    if (depth == 0) {
      ++leaves;
      return;
    }
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 3; ++i) {
      group.run([&, depth] { spawn(depth - 1); });
    }
    group.wait();
  };
  spawn(4);
  EXPECT_EQ(leaves.load(), 3 * 3 * 3 * 3);
}

TEST(ParallelFor, ManyThrowingTasksPropagateExactlyOneException) {
  // Every chunk throws; exactly ONE exception must escape the call (the
  // first captured), the rest are dropped, and the pool stays usable.
  for (const auto policy : {ChunkPolicy::kStatic, ChunkPolicy::kDynamic}) {
    ThreadPool pool(2);
    int caught = 0;
    std::string message;
    try {
      parallel_for(
          pool, 64,
          [](std::size_t i) {
            throw std::runtime_error("planted " + std::to_string(i));
          },
          1, policy);
    } catch (const std::runtime_error& e) {
      ++caught;
      message = e.what();
    }
    EXPECT_EQ(caught, 1);
    EXPECT_EQ(message.rfind("planted ", 0), 0u) << message;
    // The pool survived: all 64 group nodes were drained before rethrow.
    std::atomic<int> hits{0};
    parallel_for(pool, 32, [&](std::size_t) { ++hits; }, 1, policy);
    EXPECT_EQ(hits.load(), 32);
  }
}

TEST(TaskGroup, StolenTaskExceptionPropagatesExactlyOnce) {
  // Forces a genuine Chase-Lev steal of the throwing task: the group is
  // created on worker A, so the thrower lands on A's own deque; A then
  // spins (without helping) until the task has started, which means the
  // ONLY thread that can possibly execute it is worker B, via steal()
  // (the main thread is parked in future.get() and never helps). The
  // exception is captured on B and must be rethrown exactly once from
  // A's wait().
  ThreadPool pool(2);
  std::atomic<bool> thrower_started{false};
  std::atomic<int> thrower_runs{0};
  std::atomic<int> caught{0};
  auto outer = pool.submit([&] {
    const auto owner_id = std::this_thread::get_id();
    std::thread::id thief_id;
    ThreadPool::TaskGroup group(pool);
    group.run([&] {
      thief_id = std::this_thread::get_id();
      ++thrower_runs;
      thrower_started.store(true);
      throw std::runtime_error("stolen boom");
    });
    while (!thrower_started.load()) {
      std::this_thread::yield();  // pin the deque owner: force the steal
    }
    try {
      group.wait();
    } catch (const std::runtime_error& e) {
      ++caught;
      EXPECT_STREQ(e.what(), "stolen boom");
    }
    EXPECT_NE(thief_id, owner_id) << "task was meant to be stolen";
    // A second wait() must not rethrow: the exception is delivered once.
    group.wait();
  });
  outer.get();
  EXPECT_EQ(caught.load(), 1);
  EXPECT_EQ(thrower_runs.load(), 1);
}

TEST(TaskGroup, AbandonedGroupDrainsWithoutRethrow) {
  // Destroying a group without calling wait() (e.g. unwinding through an
  // outer exception) must drain its tasks and swallow their exceptions.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  {
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
      group.run([&ran] {
        ++ran;
        throw std::runtime_error("ignored");
      });
    }
  }  // ~TaskGroup: no std::terminate, no leak
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace fjs
