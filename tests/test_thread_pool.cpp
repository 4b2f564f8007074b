#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

namespace swt {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, TasksCanSubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] {
    for (int i = 0; i < 10; ++i) pool.submit([&counter] { ++counter; });
  });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 10);
}

// ---------------------------------------------------------------------------
// Exception safety: a throwing task must never reach std::terminate; it is
// captured and rethrown from the next wait_idle().
// ---------------------------------------------------------------------------

TEST(ThreadPoolExceptions, ThrowingTaskRethrownFromWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  try {
    pool.wait_idle();
    FAIL() << "expected the task's exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(ThreadPoolExceptions, RemainingTasksStillRunAfterThrow) {
  ThreadPool pool(1);  // single worker: the throwing task runs first
  std::atomic<int> counter{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 20; ++i) pool.submit([&counter] { ++counter; });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(counter.load(), 20);  // the queue drained despite the failure
}

TEST(ThreadPoolExceptions, FirstExceptionWins) {
  ThreadPool pool(1);  // single worker: deterministic task order
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::logic_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");  // not the logic_error
  }
}

TEST(ThreadPoolExceptions, PoolStaysUsableAfterRethrow) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) pool.submit([&counter] { ++counter; });
  pool.wait_idle();  // the captured error was cleared by the first rethrow
  EXPECT_EQ(counter.load(), 10);
}

// ---------------------------------------------------------------------------
// Shutdown: submit racing the destructor either runs (the destructor drains
// the queue) or throws std::runtime_error — never deadlocks, never drops a
// task silently.  Run under TSan/ASan via the `sanitize` ctest label.
// ---------------------------------------------------------------------------

TEST(ThreadPoolShutdown, RacingSubmitRunsOrThrowsCleanly) {
  std::atomic<long> attempted{0}, executed{0}, rejected{0};
  for (int round = 0; round < 20; ++round) {
    const long before = executed.load();
    ThreadPool pool(4);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&] {
        // Nested submissions race the destructor setting stop_ on the main
        // thread; the pool object itself outlives every task (the
        // destructor joins the workers), so calling into it here is safe.
        for (int j = 0; j < 50; ++j) {
          ++attempted;
          try {
            pool.submit([&executed] { ++executed; });
          } catch (const std::runtime_error&) {
            ++rejected;
          }
        }
      });
    }
    // Keep the race a race: on a loaded single-core host the destructor can
    // otherwise win before any outer task starts and reject everything.
    // Until this thread enters the destructor stop_ stays false, so nested
    // submissions keep landing and this wait terminates.
    while (executed.load() == before) std::this_thread::yield();
    // Destructor runs here, concurrently with the outer tasks above.
  }
  EXPECT_EQ(executed.load() + rejected.load(), attempted.load());
  EXPECT_GT(executed.load(), 0);  // at least some submissions landed
}

TEST(ThreadPoolShutdown, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) pool.submit([&counter] { ++counter; });
    // No wait_idle: destruction must still run everything already accepted.
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolShutdown, PendingExceptionDoesNotEscapeDestructor) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("nobody waits for me"); });
  // Destructor discards the captured exception instead of throwing.
}

}  // namespace
}  // namespace swt
