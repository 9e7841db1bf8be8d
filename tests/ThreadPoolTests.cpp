//===- tests/ThreadPoolTests.cpp - ThreadPool unit tests ------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <vector>

using namespace intro;

TEST(ThreadPool, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool Pool(2);
  EXPECT_EQ(Pool.workerCount(), 2u);
  std::vector<std::future<int>> Futures;
  for (int Value = 0; Value < 32; ++Value)
    Futures.push_back(Pool.submit([Value] { return Value * Value; }));
  for (int Value = 0; Value < 32; ++Value)
    EXPECT_EQ(Futures[Value].get(), Value * Value);
}

TEST(ThreadPool, ZeroWorkersMeansDefault) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.workerCount(), ThreadPool::defaultWorkerCount());
  EXPECT_GE(ThreadPool::defaultWorkerCount(), 1u);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool Pool(2);
  auto Future = Pool.submit(
      []() -> int { throw std::runtime_error("solver blew up"); });
  EXPECT_THROW(Future.get(), std::runtime_error);
  // The worker that ran the throwing task must survive to run more work.
  EXPECT_EQ(Pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> Completed{0};
  {
    ThreadPool Pool(1);
    for (int Index = 0; Index < 16; ++Index)
      Pool.submit([&Completed] { ++Completed; });
    // Destructor runs here: all 16 tasks must execute before join.
  }
  EXPECT_EQ(Completed.load(), 16);
}

TEST(ThreadPool, TasksRunConcurrentlyAcrossWorkers) {
  // Two tasks that each wait for the other's side-effect can only both
  // finish if they run on distinct workers at the same time.  Deadline-
  // guarded so a regression fails the test instead of hanging it.
  ThreadPool Pool(2);
  std::atomic<int> Arrived{0};
  auto Rendezvous = [&Arrived] {
    ++Arrived;
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    while (Arrived.load() < 2) {
      if (std::chrono::steady_clock::now() > Deadline)
        return false;
      std::this_thread::yield();
    }
    return true;
  };
  auto A = Pool.submit(Rendezvous);
  auto B = Pool.submit(Rendezvous);
  EXPECT_TRUE(A.get());
  EXPECT_TRUE(B.get());
}
