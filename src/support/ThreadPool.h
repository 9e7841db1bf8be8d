//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small thread pool for the analysis service, the batch
/// supervisor, the fuzz campaign and the benchmark sweep runners: a fixed
/// number of workers, a FIFO task queue, and std::future-based results.  No work stealing, no priorities,
/// no resizing — the analysis workloads are a handful of long-running,
/// independent solver calls, so a single shared queue is both sufficient
/// and easy to reason about.
///
/// Exceptions thrown by a task are captured by its std::packaged_task and
/// rethrown from the corresponding future's get(), so a crashing solver
/// run surfaces in the submitting thread rather than terminating a worker.
///
/// Destruction drains: the destructor runs every task already queued, then
/// joins the workers.  Callers that want to abandon queued analysis work
/// must cancel it cooperatively (CancellationToken) before destroying the
/// pool.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_THREADPOOL_H
#define SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace intro {

/// A fixed-size pool of worker threads executing queued tasks in FIFO
/// submission order (start order; completion order depends on run times).
class ThreadPool {
public:
  /// Creates \p Workers worker threads; 0 means defaultWorkerCount().
  explicit ThreadPool(unsigned Workers = 0) {
    if (Workers == 0)
      Workers = defaultWorkerCount();
    Threads.reserve(Workers);
    for (unsigned Index = 0; Index < Workers; ++Index)
      Threads.emplace_back([this] { workerLoop(); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Drains the queue (every already-submitted task still runs), then
  /// joins all workers.
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Draining = true;
    }
    Ready.notify_all();
    for (std::thread &Worker : Threads)
      Worker.join();
  }

  /// Number of worker threads.
  size_t workerCount() const { return Threads.size(); }

  /// Worker count used when the caller does not specify one: every
  /// hardware thread, with a fallback when the runtime cannot tell.
  static unsigned defaultWorkerCount() {
    unsigned Count = std::thread::hardware_concurrency();
    return Count == 0 ? 4 : Count;
  }

  /// Enqueues \p Task and \returns the future of its result.  A thrown
  /// exception is captured and rethrown by future.get().
  template <typename Fn>
  auto submit(Fn &&Task) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using Result = std::invoke_result_t<std::decay_t<Fn>>;
    auto Packaged = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(Task));
    std::future<Result> Future = Packaged->get_future();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Queue.emplace_back([Packaged] { (*Packaged)(); });
    }
    Ready.notify_one();
    return Future;
  }

private:
  void workerLoop() {
    for (;;) {
      std::function<void()> Job;
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        Ready.wait(Lock, [this] { return Draining || !Queue.empty(); });
        if (Queue.empty())
          return; // Draining and drained.
        Job = std::move(Queue.front());
        Queue.pop_front();
      }
      Job();
    }
  }

  std::mutex Mutex;
  std::condition_variable Ready;
  std::deque<std::function<void()>> Queue;
  std::vector<std::thread> Threads;
  bool Draining = false;
};

} // namespace intro

#endif // SUPPORT_THREADPOOL_H
