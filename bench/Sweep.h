//===- bench/Sweep.h - Parallel benchmark sweep runner ----------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny parallel map for the figure and ablation harnesses: the
/// benchmark matrices (subject x analysis) are embarrassingly parallel —
/// every cell is an independent solver run over a read-only Program — so
/// the harnesses fan the cells out over a thread pool and print the tables
/// afterwards, in the same deterministic order as the old sequential
/// loops.  Output is byte-identical for any worker count; only wall-clock
/// changes.  The worker count comes from the harness's `--workers=N` flag
/// (BenchCommon.h's parseHarnessArgs).
///
//===----------------------------------------------------------------------===//

#ifndef BENCH_SWEEP_H
#define BENCH_SWEEP_H

#include "support/ThreadPool.h"

#include <future>
#include <vector>

namespace intro::bench {

/// Runs Task(0), ..., Task(Count - 1) on \p Workers pool threads and
/// returns the results in index order.  Task must be callable concurrently
/// from several threads (i.e. touch only its own cell plus read-only shared
/// state); the first exception a task throws is rethrown here after the
/// pool drains.
template <typename Fn>
auto runSweep(size_t Count, unsigned Workers, Fn &&Task)
    -> std::vector<decltype(Task(size_t(0)))> {
  using Result = decltype(Task(size_t(0)));
  std::vector<Result> Results(Count);
  if (Count == 0)
    return Results;
  if (static_cast<size_t>(Workers) > Count)
    Workers = static_cast<unsigned>(Count);
  ThreadPool Pool(Workers);
  std::vector<std::future<Result>> Futures;
  Futures.reserve(Count);
  for (size_t Index = 0; Index < Count; ++Index)
    Futures.push_back(Pool.submit([&Task, Index] { return Task(Index); }));
  for (size_t Index = 0; Index < Count; ++Index)
    Results[Index] = Futures[Index].get();
  return Results;
}

} // namespace intro::bench

#endif // BENCH_SWEEP_H
