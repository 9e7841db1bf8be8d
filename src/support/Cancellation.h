//===- support/Cancellation.h - Cooperative cancellation --------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cooperative cancellation token: one side signals, long-running loops
/// poll.  Used by the solver's worklist loop so a watchdog (or an impatient
/// service endpoint) can abort a blowing-up deep analysis without killing
/// the process; the solver returns promptly with SolveStatus::Cancelled and
/// a sound-prefix result.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_CANCELLATION_H
#define SUPPORT_CANCELLATION_H

#include <atomic>

namespace intro {

/// A thread-safe, reusable cancellation flag.  cancel() may be called from
/// any thread, any number of times; polling is a relaxed atomic load and is
/// cheap enough for hot loops.
class CancellationToken {
public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken &) = delete;
  CancellationToken &operator=(const CancellationToken &) = delete;

  /// Requests cancellation of this token.  Idempotent.
  void cancel() { Flag.store(true, std::memory_order_relaxed); }

  /// \returns true once cancel() has been called on this token.
  bool isCancelled() const { return Flag.load(std::memory_order_relaxed); }

  /// Re-arms the token for reuse.  Only safe once no worker polls it.
  void reset() { Flag.store(false, std::memory_order_relaxed); }

private:
  std::atomic<bool> Flag{false};
};

} // namespace intro

#endif // SUPPORT_CANCELLATION_H
