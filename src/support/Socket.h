//===- support/Socket.h - Unix-domain socket & SIGPIPE policy ---*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small POSIX surface the serving layer needs: Unix-domain listen and
/// connect, full-buffer send/receive loops, and a poll wrapper — plus the
/// repo-wide SIGPIPE/EPIPE policy those loops implement.
///
/// **The SIGPIPE policy.**  Every long-running tool (intro_batch,
/// intro_serve, the fig harnesses) calls ignoreSigPipe() first thing in
/// main().  The default SIGPIPE disposition kills the process the moment a
/// consumer closes its end of a pipe or socket — `intro_batch | head`
/// died mid-batch with no exit code, no report, and no quarantine copy.
/// With the signal ignored, a write to a closed peer fails with EPIPE
/// instead, and the policy for that is uniform:
///
///   - a *progress* channel (stdout table, a streamed event frame) going
///     away is the consumer's choice — a clean stop, never an error;
///   - a *result* channel (a report file, a quarantine copy) failing is
///     still an error, because nobody chose to discard it.
///
/// sendAll() additionally passes MSG_NOSIGNAL, so socket writes are safe
/// even from contexts that could not have called ignoreSigPipe() (tests,
/// library embedders).  Forked analysis children have their own guard in
/// support/Subprocess.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_SOCKET_H
#define SUPPORT_SOCKET_H

#include <cstddef>
#include <string>

namespace intro {

/// Ignores SIGPIPE process-wide (idempotent).  See the file comment for the
/// policy; call it at the top of every tool main() that writes to pipes or
/// sockets it does not control the far end of.
void ignoreSigPipe();

/// Creates, binds, and listens on a Unix-domain stream socket at \p Path.
/// A stale socket file from a dead server is detected (connect refused) and
/// replaced; a live server at the same path is an error.  \returns the
/// listening fd, or -1 with \p Error set.
int listenUnix(const std::string &Path, int Backlog, std::string &Error);

/// Connects to the Unix-domain stream socket at \p Path.  \returns the
/// connected fd, or -1 with \p Error set.
int connectUnix(const std::string &Path, std::string &Error);

/// Writes all \p Count bytes to \p Fd (EINTR-resumed, MSG_NOSIGNAL on
/// sockets).  \returns false when the peer is gone (EPIPE/ECONNRESET) or on
/// any other write error — per the policy above the caller treats a dead
/// progress consumer as a clean stop, not a failure.
bool sendAll(int Fd, const char *Data, size_t Count);

/// Waits until \p Fd is readable.  \returns 1 when readable (or at EOF),
/// 0 on timeout, -1 on error.  \p TimeoutMs < 0 waits forever.
int pollIn(int Fd, int TimeoutMs);

/// \returns true once the peer of the connected stream socket \p Fd has
/// closed it (POLLHUP or POLLERR).  Never blocks and never reads, so
/// pipelined requests stay queued; a peer that only shut down its write
/// half is still connected.
bool peerHungUp(int Fd);

/// One EINTR-resumed read(2).  \returns bytes read, 0 at EOF, -1 on error.
long readSome(int Fd, char *Buffer, size_t Capacity);

} // namespace intro

#endif // SUPPORT_SOCKET_H
