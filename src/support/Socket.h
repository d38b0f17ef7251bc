//===- support/Socket.h - Blocking socket helpers ---------------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two socket chores both ends of the admin HTTP plane need: writing a
/// whole buffer despite short writes and EINTR, and bounding every blocking
/// read/write with a timeout.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_SUPPORT_SOCKET_H
#define FAST_SUPPORT_SOCKET_H

#include <cerrno>
#include <string>
#include <sys/socket.h>
#include <sys/time.h>

namespace fast {

/// Sends all of \p Data on \p Fd; false on a transport error.
inline bool sendAll(int Fd, const std::string &Data) {
  size_t Sent = 0;
  while (Sent < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Sent, Data.size() - Sent,
                       MSG_NOSIGNAL);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    Sent += size_t(N);
  }
  return true;
}

/// Applies a \p Ms millisecond timeout to each blocking read and write on
/// \p Fd.
inline void setIoTimeout(int Fd, int Ms) {
  timeval Tv{};
  Tv.tv_sec = Ms / 1000;
  Tv.tv_usec = (Ms % 1000) * 1000;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
}

} // namespace fast

#endif // FAST_SUPPORT_SOCKET_H
