//===- obs/AdminServer.h - Embeddable admin HTTP/1.1 server -----*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dependency-free, embeddable HTTP/1.1 server for live introspection —
/// the transport layer of the admin plane (`fastc --serve`, the future
/// `fastd` daemon).  POSIX sockets only, no third-party libraries: one
/// blocking accept loop on its own thread feeding a small fixed pool of
/// worker threads, one request per connection (`Connection: close`), bodies
/// framed by Content-Length.  Routes are registered as (method, exact path)
/// -> handler before start(); handlers run on worker threads, so anything
/// they read must be safe against the session thread (the endpoint layer in
/// engine/AdminEndpoints.h enforces that contract: relaxed-atomic counters
/// are read live, everything else is served from published snapshots).
///
/// The server binds 127.0.0.1 only — this is an introspection plane, not a
/// public listener.  Port 0 binds an ephemeral port; port() reports the
/// actual one after start().
///
/// The blocking client the tests and tools drive it with lives in
/// checks/HttpClient.h.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_OBS_ADMINSERVER_H
#define FAST_OBS_ADMINSERVER_H

#include "support/RelaxedCell.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace fast::obs {

struct HttpRequest {
  std::string Method; // "GET", "POST"
  std::string Path;   // "/metrics" (no query)
  std::string Query;  // "delta=1" (text after '?', may be empty)
  std::string Body;

  /// True when \p Key appears in the query string as `key` or `key=...`.
  bool hasQueryFlag(std::string_view Key) const;
};

struct HttpResponse {
  int Status = 200;
  std::string ContentType = "text/plain; charset=utf-8";
  std::string Body;

  static HttpResponse text(int Status, std::string Body);
  static HttpResponse json(std::string Body);
  static HttpResponse html(std::string Body);
};

class AdminServer {
public:
  using Handler = std::function<HttpResponse(const HttpRequest &)>;

  AdminServer() = default;
  ~AdminServer() { stop(); }
  AdminServer(const AdminServer &) = delete;
  AdminServer &operator=(const AdminServer &) = delete;

  /// Registers \p H for (\p Method, exact \p Path).  Call before start();
  /// routes are not mutated while the server runs.
  void handle(std::string Method, std::string Path, Handler H);

  /// Binds 127.0.0.1:\p Port (0 = ephemeral), spawns the accept thread and
  /// \p Workers handler threads.  False with \p Error set on bind failure.
  bool start(uint16_t Port, unsigned Workers = 2, std::string *Error = nullptr);

  /// Stops accepting, drains queued connections with 503s, joins every
  /// thread, and closes the listening socket.  Idempotent.
  void stop();

  bool running() const { return Running.load(); }
  /// The bound port (the actual one when started with port 0).
  uint16_t port() const { return BoundPort; }
  /// Requests dispatched to a handler (404/405 included) since start().
  uint64_t requestsServed() const { return Requests.load(); }

private:
  void acceptLoop();
  void workerLoop();
  void serveConnection(int Fd);
  HttpResponse dispatch(const HttpRequest &Req);

  std::map<std::pair<std::string, std::string>, Handler> Routes;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  RelaxedCell<bool> Running{false};
  RelaxedCell<bool> Stopping{false};
  RelaxedCell<uint64_t> Requests;
  std::thread Acceptor;
  std::vector<std::thread> Pool;
  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<int> ConnQueue;
};

} // namespace fast::obs

#endif // FAST_OBS_ADMINSERVER_H
