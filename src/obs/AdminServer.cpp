//===- obs/AdminServer.cpp - Embeddable admin HTTP/1.1 server -------------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#include "obs/AdminServer.h"

#include "support/Socket.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace fast::obs;

//===----------------------------------------------------------------------===//
// Request / response helpers
//===----------------------------------------------------------------------===//

bool HttpRequest::hasQueryFlag(std::string_view Key) const {
  size_t Pos = 0;
  while (Pos <= Query.size()) {
    size_t End = Query.find('&', Pos);
    if (End == std::string::npos)
      End = Query.size();
    std::string_view Param(Query.data() + Pos, End - Pos);
    size_t Eq = Param.find('=');
    std::string_view Name = Eq == std::string_view::npos
                                ? Param
                                : Param.substr(0, Eq);
    if (Name == Key)
      return true;
    if (End == Query.size())
      break;
    Pos = End + 1;
  }
  return false;
}

HttpResponse HttpResponse::text(int Status, std::string Body) {
  return HttpResponse{Status, "text/plain; charset=utf-8", std::move(Body)};
}

HttpResponse HttpResponse::json(std::string Body) {
  return HttpResponse{200, "application/json", std::move(Body)};
}

HttpResponse HttpResponse::html(std::string Body) {
  return HttpResponse{200, "text/html; charset=utf-8", std::move(Body)};
}

namespace {

const char *statusText(int Status) {
  switch (Status) {
  case 200: return "OK";
  case 400: return "Bad Request";
  case 404: return "Not Found";
  case 405: return "Method Not Allowed";
  case 409: return "Conflict";
  case 413: return "Payload Too Large";
  case 500: return "Internal Server Error";
  case 503: return "Service Unavailable";
  default:  return "Unknown";
  }
}

/// Serializes \p Resp to the wire form.  Content-Length framing plus
/// Connection: close keeps the protocol one-shot and unambiguous.
std::string renderResponse(const HttpResponse &Resp) {
  std::string Out = "HTTP/1.1 " + std::to_string(Resp.Status) + " " +
                    statusText(Resp.Status) + "\r\n";
  Out += "Content-Type: " + Resp.ContentType + "\r\n";
  Out += "Content-Length: " + std::to_string(Resp.Body.size()) + "\r\n";
  Out += "Connection: close\r\n\r\n";
  Out += Resp.Body;
  return Out;
}

/// Reads one HTTP request (header block + Content-Length body) from \p Fd.
/// Conservative caps: 64 KiB of headers, 4 MiB of body.
bool readRequest(int Fd, HttpRequest &Req, int &FailStatus) {
  constexpr size_t MaxHeader = 64 * 1024;
  constexpr size_t MaxBody = 4 * 1024 * 1024;
  std::string Buf;
  size_t HeaderEnd = std::string::npos;
  char Chunk[4096];
  while (HeaderEnd == std::string::npos) {
    if (Buf.size() > MaxHeader) {
      FailStatus = 413;
      return false;
    }
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      FailStatus = 400;
      return false;
    }
    Buf.append(Chunk, size_t(N));
    HeaderEnd = Buf.find("\r\n\r\n");
  }

  // Request line: METHOD SP target SP HTTP/1.x
  size_t LineEnd = Buf.find("\r\n");
  std::string Line = Buf.substr(0, LineEnd);
  size_t Sp1 = Line.find(' ');
  size_t Sp2 = Sp1 == std::string::npos ? std::string::npos
                                        : Line.find(' ', Sp1 + 1);
  if (Sp1 == std::string::npos || Sp2 == std::string::npos ||
      Line.compare(Sp2 + 1, 7, "HTTP/1.") != 0) {
    FailStatus = 400;
    return false;
  }
  Req.Method = Line.substr(0, Sp1);
  std::string Target = Line.substr(Sp1 + 1, Sp2 - Sp1 - 1);
  size_t Q = Target.find('?');
  Req.Path = Target.substr(0, Q);
  Req.Query = Q == std::string::npos ? "" : Target.substr(Q + 1);

  // Headers: only Content-Length matters for framing.
  size_t BodyLen = 0;
  size_t Pos = LineEnd + 2;
  while (Pos < HeaderEnd) {
    size_t End = Buf.find("\r\n", Pos);
    std::string Header = Buf.substr(Pos, End - Pos);
    Pos = End + 2;
    size_t Colon = Header.find(':');
    if (Colon == std::string::npos)
      continue;
    std::string Name = Header.substr(0, Colon);
    for (char &C : Name)
      C = char(std::tolower(static_cast<unsigned char>(C)));
    if (Name == "content-length") {
      size_t ValPos = Colon + 1;
      while (ValPos < Header.size() && Header[ValPos] == ' ')
        ++ValPos;
      BodyLen = size_t(std::strtoull(Header.c_str() + ValPos, nullptr, 10));
    }
  }
  if (BodyLen > MaxBody) {
    FailStatus = 413;
    return false;
  }

  Req.Body = Buf.substr(HeaderEnd + 4);
  while (Req.Body.size() < BodyLen) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      FailStatus = 400;
      return false;
    }
    Req.Body.append(Chunk, size_t(N));
  }
  Req.Body.resize(BodyLen);
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// AdminServer
//===----------------------------------------------------------------------===//

void AdminServer::handle(std::string Method, std::string Path, Handler H) {
  Routes[{std::move(Method), std::move(Path)}] = std::move(H);
}

bool AdminServer::start(uint16_t Port, unsigned Workers, std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    if (Error)
      *Error = Message + ": " + std::strerror(errno);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return false;
  };
  if (running())
    return true;
  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Fail("socket");
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return Fail("bind 127.0.0.1:" + std::to_string(Port));
  if (::listen(ListenFd, 64) < 0)
    return Fail("listen");
  socklen_t Len = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) < 0)
    return Fail("getsockname");
  BoundPort = ntohs(Addr.sin_port);

  Stopping = false;
  Running = true;
  Acceptor = std::thread([this] { acceptLoop(); });
  Pool.reserve(std::max(1u, Workers));
  for (unsigned I = 0; I < std::max(1u, Workers); ++I)
    Pool.emplace_back([this] { workerLoop(); });
  return true;
}

void AdminServer::stop() {
  if (!Running.load())
    return;
  Stopping = true;
  QueueCv.notify_all();
  if (Acceptor.joinable())
    Acceptor.join();
  for (std::thread &T : Pool)
    if (T.joinable())
      T.join();
  Pool.clear();
  // Refuse anything still queued: the process is going away.
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    for (int Fd : ConnQueue) {
      sendAll(Fd, renderResponse(HttpResponse::text(503, "shutting down\n")));
      ::close(Fd);
    }
    ConnQueue.clear();
  }
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  Running = false;
}

void AdminServer::acceptLoop() {
  while (!Stopping.load()) {
    pollfd Pfd{ListenFd, POLLIN, 0};
    int Ready = ::poll(&Pfd, 1, 100);
    if (Ready <= 0)
      continue; // timeout (re-check Stopping) or EINTR
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    setIoTimeout(Fd, 10000);
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      ConnQueue.push_back(Fd);
    }
    QueueCv.notify_one();
  }
}

void AdminServer::workerLoop() {
  for (;;) {
    int Fd = -1;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [this] {
        return Stopping.load() || !ConnQueue.empty();
      });
      if (ConnQueue.empty())
        return; // stopping and drained
      Fd = ConnQueue.front();
      ConnQueue.pop_front();
    }
    serveConnection(Fd);
  }
}

void AdminServer::serveConnection(int Fd) {
  HttpRequest Req;
  int FailStatus = 400;
  HttpResponse Resp;
  if (readRequest(Fd, Req, FailStatus)) {
    ++Requests;
    Resp = dispatch(Req);
  } else {
    Resp = HttpResponse::text(FailStatus, "bad request\n");
  }
  sendAll(Fd, renderResponse(Resp));
  ::shutdown(Fd, SHUT_RDWR);
  ::close(Fd);
}

HttpResponse AdminServer::dispatch(const HttpRequest &Req) {
  auto It = Routes.find({Req.Method, Req.Path});
  if (It != Routes.end()) {
    try {
      return It->second(Req);
    } catch (const std::exception &E) {
      return HttpResponse::text(500, std::string("handler error: ") +
                                         E.what() + "\n");
    }
  }
  // Same path under a different method -> 405, otherwise 404.
  for (const auto &[Key, H] : Routes)
    if (Key.second == Req.Path)
      return HttpResponse::text(405, "method not allowed\n");
  return HttpResponse::text(404, "not found\n");
}
