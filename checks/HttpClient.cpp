//===- checks/HttpClient.cpp - Blocking HTTP client for admin checks ------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#include "checks/HttpClient.h"

#include "support/Socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace fast::obs;

HttpResult fast::obs::httpRequest(uint16_t Port, const std::string &Method,
                                  const std::string &Target,
                                  const std::string &Body, int TimeoutMs) {
  HttpResult R;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    R.Error = std::string("socket: ") + std::strerror(errno);
    return R;
  }
  setIoTimeout(Fd, TimeoutMs);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    R.Error = std::string("connect: ") + std::strerror(errno);
    ::close(Fd);
    return R;
  }
  std::string Req = Method + " " + Target + " HTTP/1.1\r\n";
  Req += "Host: 127.0.0.1:" + std::to_string(Port) + "\r\n";
  Req += "Content-Length: " + std::to_string(Body.size()) + "\r\n";
  Req += "Connection: close\r\n\r\n";
  Req += Body;
  if (!sendAll(Fd, Req)) {
    R.Error = std::string("send: ") + std::strerror(errno);
    ::close(Fd);
    return R;
  }

  std::string Resp;
  char Chunk[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Resp.append(Chunk, size_t(N));
  }
  ::close(Fd);

  if (Resp.compare(0, 5, "HTTP/") != 0) {
    R.Error = "malformed response";
    return R;
  }
  size_t Sp = Resp.find(' ');
  R.Status = Sp == std::string::npos ? 0 : std::atoi(Resp.c_str() + Sp + 1);
  size_t HeaderEnd = Resp.find("\r\n\r\n");
  if (HeaderEnd == std::string::npos) {
    R.Error = "truncated response";
    return R;
  }
  R.Body = Resp.substr(HeaderEnd + 4);
  R.Ok = R.Status != 0;
  return R;
}
