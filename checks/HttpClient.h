//===- checks/HttpClient.h - Blocking HTTP client for checks ---*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny blocking HTTP/1.1 client against 127.0.0.1, shared by
/// tools/serve_check, the admin-endpoint tests and bench/serve_overhead so
/// none of them needs curl.  Test support: part of the fast_checks library
/// that tools/, tests/ and bench/ link; the production libraries never
/// compile it.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_CHECKS_HTTPCLIENT_H
#define FAST_CHECKS_HTTPCLIENT_H

#include <cstdint>
#include <string>

namespace fast::obs {

/// Result of one blocking HTTP exchange.
struct HttpResult {
  bool Ok = false;    // transport-level success (a status line came back)
  int Status = 0;     // HTTP status code when Ok
  std::string Body;
  std::string Error;  // transport error when !Ok
};

/// One blocking HTTP/1.1 request against 127.0.0.1:\p Port.  \p Target is
/// the request target including any query ("/metrics?delta=1").  Applies
/// \p TimeoutMs to connect and to each socket read/write.
HttpResult httpRequest(uint16_t Port, const std::string &Method,
                       const std::string &Target, const std::string &Body = "",
                       int TimeoutMs = 10000);

} // namespace fast::obs

#endif // FAST_CHECKS_HTTPCLIENT_H
