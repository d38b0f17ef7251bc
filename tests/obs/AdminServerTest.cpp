//===- tests/obs/AdminServerTest.cpp - Introspection plane tests ----------===//
//
// Three layers of the live introspection plane:
//
//   AdminServerTest          the bare HTTP transport — routing, error
//                            statuses, query parsing, POST bodies,
//                            handler exceptions, lifecycle.
//   AdminEndpointsTest       the session endpoint set served through a
//                            SessionAdminServer on a quiescent session —
//                            scrape validity, delta partitioning,
//                            readiness, the trace quiescence gate.
//   ParallelAdminScrapeTest  scraper threads hammering /metrics,
//                            /metrics.json and /statusz while a 4-thread
//                            runFastProgram executes on the same session.
//                            Every response must parse and validate, and
//                            per-thread consecutive scrapes must be
//                            counter-monotone.  The fixture name matches
//                            the tsan preset's test filter
//                            (Parallel|Freeze|Session) so the suite runs
//                            under ThreadSanitizer.
//
//===----------------------------------------------------------------------===//

#include "checks/HttpClient.h"
#include "checks/MetricsCheck.h"
#include "fast/Fast.h"
#include "obs/AdminServer.h"
#include "transducers/Admin.h"
#include "transducers/Session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace fast;
using obs::AdminServer;
using obs::HttpRequest;
using obs::HttpResponse;
using obs::HttpResult;
using obs::httpRequest;
namespace mc = fast::obs::metricscheck;

namespace {

//===----------------------------------------------------------------------===//
// Transport
//===----------------------------------------------------------------------===//

TEST(AdminServerTest, RoutesAndErrorStatuses) {
  AdminServer Server;
  Server.handle("GET", "/ping", [](const HttpRequest &) {
    return HttpResponse::text(200, "pong\n");
  });
  Server.handle("POST", "/echo", [](const HttpRequest &Req) {
    return HttpResponse::text(200, Req.Body);
  });
  Server.handle("GET", "/boom", [](const HttpRequest &) -> HttpResponse {
    throw std::runtime_error("handler exploded");
  });
  std::string Error;
  ASSERT_TRUE(Server.start(0, 2, &Error)) << Error;
  ASSERT_NE(Server.port(), 0u) << "ephemeral port not reported";

  HttpResult R = httpRequest(Server.port(), "GET", "/ping");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Status, 200);
  EXPECT_EQ(R.Body, "pong\n");

  R = httpRequest(Server.port(), "POST", "/echo", "round trip body");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Status, 200);
  EXPECT_EQ(R.Body, "round trip body");

  EXPECT_EQ(httpRequest(Server.port(), "GET", "/nope").Status, 404);
  // Path exists, method does not: 405, not 404.
  EXPECT_EQ(httpRequest(Server.port(), "POST", "/ping").Status, 405);
  // A throwing handler is a 500, not a dropped connection.
  EXPECT_EQ(httpRequest(Server.port(), "GET", "/boom").Status, 500);

  EXPECT_GE(Server.requestsServed(), 5u);
  uint16_t Port = Server.port();
  Server.stop();
  Server.stop(); // idempotent
  EXPECT_FALSE(Server.running());
  EXPECT_FALSE(httpRequest(Port, "GET", "/ping", "", 2000).Ok)
      << "port still accepting after stop()";
}

TEST(AdminServerTest, QueryFlagsParse) {
  AdminServer Server;
  Server.handle("GET", "/q", [](const HttpRequest &Req) {
    std::string Out;
    Out += Req.hasQueryFlag("delta") ? 'd' : '-';
    Out += Req.hasQueryFlag("start") ? 's' : '-';
    Out += Req.hasQueryFlag("deltax") ? 'x' : '-';
    return HttpResponse::text(200, Out);
  });
  ASSERT_TRUE(Server.start(0));
  EXPECT_EQ(httpRequest(Server.port(), "GET", "/q").Body, "---");
  EXPECT_EQ(httpRequest(Server.port(), "GET", "/q?delta=1").Body, "d--");
  EXPECT_EQ(httpRequest(Server.port(), "GET", "/q?start&delta").Body, "ds-");
  // "deltax" must not match the "delta" flag by prefix.
  EXPECT_EQ(httpRequest(Server.port(), "GET", "/q?deltax=1").Body, "--x");
}

//===----------------------------------------------------------------------===//
// Session endpoints (quiescent)
//===----------------------------------------------------------------------===//

/// Figure 8's Caesar/filter pipeline — small but exercises real solver
/// queries and compositions, so every bridged counter family carries
/// nonzero samples and multiple assertions fan out under -j.
const char *scrapeProgram() {
  return "type IList[i : Int] { nil(0), cons(1) }\n"
         "trans map_caesar : IList -> IList {\n"
         "  nil() to (nil [0])\n"
         "| cons(y) to (cons [(i + 5) % 26] (map_caesar y))\n"
         "}\n"
         "trans filter_ev : IList -> IList {\n"
         "  nil() to (nil [0])\n"
         "| cons(y) where (i % 2 = 0) to (cons [i] (filter_ev y))\n"
         "| cons(y) where !(i % 2 = 0) to (filter_ev y)\n"
         "}\n"
         "lang not_emp_list : IList { cons(x) }\n"
         "def comp : IList -> IList := (compose map_caesar filter_ev)\n"
         "def comp2 : IList -> IList := (compose comp comp)\n"
         "def restr : IList -> IList := (restrict-out comp2 not_emp_list)\n"
         "assert-true (is-empty restr)\n"
         "assert-false (is-empty (restrict-out comp not_emp_list))\n"
         "assert-false (is-empty (domain comp))\n";
}

mc::Document parseValid(const std::string &Text, bool Json) {
  mc::Document Doc;
  std::string Error;
  EXPECT_TRUE(mc::loadText(Text, Json, Doc, Error)) << Error;
  size_t Counters = 0, Histograms = 0;
  EXPECT_TRUE(mc::validate(Doc, Error, Counters, Histograms)) << Error;
  return Doc;
}

TEST(AdminEndpointsTest, ScrapesServeAndReadinessTracksFreeze) {
  Session S;
  SessionAdminServer Admin(S, "endpoint test");
  std::string Error;
  ASSERT_TRUE(Admin.start(0, &Error)) << Error;

  EXPECT_EQ(httpRequest(Admin.port(), "GET", "/healthz").Status, 200);
  EXPECT_EQ(httpRequest(Admin.port(), "GET", "/readyz").Status, 503)
      << "ready before the shared tier froze";

  FastProgramResult R = runFastProgram(S, scrapeProgram());
  EXPECT_EQ(R.ErrorCount, 0u);

  HttpResult Prom = httpRequest(Admin.port(), "GET", "/metrics");
  ASSERT_TRUE(Prom.Ok && Prom.Status == 200) << Prom.Error;
  mc::Document Doc = parseValid(Prom.Body, /*Json=*/false);
  EXPECT_TRUE(Doc.Families.count("fast_engine_sat_queries_total"));
  EXPECT_TRUE(Doc.Families.count("fast_solver_queries_total"));

  HttpResult Json = httpRequest(Admin.port(), "GET", "/metrics.json");
  ASSERT_TRUE(Json.Ok && Json.Status == 200);
  parseValid(Json.Body, /*Json=*/true);

  S.freeze();
  EXPECT_EQ(httpRequest(Admin.port(), "GET", "/readyz").Status, 200);

  Admin.publish();
  HttpResult Status = httpRequest(Admin.port(), "GET", "/statusz");
  ASSERT_TRUE(Status.Ok && Status.Status == 200);
  EXPECT_NE(Status.Body.find("<html"), std::string::npos);
  EXPECT_NE(Status.Body.find("endpoint test"), std::string::npos);

  HttpResult Slow = httpRequest(Admin.port(), "GET", "/debug/slowqueries");
  ASSERT_TRUE(Slow.Ok && Slow.Status == 200);
  ASSERT_FALSE(Slow.Body.empty());
  EXPECT_EQ(Slow.Body[0], '[');
}

TEST(AdminEndpointsTest, DeltaScrapesPartitionTheCounterStream) {
  Session S;
  FastProgramResult R = runFastProgram(S, scrapeProgram());
  ASSERT_EQ(R.ErrorCount, 0u);

  SessionAdminServer Admin(S, "delta test");
  ASSERT_TRUE(Admin.start(0));

  HttpResult Cum = httpRequest(Admin.port(), "GET", "/metrics");
  ASSERT_TRUE(Cum.Ok && Cum.Status == 200);
  mc::Document CumDoc = parseValid(Cum.Body, false);

  // First delta scrape: baseline is empty, so it equals the cumulative
  // view (the session is quiescent — nothing moves between requests).
  HttpResult D1 = httpRequest(Admin.port(), "GET", "/metrics?delta=1");
  ASSERT_TRUE(D1.Ok && D1.Status == 200);
  mc::Document D1Doc = parseValid(D1.Body, false);
  const char *Family = "fast_solver_queries_total";
  ASSERT_TRUE(CumDoc.Families.count(Family));
  ASSERT_TRUE(D1Doc.Families.count(Family));
  EXPECT_EQ(CumDoc.Families[Family].Scalars, D1Doc.Families[Family].Scalars);

  // Second delta scrape immediately after: every non-timing counter is
  // zero — the first scrape consumed the whole stream.
  HttpResult D2 = httpRequest(Admin.port(), "GET", "/metrics?delta=1");
  ASSERT_TRUE(D2.Ok && D2.Status == 200);
  mc::Document D2Doc = parseValid(D2.Body, false);
  for (const auto &[Name, F] : D2Doc.Families) {
    if (F.Type != "counter" || F.Timing)
      continue;
    for (const auto &[Labels, V] : F.Scalars)
      EXPECT_EQ(V, 0.0) << Name << "{" << Labels << "} in a quiescent delta";
  }
}

TEST(AdminEndpointsTest, TraceEndpointRespectsTheQuiescenceGate) {
  Session S;
  std::atomic<bool> Quiescent{false};
  SessionAdminServer Admin(S, "trace test");
  Admin.setQuiescent([&Quiescent] { return Quiescent.load(); });
  ASSERT_TRUE(Admin.start(0));

  EXPECT_EQ(httpRequest(Admin.port(), "POST", "/debug/trace?start").Status,
            409)
      << "trace attach allowed while not quiescent";
  Quiescent.store(true);
  EXPECT_EQ(httpRequest(Admin.port(), "POST", "/debug/trace").Status, 400);
  EXPECT_EQ(httpRequest(Admin.port(), "POST", "/debug/trace?start").Status,
            200);
  EXPECT_EQ(httpRequest(Admin.port(), "POST", "/debug/trace?start").Status,
            409)
      << "double attach";

  // Run traced work, then detach: the response is the captured event
  // array, and a second stop has nothing to detach.
  FastProgramResult R = runFastProgram(S, scrapeProgram());
  EXPECT_EQ(R.ErrorCount, 0u);
  HttpResult Stop = httpRequest(Admin.port(), "POST", "/debug/trace?stop");
  EXPECT_EQ(Stop.Status, 200);
  ASSERT_FALSE(Stop.Body.empty());
  EXPECT_EQ(Stop.Body[0], '[');
  EXPECT_NE(Stop.Body.find("\"ph\""), std::string::npos)
      << "captured trace has no events";
  EXPECT_EQ(httpRequest(Admin.port(), "POST", "/debug/trace?stop").Status,
            409);
}

TEST(AdminEndpointsTest, FlightRecorderSnapshotServesWithoutConsuming) {
  Session S;
  S.tracer().armRecorder("", 1u << 10);
  FastProgramResult R = runFastProgram(S, scrapeProgram());
  ASSERT_EQ(R.ErrorCount, 0u);

  SessionAdminServer Admin(S, "fr test");
  ASSERT_TRUE(Admin.start(0));
  HttpResult Snap =
      httpRequest(Admin.port(), "POST", "/debug/flightrecorder");
  ASSERT_EQ(Snap.Status, 200);
  EXPECT_NE(Snap.Body.find("flight_recorder"), std::string::npos);
  // Non-destructive: the ring is still live and undumped.
  EXPECT_FALSE(S.tracer().recorder().dumped());
  EXPECT_EQ(
      httpRequest(Admin.port(), "POST", "/debug/flightrecorder").Status, 200);
}

TEST(AdminEndpointsTest, TraceStartStopLeavesTheRingUntouched) {
  // The ring and a /debug/trace capture are two consumers of one stream:
  // attaching and detaching the capture must not disarm, clear or add to
  // the ring.
  Session S;
  S.tracer().armRecorder("", 1u << 10);
  FastProgramResult R = runFastProgram(S, scrapeProgram());
  ASSERT_EQ(R.ErrorCount, 0u);
  const obs::FlightRecorder &FR = S.tracer().recorder();
  const uint64_t Recorded = FR.recordedCount();
  const std::string Digest = FR.structureDigest();
  ASSERT_GT(Recorded, 0u);

  SessionAdminServer Admin(S, "ring test");
  ASSERT_TRUE(Admin.start(0));
  EXPECT_EQ(httpRequest(Admin.port(), "POST", "/debug/trace?start").Status,
            200);
  EXPECT_EQ(httpRequest(Admin.port(), "POST", "/debug/trace?stop").Status,
            200);
  EXPECT_TRUE(FR.armed());
  EXPECT_TRUE(S.tracer().active());
  EXPECT_EQ(FR.recordedCount(), Recorded);
  EXPECT_EQ(FR.structureDigest(), Digest);
  EXPECT_FALSE(FR.dumped());
}

//===----------------------------------------------------------------------===//
// Concurrent scrapes against a running program
//===----------------------------------------------------------------------===//

TEST(ParallelAdminScrapeTest, ScrapesStayValidAndMonotoneDuringARun) {
  Session S;
  SessionAdminServer Admin(S, "parallel scrape");
  std::string Error;
  ASSERT_TRUE(Admin.start(0, &Error)) << Error;
  uint16_t Port = Admin.port();

  // Scrapers hammer the plane for the whole duration of the program run:
  // every response must be a complete, valid exposition, and each
  // thread's consecutive /metrics scrapes must never show a counter
  // going backwards.
  std::atomic<bool> Done{false};
  std::atomic<int> Failures{0};
  std::vector<std::string> FailText(3);
  std::vector<std::thread> Scrapers;
  for (int T = 0; T < 3; ++T) {
    Scrapers.emplace_back([&, T] {
      mc::Document Prev;
      bool HavePrev = false;
      auto Fail = [&](const std::string &Message) {
        FailText[T] = Message;
        Failures.fetch_add(1);
      };
      while (!Done.load() && Failures.load() == 0) {
        HttpResult R = httpRequest(Port, "GET", "/metrics");
        if (!R.Ok || R.Status != 200)
          return Fail("scrape failed: " + R.Error);
        mc::Document Doc;
        std::string Err;
        size_t C = 0, H = 0;
        if (!mc::loadText(R.Body, false, Doc, Err))
          return Fail("scrape does not parse: " + Err);
        if (!mc::validate(Doc, Err, C, H))
          return Fail("scrape invalid: " + Err);
        if (HavePrev) {
          size_t Compared = 0;
          if (!mc::checkMonotone(Prev, Doc, Err, Compared))
            return Fail("scrape regressed: " + Err);
        }
        Prev = std::move(Doc);
        HavePrev = true;

        // Interleave the snapshot-served and JSON endpoints so their
        // locks contend with the session thread too.
        HttpResult J = httpRequest(Port, "GET", "/metrics.json");
        if (!J.Ok || J.Status != 200)
          return Fail("json scrape failed");
        mc::Document JDoc;
        if (!mc::loadText(J.Body, true, JDoc, Err) ||
            !mc::validate(JDoc, Err, C, H))
          return Fail("json scrape invalid: " + Err);
        HttpResult St = httpRequest(Port, "GET", "/statusz");
        if (!St.Ok || St.Status != 200)
          return Fail("statusz failed during run");
      }
    });
  }

  FastRunOptions Opts;
  Opts.Threads = 4;
  FastProgramResult R = runFastProgram(S, scrapeProgram(), Opts);
  // A couple of post-run scrapes race the final merges too.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Done.store(true);
  for (std::thread &T : Scrapers)
    T.join();

  EXPECT_EQ(R.ErrorCount, 0u);
  ASSERT_EQ(Failures.load(), 0)
      << FailText[0] << FailText[1] << FailText[2];

  // The -j run froze the shared tier, so the plane reports ready, and a
  // session-thread publish makes the final counters visible on /statusz.
  EXPECT_EQ(httpRequest(Port, "GET", "/readyz").Status, 200);
  Admin.publish();
  EXPECT_EQ(httpRequest(Port, "GET", "/statusz").Status, 200);
}

TEST(ParallelAdminScrapeTest, ConcurrentDeltaScrapesNeverDoubleCount) {
  Session S;
  FastProgramResult R = runFastProgram(S, scrapeProgram());
  ASSERT_EQ(R.ErrorCount, 0u);

  SessionAdminServer Admin(S, "delta race");
  ASSERT_TRUE(Admin.start(0));

  // N concurrent delta scrapes of a quiescent session must partition the
  // stream: per family/label, the values sum to the cumulative counter.
  HttpResult Cum = httpRequest(Admin.port(), "GET", "/metrics");
  ASSERT_TRUE(Cum.Ok && Cum.Status == 200);
  mc::Document CumDoc = parseValid(Cum.Body, false);

  constexpr int N = 4;
  std::vector<std::string> Bodies(N);
  std::vector<std::thread> Threads;
  for (int T = 0; T < N; ++T)
    Threads.emplace_back([&, T] {
      HttpResult R = httpRequest(Admin.port(), "GET", "/metrics?delta=1");
      if (R.Ok && R.Status == 200)
        Bodies[T] = R.Body;
    });
  for (std::thread &T : Threads)
    T.join();

  const char *Family = "fast_solver_queries_total";
  ASSERT_TRUE(CumDoc.Families.count(Family));
  double Total = 0;
  for (const std::string &Body : Bodies) {
    ASSERT_FALSE(Body.empty()) << "a delta scrape failed";
    mc::Document Doc = parseValid(Body, false);
    if (Doc.Families.count(Family))
      for (const auto &[Labels, V] : Doc.Families[Family].Scalars)
        Total += V;
  }
  double Expected = 0;
  for (const auto &[Labels, V] : CumDoc.Families[Family].Scalars)
    Expected += V;
  EXPECT_EQ(Total, Expected)
      << "concurrent delta scrapes double- or under-counted";
}

} // namespace
