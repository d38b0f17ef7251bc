//===- tools/serve_check.cpp - fastc --serve end-to-end validator ---------===//
//
// Drives the serve.smoke test: forks `fastc --serve=0 -j 4` on a real
// program and validates the whole introspection plane over live HTTP —
// no curl, no python; the client is checks/HttpClient and the scrape
// validator is the same checks/MetricsCheck library metrics_check uses.
//
//   serve_check <fastc> <program.fast> <out-dir>
//
// Checks, in order:
//   1. The port announcement line ("fastc: serving on 127.0.0.1:PORT").
//   2. /healthz is 200 and /readyz is 503 during the warmup window
//      (FAST_SERVE_WARMUP_MS holds the program back deterministically).
//   3. /metrics parses and validates mid-run; a later scrape is counter-
//      monotone relative to it.
//   4. /readyz flips to 200 once the session freezes; /metrics.json,
//      /statusz, /debug/slowqueries and POST /debug/flightrecorder
//      serve, POST /debug/trace?start|stop serve once the run is over;
//      unknown paths 404 and wrong methods 405.
//   5. The --metrics file periodically flushed under
//      FAST_METRICS_INTERVAL_MS validates on disk.
//   6. SIGTERM produces a clean exit (the program's own exit code, < 2)
//      and the port actually closes (connection refused afterwards).
//   7. Forced-abort regression: a second fastc, SIGKILLed mid-warmup,
//      leaves a *valid* metrics file behind — the atomic tmp+rename
//      flush protocol never exposes a partial document.
//
// Exit status: 0 on success, 1 on any failed check, 2 on usage error.
//
//===----------------------------------------------------------------------===//

#include "checks/HttpClient.h"
#include "checks/MetricsCheck.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using fast::obs::HttpResult;
using fast::obs::httpRequest;
namespace mc = fast::obs::metricscheck;

namespace {

/// Process groups of the children still running.  fail() exits without
/// unwinding, so it kills and reaps them itself: a lingering `fastc
/// --serve` holds the inherited stderr, and with it the test runner's
/// output pipe, open until its own timeout.
std::vector<pid_t> LiveChildren;

void killChild(pid_t Pid) {
  kill(-Pid, SIGKILL);
  waitpid(Pid, nullptr, 0);
  std::erase(LiveChildren, Pid);
}

[[noreturn]] void fail(const std::string &Message) {
  std::cerr << "serve_check: FAIL: " << Message << "\n";
  while (!LiveChildren.empty())
    killChild(LiveChildren.back());
  std::exit(1);
}

/// A forked fastc whose stdout we read through a pipe.  It leads its own
/// process group, killed with SIGKILL at destruction (or by fail()) if
/// still alive, so a failed check never leaks the child, its descendants
/// or its listening socket past the test.
class Child {
public:
  Child(const std::vector<std::string> &Args,
        const std::vector<std::string> &Env) {
    int Fds[2];
    if (pipe(Fds) != 0)
      fail("pipe() failed");
    Pid = fork();
    if (Pid < 0)
      fail("fork() failed");
    if (Pid == 0) {
      setpgid(0, 0);
      dup2(Fds[1], STDOUT_FILENO);
      close(Fds[0]);
      close(Fds[1]);
      for (const std::string &E : Env)
        putenv(strdup(E.c_str()));
      std::vector<char *> Argv;
      for (const std::string &A : Args)
        Argv.push_back(const_cast<char *>(A.c_str()));
      Argv.push_back(nullptr);
      execv(Argv[0], Argv.data());
      perror("execv");
      _exit(127);
    }
    setpgid(Pid, Pid);
    LiveChildren.push_back(Pid);
    close(Fds[1]);
    OutFd = Fds[0];
  }

  ~Child() {
    if (OutFd >= 0)
      close(OutFd);
    if (Pid > 0)
      killChild(Pid);
  }

  /// Reads stdout until a line containing \p Needle arrives; returns it.
  std::string waitForLine(const std::string &Needle, int TimeoutMs) {
    std::string Buffer;
    for (int Waited = 0; Waited < TimeoutMs;) {
      size_t Nl;
      while ((Nl = Buffer.find('\n')) != std::string::npos) {
        std::string Line = Buffer.substr(0, Nl);
        Buffer.erase(0, Nl + 1);
        if (Line.find(Needle) != std::string::npos)
          return Line;
      }
      char Chunk[512];
      ssize_t N = read(OutFd, Chunk, sizeof Chunk);
      if (N > 0) {
        Buffer.append(Chunk, size_t(N));
        continue;
      }
      if (N == 0)
        break; // child closed stdout without the line
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      Waited += 20;
    }
    fail("child never printed '" + Needle + "'");
  }

  void signal(int Sig) { kill(Pid, Sig); }

  /// Waits for exit and returns the status; the child is reaped.
  int wait() {
    int Status = 0;
    waitpid(Pid, &Status, 0);
    std::erase(LiveChildren, Pid);
    Pid = -1;
    return Status;
  }

private:
  pid_t Pid = -1;
  int OutFd = -1;
};

uint16_t parsePort(const std::string &Line) {
  size_t Colon = Line.rfind(':');
  if (Colon == std::string::npos)
    fail("malformed port announcement: " + Line);
  long Port = std::strtol(Line.c_str() + Colon + 1, nullptr, 10);
  if (Port <= 0 || Port > 65535)
    fail("bad port in announcement: " + Line);
  return static_cast<uint16_t>(Port);
}

HttpResult want(uint16_t Port, const std::string &Method,
                const std::string &Target, int Status,
                const std::string &What) {
  HttpResult R = httpRequest(Port, Method, Target);
  if (!R.Ok)
    fail(What + ": transport error: " + R.Error);
  if (R.Status != Status)
    fail(What + ": expected " + std::to_string(Status) + ", got " +
         std::to_string(R.Status));
  return R;
}

mc::Document parseScrape(const std::string &Text, bool Json,
                         const std::string &What) {
  mc::Document Doc;
  std::string Error;
  if (!mc::loadText(Text, Json, Doc, Error))
    fail(What + ": does not parse: " + Error);
  size_t Counters = 0, Histograms = 0;
  if (!mc::validate(Doc, Error, Counters, Histograms))
    fail(What + ": invalid: " + Error);
  return Doc;
}

mc::Document validateFile(const std::string &Path, const std::string &What) {
  std::ifstream In(Path);
  if (!In)
    fail(What + ": cannot open '" + Path + "'");
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  bool Json = Path.size() > 5 &&
              Path.compare(Path.size() - 5, 5, ".json") == 0;
  return parseScrape(Buffer.str(), Json, What);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 4) {
    std::cerr << "usage: serve_check <fastc> <program.fast> <out-dir>\n";
    return 2;
  }
  std::string Fastc = Argv[1], Program = Argv[2], OutDir = Argv[3];
  mkdir(OutDir.c_str(), 0755);
  std::string MetricsFile = OutDir + "/serve_metrics.prom";
  std::string AbortFile = OutDir + "/abort_metrics.prom";
  std::string FrFile = OutDir + "/serve_fr.json";

  //===--------------------------------------------------------------------===//
  // Phase 1: the full endpoint sweep against a live 4-thread run.
  //===--------------------------------------------------------------------===//
  uint16_t Port = 0;
  int RunStatus = 0;
  {
    Child Fastc1({Fastc, "--serve=0", "-j", "4",
                  "--metrics=" + MetricsFile, "--flight-recorder=" + FrFile,
                  Program},
                 {"FAST_SERVE_WARMUP_MS=2000",
                  "FAST_METRICS_INTERVAL_MS=50"});
    Port = parsePort(Fastc1.waitForLine("serving on 127.0.0.1:", 30000));

    // Inside the warmup window: alive but not ready (nothing frozen yet).
    want(Port, "GET", "/healthz", 200, "/healthz during warmup");
    want(Port, "GET", "/readyz", 503, "/readyz during warmup");

    // A mid-warmup scrape must already be a valid exposition...
    HttpResult First = want(Port, "GET", "/metrics", 200, "first /metrics");
    mc::Document Earlier =
        parseScrape(First.Body, /*Json=*/false, "first /metrics");

    // ...and readiness must flip once the program completes and the
    // session's shared tier freezes.
    bool Ready = false;
    for (int Waited = 0; Waited < 120000; Waited += 100) {
      HttpResult R = httpRequest(Port, "GET", "/readyz");
      if (R.Ok && R.Status == 200) {
        Ready = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!Ready)
      fail("/readyz never flipped to 200 after the run");

    // Counter monotonicity across the run: warmup scrape -> final scrape.
    HttpResult Last = want(Port, "GET", "/metrics", 200, "final /metrics");
    mc::Document Later =
        parseScrape(Last.Body, /*Json=*/false, "final /metrics");
    std::string Error;
    size_t Compared = 0;
    if (!mc::checkMonotone(Earlier, Later, Error, Compared))
      fail("scrape monotonicity: " + Error);
    if (Compared == 0)
      fail("scrape monotonicity compared zero counters");

    // The JSON exposition and the delta view serve and validate too.
    HttpResult Json = want(Port, "GET", "/metrics.json", 200, "/metrics.json");
    parseScrape(Json.Body, /*Json=*/true, "/metrics.json");
    HttpResult Delta =
        want(Port, "GET", "/metrics?delta=1", 200, "/metrics?delta=1");
    parseScrape(Delta.Body, /*Json=*/false, "/metrics?delta=1");

    // The status page is a complete HTML document with the program name.
    HttpResult Status = want(Port, "GET", "/statusz", 200, "/statusz");
    if (Status.Body.find("<html") == std::string::npos ||
        Status.Body.find("fastc: ") == std::string::npos)
      fail("/statusz is not the expected HTML page");

    // Slow queries: a JSON array (the sanitizer program runs real solver
    // queries, but emptiness is legal — only the shape is contractual).
    HttpResult Slow =
        want(Port, "GET", "/debug/slowqueries", 200, "/debug/slowqueries");
    if (Slow.Body.empty() || Slow.Body[0] != '[')
      fail("/debug/slowqueries is not a JSON array");

    // The armed flight recorder snapshots non-destructively.
    HttpResult Fr = want(Port, "POST", "/debug/flightrecorder", 200,
                         "POST /debug/flightrecorder");
    if (Fr.Body.find("flight_recorder") == std::string::npos)
      fail("/debug/flightrecorder snapshot lacks the meta record");
    want(Port, "POST", "/debug/flightrecorder", 200,
         "second /debug/flightrecorder (snapshot must not consume)");

    // Runtime trace attach/detach round-trip.  -j freezes the session,
    // flipping /readyz, before the assertion fan-out ends, so the gate
    // may still answer 409 (not quiescent) for a while on a loaded host.
    HttpResult Started = httpRequest(Port, "POST", "/debug/trace?start");
    for (int Waited = 0; Started.Ok && Started.Status == 409 && Waited < 60000;
         Waited += 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Started = httpRequest(Port, "POST", "/debug/trace?start");
    }
    if (!Started.Ok || Started.Status != 200)
      fail("trace start: expected 200, got " +
           (Started.Ok ? std::to_string(Started.Status) : Started.Error));
    HttpResult Trace = want(Port, "POST", "/debug/trace?stop", 200,
                            "trace stop");
    if (Trace.Body.empty() || Trace.Body[0] != '[')
      fail("trace stop did not return a JSON array");
    want(Port, "POST", "/debug/trace?stop", 409, "double trace stop");

    // Routing edges.
    want(Port, "GET", "/no/such/endpoint", 404, "unknown path");
    want(Port, "POST", "/metrics", 405, "wrong method");

    // The periodically flushed metrics file validates on disk while the
    // process is still alive (the flusher uses atomic tmp+rename).
    validateFile(MetricsFile, "periodic --metrics file");

    // Clean shutdown: SIGTERM ends the linger; the exit code is the
    // program's own (sanitizer.fast fails an assertion -> 1; anything
    // >= 2 is an infrastructure failure) and the port actually closes.
    Fastc1.signal(SIGTERM);
    RunStatus = Fastc1.wait();
  }
  if (!WIFEXITED(RunStatus))
    fail("fastc did not exit cleanly on SIGTERM");
  if (WEXITSTATUS(RunStatus) >= 2)
    fail("fastc exited " + std::to_string(WEXITSTATUS(RunStatus)));
  HttpResult After = httpRequest(Port, "GET", "/healthz", "", 2000);
  if (After.Ok)
    fail("port still serving after shutdown");

  //===--------------------------------------------------------------------===//
  // Phase 2: forced-abort regression for the periodic flush protocol.
  //===--------------------------------------------------------------------===//
  {
    Child Fastc2({Fastc, "--serve=0", "--metrics=" + AbortFile, Program},
                 {"FAST_SERVE_WARMUP_MS=60000",
                  "FAST_METRICS_INTERVAL_MS=30"});
    Fastc2.waitForLine("serving on 127.0.0.1:", 30000);
    // Let a few flush ticks land, then kill without any chance to clean
    // up: the on-disk document must still be complete and valid.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    Fastc2.signal(SIGKILL);
    Fastc2.wait();
  }
  validateFile(AbortFile, "post-SIGKILL --metrics file");

  std::cout << "serve_check: OK: all endpoints validated, shutdown clean, "
               "abort-safe flush verified\n";
  return 0;
}
