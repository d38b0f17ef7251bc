//===- tools/trace_check.cpp - Trace-file validator -----------------------===//
//
// Validates a trace produced by the obs layer (fastc --trace, FAST_TRACE):
//
//   trace_check <trace.json | trace.jsonl>
//
// Accepts both sink formats — a Chrome trace-event JSON array (anything not
// ending in ".jsonl") and streaming JSONL (one event object per line) — and
// checks the invariants Perfetto and our own tools rely on:
//
//   * the file parses as JSON (every line, for JSONL);
//   * every event is an object with string "name"/"cat"/"ph", numeric
//     "ts", and an "args" object;
//   * 'B'/'E' events balance like a well-formed span stack, with each 'E'
//     naming the innermost open 'B';
//   * timestamps never go backwards in file order within one thread lane
//     (grouped by "tid"; events without one share a default lane);
//   * 'X' (complete) events carry a non-negative numeric "dur";
//   * every "construction" span end carries its counter deltas (the
//     states_explored attribute is the canary), and every numeric counter
//     attached to such an end is non-negative (deltas of monotone
//     counters can never go backwards).
//
// Exit status: 0 valid, 1 invalid, 2 usage/IO error.  Prints a one-line
// summary on success so the obs.smoke test has something to match.
//
//===----------------------------------------------------------------------===//

#include "checks/JsonCheck.h"

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using fast::obs::json::Value;

namespace {

struct Validator {
  std::vector<std::string> SpanStack;
  size_t Events = 0;
  size_t MaxDepth = 0;
  size_t Constructions = 0;
  size_t CountersChecked = 0;
  /// Last timestamp seen per thread lane ("tid"; default lane 1).
  std::map<double, double> LastTsByTid;
  std::string Error;

  bool fail(const std::string &Message) {
    Error = "event " + std::to_string(Events + 1) + ": " + Message;
    return false;
  }

  bool event(const Value &E) {
    if (!E.isObject())
      return fail("not a JSON object");
    const Value *Name = E.find("name");
    const Value *Cat = E.find("cat");
    const Value *Ph = E.find("ph");
    const Value *Ts = E.find("ts");
    const Value *Args = E.find("args");
    if (!Name || !Name->isString())
      return fail("missing string \"name\"");
    if (!Cat || !Cat->isString())
      return fail("missing string \"cat\"");
    if (!Ph || !Ph->isString() || Ph->Str.size() != 1)
      return fail("missing one-character \"ph\"");
    if (!Ts || !Ts->isNumber())
      return fail("missing numeric \"ts\"");
    if (!Args || !Args->isObject())
      return fail("missing object \"args\"");
    const Value *Tid = E.find("tid");
    double Lane = Tid && Tid->isNumber() ? Tid->Num : 1;
    auto [It, Fresh] = LastTsByTid.try_emplace(Lane, Ts->Num);
    if (!Fresh) {
      if (Ts->Num < It->second)
        return fail("timestamp goes backwards on tid " +
                    std::to_string(static_cast<long long>(Lane)) + " (" +
                    std::to_string(Ts->Num) + " after " +
                    std::to_string(It->second) + ")");
      It->second = Ts->Num;
    }

    switch (Ph->Str[0]) {
    case 'B':
      SpanStack.push_back(Name->Str);
      MaxDepth = std::max(MaxDepth, SpanStack.size());
      break;
    case 'E': {
      if (SpanStack.empty())
        return fail("'E' for \"" + Name->Str + "\" with no open span");
      if (SpanStack.back() != Name->Str)
        return fail("'E' for \"" + Name->Str + "\" but innermost span is \"" +
                    SpanStack.back() + "\"");
      SpanStack.pop_back();
      if (Cat->Str == "construction") {
        ++Constructions;
        const Value *Delta = Args->find("states_explored");
        if (!Delta || !Delta->isNumber())
          return fail("construction span end for \"" + Name->Str +
                      "\" lacks counter deltas (states_explored)");
        for (const auto &[Key, Arg] : Args->Members)
          if (Arg.isNumber()) {
            if (Arg.Num < 0)
              return fail("construction span end for \"" + Name->Str +
                          "\" has negative counter delta \"" + Key + "\" (" +
                          std::to_string(Arg.Num) + ")");
            ++CountersChecked;
          }
      }
      break;
    }
    case 'X': {
      const Value *Dur = E.find("dur");
      if (!Dur || !Dur->isNumber() || Dur->Num < 0)
        return fail("'X' event \"" + Name->Str +
                    "\" lacks a non-negative \"dur\"");
      break;
    }
    case 'i':
      break;
    default:
      return fail(std::string("unknown phase '") + Ph->Str + "'");
    }
    ++Events;
    return true;
  }

  bool finish() {
    if (!SpanStack.empty()) {
      Error = "unbalanced trace: " + std::to_string(SpanStack.size()) +
              " span(s) left open, innermost \"" + SpanStack.back() + "\"";
      return false;
    }
    return true;
  }
};

bool endsWith(const std::string &Text, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  return Text.size() >= N && Text.compare(Text.size() - N, N, Suffix) == 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2) {
    std::cerr << "usage: trace_check <trace.json | trace.jsonl>\n";
    return 2;
  }
  const std::string Path = Argv[1];
  std::ifstream File(Path);
  if (!File) {
    std::cerr << "trace_check: cannot open '" << Path << "'\n";
    return 2;
  }

  Validator V;
  std::string ParseError;
  if (endsWith(Path, ".jsonl")) {
    std::string Line;
    size_t LineNo = 0;
    while (std::getline(File, Line)) {
      ++LineNo;
      if (Line.empty())
        continue;
      auto Parsed = fast::obs::json::parse(Line, &ParseError);
      if (!Parsed) {
        std::cerr << "trace_check: " << Path << ":" << LineNo
                  << ": bad JSON: " << ParseError << "\n";
        return 1;
      }
      if (!V.event(*Parsed)) {
        std::cerr << "trace_check: " << Path << ":" << LineNo << ": "
                  << V.Error << "\n";
        return 1;
      }
    }
  } else {
    std::stringstream Buffer;
    Buffer << File.rdbuf();
    auto Parsed = fast::obs::json::parse(Buffer.str(), &ParseError);
    if (!Parsed) {
      std::cerr << "trace_check: " << Path << ": bad JSON: " << ParseError
                << "\n";
      return 1;
    }
    if (!Parsed->isArray()) {
      std::cerr << "trace_check: " << Path
                << ": top-level value is not an array\n";
      return 1;
    }
    for (const Value &E : Parsed->Items)
      if (!V.event(E)) {
        std::cerr << "trace_check: " << Path << ": " << V.Error << "\n";
        return 1;
      }
  }
  if (!V.finish()) {
    std::cerr << "trace_check: " << Path << ": " << V.Error << "\n";
    return 1;
  }
  std::cout << "trace_check: OK: " << V.Events << " events, "
            << V.Constructions << " construction span(s), max depth "
            << V.MaxDepth << ", " << V.CountersChecked
            << " counter delta(s) non-negative, " << V.LastTsByTid.size()
            << " thread lane(s) monotone\n";
  return 0;
}
