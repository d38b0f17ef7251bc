//===- obs/TraceSink.cpp - Pluggable trace-event sinks --------------------===//

#include "obs/TraceSink.h"

#include <cstdio>
#include <sstream>

using namespace fast::obs;

TraceSink::~TraceSink() = default;

std::string fast::obs::jsonEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

namespace {

std::string number(double V) {
  std::ostringstream Out;
  Out.precision(3);
  Out << std::fixed << V;
  return Out.str();
}

/// The attribute's value as a JSON value (number or quoted string).
std::string renderAttrValue(const TraceAttr &A) {
  switch (A.K) {
  case TraceAttr::Kind::UInt:
    return std::to_string(A.Bits);
  case TraceAttr::Kind::Int:
    return std::to_string(std::bit_cast<int64_t>(A.Bits));
  case TraceAttr::Kind::Double:
    return number(std::bit_cast<double>(A.Bits));
  case TraceAttr::Kind::Str:
    break;
  }
  return "\"" + jsonEscape(A.Str) + "\"";
}

/// Renders the shared Chrome-style body: name, category, phase,
/// timestamp(s), and the args object.  Used verbatim by both sinks so one
/// validator handles either format.
void writeEventBody(std::ostream &Out, const TraceEvent &E) {
  Out << "{\"name\":\"" << jsonEscape(E.Name) << "\",\"cat\":\""
      << jsonEscape(E.Category) << "\",\"ph\":\"" << E.Phase
      << "\",\"ts\":" << number(E.TsUs)
      << ",\"pid\":1,\"tid\":" << static_cast<long long>(E.Tid);
  if (E.Phase == 'X')
    Out << ",\"dur\":" << number(E.DurUs);
  if (E.Phase == 'i')
    Out << ",\"s\":\"t\""; // Thread-scoped instant.
  Out << ",\"args\":{";
  bool First = true;
  for (const TraceAttr &A : E.Attrs) {
    if (!First)
      Out << ",";
    First = false;
    Out << "\"" << jsonEscape(A.Key) << "\":" << renderAttrValue(A);
  }
  Out << "}}";
}

} // namespace

ChromeTraceSink::ChromeTraceSink(const std::string &Path)
    : Out(Path, std::ios::trunc) {}

void ChromeTraceSink::event(const TraceEvent &E) {
  Out << (First ? "[\n" : ",\n");
  First = false;
  writeEventBody(Out, E);
}

void ChromeTraceSink::finish() {
  if (First)
    Out << "[\n{\"name\":\"empty\",\"cat\":\"trace\",\"ph\":\"i\",\"ts\":0,"
           "\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{}}";
  Out << "\n]\n";
  Out.flush();
}

JsonlTraceSink::JsonlTraceSink(const std::string &Path)
    : Out(Path, std::ios::trunc) {}

void JsonlTraceSink::event(const TraceEvent &E) {
  writeEventBody(Out, E);
  Out << "\n";
  Out.flush(); // Survive abnormal exit: the file is complete per event.
}

std::unique_ptr<TraceSink>
fast::obs::makeFileTraceSink(const std::string &Path) {
  bool Jsonl = Path.size() >= 6 && Path.rfind(".jsonl") == Path.size() - 6;
  if (Jsonl) {
    auto S = std::make_unique<JsonlTraceSink>(Path);
    return S->ok() ? std::move(S) : nullptr;
  }
  auto S = std::make_unique<ChromeTraceSink>(Path);
  return S->ok() ? std::unique_ptr<TraceSink>(std::move(S)) : nullptr;
}
