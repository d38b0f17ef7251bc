//===- obs/TraceSink.h - Pluggable trace-event sinks ------------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event model and output sinks of the tracing layer.  A TraceEvent is
/// one of the Chrome trace-event phases the Tracer emits: span begin ('B'),
/// span end ('E'), complete leaf span ('X', with an explicit duration), and
/// instant ('i').  Two sinks consume them:
///
///  - ChromeTraceSink writes the Chrome trace-event JSON array format,
///    loadable in Perfetto and chrome://tracing.  The array is closed by
///    finish(), but every event line ends in a newline-terminated record,
///    so a truncated file is still salvageable (both viewers tolerate a
///    missing closing bracket).
///  - JsonlTraceSink writes one self-contained JSON object per line and
///    flushes after every event, so the trace of a crashed or killed
///    process is complete up to its last event.
///
/// Attribute values travel unrendered (an integer, a double or a borrowed
/// string; see attr()), so producing an event allocates nothing and only
/// the sinks that serialize pay for rendering.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_OBS_TRACESINK_H
#define FAST_OBS_TRACESINK_H

#include "obs/Literal.h"

#include <bit>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fast::obs {

/// One span/event attribute.  The key and a string value are borrowed
/// like every other string of an event (see TraceEvent); the attr()
/// helpers take them as Literals.
struct TraceAttr {
  enum class Kind : uint8_t { UInt, Int, Double, Str };
  std::string_view Key;
  Kind K = Kind::UInt;
  /// A numeric value's bits: the uint64_t, int64_t or double itself.
  uint64_t Bits = 0;
  std::string_view Str;

  bool numeric() const { return K != Kind::Str; }
};

inline TraceAttr attr(Literal Key, uint64_t Value) {
  TraceAttr A;
  A.Key = Key;
  A.Bits = Value;
  return A;
}
inline TraceAttr attr(Literal Key, int64_t Value) {
  TraceAttr A;
  A.Key = Key;
  A.K = TraceAttr::Kind::Int;
  A.Bits = std::bit_cast<uint64_t>(Value);
  return A;
}
inline TraceAttr attr(Literal Key, double Value) {
  TraceAttr A;
  A.Key = Key;
  A.K = TraceAttr::Kind::Double;
  A.Bits = std::bit_cast<uint64_t>(Value);
  return A;
}
inline TraceAttr attr(Literal Key, Literal Value) {
  TraceAttr A;
  A.Key = Key;
  A.K = TraceAttr::Kind::Str;
  A.Str = Value;
  return A;
}

/// Escapes \p Text as the body of a JSON string literal (no quotes added).
std::string jsonEscape(std::string_view Text);

/// One emitted event.  Sinks may rely on Name/Category/Attrs only for the
/// duration of the event() call.  The producers' side of the contract is
/// stronger: every string of an event (name, category, attribute keys and
/// string values) has static storage duration — the Tracer and attr()
/// take them as Literals — because the worker buffers below keep the
/// views past the call.
struct TraceEvent {
  char Phase = 'i'; // 'B', 'E', 'X', or 'i'.
  std::string_view Name;
  std::string_view Category;
  /// Event timestamp in microseconds since the tracer's start.
  double TsUs = 0;
  /// 'X' events only: the span's duration.
  double DurUs = 0;
  std::span<const TraceAttr> Attrs;
  /// Thread lane (the Chrome "tid" field).  Lane 1 is the session's own
  /// thread; a parallel run replays each task's buffered events onto lane
  /// 2 + task index, which keeps timestamps monotone per lane even though
  /// the tasks overlapped in real time.
  double Tid = 1;
};

class TraceSink {
public:
  virtual ~TraceSink();
  virtual void event(const TraceEvent &E) = 0;
  /// Called once before the sink is destroyed on an orderly close; sinks
  /// that need a closing delimiter write it here.
  virtual void finish() {}
};

/// Chrome trace-event JSON array ("[ {...}, {...} ]"), one event object
/// per line.
class ChromeTraceSink : public TraceSink {
public:
  /// Opens \p Path for writing; ok() reports failure.
  explicit ChromeTraceSink(const std::string &Path);
  bool ok() const { return static_cast<bool>(Out); }
  void event(const TraceEvent &E) override;
  void finish() override;

private:
  std::ofstream Out;
  bool First = true;
};

/// Streaming JSONL: one JSON object per line, flushed per event.
class JsonlTraceSink : public TraceSink {
public:
  explicit JsonlTraceSink(const std::string &Path);
  bool ok() const { return static_cast<bool>(Out); }
  void event(const TraceEvent &E) override;

private:
  std::ofstream Out;
};

/// In-memory sink that keeps every event it receives, for deferred replay.
/// Worker contexts of a parallel run record into one of these; at the join
/// point the driver replays each buffer into the base session's tracer in
/// task-index order, so the merged trace's (lane, phase, name) sequence is
/// the same at any thread count and schedule.  The attribute array is
/// copied; strings stay borrowed (static, see TraceEvent).
class BufferTraceSink : public TraceSink {
public:
  struct BufferedEvent {
    char Phase;
    std::string_view Name;
    std::string_view Category;
    double TsUs;
    double DurUs;
    std::vector<TraceAttr> Attrs;
    double Tid;
  };

  void event(const TraceEvent &E) override {
    Events.push_back({E.Phase, E.Name, E.Category, E.TsUs, E.DurUs,
                      std::vector<TraceAttr>(E.Attrs.begin(), E.Attrs.end()),
                      E.Tid});
  }

  const std::vector<BufferedEvent> &events() const { return Events; }

private:
  std::vector<BufferedEvent> Events;
};

/// Opens a file sink for \p Path, choosing the format by extension
/// (".jsonl" streams JSONL, anything else writes the Chrome JSON array).
/// Returns null if the file cannot be opened.  Tracer::openTrace is its
/// caller.
std::unique_ptr<TraceSink> makeFileTraceSink(const std::string &Path);

} // namespace fast::obs

#endif // FAST_OBS_TRACESINK_H
