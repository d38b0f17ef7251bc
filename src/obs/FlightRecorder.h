//===- obs/FlightRecorder.h - Always-on incident ring buffer ------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-budget ring of the Tracer's own events — the "black box" of the
/// telemetry plane.  The ring is a second consumer of the one event stream:
/// when it is armed, Tracer::active() is true and every event the hook sites
/// emit (and every worker event replayed at a parallel join) reaches the
/// ring as well as any attached sink.  The ring keeps the *last* ~64K
/// events (oldest evicted first), so when something goes wrong — an
/// exploration budget exhausts, a Fast assertion fails, an exception
/// escapes — the window leading up to the incident is dumped as a
/// Chrome-trace JSON file (loadable in Perfetto, validated by
/// tools/trace_check) without having paid for a trace file up front.
///
/// Recording is cheap enough to leave on: an event becomes one fixed-size
/// 64-byte Slot (timestamp, borrowed name/category/key pointers, and the
/// first two numeric attributes; an 'X' event keeps its duration in place
/// of the second) stored into a preallocated ring, with no allocation.
/// String attributes and attributes past the second are not kept, so hook
/// sites list the attributes a dump needs first.
///
/// The first dump wins: an incident dump freezes the recorder so a later
/// exit-time dump cannot overwrite the evidence.
///
/// Threading: the Tracer records from the session thread, and a parallel
/// run replays its workers' events there at the join point.  The ring's
/// accounting (armed, recorded, dropped, dumped) is atomic, because the
/// periodic metrics flusher (engine/MetricsBridge.h) reads it from its own
/// thread while the session records.  Every ring mutation and every read
/// of ring contents (the dumps and structureDigest()) happens under one
/// mutex, so whichever thread takes a dump gets a consistent prefix of the
/// event sequence.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_OBS_FLIGHTRECORDER_H
#define FAST_OBS_FLIGHTRECORDER_H

#include "obs/TraceSink.h"
#include "support/RelaxedCell.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fast::obs {

class FlightRecorder {
public:
  static constexpr size_t DefaultCapacity = size_t(1) << 16;
  static constexpr int SchemaVersion = 2;

  /// One recorded event.  Strings are borrowed (static, see TraceEvent);
  /// lengths saturate at 255 bytes.
  struct Slot {
    double TsUs;
    const char *Name;
    const char *Category;
    const char *Keys[2];
    /// Raw attribute bits; an 'X' event's duration (double bits) occupies
    /// Values[1].
    uint64_t Values[2];
    uint16_t Lane;
    uint8_t NameLen;
    uint8_t CategoryLen;
    uint8_t KeyLens[2];
    char Phase;
    /// Bits 0-1: attributes kept; bits 2-3 and 4-5: their TraceAttr::Kind.
    uint8_t Shape;
  };
  static_assert(sizeof(Slot) == 64, "a ring slot is one cache line");

  /// One relaxed load.
  bool armed() const { return Armed.load(std::memory_order_relaxed); }

  /// --- Dumping --------------------------------------------------------

  /// Writes the ring as a Chrome-trace JSON file to the armed path, once:
  /// the first incident freezes the recorder and later calls (including
  /// dumpFinal) are no-ops.  Returns true if a file was written.
  bool dumpIncident(std::string_view Reason);
  /// Exit-time dump ("on demand"); skipped if an incident already dumped.
  bool dumpFinal();
  /// Streams the dump (tests and both dump entry points).
  void dumpTo(std::ostream &Out, std::string_view Reason) const;

  /// --- Introspection --------------------------------------------------

  size_t capacity() const { return Ring.size(); }
  /// Events currently held (min(recorded, capacity)).
  size_t size() const {
    return size_t(std::min<uint64_t>(Head.load(), Ring.size()));
  }
  uint64_t recordedCount() const { return Head.load(); }
  uint64_t droppedCount() const {
    uint64_t H = Head.load();
    return H > Ring.size() ? H - Ring.size() : 0;
  }
  bool dumped() const { return Dumped.load(); }

  /// A timing-free digest of the ring: the (lane, phase, name) sequence in
  /// recorded order, FNV-hashed.  Two runs that recorded the same logical
  /// events in the same order digest identically regardless of wall-clock
  /// timestamps — the parallel determinism contract.
  std::string structureDigest() const;

private:
  /// Arming and recording go through the Tracer, which keeps active() in
  /// step with the ring and is the only producer.
  friend class Tracer;

  /// The FAST_FLIGHT_RECORDER_EVENTS budget, or DefaultCapacity when the
  /// variable is unset or not a positive integer.
  static size_t capacityFromEnv();
  /// Allocates the ring (capacity rounded up to a power of two, at least
  /// 8) and remembers \p Path as the dump destination; an empty path arms
  /// a record-only ring.  Must not race recording or scraping.
  void arm(std::string Path, size_t Capacity);
  void append(const TraceEvent &E);

  /// Consistent copy of the held slots (oldest-first) and the head, taken
  /// under Mu.
  std::vector<Slot> capture(uint64_t &Recorded) const;

  std::atomic<bool> Armed{false};
  std::string Path;
  mutable std::mutex Mu;
  std::vector<Slot> Ring;
  uint64_t Mask = 0;
  RelaxedCell<uint64_t> Head; // total records; Head & Mask is next slot
  RelaxedCell<bool> Dumped{false};
};

} // namespace fast::obs

#endif // FAST_OBS_FLIGHTRECORDER_H
