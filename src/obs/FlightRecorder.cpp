//===- obs/FlightRecorder.cpp - Always-on incident ring buffer -------------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace fast::obs;

namespace {

uint8_t clampLen(std::string_view S) {
  return static_cast<uint8_t>(std::min<size_t>(S.size(), 255));
}

std::string_view view(const char *Data, uint8_t Len) {
  return Data ? std::string_view(Data, Len) : std::string_view();
}

} // namespace

size_t FlightRecorder::capacityFromEnv() {
  if (const char *Ev = std::getenv("FAST_FLIGHT_RECORDER_EVENTS"); Ev && *Ev) {
    char *End = nullptr;
    unsigned long V = std::strtoul(Ev, &End, 10);
    if (End != Ev && *End == '\0' && V > 0)
      return static_cast<size_t>(V);
  }
  return DefaultCapacity;
}

void FlightRecorder::arm(std::string NewPath, size_t Capacity) {
  Capacity = std::bit_ceil(std::max<size_t>(Capacity, 8));
  std::lock_guard<std::mutex> Lock(Mu);
  Path = std::move(NewPath);
  Ring.assign(Capacity, Slot{});
  Mask = Capacity - 1;
  Head = 0;
  Dumped = false;
  Armed.store(true, std::memory_order_relaxed);
}

void FlightRecorder::append(const TraceEvent &E) {
  Slot S{};
  S.TsUs = E.TsUs;
  S.Name = E.Name.data();
  S.NameLen = clampLen(E.Name);
  S.Category = E.Category.data();
  S.CategoryLen = clampLen(E.Category);
  S.Phase = E.Phase;
  S.Lane = static_cast<uint16_t>(E.Tid);
  // Keep the first numeric attributes that fit; an 'X' event's duration
  // takes the second value.
  const unsigned Room = E.Phase == 'X' ? 1 : 2;
  unsigned Kept = 0;
  for (const TraceAttr &A : E.Attrs) {
    if (Kept == Room)
      break;
    if (!A.numeric())
      continue;
    S.Keys[Kept] = A.Key.data();
    S.KeyLens[Kept] = clampLen(A.Key);
    S.Values[Kept] = A.Bits;
    S.Shape |= static_cast<uint8_t>(A.K) << (2 + 2 * Kept);
    ++Kept;
  }
  S.Shape |= Kept;
  if (E.Phase == 'X')
    S.Values[1] = std::bit_cast<uint64_t>(E.DurUs);
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t H = Head.load();
  Ring[size_t(H & Mask)] = S;
  Head = H + 1;
}

std::vector<FlightRecorder::Slot>
FlightRecorder::capture(uint64_t &Recorded) const {
  std::lock_guard<std::mutex> Lock(Mu);
  Recorded = Head.load();
  std::vector<Slot> Out;
  Out.reserve(size());
  for (uint64_t I = Recorded - size(); I != Recorded; ++I)
    Out.push_back(Ring[size_t(I & Mask)]);
  return Out;
}

void FlightRecorder::dumpTo(std::ostream &Out, std::string_view Reason) const {
  uint64_t Recorded = 0;
  std::vector<Slot> Slots = capture(Recorded);
  // Metadata record first (tid 0, ts 0): marks the file as a
  // flight-recorder dump and carries the incident context.
  Out << "[\n{\"name\":\"flight_recorder\",\"cat\":\"fr.meta\",\"ph\":\"i\","
         "\"ts\":0,\"pid\":1,\"tid\":0,\"s\":\"t\",\"args\":{"
         "\"flight_recorder\":true,\"schema_version\":"
      << SchemaVersion << ",\"reason\":\"" << jsonEscape(Reason)
      << "\",\"capacity\":" << Ring.size() << ",\"recorded\":" << Recorded
      << ",\"dropped\":" << (Recorded - Slots.size())
      << ",\"events\":" << Slots.size() << "}}";
  // Slots hold events in emission order — the order the sinks saw — so
  // the dump is per-lane monotone exactly like a trace file.
  for (const Slot &S : Slots) {
    TraceAttr Attrs[2];
    unsigned Kept = S.Shape & 3;
    for (unsigned I = 0; I < Kept; ++I) {
      Attrs[I].Key = view(S.Keys[I], S.KeyLens[I]);
      Attrs[I].K = static_cast<TraceAttr::Kind>((S.Shape >> (2 + 2 * I)) & 3);
      Attrs[I].Bits = S.Values[I];
    }
    TraceEvent E{S.Phase,
                 view(S.Name, S.NameLen),
                 view(S.Category, S.CategoryLen),
                 S.TsUs,
                 S.Phase == 'X' ? std::bit_cast<double>(S.Values[1]) : 0,
                 std::span<const TraceAttr>(Attrs, Kept),
                 static_cast<double>(S.Lane)};
    Out << ",\n" << renderEventJson(E);
  }
  Out << "\n]\n";
}

bool FlightRecorder::dumpIncident(std::string_view Reason) {
  if (!armed() || Path.empty() || Dumped.load())
    return false;
  std::ofstream Out(Path);
  if (!Out)
    return false;
  dumpTo(Out, Reason);
  Dumped = true;
  return true;
}

bool FlightRecorder::dumpFinal() { return dumpIncident("exit"); }

std::string FlightRecorder::structureDigest() const {
  // FNV-1a over the (lane, phase, name) sequence in recorded order;
  // timestamps and args are deliberately excluded so the digest compares
  // equal across runs with different wall-clock behaviour.
  uint64_t Recorded = 0;
  std::vector<Slot> Slots = capture(Recorded);
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](const void *P, size_t N) {
    const unsigned char *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 1099511628211ull;
    }
  };
  for (const Slot &S : Slots) {
    Mix(&S.Lane, sizeof(S.Lane));
    Mix(&S.Phase, sizeof(S.Phase));
    Mix(S.Name, S.NameLen);
    unsigned char Sep = 0xff;
    Mix(&Sep, 1);
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(H));
  return std::string(Buf);
}
