//===- obs/SlowQueryLog.h - Worst-K solver query capture --------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Keeps the K slowest solver queries of a session with their printed
/// guard terms and the construction that issued them.  The hot-path cost
/// is one comparison against the current admission threshold; the query
/// term is only printed (an allocation-heavy walk) for queries that
/// actually enter the log, so the log is safe to leave always-on.
/// Surfaced by `fastc --stats` and dumped when an Exploration exhausts its
/// budget, so a stuck type-check names the guards it was stuck on.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_OBS_SLOWQUERYLOG_H
#define FAST_OBS_SLOWQUERYLOG_H

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace fast::obs {

class SlowQueryLog {
public:
  struct Entry {
    double Us = 0;
    /// Query kind: "isSat" or "getModel".
    std::string Kind;
    /// The construction active when the query ran, or "" outside any.
    std::string Construction;
    /// The printed query term(s).
    std::string Query;
  };

  explicit SlowQueryLog(size_t Capacity = 8) : Cap(Capacity) {}

  size_t capacity() const { return Cap; }
  void setCapacity(size_t Capacity) {
    Cap = Capacity;
    if (Entries.size() > Cap)
      shrinkToCapacity();
  }

  bool empty() const { return Entries.empty(); }

  /// True when a query of \p Us would enter the log; the cheap pre-check
  /// callers use to skip printing the term.
  bool qualifies(double Us) const {
    return Cap != 0 && (Entries.size() < Cap || Us > MinUs);
  }

  /// Admits the query if it qualifies; \p Print is only invoked on
  /// admission.
  template <typename PrintFn>
  void record(double Us, std::string_view Kind, std::string_view Construction,
              PrintFn &&Print) {
    if (!qualifies(Us))
      return;
    Entries.push_back(
        {Us, std::string(Kind), std::string(Construction), Print()});
    if (Entries.size() > Cap)
      shrinkToCapacity();
    else
      recomputeMin();
  }

  /// Re-admits every retained entry of \p Other into this log — the
  /// join-point merge of a worker context's slow-query shard.  The final
  /// worst-K set is merge-order independent; only tie-breaking among
  /// equal-latency entries at the admission boundary is not.
  void mergeFrom(const SlowQueryLog &Other) {
    for (const Entry &E : Other.Entries)
      record(E.Us, E.Kind, E.Construction, [&] { return E.Query; });
  }

  /// The retained queries, slowest first.
  std::vector<Entry> sorted() const {
    std::vector<Entry> Result = Entries;
    std::sort(Result.begin(), Result.end(),
              [](const Entry &A, const Entry &B) { return A.Us > B.Us; });
    return Result;
  }

  /// Human-readable dump, slowest first (empty string when no entries).
  std::string report() const;

  void clear() {
    Entries.clear();
    MinUs = 0;
  }

private:
  void shrinkToCapacity() {
    std::sort(Entries.begin(), Entries.end(),
              [](const Entry &A, const Entry &B) { return A.Us > B.Us; });
    Entries.resize(Cap);
    recomputeMin();
  }

  void recomputeMin() {
    MinUs = Entries.empty() ? 0 : Entries.front().Us;
    for (const Entry &E : Entries)
      MinUs = std::min(MinUs, E.Us);
  }

  size_t Cap;
  double MinUs = 0;
  std::vector<Entry> Entries;
};

} // namespace fast::obs

#endif // FAST_OBS_SLOWQUERYLOG_H
