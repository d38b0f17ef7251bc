//===- checks/MetricsCheck.h - Metrics document validation ------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The validation core behind tools/metrics_check, exposed as a library so
/// every consumer of a metrics document applies the *same* invariants to
/// the same grammar:
///
///   * the schema_version-1 JSON document MetricsSnapshot::json() writes:
///     each family names a "counter" or "histogram" type, and each sample a
///     label object plus a value (counter) or count/sum_us/buckets
///     (histogram);
///   * counter and histogram values are finite and non-negative;
///   * each histogram's raw per-bucket counts are non-negative and sum to
///     at most its `count`;
///   * (two documents) non-timing counters never decrease between
///     snapshots of the same process.
///
/// Test support: part of the fast_checks library that tools/ and tests/
/// link; the production libraries never compile it.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_CHECKS_METRICSCHECK_H
#define FAST_CHECKS_METRICSCHECK_H

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace fast::obs::metricscheck {

/// One histogram series: its raw per-bucket counts, as in the document.
struct HistSeries {
  std::vector<double> Buckets;
  double Sum = 0;
  double Count = 0;
};

struct Family {
  std::string Type; // "counter" | "histogram"
  bool Timing = false;
  /// Scalar samples keyed by their canonical (sorted) label string.
  std::map<std::string, double> Scalars;
  std::map<std::string, HistSeries> Hists;
};

struct Document {
  std::map<std::string, Family> Families;
  size_t Samples = 0;
};

/// Parses the schema_version-1 JSON document.  False with \p Error set on
/// grammar violations.
bool loadJson(std::istream &In, Document &Doc, std::string &Error);

/// Single-document structural checks (non-negative counters, bucket
/// consistency).  On success \p Counters / \p Histograms accumulate the
/// number of validated series.
bool validate(const Document &Doc, std::string &Error, size_t &Counters,
              size_t &Histograms);

/// Two-snapshot counter monotonicity: every non-timing counter sample
/// present in both documents must satisfy Earlier <= Later.  \p Compared
/// accumulates the number of samples checked.
bool checkMonotone(const Document &Earlier, const Document &Later,
                   std::string &Error, size_t &Compared);

} // namespace fast::obs::metricscheck

#endif // FAST_CHECKS_METRICSCHECK_H
