//===- checks/MetricsCheck.h - Metrics exposition validation ----*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The validation core behind tools/metrics_check, exposed as a library so
/// every consumer of a metrics exposition — the standalone validator and
/// the concurrent-flush test — applies the *same* invariants to the same
/// grammar:
///
///   * Prometheus text v0.0.4 (`# HELP/# TYPE/# TIMING` comments and
///     `name{labels} value` sample lines) or the schema_version-1 JSON doc;
///   * every sample belongs to a family with a declared TYPE, and histogram
///     series (`_bucket`/`_sum`/`_count`) only appear under histogram
///     families;
///   * counter and histogram values are finite and non-negative;
///   * histogram buckets are consistent: cumulative `le` buckets never
///     decrease, the `+Inf` bucket equals `_count`, and in the JSON form
///     the per-bucket counts sum to at most `count`;
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
#include <utility>
#include <vector>

namespace fast::obs::metricscheck {

/// One histogram series, reassembled from either format.  Buckets are kept
/// as (le, cumulative-count) in file order for the Prometheus form; the JSON
/// form stores raw per-bucket counts and is converted on load.
struct HistSeries {
  std::vector<std::pair<double, double>> Buckets; // (le, cumulative)
  bool HaveInf = false;
  double Inf = 0;
  bool HaveSum = false;
  double Sum = 0;
  bool HaveCount = false;
  double Count = 0;
};

struct Family {
  std::string Type; // "counter" | "gauge" | "histogram"
  bool Timing = false;
  bool Declared = false; // saw a TYPE declaration
  /// Scalar samples keyed by their canonical (sorted) label string.
  std::map<std::string, double> Scalars;
  std::map<std::string, HistSeries> Hists;
};

struct Document {
  std::map<std::string, Family> Families;
  size_t Samples = 0;
};

/// Parses a Prometheus text v0.0.4 exposition.  False with \p Error set on
/// grammar violations.
bool loadPrometheus(std::istream &In, Document &Doc, std::string &Error);

/// Parses the schema_version-1 JSON document.
bool loadJson(std::istream &In, Document &Doc, std::string &Error);

/// Parses \p Text in whichever format \p Json selects — the in-memory
/// entry point for validating a document already read into memory.
bool loadText(const std::string &Text, bool Json, Document &Doc,
              std::string &Error);

/// Single-document structural checks (declared types, non-negative
/// counters, bucket consistency).  On success \p Counters / \p Histograms
/// accumulate the number of validated series.
bool validate(const Document &Doc, std::string &Error, size_t &Counters,
              size_t &Histograms);

/// Two-snapshot counter monotonicity: every non-timing counter sample
/// present in both documents must satisfy Earlier <= Later.  \p Compared
/// accumulates the number of samples checked.
bool checkMonotone(const Document &Earlier, const Document &Later,
                   std::string &Error, size_t &Compared);

} // namespace fast::obs::metricscheck

#endif // FAST_CHECKS_METRICSCHECK_H
