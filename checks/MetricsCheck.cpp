//===- checks/MetricsCheck.cpp - Metrics document validation --------------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#include "checks/MetricsCheck.h"

#include "checks/JsonCheck.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <sstream>

using fast::obs::json::Value;

namespace fast::obs::metricscheck {

namespace {

std::string canonicalLabels(
    std::vector<std::pair<std::string, std::string>> Labels) {
  std::sort(Labels.begin(), Labels.end());
  std::string Out;
  for (const auto &[K, V] : Labels) {
    Out += K;
    Out += '=';
    Out += V;
    Out += ';';
  }
  return Out;
}

} // namespace

bool loadJson(std::istream &In, Document &Doc, std::string &Error) {
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string ParseError;
  auto Parsed = fast::obs::json::parse(Buffer.str(), &ParseError);
  if (!Parsed) {
    Error = "bad JSON: " + ParseError;
    return false;
  }
  if (!Parsed->isObject()) {
    Error = "top-level value is not an object";
    return false;
  }
  const Value *Schema = Parsed->find("schema_version");
  if (!Schema || !Schema->isNumber() || Schema->Num < 1) {
    Error = "missing or invalid \"schema_version\"";
    return false;
  }
  const Value *Families = Parsed->find("families");
  if (!Families || !Families->isArray()) {
    Error = "missing \"families\" array";
    return false;
  }
  for (const Value &FV : Families->Items) {
    const Value *Name = FV.find("name");
    const Value *Type = FV.find("type");
    const Value *Timing = FV.find("timing");
    const Value *Samples = FV.find("samples");
    if (!Name || !Name->isString() || !Type || !Type->isString() ||
        !Samples || !Samples->isArray()) {
      Error = "family lacks name/type/samples";
      return false;
    }
    if (Type->Str != "counter" && Type->Str != "histogram") {
      Error = "unknown type '" + Type->Str + "' for " + Name->Str;
      return false;
    }
    Family &F = Doc.Families[Name->Str];
    F.Type = Type->Str;
    F.Timing = Timing && Timing->K == Value::Kind::Bool && Timing->B;
    for (const Value &SV : Samples->Items) {
      const Value *Labels = SV.find("labels");
      if (!Labels || !Labels->isObject()) {
        Error = "sample in " + Name->Str + " lacks \"labels\" object";
        return false;
      }
      std::vector<std::pair<std::string, std::string>> Pairs;
      for (const auto &[K, LV] : Labels->Members) {
        if (!LV.isString()) {
          Error = "non-string label value in " + Name->Str;
          return false;
        }
        Pairs.emplace_back(K, LV.Str);
      }
      std::string Key = canonicalLabels(std::move(Pairs));
      ++Doc.Samples;
      if (F.Type == "histogram") {
        const Value *Count = SV.find("count");
        const Value *Sum = SV.find("sum_us");
        const Value *Buckets = SV.find("buckets");
        if (!Count || !Count->isNumber() || !Sum || !Sum->isNumber() ||
            !Buckets || !Buckets->isArray()) {
          Error = "histogram sample in " + Name->Str +
                  " lacks count/sum_us/buckets";
          return false;
        }
        HistSeries &H = F.Hists[Key];
        H.Count = Count->Num;
        H.Sum = Sum->Num;
        for (const Value &B : Buckets->Items) {
          if (!B.isNumber()) {
            Error = "non-numeric bucket in " + Name->Str;
            return false;
          }
          H.Buckets.push_back(B.Num);
        }
      } else {
        const Value *V = SV.find("value");
        if (!V || !V->isNumber()) {
          Error = "sample in " + Name->Str + " lacks numeric \"value\"";
          return false;
        }
        F.Scalars[Key] = V->Num;
      }
    }
  }
  return true;
}

bool validate(const Document &Doc, std::string &Error, size_t &Counters,
              size_t &Histograms) {
  for (const auto &[Name, F] : Doc.Families) {
    if (F.Type == "counter") {
      for (const auto &[Labels, V] : F.Scalars) {
        if (!std::isfinite(V) || V < 0) {
          Error = "counter " + Name + "{" + Labels +
                  "} is negative or non-finite (" + std::to_string(V) + ")";
          return false;
        }
        ++Counters;
      }
    } else {
      for (const auto &[Labels, H] : F.Hists) {
        auto Fail = [&](const std::string &Message) {
          Error = "histogram " + Name + "{" + Labels + "}: " + Message;
          return false;
        };
        if (!std::isfinite(H.Count) || !std::isfinite(H.Sum) ||
            H.Count < 0 || H.Sum < 0)
          return Fail("negative or non-finite count or sum");
        double Total = 0;
        for (size_t I = 0; I < H.Buckets.size(); ++I) {
          if (H.Buckets[I] < 0)
            return Fail("bucket " + std::to_string(I) + " is negative");
          Total += H.Buckets[I];
        }
        if (Total > H.Count)
          return Fail("buckets sum to " + std::to_string(Total) +
                      " > count " + std::to_string(H.Count));
        ++Histograms;
      }
    }
  }
  return true;
}

bool checkMonotone(const Document &Earlier, const Document &Later,
                   std::string &Error, size_t &Compared) {
  for (const auto &[Name, FA] : Earlier.Families) {
    if (FA.Type != "counter" || FA.Timing)
      continue;
    auto It = Later.Families.find(Name);
    if (It == Later.Families.end())
      continue;
    const Family &FB = It->second;
    if (FB.Timing)
      continue;
    for (const auto &[Labels, VA] : FA.Scalars) {
      auto SB = FB.Scalars.find(Labels);
      if (SB == FB.Scalars.end())
        continue;
      if (SB->second < VA) {
        Error = "counter " + Name + "{" + Labels + "} went backwards: " +
                std::to_string(VA) + " -> " + std::to_string(SB->second);
        return false;
      }
      ++Compared;
    }
  }
  return true;
}

} // namespace fast::obs::metricscheck
