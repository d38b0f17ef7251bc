//===- checks/MetricsCheck.cpp - Metrics exposition validation ------------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#include "checks/MetricsCheck.h"

#include "checks/JsonCheck.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
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

bool parseLabelSet(const std::string &Line, size_t &Pos,
                   std::vector<std::pair<std::string, std::string>> &Labels,
                   std::string &Error) {
  // Pos is just past '{'.
  while (Pos < Line.size() && Line[Pos] != '}') {
    size_t Eq = Line.find('=', Pos);
    if (Eq == std::string::npos || Eq + 1 >= Line.size() ||
        Line[Eq + 1] != '"') {
      Error = "malformed label pair";
      return false;
    }
    std::string Key = Line.substr(Pos, Eq - Pos);
    std::string Val;
    size_t I = Eq + 2;
    for (; I < Line.size() && Line[I] != '"'; ++I) {
      if (Line[I] == '\\' && I + 1 < Line.size()) {
        ++I;
        Val += Line[I] == 'n' ? '\n' : Line[I];
      } else {
        Val += Line[I];
      }
    }
    if (I >= Line.size()) {
      Error = "unterminated label value";
      return false;
    }
    Labels.emplace_back(std::move(Key), std::move(Val));
    Pos = I + 1;
    if (Pos < Line.size() && Line[Pos] == ',')
      ++Pos;
  }
  if (Pos >= Line.size()) {
    Error = "unterminated label set";
    return false;
  }
  ++Pos; // consume '}'
  return true;
}

bool stripSuffix(std::string &Name, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  if (Name.size() > N && Name.compare(Name.size() - N, N, Suffix) == 0) {
    Name.resize(Name.size() - N);
    return true;
  }
  return false;
}

} // namespace

bool loadPrometheus(std::istream &In, Document &Doc, std::string &Error) {
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    auto At = [&](const std::string &Message) {
      Error = "line " + std::to_string(LineNo) + ": " + Message;
      return false;
    };
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      std::istringstream Meta(Line);
      std::string Hash, Keyword, Name, Rest;
      Meta >> Hash >> Keyword >> Name;
      if (Keyword == "TYPE") {
        Meta >> Rest;
        if (Rest != "counter" && Rest != "gauge" && Rest != "histogram")
          return At("unknown TYPE '" + Rest + "' for " + Name);
        Family &F = Doc.Families[Name];
        F.Type = Rest;
        F.Declared = true;
      } else if (Keyword == "TIMING") {
        Doc.Families[Name].Timing = true;
      }
      // HELP and other comments carry no checked structure.
      continue;
    }

    // Sample line: name[{labels}] value
    size_t Pos = Line.find_first_of("{ ");
    if (Pos == std::string::npos)
      return At("sample line with no value");
    std::string Name = Line.substr(0, Pos);
    std::vector<std::pair<std::string, std::string>> Labels;
    if (Line[Pos] == '{') {
      ++Pos;
      std::string LabelError;
      if (!parseLabelSet(Line, Pos, Labels, LabelError))
        return At(LabelError);
    }
    while (Pos < Line.size() && Line[Pos] == ' ')
      ++Pos;
    if (Pos >= Line.size())
      return At("sample line with no value");
    char *End = nullptr;
    double V = std::strtod(Line.c_str() + Pos, &End);
    if (End == Line.c_str() + Pos)
      return At("unparseable sample value");

    // Map histogram series back to their base family.
    std::string Base = Name;
    std::string Series;
    for (const char *Suffix : {"_bucket", "_sum", "_count"}) {
      std::string Cand = Name;
      if (stripSuffix(Cand, Suffix)) {
        auto It = Doc.Families.find(Cand);
        if (It != Doc.Families.end() && It->second.Type == "histogram") {
          Base = Cand;
          Series = Suffix + 1; // skip '_'
          break;
        }
      }
    }
    auto It = Doc.Families.find(Base);
    if (It == Doc.Families.end() || !It->second.Declared)
      return At("sample '" + Name + "' has no preceding # TYPE declaration");
    Family &F = It->second;
    ++Doc.Samples;

    if (F.Type == "histogram") {
      if (Series.empty())
        return At("bare sample '" + Name + "' under histogram family");
      // `le` participates in the bucket series, not the series identity.
      double Le = 0;
      std::vector<std::pair<std::string, std::string>> Rest;
      for (auto &L : Labels) {
        if (L.first == "le")
          Le = L.second == "+Inf" ? HUGE_VAL : std::strtod(L.second.c_str(),
                                                           nullptr);
        else
          Rest.push_back(L);
      }
      HistSeries &H = F.Hists[canonicalLabels(Rest)];
      if (Series == "bucket") {
        if (std::isinf(Le)) {
          H.HaveInf = true;
          H.Inf = V;
        } else {
          H.Buckets.emplace_back(Le, V);
        }
      } else if (Series == "sum") {
        H.HaveSum = true;
        H.Sum = V;
      } else {
        H.HaveCount = true;
        H.Count = V;
      }
    } else {
      F.Scalars[canonicalLabels(Labels)] = V;
    }
  }
  return true;
}

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
    Family &F = Doc.Families[Name->Str];
    F.Type = Type->Str;
    F.Declared = true;
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
        H.HaveCount = true;
        H.Count = Count->Num;
        H.HaveSum = true;
        H.Sum = Sum->Num;
        // Raw per-bucket counts -> cumulative (le = 2^i), plus +Inf == the
        // declared total so the shared validation below applies unchanged.
        double Cum = 0;
        for (size_t I = 0; I < Buckets->Items.size(); ++I) {
          const Value &B = Buckets->Items[I];
          if (!B.isNumber() || B.Num < 0) {
            Error = "negative or non-numeric bucket in " + Name->Str;
            return false;
          }
          Cum += B.Num;
          H.Buckets.emplace_back(double(uint64_t(1) << I), Cum);
        }
        H.HaveInf = true;
        H.Inf = H.Count; // trimmed tail folds into +Inf by construction
        if (Cum > H.Count + 0.5) {
          Error = "histogram " + Name->Str + " buckets sum to " +
                  std::to_string(Cum) + " > count " +
                  std::to_string(H.Count);
          return false;
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

bool loadText(const std::string &Text, bool Json, Document &Doc,
              std::string &Error) {
  std::istringstream In(Text);
  return Json ? loadJson(In, Doc, Error) : loadPrometheus(In, Doc, Error);
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
    } else if (F.Type == "histogram") {
      for (const auto &[Labels, H] : F.Hists) {
        auto Fail = [&](const std::string &Message) {
          Error = "histogram " + Name + "{" + Labels + "}: " + Message;
          return false;
        };
        if (!H.HaveCount || !H.HaveSum || !H.HaveInf)
          return Fail("incomplete series (missing _count, _sum, or +Inf)");
        if (H.Count < 0 || H.Sum < 0)
          return Fail("negative count or sum");
        double Prev = 0;
        double PrevLe = -1;
        for (const auto &[Le, Cum] : H.Buckets) {
          if (Le <= PrevLe)
            return Fail("le bounds not increasing");
          if (Cum < Prev)
            return Fail("cumulative bucket decreases at le=" +
                        std::to_string(Le));
          Prev = Cum;
          PrevLe = Le;
        }
        if (H.Inf < Prev)
          return Fail("+Inf bucket below the last finite bucket");
        if (H.Inf != H.Count)
          return Fail("+Inf bucket (" + std::to_string(H.Inf) +
                      ") != count (" + std::to_string(H.Count) + ")");
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
