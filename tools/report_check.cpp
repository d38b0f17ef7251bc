//===- tools/report_check.cpp - HTML session-report validator -------------===//
//
// Validates a report produced by `fastc --report=out.html`:
//
//   report_check [--require-substring TEXT]... <report.html>
//
// Extracts the embedded JSON island
//   <script type="application/json" id="fast-report-data"> ... </script>
// undoes the "<\/" escaping, parses it with JsonCheck, and requires the
// island to be an object carrying the keys the inline renderer reads:
// "title", "events", "stats", "coverage", "assertions", "witnesses", and
// "slow_queries" — with "events", "coverage", "assertions", and
// "witnesses" being arrays.  Each --require-substring TEXT must occur
// somewhere in the raw island text (the report.smoke test uses this to
// assert the known sanitizer witness and rule citation are embedded).
//
// Exit status: 0 valid, 1 invalid, 2 usage/IO error.  Prints a one-line
// summary on success so the smoke test has something to match.
//
//===----------------------------------------------------------------------===//

#include "checks/JsonCheck.h"

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using fast::obs::json::Value;

int main(int Argc, char **Argv) {
  std::vector<std::string> Required;
  const char *Path = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--require-substring") == 0 && I + 1 < Argc)
      Required.push_back(Argv[++I]);
    else if (!Path)
      Path = Argv[I];
    else
      Path = nullptr;
  }
  if (!Path) {
    std::cerr << "usage: report_check [--require-substring TEXT]... "
                 "<report.html>\n";
    return 2;
  }
  std::ifstream File(Path);
  if (!File) {
    std::cerr << "report_check: cannot open '" << Path << "'\n";
    return 2;
  }
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  const std::string Html = Buffer.str();

  const std::string Open =
      "<script type=\"application/json\" id=\"fast-report-data\">";
  size_t Start = Html.find(Open);
  if (Start == std::string::npos) {
    std::cerr << "report_check: " << Path
              << ": no fast-report-data JSON island\n";
    return 1;
  }
  Start += Open.size();
  size_t End = Html.find("</script>", Start);
  if (End == std::string::npos) {
    std::cerr << "report_check: " << Path
              << ": JSON island is not closed by </script>\n";
    return 1;
  }
  std::string Island = Html.substr(Start, End - Start);
  // Undo the island escaping ("</" is written as "<\/" so a witness string
  // cannot terminate the script element early).
  for (size_t Pos = 0; (Pos = Island.find("<\\/", Pos)) != std::string::npos;)
    Island.erase(Pos + 1, 1);

  std::string ParseError;
  std::optional<Value> Data = fast::obs::json::parse(Island, &ParseError);
  if (!Data) {
    std::cerr << "report_check: " << Path << ": island is bad JSON: "
              << ParseError << "\n";
    return 1;
  }
  if (!Data->isObject()) {
    std::cerr << "report_check: " << Path << ": island is not an object\n";
    return 1;
  }
  struct KeySpec {
    const char *Key;
    bool Array;
  };
  const KeySpec Keys[] = {
      {"title", false},     {"events", true},     {"stats", false},
      {"coverage", true},   {"assertions", true}, {"witnesses", true},
      {"slow_queries", false},
  };
  size_t EmbeddedEvents = 0;
  for (const KeySpec &K : Keys) {
    const Value *V = Data->find(K.Key);
    if (!V) {
      std::cerr << "report_check: " << Path << ": island lacks key \""
                << K.Key << "\"\n";
      return 1;
    }
    if (K.Array && !V->isArray()) {
      std::cerr << "report_check: " << Path << ": island key \"" << K.Key
                << "\" is not an array\n";
      return 1;
    }
    if (std::strcmp(K.Key, "events") == 0)
      EmbeddedEvents = V->Items.size();
  }
  for (const std::string &Text : Required) {
    if (Island.find(Text) == std::string::npos) {
      std::cerr << "report_check: " << Path
                << ": island lacks required substring \"" << Text << "\"\n";
      return 1;
    }
  }
  std::cout << "report_check: OK: " << EmbeddedEvents << " embedded event(s), "
            << Data->find("assertions")->Items.size() << " assertion(s), "
            << Data->find("witnesses")->Items.size() << " witness(es), "
            << Required.size() << " required substring(s) present\n";
  return 0;
}
