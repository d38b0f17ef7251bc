//===- checks/JsonCheck.cpp - Minimal JSON parser for validators ----------===//

#include "checks/JsonCheck.h"

#include <cctype>
#include <cstdlib>

using namespace fast::obs::json;

namespace {

class Parser {
public:
  Parser(std::string_view Text, std::string *Error)
      : Text(Text), Error(Error) {}

  std::optional<Value> run() {
    skipWs();
    std::optional<Value> V = parseValue();
    if (!V)
      return std::nullopt;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after document");
    return V;
  }

private:
  std::optional<Value> fail(const std::string &Message) {
    if (Error && Error->empty())
      *Error = Message + " at offset " + std::to_string(Pos);
    return std::nullopt;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  std::optional<Value> parseValue() {
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    switch (C) {
    case '{':
      return parseObject();
    case '[':
      return parseArray();
    case '"':
      return parseString();
    case 't':
      if (literal("true")) {
        Value V;
        V.K = Value::Kind::Bool;
        V.B = true;
        return V;
      }
      return fail("bad literal");
    case 'f':
      if (literal("false")) {
        Value V;
        V.K = Value::Kind::Bool;
        return V;
      }
      return fail("bad literal");
    case 'n':
      if (literal("null"))
        return Value();
      return fail("bad literal");
    default:
      return parseNumber();
    }
  }

  std::optional<Value> parseObject() {
    ++Pos; // '{'
    Value V;
    V.K = Value::Kind::Object;
    skipWs();
    if (consume('}'))
      return V;
    while (true) {
      skipWs();
      std::optional<Value> Key = parseString();
      if (!Key)
        return std::nullopt;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' in object");
      skipWs();
      std::optional<Value> Member = parseValue();
      if (!Member)
        return std::nullopt;
      V.Members.emplace_back(std::move(Key->Str), std::move(*Member));
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return V;
      return fail("expected ',' or '}' in object");
    }
  }

  std::optional<Value> parseArray() {
    ++Pos; // '['
    Value V;
    V.K = Value::Kind::Array;
    skipWs();
    if (consume(']'))
      return V;
    while (true) {
      skipWs();
      std::optional<Value> Item = parseValue();
      if (!Item)
        return std::nullopt;
      V.Items.push_back(std::move(*Item));
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return V;
      return fail("expected ',' or ']' in array");
    }
  }

  std::optional<Value> parseString() {
    if (!consume('"'))
      return fail("expected string");
    Value V;
    V.K = Value::Kind::String;
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return V;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      if (C == '\\') {
        if (Pos >= Text.size())
          return fail("unterminated escape");
        char E = Text[Pos++];
        switch (E) {
        case '"':
          V.Str += '"';
          break;
        case '\\':
          V.Str += '\\';
          break;
        case '/':
          V.Str += '/';
          break;
        case 'b':
          V.Str += '\b';
          break;
        case 'f':
          V.Str += '\f';
          break;
        case 'n':
          V.Str += '\n';
          break;
        case 'r':
          V.Str += '\r';
          break;
        case 't':
          V.Str += '\t';
          break;
        case 'u': {
          if (Pos + 4 > Text.size())
            return fail("truncated \\u escape");
          for (int I = 0; I < 4; ++I)
            if (!std::isxdigit(static_cast<unsigned char>(Text[Pos + I])))
              return fail("bad \\u escape");
          // Pass-through (validation only; codepoint not decoded).
          V.Str += "\\u";
          V.Str += Text.substr(Pos, 4);
          Pos += 4;
          break;
        }
        default:
          return fail("bad escape character");
        }
      } else {
        V.Str += C;
      }
    }
    return fail("unterminated string");
  }

  std::optional<Value> parseNumber() {
    size_t Start = Pos;
    if (consume('-'))
      ;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("expected value");
    std::string Num(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    double D = std::strtod(Num.c_str(), &End);
    if (End != Num.c_str() + Num.size())
      return fail("malformed number");
    Value V;
    V.K = Value::Kind::Number;
    V.Num = D;
    return V;
  }

  std::string_view Text;
  std::string *Error;
  size_t Pos = 0;
};

} // namespace

std::optional<Value> fast::obs::json::parse(std::string_view Text,
                                            std::string *Error) {
  return Parser(Text, Error).run();
}
