//===- trees/TreeText.cpp - Parsing trees from text -----------------------===//

#include "trees/TreeText.h"

#include <cctype>
#include <cstdlib>

using namespace fast;

namespace {

/// A tiny recursive-descent parser for the tree witness syntax.
class TreeParser {
public:
  TreeParser(TreeFactory &Factory, const SignatureRef &Sig,
             const std::string &Text)
      : Factory(Factory), Sig(Sig), Text(Text) {}

  TreeRef parse(std::string &Error) {
    TreeRef Result = parseTree();
    skipSpace();
    if (Result && Pos != Text.size()) {
      fail("trailing input after tree");
      Result = nullptr;
    }
    if (!Result)
      Error = Message + " at offset " + std::to_string(ErrorPos);
    return Result;
  }

private:
  void skipSpace() {
    while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  void fail(const std::string &Msg) {
    if (Message.empty()) {
      Message = Msg;
      ErrorPos = Pos;
    }
  }

  bool parseIdentifier(std::string &Id) {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_' || Text[Pos] == '.'))
      ++Pos;
    if (Pos == Start) {
      fail("expected identifier");
      return false;
    }
    Id = Text.substr(Start, Pos - Start);
    return true;
  }

  bool parseValue(Sort Expected, Value &Result) {
    skipSpace();
    if (Pos >= Text.size()) {
      fail("expected literal");
      return false;
    }
    char C = Text[Pos];
    if (C == '"') {
      ++Pos;
      std::string S;
      while (Pos < Text.size() && Text[Pos] != '"') {
        char D = Text[Pos++];
        if (D == '\\' && Pos < Text.size()) {
          char E = Text[Pos++];
          switch (E) {
          case 'n':
            D = '\n';
            break;
          case 't':
            D = '\t';
            break;
          case 'r':
            D = '\r';
            break;
          default:
            D = E;
            break;
          }
        }
        S += D;
      }
      if (Pos >= Text.size()) {
        fail("unterminated string literal");
        return false;
      }
      ++Pos; // closing quote
      if (Expected != Sort::String) {
        fail("string literal where " + std::string(sortName(Expected)) +
             " expected");
        return false;
      }
      Result = Value::string(std::move(S));
      return true;
    }
    if (std::isalpha(static_cast<unsigned char>(C))) {
      std::string Word;
      if (!parseIdentifier(Word))
        return false;
      if (Word != "true" && Word != "false") {
        fail("expected literal, got '" + Word + "'");
        return false;
      }
      if (Expected != Sort::Bool) {
        fail("boolean literal where " + std::string(sortName(Expected)) +
             " expected");
        return false;
      }
      Result = Value::boolean(Word == "true");
      return true;
    }
    // Numeric literal.
    size_t Start = Pos;
    if (C == '-' || C == '+')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == '/'))
      ++Pos;
    std::string Number = Text.substr(Start, Pos - Start);
    Rational R;
    if (!Rational::parse(Number, R)) {
      fail("malformed numeric literal '" + Number + "'");
      return false;
    }
    if (Expected == Sort::Int) {
      if (!R.isInteger()) {
        fail("non-integral literal where Int expected");
        return false;
      }
      Result = Value::integer(R.numerator());
      return true;
    }
    if (Expected != Sort::Real) {
      fail("numeric literal where " + std::string(sortName(Expected)) +
           " expected");
      return false;
    }
    Result = Value::real(R);
    return true;
  }

  TreeRef parseTree() {
    std::string CtorName;
    if (!parseIdentifier(CtorName))
      return nullptr;
    auto CtorId = Sig->findConstructor(CtorName);
    if (!CtorId) {
      fail("unknown constructor '" + CtorName + "'");
      return nullptr;
    }

    std::vector<Value> Attrs;
    if (consume('[')) {
      if (!consume(']')) {
        do {
          unsigned Index = static_cast<unsigned>(Attrs.size());
          if (Index >= Sig->numAttrs()) {
            fail("too many attributes for type " + Sig->typeName());
            return nullptr;
          }
          Value V;
          if (!parseValue(Sig->attrSpec(Index).TheSort, V))
            return nullptr;
          Attrs.push_back(std::move(V));
        } while (consume(','));
        if (!consume(']')) {
          fail("expected ']'");
          return nullptr;
        }
      }
    }
    if (Attrs.size() != Sig->numAttrs()) {
      fail("expected " + std::to_string(Sig->numAttrs()) +
           " attribute(s) for constructor '" + CtorName + "'");
      return nullptr;
    }

    std::vector<TreeRef> Children;
    unsigned Rank = Sig->rank(*CtorId);
    if (consume('(')) {
      if (!consume(')')) {
        do {
          TreeRef Child = parseTree();
          if (!Child)
            return nullptr;
          Children.push_back(Child);
        } while (consume(','));
        if (!consume(')')) {
          fail("expected ')'");
          return nullptr;
        }
      }
    }
    if (Children.size() != Rank) {
      fail("constructor '" + CtorName + "' expects " + std::to_string(Rank) +
           " child(ren), got " + std::to_string(Children.size()));
      return nullptr;
    }
    return Factory.make(Sig, *CtorId, Attrs, Children);
  }

  TreeFactory &Factory;
  const SignatureRef &Sig;
  const std::string &Text;
  size_t Pos = 0;
  std::string Message;
  size_t ErrorPos = 0;
};

} // namespace

TreeRef fast::parseTree(TreeFactory &Factory, const SignatureRef &Sig,
                        const std::string &Text, std::string &Error) {
  return TreeParser(Factory, Sig, Text).parse(Error);
}
