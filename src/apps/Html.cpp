//===- apps/Html.cpp - HTML sanitization case study -----------------------===//

#include "apps/Html.h"

#include "support/StringUtils.h"
#include "transducers/Run.h"
#include "vm/Vm.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <random>
#include <string_view>

using namespace fast;
using namespace fast::html;

SignatureRef fast::html::htmlSignature() {
  return TreeSignature::create(
      "HtmlE", {{"tag", Sort::String}},
      {{"nil", 0}, {"val", 1}, {"attr", 2}, {"node", 3}});
}

std::string fast::html::sanitizerFastSource(bool FixBug) {
  std::string ScriptCase =
      FixBug ? "| node(x1, x2, x3) where (tag = \"script\") to (remScript x3)\n"
             : "| node(x1, x2, x3) where (tag = \"script\") to x3\n";
  return std::string(
             "// Figure 2: implementation and analysis of an HTML sanitizer.\n"
             "type HtmlE[tag : String] { nil(0), val(1), attr(2), node(3) }\n"
             "lang nodeTree : HtmlE {\n"
             "  node(x1, x2, x3) given (attrTree x1) (nodeTree x2) "
             "(nodeTree x3)\n"
             "| nil() where (tag = \"\") }\n"
             "lang attrTree : HtmlE {\n"
             "  attr(x1, x2) given (valTree x1) (attrTree x2)\n"
             "| nil() where (tag = \"\") }\n"
             "lang valTree : HtmlE {\n"
             "  val(x1) where (tag != \"\") given (valTree x1)\n"
             "| nil() where (tag = \"\") }\n"
             "trans remScript : HtmlE -> HtmlE {\n"
             "  node(x1, x2, x3) where (tag != \"script\")\n"
             "    to (node [tag] x1 (remScript x2) (remScript x3))\n") +
         ScriptCase +
         "| nil() to (nil [tag]) }\n"
         "trans esc : HtmlE -> HtmlE {\n"
         "  node(x1, x2, x3) to (node [tag] (esc x1) (esc x2) (esc x3))\n"
         "| attr(x1, x2) to (attr [tag] (esc x1) (esc x2))\n"
         "| val(x1) where (tag = \"'\" || tag = \"\\\"\")\n"
         "    to (val [\"\\\\\"] (val [tag] (esc x1)))\n"
         "| val(x1) where (tag != \"'\" && tag != \"\\\"\")\n"
         "    to (val [tag] (esc x1))\n"
         "| nil() to (nil [tag]) }\n"
         "def rem_esc : HtmlE -> HtmlE := (compose remScript esc)\n"
         "def sani : HtmlE -> HtmlE := (restrict rem_esc nodeTree)\n"
         "lang badOutput : HtmlE {\n"
         "  node(x1, x2, x3) where (tag = \"script\")\n"
         "| node(x1, x2, x3) given (badOutput x2)\n"
         "| node(x1, x2, x3) given (badOutput x3) }\n";
}

Sanitizer fast::html::buildSanitizer(Session &S, bool FixBug) {
  FastProgramResult R = runFastProgram(S, sanitizerFastSource(FixBug));
  assert(R.ErrorCount == 0 && "embedded Figure 2 program failed to compile");
  Sanitizer Result;
  Result.Sig = R.Types.at("HtmlE");
  Result.RemScript = R.transducer("remScript");
  Result.Esc = R.transducer("esc");
  Result.RemEsc = R.transducer("rem_esc");
  Result.Sani = R.transducer("sani");
  Result.NodeTree = *R.language("nodeTree");
  Result.BadOutput = *R.language("badOutput");
  assert(Result.RemScript && Result.Esc && Result.RemEsc && Result.Sani &&
         "embedded Figure 2 program is missing definitions");
  return Result;
}

std::string fast::html::sanitizerPipelineFastSource() {
  return std::string(
      "// A multi-stage sanitizer: each concern is its own transformation.\n"
      "type HtmlE[tag : String] { nil(0), val(1), attr(2), node(3) }\n"
      // Stage 1: remove script elements (the fixed Figure 2 remScript).
      "trans remScript : HtmlE -> HtmlE {\n"
      "  node(x1, x2, x3) where (tag != \"script\")\n"
      "    to (node [tag] x1 (remScript x2) (remScript x3))\n"
      "| node(x1, x2, x3) where (tag = \"script\") to (remScript x3)\n"
      "| nil() to (nil [tag]) }\n"
      // Stage 2: remove embed-like elements.
      "trans remEmbeds : HtmlE -> HtmlE {\n"
      "  node(x1, x2, x3) where (tag != \"iframe\" && tag != \"object\" && "
      "tag != \"embed\" && tag != \"form\")\n"
      "    to (node [tag] x1 (remEmbeds x2) (remEmbeds x3))\n"
      "| node(x1, x2, x3) where (tag = \"iframe\" || tag = \"object\" || "
      "tag = \"embed\" || tag = \"form\")\n"
      "    to (remEmbeds x3)\n"
      "| nil() to (nil [tag]) }\n"
      // Stage 3: strip inline event-handler attributes.
      "trans remHandlers : HtmlE -> HtmlE {\n"
      "  node(x1, x2, x3)\n"
      "    to (node [tag] (remHandlers x1) (remHandlers x2) "
      "(remHandlers x3))\n"
      "| attr(x1, x2) where (tag = \"onclick\" || tag = \"onload\" || "
      "tag = \"onerror\" || tag = \"onmouseover\")\n"
      "    to (remHandlers x2)\n"
      "| attr(x1, x2) where !(tag = \"onclick\" || tag = \"onload\" || "
      "tag = \"onerror\" || tag = \"onmouseover\")\n"
      "    to (attr [tag] x1 (remHandlers x2))\n"
      "| val(x1) to (val [tag] (remHandlers x1))\n"
      "| nil() to (nil [tag]) }\n"
      // Stage 4: escape quotes (Figure 2's esc).
      "trans esc : HtmlE -> HtmlE {\n"
      "  node(x1, x2, x3) to (node [tag] (esc x1) (esc x2) (esc x3))\n"
      "| attr(x1, x2) to (attr [tag] (esc x1) (esc x2))\n"
      "| val(x1) where (tag = \"'\" || tag = \"\\\"\")\n"
      "    to (val [\"\\\\\"] (val [tag] (esc x1)))\n"
      "| val(x1) where (tag != \"'\" && tag != \"\\\"\")\n"
      "    to (val [tag] (esc x1))\n"
      "| nil() to (nil [tag]) }\n"
      // The fused pipeline: one traversal of the input document.
      "def stage12 : HtmlE -> HtmlE := (compose remScript remEmbeds)\n"
      "def stage123 : HtmlE -> HtmlE := (compose stage12 remHandlers)\n"
      "def pipeline : HtmlE -> HtmlE := (compose stage123 esc)\n");
}

SanitizerPipeline fast::html::buildSanitizerPipeline(Session &S) {
  FastProgramResult R = runFastProgram(S, sanitizerPipelineFastSource());
  assert(R.ErrorCount == 0 && "embedded pipeline program failed to compile");
  SanitizerPipeline Result;
  Result.Sig = R.Types.at("HtmlE");
  for (const char *Stage : {"remScript", "remEmbeds", "remHandlers", "esc"})
    Result.Stages.push_back(R.transducer(Stage));
  Result.Composed = R.transducer("pipeline");
  assert(Result.Composed && "pipeline definition missing");
  return Result;
}

//===----------------------------------------------------------------------===//
// HTML <-> HtmlE (the Figure 3 encoding)
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned CtorNil = 0, CtorVal = 1, CtorAttr = 2, CtorNode = 3;

bool isVoidTag(std::string_view Tag) {
  static const char *Voids[] = {"br",   "img",  "hr",    "meta",
                                "link", "input", "area", "col"};
  for (const char *V : Voids)
    if (Tag == V)
      return true;
  return false;
}

/// Parses HTML text straight into HtmlE.  Open elements live on an explicit
/// stack and every sibling list is folded right to left in a loop once its
/// parent closes, so no input shape makes the parser recurse.
class HtmlParser {
public:
  HtmlParser(TreeFactory &Trees, const SignatureRef &Sig,
             const std::string &Html)
      : Trees(Trees), Sig(Sig), Html(Html) {
    const Value Empty[] = {Value::string("")};
    Nil = Trees.make(Sig, CtorNil, Empty, {});
  }

  TreeRef parse(std::string &Error) {
    while (Pos < Html.size() && Message.empty()) {
      if (Html[Pos] == '<') {
        if (Html.compare(Pos, 4, "<!--") == 0) {
          size_t End = Html.find("-->", Pos);
          Pos = End == std::string::npos ? Html.size() : End + 3;
        } else if (Pos + 1 < Html.size() && Html[Pos + 1] == '/') {
          parseClosingTag();
        } else {
          parseElement();
        }
        continue;
      }
      // Text run: becomes a "text" element holding the run as its text
      // attribute, so the document stays a single uniform tree.
      // Whitespace-only runs are dropped.
      size_t Start = Pos;
      while (Pos < Html.size() && Html[Pos] != '<')
        ++Pos;
      std::string_view Text(Html.data() + Start, Pos - Start);
      if (!std::all_of(Text.begin(), Text.end(), [](char C) {
            return std::isspace(static_cast<unsigned char>(C)) != 0;
          }))
        Siblings.push_back({"text", encodeAttr("text", Text, Nil), Nil});
    }
    if (!Message.empty()) {
      Error = Message + " at offset " + std::to_string(ErrorPos);
      return nullptr;
    }
    // End of input closes every element still open.
    while (!Open.empty())
      closeElement();
    return foldSiblings(0);
  }

private:
  /// An element or text run whose next sibling is not known yet.
  struct Pending {
    std::string_view Tag;
    TreeRef Attrs;
    TreeRef Children;
  };
  /// An element whose closing tag has not been read yet.
  struct OpenElement {
    std::string_view Tag;
    TreeRef Attrs;
    size_t FirstChild; ///< Index of its first child in Siblings.
  };

  void fail(const std::string &Msg) {
    if (Message.empty()) {
      Message = Msg;
      ErrorPos = Pos;
    }
  }

  void skipSpace() {
    while (Pos < Html.size() &&
           std::isspace(static_cast<unsigned char>(Html[Pos])))
      ++Pos;
  }

  std::string_view parseName() {
    size_t Start = Pos;
    while (Pos < Html.size() &&
           (std::isalnum(static_cast<unsigned char>(Html[Pos])) ||
            Html[Pos] == '-' || Html[Pos] == '_'))
      ++Pos;
    return std::string_view(Html.data() + Start, Pos - Start);
  }

  /// `</...`: closes the innermost open element, whose name it must start
  /// with.
  void parseClosingTag() {
    if (Open.empty() ||
        Html.compare(Pos + 2, Open.back().Tag.size(), Open.back().Tag) != 0) {
      fail("unexpected closing tag");
      return;
    }
    Pos += 2 + Open.back().Tag.size();
    while (Pos < Html.size() && Html[Pos] != '>')
      ++Pos;
    if (Pos < Html.size())
      ++Pos;
    closeElement();
  }

  void parseElement() {
    ++Pos; // '<'
    std::string_view Tag = parseName();
    if (Tag.empty()) {
      fail("expected element name");
      return;
    }
    AttrText.clear();
    while (true) {
      skipSpace();
      if (Pos >= Html.size()) {
        fail("unterminated tag");
        return;
      }
      if (Html[Pos] == '>' || (Html[Pos] == '/' && Pos + 1 < Html.size() &&
                               Html[Pos + 1] == '>'))
        break;
      std::string_view Name = parseName();
      if (Name.empty()) {
        fail("expected attribute name");
        return;
      }
      std::string_view Text;
      skipSpace();
      if (Pos < Html.size() && Html[Pos] == '=') {
        ++Pos;
        skipSpace();
        size_t Start = Pos;
        if (Pos < Html.size() && (Html[Pos] == '"' || Html[Pos] == '\'')) {
          char Quote = Html[Pos++];
          Start = Pos;
          while (Pos < Html.size() && Html[Pos] != Quote)
            ++Pos;
          if (Pos >= Html.size()) {
            fail("unterminated attribute value");
            return;
          }
          Text = std::string_view(Html.data() + Start, Pos - Start);
          ++Pos;
        } else {
          while (Pos < Html.size() && !std::isspace(static_cast<unsigned char>(
                                          Html[Pos])) &&
                 Html[Pos] != '>')
            ++Pos;
          Text = std::string_view(Html.data() + Start, Pos - Start);
        }
      }
      AttrText.emplace_back(Name, Text);
    }
    TreeRef Attrs = Nil;
    for (auto It = AttrText.rbegin(); It != AttrText.rend(); ++It)
      Attrs = encodeAttr(It->first, It->second, Attrs);
    bool SelfClosing = Html[Pos] == '/';
    Pos += SelfClosing ? 2 : 1; // "/>" or '>'
    if (SelfClosing || isVoidTag(Tag))
      Siblings.push_back({Tag, Attrs, Nil});
    else
      Open.push_back({Tag, Attrs, Siblings.size()});
  }

  void closeElement() {
    OpenElement E = Open.back();
    Open.pop_back();
    TreeRef Children = foldSiblings(E.FirstChild);
    Siblings.push_back({E.Tag, E.Attrs, Children});
  }

  /// Encodes Siblings[First..] as a node chain ending in nil and pops them.
  TreeRef foldSiblings(size_t First) {
    TreeRef Next = Nil;
    for (size_t I = Siblings.size(); I-- > First;) {
      const Pending &P = Siblings[I];
      const Value Tag[] = {Value::string(std::string(P.Tag))};
      const TreeRef Kids[] = {P.Attrs, P.Children, Next};
      Next = Trees.make(Sig, CtorNode, Tag, Kids);
    }
    Siblings.resize(First);
    return Next;
  }

  /// `attr[Name](Text as a val-chain, Next)`.
  TreeRef encodeAttr(std::string_view Name, std::string_view Text,
                     TreeRef Next) {
    const Value NameVal[] = {Value::string(std::string(Name))};
    const TreeRef Kids[] = {encodeString(Text), Next};
    return Trees.make(Sig, CtorAttr, NameVal, Kids);
  }

  /// Encodes a string as a val-chain ending in nil (Figure 3).
  TreeRef encodeString(std::string_view Text) {
    TreeRef Chain = Nil;
    for (auto It = Text.rbegin(); It != Text.rend(); ++It) {
      const Value Char[] = {Value::string(std::string(1, *It))};
      const TreeRef Rest[] = {Chain};
      Chain = Trees.make(Sig, CtorVal, Char, Rest);
    }
    return Chain;
  }

  TreeFactory &Trees;
  const SignatureRef &Sig;
  const std::string &Html;
  TreeRef Nil = nullptr;
  size_t Pos = 0;
  std::string Message;
  size_t ErrorPos = 0;
  std::vector<OpenElement> Open;
  /// The sibling lists of every open element, outermost first.
  std::vector<Pending> Siblings;
  std::vector<std::pair<std::string_view, std::string_view>> AttrText;
};

/// Appends the characters of val-chain \p Chain to \p Out.
void appendChars(TreeRef Chain, std::string &Out) {
  for (; Chain->ctorId() == CtorVal; Chain = Chain->child(0))
    Out += Chain->attr(0).getString();
}

/// Renders a text node's text, or an element's opening tag and its text
/// runs; returns true when the element's children and closing tag are
/// still to come.
bool renderOpen(TreeRef Node, std::string &Out) {
  const std::string &Tag = Node->attr(0).getString();
  const bool IsText = Tag == "text";
  std::string TextRuns;
  if (!IsText) {
    Out += '<';
    Out += Tag;
  }
  for (TreeRef Attr = Node->child(0); Attr->ctorId() == CtorAttr;
       Attr = Attr->child(1)) {
    const std::string &Name = Attr->attr(0).getString();
    if (Name == "text") {
      appendChars(Attr->child(0), IsText ? Out : TextRuns);
    } else if (!IsText) {
      Out += ' ';
      Out += Name;
      Out += "=\"";
      appendChars(Attr->child(0), Out);
      Out += '"';
    }
  }
  if (IsText)
    return false;
  if (Node->child(1)->ctorId() == CtorNil && TextRuns.empty() &&
      isVoidTag(Tag)) {
    Out += " />";
    return false;
  }
  Out += '>';
  Out += TextRuns;
  return true;
}

} // namespace

TreeRef fast::html::parseHtml(Session &S, const SignatureRef &Sig,
                              const std::string &Html, std::string &Error) {
  return HtmlParser(S.Trees, Sig, Html).parse(Error);
}

std::string fast::html::renderHtml(TreeRef Doc) {
  std::string Out;
  std::vector<TreeRef> Open; // Elements whose closing tag is still due.
  TreeRef Node = Doc;
  while (true) {
    if (Node->ctorId() == CtorNode) {
      if (renderOpen(Node, Out)) {
        Open.push_back(Node);
        Node = Node->child(1);
      } else {
        Node = Node->child(2);
      }
      continue;
    }
    if (Open.empty())
      return Out;
    Out += "</";
    Out += Open.back()->attr(0).getString();
    Out += '>';
    Node = Open.back()->child(2);
    Open.pop_back();
  }
}

//===----------------------------------------------------------------------===//
// Synthetic page generation (the Section 5.1 workload)
//===----------------------------------------------------------------------===//

namespace {

class PageGenerator {
public:
  PageGenerator(unsigned Seed) : Rng(Seed) {}

  std::string generate(size_t TargetBytes) {
    std::string Out = "<html><head><title>synthetic page</title></head><body>";
    while (Out.size() + 64 < TargetBytes)
      emitElement(Out, /*Depth=*/0, TargetBytes);
    Out += "</body></html>";
    return Out;
  }

private:
  unsigned pick(unsigned Bound) {
    return std::uniform_int_distribution<unsigned>(0, Bound - 1)(Rng);
  }

  std::string word() {
    static const char *Words[] = {"lorem", "ipsum",  "dolor", "sit",
                                  "amet",  "beach",  "crime", "estate",
                                  "map",   "layer",  "tag",   "point"};
    return Words[pick(std::size(Words))];
  }

  void emitText(std::string &Out) {
    unsigned N = 3 + pick(8);
    for (unsigned I = 0; I < N; ++I) {
      Out += word();
      // Quote characters exercise the esc transducer.
      if (pick(12) == 0)
        Out += pick(2) ? '\'' : '"';
      Out += ' ';
    }
  }

  void emitElement(std::string &Out, unsigned Depth, size_t TargetBytes) {
    static const char *Tags[] = {"div", "span", "p",  "table", "tr",
                                 "td",  "ul",   "li", "b",     "a"};
    // A sprinkling of active content for the sanitizer stages to remove.
    if (pick(20) == 0) {
      Out += "<script>alert('x');</script>";
      return;
    }
    if (pick(40) == 0) {
      Out += "<iframe src=\"http://ads.example/f\"></iframe>";
      return;
    }
    const char *Tag = Tags[pick(std::size(Tags))];
    Out += '<';
    Out += Tag;
    if (pick(2)) {
      Out += " id=\"n";
      Out += std::to_string(pick(10000));
      Out += '"';
    }
    if (pick(3) == 0) {
      Out += " class=\"c";
      Out += std::to_string(pick(50));
      Out += '"';
    }
    if (pick(10) == 0)
      Out += " onclick=\"steal()\"";
    Out += '>';
    unsigned Kids = Depth >= 6 ? 0 : pick(3);
    for (unsigned I = 0; I < Kids && Out.size() + 64 < TargetBytes; ++I)
      emitElement(Out, Depth + 1, TargetBytes);
    emitText(Out);
    Out += "</";
    Out += Tag;
    Out += '>';
  }

  std::mt19937 Rng;
};

} // namespace

std::string fast::html::generatePage(size_t TargetBytes, unsigned Seed) {
  return PageGenerator(Seed).generate(TargetBytes);
}

//===----------------------------------------------------------------------===//
// Monolithic baseline (the HTML Purifier stand-in)
//===----------------------------------------------------------------------===//

namespace {

/// One-pass recursive sanitizer mirroring remScript-then-esc semantics.
class MonolithicSanitizer {
public:
  MonolithicSanitizer(Session &S, const SignatureRef &Sig) : S(S), Sig(Sig) {}

  TreeRef sanitizeNode(TreeRef Node) {
    if (Node->ctorId() == CtorNil)
      return Node;
    assert(Node->ctorId() == CtorNode && "expected a node chain");
    // Script elements vanish; processing continues with the next sibling.
    if (Node->attr(0).getString() == "script")
      return sanitizeNode(Node->child(2));
    const TreeRef Kids[] = {escapeAttrs(Node->child(0)),
                            sanitizeNode(Node->child(1)),
                            sanitizeNode(Node->child(2))};
    return S.Trees.make(Sig, CtorNode, Node->attrs(), Kids);
  }

private:
  TreeRef escapeAttrs(TreeRef Attr) {
    if (Attr->ctorId() == CtorNil)
      return Attr;
    assert(Attr->ctorId() == CtorAttr && "expected an attr chain");
    const TreeRef Kids[] = {escapeValue(Attr->child(0)),
                            escapeAttrs(Attr->child(1))};
    return S.Trees.make(Sig, CtorAttr, Attr->attrs(), Kids);
  }

  TreeRef escapeValue(TreeRef Val) {
    if (Val->ctorId() == CtorNil)
      return Val;
    const std::string &C = Val->attr(0).getString();
    const TreeRef Rest[] = {escapeValue(Val->child(0))};
    const TreeRef Kept[] = {S.Trees.make(Sig, CtorVal, Val->attrs(), Rest)};
    if (C == "'" || C == "\"")
      return S.Trees.make(Sig, CtorVal, Backslash, Kept);
    return Kept[0];
  }

  Session &S;
  const SignatureRef &Sig;
  const Value Backslash[1] = {Value::string("\\")};
};

} // namespace

TreeRef fast::html::monolithicSanitize(Session &S, const SignatureRef &Sig,
                                       TreeRef Doc) {
  return MonolithicSanitizer(S, Sig).sanitizeNode(Doc);
}

std::optional<std::string>
fast::html::sanitizeHtmlString(Session &S, const Sanitizer &Sani,
                               const std::string &Html, std::string &Error) {
  TreeRef Doc = parseHtml(S, Sani.Sig, Html, Error);
  if (!Doc)
    return std::nullopt;
  SttrRunner Runner(*Sani.Sani, S.Trees);
  vm::attachVm(Runner, S, *Sani.Sani, "sanitizer"); // fast path if eligible
  SttrRunResult Out = Runner.runChecked(Doc);
  if (Out.Outputs.empty()) {
    Error = "input is outside the sanitizer's domain";
    return std::nullopt;
  }
  if (Out.Truncated) {
    Error = "sanitizer output set was truncated; refusing to pick an "
            "arbitrary representative";
    return std::nullopt;
  }
  return renderHtml(Out.Outputs.front());
}
