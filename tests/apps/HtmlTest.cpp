//===- tests/apps/HtmlTest.cpp - HTML case-study tests --------------------===//

#include "apps/Html.h"
#include "transducers/Run.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

using namespace fast;
using namespace fast::html;

namespace {

TEST(HtmlCodecTest, ParseSimpleDocument) {
  Session S;
  SignatureRef Sig = htmlSignature();
  std::string Error;
  TreeRef Doc = parseHtml(
      S, Sig, "<div id=\"a\"><b>hi</b></div><br />", Error);
  ASSERT_NE(Doc, nullptr) << Error;
  // Root chain: div then br then nil.
  EXPECT_EQ(Doc->ctorName(), "node");
  EXPECT_EQ(Doc->attr(0).getString(), "div");
  EXPECT_EQ(Doc->child(2)->attr(0).getString(), "br");
  EXPECT_EQ(Doc->child(2)->child(2)->ctorName(), "nil");
}

TEST(HtmlCodecTest, RoundTripPreservesStructure) {
  Session S;
  SignatureRef Sig = htmlSignature();
  std::string Error;
  const std::string Html =
      "<div id=\"x\" class=\"y\"><p>hello world</p>"
      "<ul><li>one</li><li>two</li></ul></div>";
  TreeRef Doc = parseHtml(S, Sig, Html, Error);
  ASSERT_NE(Doc, nullptr) << Error;
  std::string Rendered = renderHtml(Doc);
  // Re-parsing the rendering gives the same tree (canonical form).
  TreeRef Doc2 = parseHtml(S, Sig, Rendered, Error);
  ASSERT_NE(Doc2, nullptr) << Error;
  EXPECT_EQ(Doc, Doc2);
}

TEST(HtmlCodecTest, ParseErrors) {
  Session S;
  SignatureRef Sig = htmlSignature();
  std::string Error;
  EXPECT_EQ(parseHtml(S, Sig, "</div>", Error), nullptr);
  EXPECT_EQ(parseHtml(S, Sig, "<div", Error), nullptr);
  EXPECT_EQ(parseHtml(S, Sig, "<div id=\"x>", Error), nullptr);
}

TEST(HtmlCodecTest, CommentsAndVoidTags) {
  Session S;
  SignatureRef Sig = htmlSignature();
  std::string Error;
  TreeRef Doc = parseHtml(
      S, Sig, "<!-- note --><p>a<br>b</p><img src=\"i.png\">", Error);
  ASSERT_NE(Doc, nullptr) << Error;
  EXPECT_EQ(Doc->attr(0).getString(), "p");
}

/// Parses \p Html, which must encode a tree at least \p MinDepth deep, and
/// checks that rendering reproduces it.
void expectRoundTrip(const std::string &Html, unsigned MinDepth) {
  Session S;
  std::string Error;
  TreeRef Doc = parseHtml(S, htmlSignature(), Html, Error);
  ASSERT_NE(Doc, nullptr) << Error;
  EXPECT_GE(Doc->depth(), MinDepth);
  EXPECT_EQ(renderHtml(Doc), Html);
}

TEST(HtmlCodecTest, LongSiblingListRoundTrips) {
  // Each sibling is the next child of the one before in HtmlE.
  std::string Html;
  for (int I = 0; I < 50000; ++I)
    Html += "<p>x</p>";
  expectRoundTrip(Html, 50000);
}

TEST(HtmlCodecTest, DeepNestingRoundTrips) {
  std::string Html;
  for (int I = 0; I < 50000; ++I)
    Html += "<div>";
  for (int I = 0; I < 50000; ++I)
    Html += "</div>";
  expectRoundTrip(Html, 50000);
}

TEST(HtmlGenTest, PagesHitTargetSizesDeterministically) {
  Session S;
  SignatureRef Sig = htmlSignature();
  for (size_t Target : {20u << 10, 100u << 10}) {
    std::string Page = generatePage(Target, /*Seed=*/5);
    EXPECT_GE(Page.size(), Target * 9 / 10);
    EXPECT_LE(Page.size(), Target * 11 / 10);
    EXPECT_EQ(Page, generatePage(Target, /*Seed=*/5));
    std::string Error;
    TreeRef Doc = parseHtml(S, Sig, Page, Error);
    EXPECT_NE(Doc, nullptr) << Error;
  }
}

TEST(HtmlGenTest, GeneratedPagesAreWellFormedEncodings) {
  Session S;
  Sanitizer Sani = buildSanitizer(S);
  std::string Error;
  TreeRef Doc =
      parseHtml(S, Sani.Sig, generatePage(8 << 10, /*Seed=*/9), Error);
  ASSERT_NE(Doc, nullptr) << Error;
  EXPECT_TRUE(Sani.NodeTree.contains(Doc));
}

/// True if some node of \p T carries the given tag.
bool containsTag(TreeRef T, const std::string &Tag) {
  if (T->attr(0).getString() == Tag)
    return true;
  for (TreeRef C : T->children())
    if (containsTag(C, Tag))
      return true;
  return false;
}

TEST(SanitizerTest, ComposedMatchesMonolithicBaseline) {
  Session S;
  Sanitizer Sani = buildSanitizer(S);
  for (unsigned Seed : {1u, 2u, 3u}) {
    std::string Error;
    TreeRef Doc =
        parseHtml(S, Sani.Sig, generatePage(6 << 10, Seed), Error);
    ASSERT_NE(Doc, nullptr) << Error;
    std::vector<TreeRef> Out = runSttr(*Sani.Sani, S.Trees, Doc);
    ASSERT_EQ(Out.size(), 1u);
    // The hand-written one-pass baseline agrees with the composed,
    // restricted transducer pipeline on real pages.
    EXPECT_EQ(Out.front(), monolithicSanitize(S, Sani.Sig, Doc));
    EXPECT_FALSE(containsTag(Out.front(), "script"));
  }
}

/// True if some attr node of \p T carries the given name.
bool containsAttr(TreeRef T, const std::string &Name) {
  if (T->ctorName() == "attr" && T->attr(0).getString() == Name)
    return true;
  for (TreeRef C : T->children())
    if (containsAttr(C, Name))
      return true;
  return false;
}

TEST(SanitizerTest, MultiStagePipelineMatchesSequentialStages) {
  Session S;
  html::SanitizerPipeline P = html::buildSanitizerPipeline(S);
  ASSERT_EQ(P.Stages.size(), 4u);
  for (unsigned Seed : {11u, 12u}) {
    std::string Error;
    TreeRef Doc = html::parseHtml(S, P.Sig, html::generatePage(8 << 10, Seed),
                                  Error);
    ASSERT_NE(Doc, nullptr) << Error;
    // Sequential: run each stage, feeding the output forward.
    TreeRef Current = Doc;
    for (const auto &Stage : P.Stages) {
      std::vector<TreeRef> Out = runSttr(*Stage, S.Trees, Current);
      ASSERT_EQ(Out.size(), 1u);
      Current = Out.front();
    }
    // Fused: one traversal.
    std::vector<TreeRef> Fused = runSttr(*P.Composed, S.Trees, Doc);
    ASSERT_EQ(Fused.size(), 1u);
    EXPECT_EQ(Fused.front(), Current);
    // All active content is gone.
    for (const char *Tag : {"script", "iframe", "object", "embed", "form"})
      EXPECT_FALSE(containsTag(Fused.front(), Tag)) << Tag;
    for (const char *Attr : {"onclick", "onload", "onerror"})
      EXPECT_FALSE(containsAttr(Fused.front(), Attr)) << Attr;
  }
}

TEST(SanitizerTest, PipelineStagesVerifyIndividually) {
  // Each removal stage type-checks against its own bad-output language:
  // no input can make remEmbeds emit an iframe node.
  Session S;
  html::SanitizerPipeline P = html::buildSanitizerPipeline(S);
  TermFactory &F = S.Terms;
  auto BadTag = [&](const std::string &Tag) {
    auto A = std::make_shared<Sta>(P.Sig);
    unsigned Q = A->addState("bad" + Tag);
    TermRef T = P.Sig->attrTerm(F, 0);
    unsigned Node = *P.Sig->findConstructor("node");
    A->addRule(Q, Node, F.mkEq(T, F.stringConst(Tag)), {{}, {}, {}});
    A->addRule(Q, Node, F.trueTerm(), {{}, {Q}, {}});
    A->addRule(Q, Node, F.trueTerm(), {{}, {}, {Q}});
    return TreeLanguage(A, Q);
  };
  EXPECT_TRUE(isEmptyLanguage(
      S.Solv, preImageLanguage(S.Solv, *P.Stages[1], BadTag("iframe"))));
  // But remEmbeds does NOT remove scripts; the composed pipeline does.
  EXPECT_FALSE(isEmptyLanguage(
      S.Solv, preImageLanguage(S.Solv, *P.Stages[1], BadTag("script"))));
  EXPECT_TRUE(isEmptyLanguage(
      S.Solv, preImageLanguage(S.Solv, *P.Composed, BadTag("script"))));
  EXPECT_TRUE(isEmptyLanguage(
      S.Solv, preImageLanguage(S.Solv, *P.Composed, BadTag("iframe"))));
}

TEST(SanitizerTest, StringLevelApi) {
  Session S;
  html::Sanitizer Sani = html::buildSanitizer(S);
  std::string Error;
  std::optional<std::string> Out = html::sanitizeHtmlString(
      S, Sani, "<div id='e\"'><script>a</script></div><br />", Error);
  ASSERT_TRUE(Out.has_value()) << Error;
  // The Figure 3 example's expected result.
  EXPECT_EQ(*Out, "<div id=\"e\\\"\"></div><br />");
  // Malformed input is rejected with a diagnostic, not mangled.
  EXPECT_FALSE(html::sanitizeHtmlString(S, Sani, "</div>", Error).has_value());
  EXPECT_FALSE(Error.empty());
}

// The set-up and the data path decide every guard below Z3, so the
// session never pays for a Z3 context.
TEST(SanitizerTest, DataPathBuildsNoZ3Context) {
  Session S;
  html::Sanitizer Sani = html::buildSanitizer(S, /*FixBug=*/true);
  std::string Error;
  ASSERT_TRUE(vm::compiledProgram(S, *Sani.Sani, &Error, "sanitizer"))
      << Error;
  std::optional<std::string> Out = html::sanitizeHtmlString(
      S, Sani, html::generatePage(/*TargetBytes=*/8 << 10, /*Seed=*/5), Error);
  ASSERT_TRUE(Out.has_value()) << Error;
  EXPECT_EQ(S.stats().vm().Runs, 1u);
  EXPECT_EQ(S.Solv.stats().Z3Checks, 0u);
  EXPECT_FALSE(S.Solv.hasZ3Context());
}

/// \p Bytes letters and spaces with a quote every 11 bytes; \p Quotes are
/// used in turn.
std::string quotedText(size_t Bytes, const std::string &Quotes) {
  std::string Text;
  Text.reserve(Bytes);
  for (size_t I = 0; I < Bytes; ++I)
    Text += I % 11 == 10 ? Quotes[(I / 11) % Quotes.size()]
                         : " abcdefghij"[I % 11];
  return Text;
}

/// What the sanitizer makes of a character chain: \ before ' and ".
std::string escapedQuotes(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size() + Text.size() / 10);
  for (char C : Text) {
    if (C == '\'' || C == '"')
      Out += '\\';
    Out += C;
  }
  return Out;
}

// Text and attribute values are character chains as long as the string;
// the VM runs them as loops, so no length exhausts the (default) stack.
TEST(SanitizerTest, LongTextRunSanitizes) {
  Session S;
  Sanitizer Sani = buildSanitizer(S);
  const std::string Text = quotedText(1000000, "'\"");
  std::string Error;
  std::optional<std::string> Out =
      sanitizeHtmlString(S, Sani, "<p>" + Text + "</p>", Error);
  ASSERT_TRUE(Out.has_value()) << Error;
  EXPECT_TRUE(*Out == "<p>" + escapedQuotes(Text) + "</p>");
}

TEST(SanitizerTest, LongAttributeValueSanitizes) {
  Session S;
  Sanitizer Sani = buildSanitizer(S);
  const std::string Value = quotedText(1000000, "'");
  std::string Error;
  std::optional<std::string> Out = sanitizeHtmlString(
      S, Sani, "<p title=\"" + Value + "\"></p>", Error);
  ASSERT_TRUE(Out.has_value()) << Error;
  EXPECT_TRUE(*Out == "<p title=\"" + escapedQuotes(Value) + "\"></p>");
}

TEST(SanitizerTest, FixedSanitizerTypeChecks) {
  Session S;
  Sanitizer Fixed = buildSanitizer(S, /*FixBug=*/true);
  TreeLanguage BadInputs =
      preImageLanguage(S.Solv, *Fixed.Sani, Fixed.BadOutput);
  EXPECT_TRUE(isEmptyLanguage(S.Solv, BadInputs));
}

TEST(SanitizerTest, BuggySanitizerHasCounterexample) {
  Session S;
  Sanitizer Buggy = buildSanitizer(S, /*FixBug=*/false);
  TreeLanguage BadInputs =
      preImageLanguage(S.Solv, *Buggy.Sani, Buggy.BadOutput);
  std::optional<TreeRef> W = witness(S.Solv, BadInputs, S.Trees);
  ASSERT_TRUE(W.has_value());
  // Confirm dynamically: sanitizing the witness leaves a script node.
  std::vector<TreeRef> Out = runSttr(*Buggy.Sani, S.Trees, *W);
  ASSERT_FALSE(Out.empty());
  bool SomeBad = false;
  for (TreeRef O : Out)
    SomeBad |= containsTag(O, "script");
  EXPECT_TRUE(SomeBad) << (*W)->str();
}

} // namespace
