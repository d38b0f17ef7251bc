//===- apps/Html.h - HTML sanitization case study ---------------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HTML sanitization case study of Sections 2 and 5.1: the HtmlE
/// binary encoding of DOM trees (Figure 3), a small HTML parser/renderer
/// for that encoding, the Figure 2 sanitizer written in Fast (buggy and
/// fixed variants), a deterministic synthetic page generator standing in
/// for the paper's 10 downloaded pages (20 KB Bing ... 409 KB Facebook),
/// and a hand-written monolithic sanitizer baseline standing in for HTML
/// Purifier.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_APPS_HTML_H
#define FAST_APPS_HTML_H

#include "fast/Fast.h"

#include <optional>

namespace fast {
namespace html {

/// The HtmlE signature of Figure 2 line 2.
SignatureRef htmlSignature();

/// The Figure 2 Fast program (types, languages, sanitizers, analysis).
/// With \p FixBug false, remScript's script case copies x3 verbatim (the
/// paper's bug); with true it recurses (the fix).
std::string sanitizerFastSource(bool FixBug);

/// Compiled artifacts of the Figure 2 program.
struct Sanitizer {
  SignatureRef Sig;
  std::shared_ptr<Sttr> RemScript;
  std::shared_ptr<Sttr> Esc;
  std::shared_ptr<Sttr> RemEsc; ///< compose(remScript, esc)
  std::shared_ptr<Sttr> Sani;   ///< restrict(RemEsc, nodeTree)
  TreeLanguage NodeTree;
  TreeLanguage BadOutput;
};

/// Runs the Figure 2 program in \p S and extracts the compiled pieces.
/// Aborts (assert) if the embedded program fails to compile.
Sanitizer buildSanitizer(Session &S, bool FixBug = true);

/// Parses (a pragmatic subset of) HTML into the HtmlE encoding: elements
/// with attributes, text, self-closing and void tags, comments skipped.
/// Any nesting depth and sibling count parses without recursion.  Returns
/// nullptr and fills \p Error on malformed input (nodes interned before
/// the error stay in the session's factory).
TreeRef parseHtml(Session &S, const SignatureRef &Sig, const std::string &Html,
                  std::string &Error);

/// Renders an HtmlE tree back to HTML text, without recursion.
std::string renderHtml(TreeRef Doc);

/// Generates a deterministic synthetic HTML page of roughly \p TargetBytes
/// bytes (nested divs/spans/tables, attributes, text, and a sprinkling of
/// script elements and quote characters so the sanitizer has work to do).
std::string generatePage(size_t TargetBytes, unsigned Seed);

/// The monolithic baseline: a direct recursive sanitizer over HtmlE trees
/// (remove script subtrees, escape ' and " in attribute values) written
/// the way HTML Purifier-style libraries are: one pass, one function.
TreeRef monolithicSanitize(Session &S, const SignatureRef &Sig, TreeRef Doc);

/// A realistic multi-stage sanitizer in the style Section 5.1 argues for:
/// each concern is an independent Fast transformation (remove scripts,
/// remove dangerous embeds, strip event-handler attributes, escape
/// quotes), and composition fuses them into a single-traversal pipeline.
struct SanitizerPipeline {
  SignatureRef Sig;
  /// The stages, in application order.
  std::vector<std::shared_ptr<Sttr>> Stages;
  /// compose(stage_1, ..., stage_n): one pass over the input.
  std::shared_ptr<Sttr> Composed;
};

/// Compiles the multi-stage sanitizer from its Fast source.
SanitizerPipeline buildSanitizerPipeline(Session &S);

/// The end-user API a sanitizer library exports: HTML text in, sanitized
/// HTML text out, through the verified transducer pipeline (parse to
/// HtmlE, run \p Sani.Sani once, render).  Returns nullopt and fills
/// \p Error on malformed input or when the input falls outside the
/// sanitizer's domain.
std::optional<std::string> sanitizeHtmlString(Session &S,
                                              const Sanitizer &Sani,
                                              const std::string &Html,
                                              std::string &Error);

/// The Fast source of the multi-stage sanitizer.
std::string sanitizerPipelineFastSource();

} // namespace html
} // namespace fast

#endif // FAST_APPS_HTML_H
