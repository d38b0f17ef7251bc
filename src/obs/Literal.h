//===- obs/Literal.h - Strings with static storage duration -----*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#ifndef FAST_OBS_LITERAL_H
#define FAST_OBS_LITERAL_H

#include <cstddef>
#include <string_view>

namespace fast::obs {

/// A string with static storage duration.  The consteval constructor
/// accepts only string literals, so the event strings that worker buffers
/// keep past the emitting call can never dangle.
class Literal {
public:
  template <size_t N>
  consteval Literal(const char (&S)[N]) : Data(S), Size(N - 1) {}
  constexpr std::string_view view() const { return {Data, Size}; }
  constexpr operator std::string_view() const { return view(); }

private:
  const char *Data;
  size_t Size;
};

} // namespace fast::obs

#endif // FAST_OBS_LITERAL_H
