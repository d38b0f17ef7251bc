//===- support/RelaxedCell.h - Single-writer relaxed atomic cell -*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A drop-in replacement for plain counter fields that must be readable by
/// a concurrent observer (the periodic metrics flusher's thread, or
/// perfbench reading counters mid-run) while a single writer mutates them.
/// Each cell wraps a std::atomic accessed with
/// relaxed ordering; compound updates are expressed as load-then-store,
/// NOT fetch_add, because every cell has exactly one writer at a time (the
/// session thread, or one worker thread before its shard is merged) and a
/// plain store avoids the LOCK prefix on x86 — the whole point is to keep
/// the hot increment as cheap as the plain `++field` it replaces while
/// making concurrent reads torn-free and race-free under tsan.
///
/// The implicit conversion, assignment, and compound operators preserve the
/// existing call-site idioms (`++C.Runs`, `C.WallMs += Ms`,
/// `Out << C.Runs`, `Counters = Stats()` reset-by-assignment,
/// pointer-to-member bumping) so converting a stats struct is a type change
/// only.  Cells are copyable (value snapshot at copy time), which plain
/// std::atomic is not.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_SUPPORT_RELAXEDCELL_H
#define FAST_SUPPORT_RELAXEDCELL_H

#include <atomic>

namespace fast {

template <typename T> class RelaxedCell {
public:
  constexpr RelaxedCell(T V = T()) noexcept : Value(V) {}
  RelaxedCell(const RelaxedCell &Other) noexcept : Value(Other.load()) {}
  RelaxedCell &operator=(const RelaxedCell &Other) noexcept {
    store(Other.load());
    return *this;
  }
  RelaxedCell &operator=(T V) noexcept {
    store(V);
    return *this;
  }

  operator T() const noexcept { return load(); }

  T load(std::memory_order Order = std::memory_order_relaxed) const noexcept {
    return Value.load(Order);
  }
  void store(T V,
             std::memory_order Order = std::memory_order_relaxed) noexcept {
    Value.store(V, Order);
  }

  RelaxedCell &operator+=(T Delta) noexcept {
    store(load() + Delta);
    return *this;
  }
  RelaxedCell &operator-=(T Delta) noexcept {
    store(load() - Delta);
    return *this;
  }
  RelaxedCell &operator++() noexcept {
    store(load() + T(1));
    return *this;
  }
  T operator++(int) noexcept {
    T V = load();
    store(V + T(1));
    return V;
  }

private:
  std::atomic<T> Value;
};

} // namespace fast

#endif // FAST_SUPPORT_RELAXEDCELL_H
