//===- engine/StateInterner.h - Canonical dense-id interning ----*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical interning of construction states: every reachable-state
/// fixpoint of the codebase (merged state-sets in normalization, subset
/// states in determinization, pair states in composition and pre-image
/// building) needs a map from a structured key to a dense unsigned id that
/// doubles as the output automaton's state id.  StateInterner replaces the
/// per-algorithm `std::map` + vector pairs with one audited implementation
/// whose key storage is reference-stable, so expansion callbacks may hold a
/// key reference across further interning.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_ENGINE_STATEINTERNER_H
#define FAST_ENGINE_STATEINTERNER_H

#include "engine/Stats.h"

#include <cassert>
#include <map>
#include <optional>
#include <vector>

namespace fast::engine {

/// Interns keys of type \p Key to dense ids 0, 1, 2, ... in first-seen
/// order.  Keys must be canonical before interning (e.g. sorted state
/// sets); the interner compares them with \p Compare only.
template <typename Key, typename Compare = std::less<Key>> class StateInterner {
public:
  /// \p Stats, when given, receives a StatesInterned increment per fresh key.
  explicit StateInterner(ConstructionStats *Stats = nullptr) : Stats(Stats) {}

  struct InternResult {
    unsigned Id;
    bool Fresh;
  };

  /// Returns the id of \p K, assigning the next dense id if unseen.
  InternResult intern(Key K) {
    auto [It, Fresh] = Ids.emplace(std::move(K), size());
    if (Fresh) {
      Keys.push_back(&It->first);
      if (Stats)
        ++Stats->StatesInterned;
    }
    return {It->second, Fresh};
  }

  /// The id of \p K, or nullopt if never interned.
  std::optional<unsigned> lookup(const Key &K) const {
    auto It = Ids.find(K);
    if (It == Ids.end())
      return std::nullopt;
    return It->second;
  }

  /// The key interned as \p Id.  The reference is stable across further
  /// interning (map-node storage).
  const Key &key(unsigned Id) const {
    assert(Id < Keys.size() && "interner id out of range");
    return *Keys[Id];
  }

  unsigned size() const { return static_cast<unsigned>(Keys.size()); }

private:
  ConstructionStats *Stats;
  std::map<Key, unsigned, Compare> Ids;
  std::vector<const Key *> Keys;
};

} // namespace fast::engine

#endif // FAST_ENGINE_STATEINTERNER_H
