//===- steno/RtSinks.h - Group sinks of Steno-generated code ---*- C++ -*-===//
//
// Part of the Steno/C++ reproduction of Murray, Isard & Yu,
// "Steno: Automatic Optimization of Declarative Queries" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sink collections generated GroupBy loops build: the Lookup of
/// Figure 7(b) and the partial-aggregate sinks of §4.3. Like steno/Rt.h,
/// whose lean core they extend, they are defined once for every backend:
/// the scalar interpreter builds these same objects. They live apart from
/// Rt.h because <unordered_map> and <vector> cost g++ more to parse than a
/// query's loop costs to compile, so only a TU that declares a group sink
/// includes this header.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_STENO_RTSINKS_H
#define STENO_STENO_RTSINKS_H

#include "steno/Rt.h"

#include <unordered_map>
#include <utility>
#include <vector>

namespace steno {
namespace rt {

/// Insertion-ordered int64 -> bag-of-doubles multi-map: the Lookup of
/// Figure 7(b), built by GroupBy sinks.
class GroupSink {
public:
  void put(std::int64_t Key, double Value) {
    auto It = Index.find(Key);
    std::size_t Slot;
    if (It == Index.end()) {
      Slot = Buckets.size();
      Index.emplace(Key, Slot);
      Buckets.emplace_back(Key, std::vector<double>());
    } else {
      Slot = It->second;
    }
    Buckets[Slot].second.push_back(Value);
  }

  std::int64_t size() const {
    return static_cast<std::int64_t>(Buckets.size());
  }

  Pair<std::int64_t, VecView> group(std::int64_t I) const {
    const auto &Bucket = Buckets[static_cast<std::size_t>(I)];
    return {Bucket.first,
            VecView{Bucket.second.data(),
                    static_cast<std::int64_t>(Bucket.second.size())}};
  }

private:
  std::vector<std::pair<std::int64_t, std::vector<double>>> Buckets;
  std::unordered_map<std::int64_t, std::size_t> Index;
};

/// Insertion-ordered int64 -> partial-accumulator map: the specialized
/// GroupByAggregate sink of §4.3. slot() returns a mutable reference,
/// inserting the seed on the key's first appearance.
template <typename A> class GroupAggSink {
public:
  A &slot(std::int64_t Key, const A &Seed) {
    auto It = Index.find(Key);
    if (It != Index.end())
      return Entries[It->second].second;
    std::size_t Slot = Entries.size();
    Index.emplace(Key, Slot);
    Entries.emplace_back(Key, Seed);
    return Entries[Slot].second;
  }

  std::int64_t size() const {
    return static_cast<std::int64_t>(Entries.size());
  }

  std::int64_t keyAt(std::int64_t I) const {
    return Entries[static_cast<std::size_t>(I)].first;
  }

  const A &accAt(std::int64_t I) const {
    return Entries[static_cast<std::size_t>(I)].second;
  }

private:
  std::vector<std::pair<std::int64_t, A>> Entries;
  std::unordered_map<std::int64_t, std::size_t> Index;
};

/// Dense-key partial-aggregate sink (the closing optimization of §4.3):
/// when the keys are known to lie in [0, NumKeys), one flat array of
/// accumulators replaces the hash table — O(1) access with no hashing.
/// Every key in range is reported, untouched slots carrying the seed. A
/// key outside the range breaks the query's promise and traps with ST2007.
template <typename A> class DenseAggSink {
public:
  DenseAggSink(std::int64_t NumKeys, const A &Seed)
      : Slots(static_cast<std::size_t>(NumKeys < 0 ? 0 : NumKeys), Seed) {}

  A &slot(std::int64_t Key) {
    if (Key < 0 || Key >= size())
      trap(Trap::DenseKey);
    return Slots[static_cast<std::size_t>(Key)];
  }

  std::int64_t size() const {
    return static_cast<std::int64_t>(Slots.size());
  }

  std::int64_t keyAt(std::int64_t I) const { return I; }

  const A &accAt(std::int64_t I) const {
    return Slots[static_cast<std::size_t>(I)];
  }

private:
  std::vector<A> Slots;
};

} // namespace rt
} // namespace steno

#endif // STENO_STENO_RTSINKS_H
