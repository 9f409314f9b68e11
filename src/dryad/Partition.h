//===- dryad/Partition.h - Partitioned datasets ----------------*- C++ -*-===//
///
/// \file
/// Partitioning of flat buffers across vertices ("divide the data set into
/// partitions, and execute the query in parallel on each partition",
/// paper §6). Partitions hold owned copies so vertices can run with no
/// shared mutable state, mirroring a cluster where each machine holds its
/// partition on local disk.
///
//===----------------------------------------------------------------------===//

#ifndef STENO_DRYAD_PARTITION_H
#define STENO_DRYAD_PARTITION_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace steno {
namespace dryad {

/// Elements [Begin, Begin + Len) of one static partition.
struct PartRange {
  std::size_t Begin = 0;
  std::size_t Len = 0;
};

/// Range \p P of the \p Parts near-equal contiguous ranges that split
/// [0, Count); the first Count % Parts ranges hold one element more. The
/// one static partition: partitionBindings, the morsel scheduler's seed
/// shards, plinq's partitionSpan and the shard router's fan-out all cut
/// here, so the router's per-shard partials equal the in-process split's.
inline PartRange partitionRange(std::size_t Count, unsigned Parts,
                                unsigned P) {
  assert(P < Parts && "partition index out of range");
  std::size_t Base = Count / Parts, Extra = Count % Parts;
  return {P * Base + std::min<std::size_t>(P, Extra),
          Base + (P < Extra ? 1 : 0)};
}

/// One partition of a flat double dataset (optionally strided points).
struct DoublePartition {
  std::vector<double> Data;
  std::int64_t Dim = 1;

  std::int64_t count() const {
    return static_cast<std::int64_t>(Data.size()) / Dim;
  }
};

/// Splits \p Flat (Count x Dim doubles) into \p NumParts partitions along
/// the point axis (points are never split across partitions).
inline std::vector<DoublePartition>
partitionPoints(const std::vector<double> &Flat, std::int64_t Dim,
                unsigned NumParts) {
  assert(NumParts > 0 && "need at least one partition");
  assert(Dim > 0 && Flat.size() % static_cast<std::size_t>(Dim) == 0 &&
         "flat buffer is not a whole number of points");
  std::size_t D = static_cast<std::size_t>(Dim);
  std::vector<DoublePartition> Out(NumParts);
  for (unsigned P = 0; P != NumParts; ++P) {
    PartRange R = partitionRange(Flat.size() / D, NumParts, P);
    Out[P].Dim = Dim;
    Out[P].Data.assign(Flat.begin() + R.Begin * D,
                       Flat.begin() + (R.Begin + R.Len) * D);
  }
  return Out;
}

/// Splits \p Flat (Count doubles) into \p NumParts near-equal contiguous
/// partitions.
inline std::vector<DoublePartition>
partitionDoubles(const std::vector<double> &Flat, unsigned NumParts) {
  return partitionPoints(Flat, 1, NumParts);
}

} // namespace dryad
} // namespace steno

#endif // STENO_DRYAD_PARTITION_H
