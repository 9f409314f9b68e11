//===- steno/QueryCache.cpp -----------------------------------*- C++ -*-===//

#include "steno/QueryCache.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cmath>

using namespace steno;

namespace {

/// The options half of the cache key: every field except Name.
CompileOptions keyOptions(CompileOptions Options) {
  Options.Name.clear();
  return Options;
}

} // namespace

std::vector<QueryCache::Entry>::const_iterator
QueryCache::find(const std::vector<Entry> &Bucket, const quil::Chain &Chain,
                 const CompileOptions &Options) {
  CompileOptions Key = keyOptions(Options);
  return std::find_if(Bucket.begin(), Bucket.end(), [&](const Entry &E) {
    return E.Options == Key && quil::equalChains(E.Chain, Chain);
  });
}

CompiledQuery QueryCache::getOrCompile(const query::Query &Q,
                                       const CompileOptions &Options) {
  static obs::Counter &HitCount = obs::counter("steno.cache.hits");
  static obs::Counter &MissCount = obs::counter("steno.cache.misses");
  static obs::Counter &SavedMs =
      obs::counter("steno.cache.compile_ms_saved");

  obs::Span Span("steno.cache.getOrCompile");
  quil::Chain Chain = quil::lower(Q);
  std::uint64_t Key = quil::hashChain(Chain);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Buckets.find(Key);
    if (It != Buckets.end()) {
      auto E = find(It->second, Chain, Options);
      if (E != It->second.end()) {
        Hits.fetch_add(1, std::memory_order_relaxed);
        HitCount.inc();
        SavedMs.inc(static_cast<std::uint64_t>(
            std::llround(E->Compiled.compileMillis())));
        return E->Compiled;
      }
    }
  }
  // Compile outside the lock (compilation can take hundreds of ms). A
  // concurrent getOrCompile for the same key may be compiling too; the
  // re-scan inside insert() makes the first finisher canonical and drops
  // the duplicate module, so every caller shares one entry.
  CompiledQuery Compiled = compileQuery(Q, Options);
  Misses.fetch_add(1, std::memory_order_relaxed);
  MissCount.inc();
  return insert(Q, Options, std::move(Compiled));
}

CompiledQuery QueryCache::lookup(const query::Query &Q,
                                 const CompileOptions &Options) const {
  quil::Chain Chain = quil::lower(Q);
  std::uint64_t Key = quil::hashChain(Chain);
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Buckets.find(Key);
  if (It == Buckets.end())
    return CompiledQuery();
  auto E = find(It->second, Chain, Options);
  return E != It->second.end() ? E->Compiled : CompiledQuery();
}

CompiledQuery QueryCache::insert(const query::Query &Q,
                                 const CompileOptions &Options,
                                 CompiledQuery Compiled) {
  static obs::Counter &DupDroppedCount =
      obs::counter("steno.cache.duplicate_compiles_dropped");
  quil::Chain Chain = quil::lower(Q);
  std::uint64_t Key = quil::hashChain(Chain);
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<Entry> &Bucket = Buckets[Key];
  auto E = find(Bucket, Chain, Options);
  if (E != Bucket.end()) {
    DupDropped.fetch_add(1, std::memory_order_relaxed);
    DupDroppedCount.inc();
    return E->Compiled; // first insert won; drop the duplicate
  }
  Bucket.push_back(Entry{std::move(Chain), keyOptions(Options), Compiled});
  return Compiled;
}

std::size_t QueryCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::size_t N = 0;
  for (const auto &[Key, Entries] : Buckets)
    N += Entries.size();
  return N;
}

void QueryCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Buckets.clear();
}

QueryCache &QueryCache::global() {
  static QueryCache Cache;
  return Cache;
}
