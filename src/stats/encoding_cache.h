#ifndef SCODED_STATS_ENCODING_CACHE_H_
#define SCODED_STATS_ENCODING_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "table/column.h"

namespace scoded {

/// Memoises the per-(column, row subset) encodings that dominate batch
/// checking and PC discovery: the categorical/quantile-bin codes produced
/// by the hypothesis dispatcher's `EncodeAsCategorical`, and the composite
/// stratification keys derived per conditioning column (which embed a
/// `DenseRanks` distinct-count plus quantile binning for numeric columns).
/// Without it, a k-constraint batch over one table re-encodes each shared
/// column O(k) times, and every PC conditioning level re-encodes the same
/// (column, stratum) pairs for each (i, j) it tests.
///
/// Keying: `(column identity, encoding kind, parameter, row-set
/// signature)`. The column identity is the column's address — valid
/// because a cache instance is scoped to one run over one immutable
/// `Table` (it lives in `Scoded::CheckAll`, `LearnPcStructure`, or a
/// caller-owned batch), never across tables. The row-set signature is a
/// 64-bit FNV-1a hash of the row indices plus the row count; two row
/// subsets colliding on both is negligible at run scale.
///
/// Thread safety: all methods are safe to call concurrently; the parallel
/// strata/constraint loops share one instance. Values are returned as
/// `shared_ptr<const ...>` so a hit never copies and eviction never
/// invalidates a borrowed encoding.
///
/// Invalidation: none within a run — the table is immutable. Drop (or
/// `Clear()`) the cache when the underlying table changes; keeping one
/// across mutations returns stale codes. When the entry count exceeds
/// `max_entries` the cache clears wholesale (the recurrence pattern is
/// batch-shaped, so LRU juggling buys nothing over restarting).
class ColumnEncodingCache {
 public:
  /// What a cached vector represents; part of the key so the same
  /// (column, rows) can hold both its codes and its stratum keys.
  enum class Kind : uint8_t {
    kCategoricalCodes,  ///< int32 codes + cardinality (EncodeAsCategorical)
    kStratumKeys,       ///< int64 per-row composite-key column (StratifyRows)
  };

  struct Encoding {
    std::vector<int32_t> codes;
    size_t cardinality = 0;
  };

  explicit ColumnEncodingCache(size_t max_entries = 1 << 16)
      : max_entries_(max_entries) {}

  ColumnEncodingCache(const ColumnEncodingCache&) = delete;
  ColumnEncodingCache& operator=(const ColumnEncodingCache&) = delete;

  /// 64-bit signature of a row subset: FNV-1a over the row indices with
  /// the count mixed in both before and after the elements (so a set and
  /// its prefix extension can never share a running state), then an
  /// avalanche finalizer. Callers encoding several columns over the same
  /// rows should compute it once and reuse it.
  static uint64_t RowsSignature(const std::vector<size_t>& rows);

  /// Returns the cached categorical encoding of `column` over the row set
  /// with signature `rows_sig`, computing it via `compute` on a miss.
  /// `param` disambiguates encodings of the same column under different
  /// discretisation settings (bin count).
  std::shared_ptr<const Encoding> GetOrComputeCodes(
      const Column& column, uint64_t rows_sig, int param,
      const std::function<Encoding()>& compute);

  /// As above for a per-row stratification key column (int64 composite
  /// keys; see StratifyRows). `param` packs the binning policy.
  std::shared_ptr<const std::vector<int64_t>> GetOrComputeKeys(
      const Column& column, uint64_t rows_sig, int param,
      const std::function<std::vector<int64_t>()>& compute);

  void Clear();

  /// Lifetime hit/miss counts (also exported as the process-wide
  /// `stats.encode_cache_hits` / `stats.encode_cache_misses` metrics).
  size_t hits() const;
  size_t misses() const;
  size_t size() const;

 private:
  struct Key {
    const void* column;
    uint64_t rows_sig;
    int64_t param_and_kind;
    bool operator==(const Key& other) const {
      return column == other.column && rows_sig == other.rows_sig &&
             param_and_kind == other.param_and_kind;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    std::shared_ptr<const Encoding> encoding;
    std::shared_ptr<const std::vector<int64_t>> keys;
  };

  // On a miss `compute` runs *outside* the lock: two threads racing on the
  // same key may both compute (the results are identical — compute is a
  // pure function of the key), but the mutex never guards an O(n log n)
  // encode, so cache lookups cannot serialise the parallel loops.
  void EvictIfFullLocked();

  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  size_t max_entries_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace scoded

#endif  // SCODED_STATS_ENCODING_CACHE_H_
