#ifndef SCODED_STATS_RANKS_H_
#define SCODED_STATS_RANKS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/result.h"

namespace scoded {

/// Strict weak ordering over doubles that is total even in the presence of
/// NaN: ordinary numbers compare by `<`, every number orders before NaN,
/// and all NaNs are equivalent to each other. Numeric nulls surface as NaN
/// in several call paths (Column::NumericAt on a null cell, strtod-parsed
/// "nan" literals), and `std::sort` with the raw `<` on such data violates
/// the strict-weak-ordering contract — undefined behaviour. Every sorted
/// container or sort call in this library that may see NaN must use this.
struct NanAwareLess {
  bool operator()(double a, double b) const {
    if (std::isnan(a)) {
      return false;  // NaN is never less than anything (including NaN)
    }
    if (std::isnan(b)) {
      return true;  // every number orders before NaN
    }
    return a < b;
  }
};

/// Equality under NanAwareLess: `a == b`, or both NaN.
inline bool NanAwareEqual(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// Order-preserving 64-bit key of a double under NanAwareLess and
/// NanAwareEqual: numbers in numeric order (-0.0 and +0.0 share a key),
/// and every NaN payload maps to the single top key. Comparing keys as
/// unsigned integers gives exactly the NanAwareLess order.
inline uint64_t NanAwareKey(double v) {
  if (std::isnan(v)) {
    return ~uint64_t{0};
  }
  if (v == 0.0) {
    v = 0.0;  // collapse -0.0
  }
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits & (uint64_t{1} << 63)) != 0 ? ~bits : (bits | (uint64_t{1} << 63));
}

/// Dense ranks: maps each value to its 0-based rank among the distinct
/// sorted values ("coordinate compression"). Equal values share a rank.
/// NaNs are grouped as one distinct value ranked after every number.
/// Returns the ranks; `num_distinct` (if non-null) receives the number of
/// distinct values (the NaN group counts as one).
std::vector<size_t> DenseRanks(const std::vector<double>& values, size_t* num_distinct = nullptr);

/// Average (midrank) ranks, 1-based, as used by Spearman's ρ: tied values
/// receive the mean of the ranks they occupy. NaNs form one tie run
/// ordered after every number.
std::vector<double> AverageRanks(const std::vector<double>& values);

/// Assigns each value to one of `bins` quantile buckets (0-based codes).
/// Used to discretise a numeric column for the G-test when it is paired
/// with a categorical column. Cut points are computed over the non-NaN
/// values only; a NaN input maps to code -1 (the null convention).
/// Degenerate distributions collapse to fewer buckets. Requires bins >= 1.
std::vector<int32_t> QuantileBins(const std::vector<double>& values, int bins);

/// Checked variants for callers passing unfiltered column values: they
/// return InvalidArgumentError when any input is NaN instead of applying
/// the NaN-partitioning conventions above.
Result<std::vector<size_t>> DenseRanksChecked(const std::vector<double>& values,
                                              size_t* num_distinct = nullptr);
Result<std::vector<double>> AverageRanksChecked(const std::vector<double>& values);
Result<std::vector<int32_t>> QuantileBinsChecked(const std::vector<double>& values, int bins);

/// Interior quantile cut points over an ascending, NaN-free sequence of
/// values: cut b (for b = 1..bins-1) is sorted[min(n-1, floor(b*n/bins))],
/// deduplicated. This is the exact arithmetic QuantileBins uses, exposed so
/// out-of-core summaries can reproduce its cuts from (value, count) maps.
std::vector<double> QuantileCutsFromSorted(const std::vector<double>& sorted, int bins);

/// Same cuts computed from ascending (value, count) pairs without
/// materialising the expanded sequence. NaN entries must be excluded by
/// the caller. Bit-identical to QuantileCutsFromSorted on the expansion.
std::vector<double> QuantileCutsFromCounts(const std::vector<std::pair<double, int64_t>>& counts,
                                           int bins);

/// Code of `value` under `cuts`: lower_bound position, or -1 for NaN.
int32_t QuantileCodeOf(const std::vector<double>& cuts, double value);

}  // namespace scoded

#endif  // SCODED_STATS_RANKS_H_
