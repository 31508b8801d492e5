#ifndef SCODED_STATS_CONTINGENCY_H_
#define SCODED_STATS_CONTINGENCY_H_

#include <cstdint>
#include <vector>

#include "table/table.h"

namespace scoded {

/// A dense R×C contingency table of joint counts for two categorical
/// variables, with cached marginals. This is the workhorse behind the
/// G-test (Sec. 4.3) and the grouped categorical drill-down (Sec. 5.3).
class ContingencyTable {
 public:
  /// Builds a table from two code vectors (parallel arrays) with the
  /// blocked count kernel (simd::Contingency). Codes must be < the
  /// respective cardinality; rows where either code is negative (null) are
  /// skipped.
  ContingencyTable(const std::vector<int32_t>& x_codes, const std::vector<int32_t>& y_codes,
                   size_t x_cardinality, size_t y_cardinality);

  /// Builds from two categorical columns of `table`, restricted to `rows`.
  static ContingencyTable FromColumns(const Column& x, const Column& y,
                                      const std::vector<size_t>& rows);

  /// Builds from a dense row-major count matrix (`counts[x * y_cardinality
  /// + y]`, all entries >= 0). Used by the mergeable shard summaries
  /// (stats/shard_stats.h) to reconstruct the whole-table statistic from
  /// accumulated joint counts.
  static ContingencyTable FromCounts(const std::vector<int64_t>& counts, size_t x_cardinality,
                                     size_t y_cardinality);

  size_t num_x() const { return nx_; }
  size_t num_y() const { return ny_; }
  int64_t total() const { return total_; }

  int64_t Count(size_t x, size_t y) const { return counts_[x * ny_ + y]; }
  int64_t RowMarginal(size_t x) const { return row_marginals_[x]; }
  int64_t ColMarginal(size_t y) const { return col_marginals_[y]; }

  /// Expected count under independence: N(x)·N(y)/N.
  double ExpectedCount(size_t x, size_t y) const;

  /// Smallest expected count over cells with positive marginals — the
  /// classic "all expected counts >= 5" χ² adequacy check (Sec. 4.3).
  double MinExpectedCount() const;

  /// Adjusts the count of one cell by `delta` (used by the incremental
  /// drill-down). Keeps marginals and total in sync.
  void Adjust(size_t x, size_t y, int64_t delta);

  /// Empirical mutual information I(X;Y) in bits (log base 2).
  double MutualInformationBits() const;

  /// Empirical mutual information in nats (log base e).
  double MutualInformationNats() const;

  /// G statistic: 2·N·I(X;Y) with I in nats — asymptotically χ² with
  /// `Dof()` degrees of freedom under independence.
  double GStatistic() const;

  /// Pearson's χ² statistic (for cross-checks against the G-test).
  double ChiSquaredStatistic() const;

  /// Degrees of freedom: (R'-1)(C'-1) over categories with a positive
  /// marginal; at least 1.
  double Dof() const;

  /// Cramér's V effect size in [0, 1].
  double CramersV() const;

 private:
  ContingencyTable(size_t nx, size_t ny);

  /// Rebuilds marginals and total from counts_ (the count kernel fills
  /// the joint counts only).
  void DeriveMarginalsFromCounts();

  size_t nx_;
  size_t ny_;
  std::vector<int64_t> counts_;
  std::vector<int64_t> row_marginals_;
  std::vector<int64_t> col_marginals_;
  int64_t total_ = 0;
};

/// Generic empirical mutual information I(X;Y) in bits where X and Y are
/// arbitrary column sets of `table` (used for the Prop. 2 MI-maximality
/// experiments). Computed from exact group counts.
double MutualInformationBits(const Table& table, const std::vector<int>& x_cols,
                             const std::vector<int>& y_cols);

/// Entropy H(X) in bits of a column set.
double EntropyBits(const Table& table, const std::vector<int>& cols);

}  // namespace scoded

#endif  // SCODED_STATS_CONTINGENCY_H_
