#ifndef SCODED_STATS_SHARD_STATS_H_
#define SCODED_STATS_SHARD_STATS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "stats/contingency.h"
#include "stats/hypothesis.h"
#include "table/table.h"

namespace scoded {

/// A mergeable sufficient-statistic summary for one singleton SC component
/// (X ⊥ Y | Z with singleton X and Y), built shard by shard so a CSV file
/// never has to be materialised in memory.
///
/// The summary keeps one exact integer count per distinct joint cell
/// (z..., x, y), plus the global first-row index of each cell and a
/// first-appearance dictionary per categorical column. Cells live in three
/// flat arrays sorted by key — keys (one int64 per role), counts and first
/// rows, the Snapshot layout — so a cell costs 8 bytes per role plus 16.
/// Those are sufficient statistics for everything IndependenceTest
/// computes:
///
///  * the G path reduces to per-stratum contingency counts (quantile cuts
///    for numeric columns are value/count functions, order-free);
///  * the τ path reduces to concordant/discordant/tie pair counts, which
///    KendallTauFromCounts rebuilds exactly from weighted points;
///  * strata are recovered in first-appearance order via the cells'
///    minimum row index, and categorical dictionaries merge in shard order
///    into the whole-file first-appearance order,
///
/// so Finish() reproduces the in-memory IndependenceTest result — every
/// float in TestResult — **bit for bit**: all counts are exact integers,
/// and the floating-point folds (per-stratum pieces, pooled accumulator)
/// run through the same shared code (stats/stratified.h) in the same
/// stratum order.
///
/// Merge() is associative over row-contiguous summaries: fold shards in
/// file order, grouped arbitrarily — (s0·s1)·s2 == s0·(s1·s2).
///
/// Two results cannot be derived from counts alone and are handled
/// explicitly:
///  * the Monte-Carlo permutation fallback shuffles per-row code vectors,
///    so Finish() reports `needs_row_pass` and the caller re-streams the
///    file through CollectPermutationCodes (the fallback only triggers in
///    the dof >= n regime, where there are about as many cells as rows
///    anyway — a second pass costs I/O, not memory);
///  * Spearman's ρ sums ranks in row order with row-order float error, so
///    Finish() refuses `numeric_method = kSpearman` with Unimplemented.
class PairwiseShardSummary {
 public:
  /// The component's bound column indices (z may be empty).
  struct Spec {
    int x_col = -1;
    int y_col = -1;
    std::vector<int> z_cols;
  };

  /// Placeholder only (e.g. pre-sized parallel result slots); every real
  /// summary starts from the schema constructor or FromShard.
  PairwiseShardSummary() = default;

  /// An empty summary over `schema`'s column types (any table with the
  /// right schema works, e.g. ShardReader::EmptyTable()).
  PairwiseShardSummary(const Table& schema, Spec spec);

  /// Folds one shard in. `row_offset` is the global index of the shard's
  /// first data row; successive calls must pass shards in file order.
  /// The shard's categorical dictionaries may be shard-local (first
  /// appearance within the shard) or global — both merge to the same
  /// whole-file dictionary order.
  void Accumulate(const Table& shard, uint64_t row_offset);

  /// Convenience: an initialised summary of a single shard.
  static PairwiseShardSummary FromShard(const Table& shard, Spec spec, uint64_t row_offset);

  /// Associative fold. `other` must summarise rows that come after every
  /// row already in `this` (merge in file order). A linear merge of the
  /// two sorted cell runs: counts add, and the first row is the minimum.
  void Merge(const PairwiseShardSummary& other);

  /// A self-contained, exactly-restorable image of a summary: everything is
  /// integers and dictionary strings (numeric cell values travel as the
  /// canonical bit pattern of the double), so a summary can cross a process
  /// or wire boundary and Merge/Finish on the far side bit-identically.
  /// Cells are flattened in ascending lexicographic key order (signed
  /// int64 per role, so a null, INT64_MIN, sorts first), `keys` holding
  /// num_roles entries per cell in z..., x, y layout.
  struct Snapshot {
    Spec spec;
    std::vector<ColumnType> role_types;  // z..., x, y
    std::vector<std::vector<std::string>> dicts;  // per role; empty for numeric
    std::vector<int64_t> keys;        // num_cells * num_roles, flattened
    std::vector<int64_t> counts;      // per cell, > 0
    std::vector<uint64_t> first_rows; // per cell, global row index
    int64_t rows = 0;
  };

  /// Exports the folded state. Valid any time before Finish(). The rvalue
  /// form moves the cell arrays out instead of copying them.
  Snapshot ToSnapshot() const&;
  Snapshot ToSnapshot() &&;

  /// Rebuilds a summary from a snapshot against `schema` (any table with
  /// the file's schema), taking over its cell arrays. Every structural
  /// invariant is re-validated — column bounds, role types, dictionary
  /// uniqueness, keys strictly ascending, categorical key ranges, positive
  /// counts, sum(counts) == rows — so a corrupted or adversarial wire
  /// payload fails with kInvalidArgument instead of poisoning the fold.
  static Result<PairwiseShardSummary> FromSnapshot(const Table& schema, Snapshot snapshot);

  /// Data rows folded in so far (including rows with nulls).
  int64_t rows() const { return rows_; }
  /// Distinct joint cells held — the summary's memory footprint driver.
  size_t num_cells() const { return cells_.counts.size(); }

  struct FinishOutcome {
    TestResult result;
    /// True when the G permutation fallback triggered: the p-value in
    /// `result` is still the (inadequate) asymptotic one, and the caller
    /// must re-stream the file through CollectPermutationCodes, then apply
    /// GPermutationFallbackPValue (see stats/hypothesis.h) to finalise it.
    bool needs_row_pass = false;
  };

  /// Reproduces IndependenceTest(table, x, y, z, all-rows, options) on the
  /// concatenation of every folded shard. Not const: when the permutation
  /// fallback triggers this records the encoding plan the second pass
  /// needs (z binning cuts, stratum signatures, per-stratum x/y cuts).
  Result<FinishOutcome> Finish(const TestOptions& options);

  /// Number of kept (non-small) strata recorded by Finish for the second
  /// pass; size `strata` to this before the first CollectPermutationCodes.
  size_t NumPermutationStrata() const { return stratum_plans_.size(); }

  /// Second streaming pass: appends each of `shard`'s complete-pair code
  /// rows to its stratum's slot, in row order. Call with shards in file
  /// order; valid only after Finish() returned needs_row_pass.
  void CollectPermutationCodes(const Table& shard, std::vector<PermutationStratum>* strata) const;

 private:
  static constexpr int64_t kNullCell = INT64_MIN;

  /// Distinct cells as parallel arrays, ascending by key; `keys` holds
  /// num_roles entries per cell.
  struct Cells {
    std::vector<int64_t> keys;
    std::vector<int64_t> counts;
    std::vector<uint64_t> first_rows;
  };

  /// First-appearance dictionary for one categorical role.
  struct Dict {
    std::vector<std::string> values;
    std::unordered_map<std::string, int32_t> index;
  };

  /// How one conditioning column's cell values map to stratum keys.
  struct ZKeyPlan {
    bool binned = false;
    std::vector<double> cuts;
  };

  /// Per kept stratum: the quantile cuts of a numeric X/Y role (empty for
  /// categorical roles, whose codes are the dictionary ids).
  struct StratumPlan {
    std::vector<double> x_cuts;
    std::vector<double> y_cuts;
  };

  int32_t Intern(Dict& dict, const std::string& value);
  int64_t StratumKeyOfCell(size_t z_role, int64_t raw) const;
  /// Sorts a run of distinct cells by key.
  static void SortRun(Cells& run, size_t stride);
  /// Linear merge of a sorted run, already in this summary's ids.
  void MergeRun(const Cells& run);

  Spec spec_;
  std::vector<int> role_cols_;           // z..., x, y — key layout order
  std::vector<ColumnType> role_types_;   // parallel to role_cols_
  std::vector<Dict> dicts_;              // parallel; unused for numeric roles
  Cells cells_;
  int64_t rows_ = 0;
  bool valid_ = false;

  // Permutation second-pass plan, populated by Finish when needed: the kept
  // strata's signatures (nz entries each, ascending) with the index of each
  // one's plan, for a binary search per row.
  std::vector<ZKeyPlan> z_plan_;
  std::vector<int64_t> stratum_sigs_;
  std::vector<size_t> stratum_slots_;
  std::vector<StratumPlan> stratum_plans_;
};

}  // namespace scoded

#endif  // SCODED_STATS_SHARD_STATS_H_
