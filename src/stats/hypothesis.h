#ifndef SCODED_STATS_HYPOTHESIS_H_
#define SCODED_STATS_HYPOTHESIS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <memory>
#include <optional>

#include "common/result.h"
#include "common/rng.h"
#include "stats/contingency.h"
#include "stats/encoding_cache.h"
#include "stats/kendall.h"
#include "table/table.h"

namespace scoded {

/// Which statistic family produced a TestResult.
enum class TestMethod {
  kGTest,         ///< G-test on categorical × categorical (χ² null)
  kTauTest,       ///< Kendall's τ on numeric × numeric (Gaussian/exact null)
  kSpearmanTest,  ///< Spearman's ρ_s (t-approximation; opt-in alternative)
  kPermutation    ///< Monte-Carlo exact test (either statistic)
};

/// Statistic used for numeric × numeric pairs. Kendall's τ is the
/// SCODED default (Sec. 4.3 "Motivation": most robust against false
/// positives); Spearman's ρ_s is offered as a cheaper alternative for
/// unconditional tests. Conditional tests always pool Kendall S values
/// (the stratified-combination theory is τ-specific).
enum class NumericMethod {
  kKendall,
  kSpearman,
};

std::string_view TestMethodToString(TestMethod method);

/// Outcome of an independence hypothesis test. `p_value` is
/// P(t > c | H0: X ⊥ Y | Z) per Definition 5 — small p means the observed
/// dependence is unlikely under independence.
struct TestResult {
  TestMethod method = TestMethod::kGTest;
  double statistic = 0.0;   ///< φ(D): G value, or |z| for the τ test
  double p_value = 1.0;     ///< P(t > c | H0)
  double dof = 0.0;         ///< χ² degrees of freedom (G-test only)
  int64_t n = 0;            ///< records actually used (nulls excluded)
  double effect = 0.0;      ///< signed effect size: τ_b, or Cramér's V (≥0)
  bool used_exact = false;  ///< exact null distribution instead of asymptotic
  /// For conditional (stratified) tests: strata included / skipped for
  /// being below the minimum size.
  size_t strata_used = 0;
  size_t strata_skipped = 0;
  /// True when the asymptotic approximation is dubious (expected counts
  /// below the χ² adequacy threshold, or n below the τ Gaussian threshold).
  bool approximation_suspect = false;
  /// Smallest expected cell count across strata (G-test only; diagnostic
  /// for the χ² adequacy rule).
  double min_expected = 0.0;
};

/// Tuning knobs for the test dispatcher.
struct TestOptions {
  /// Quantile buckets used to discretise a numeric column paired with a
  /// categorical one (mixed pairs run through the G-test).
  int discretize_bins = 4;
  /// Strata of the conditioning set Z smaller than this are skipped
  /// (Sec. 4.3: each N_D(Z=z) must be large enough).
  size_t min_stratum_size = 2;
  /// χ² adequacy rule: minimum expected cell count (classic 5).
  double g_min_expected = 5.0;
  /// Use the exact Kendall null distribution when n <= this and the data
  /// are tie-free (NIST rule: Gaussian adequate above 60).
  size_t tau_exact_max_n = 60;
  bool allow_exact = true;
  /// Stratification of the conditioning set Z: a numeric Z column with more
  /// than `condition_max_distinct` distinct values is quantile-binned into
  /// `condition_bins` buckets (otherwise each exact value is a stratum).
  /// Without this, conditioning on a continuous variable would produce
  /// singleton strata and an uninformative test.
  size_t condition_max_distinct = 12;
  int condition_bins = 8;
  /// When the χ² approximation to the G-test is *grossly* inadequate —
  /// dof >= n (high-cardinality columns, e.g. an FD-derived DSC over
  /// Zipcodes) or an expected count below `g_severe_min_expected` — and
  /// `allow_exact` is set, the dispatcher falls back to a Monte-Carlo
  /// permutation null with this many iterations (Sec. 4.3 "exact test").
  size_t permutation_fallback_iterations = 200;
  uint64_t permutation_seed = 0x5C0DEDu;
  double g_severe_min_expected = 1.0;
  /// Numeric-pair statistic (unconditional tests only; see NumericMethod).
  NumericMethod numeric_method = NumericMethod::kKendall;
  /// Route unconditional 2×2 G-tests with n <= `fisher_max_n` through
  /// Fisher's exact test instead of the χ² approximation. Off by default
  /// so the asymptotic pipeline stays the paper-faithful baseline.
  bool use_fisher_for_2x2 = false;
  int64_t fisher_max_n = 200;
  /// Optional per-run memo for column encodings and stratification keys
  /// (see ColumnEncodingCache). Non-owning; the pointed-to cache must be
  /// scoped to one immutable table and outlive every test using these
  /// options. Batch drivers (Scoded::CheckAll, LearnPcStructure) install
  /// one automatically; nullptr disables memoisation.
  ColumnEncodingCache* encoding_cache = nullptr;
};

/// Strata of `rows` induced by the conditioning columns `z_cols` under the
/// binning policy above. `group_of_row` is parallel to `rows`.
struct Stratification {
  std::vector<std::vector<size_t>> groups;
  std::vector<size_t> group_of_row;
};

Stratification StratifyRows(const Table& table, const std::vector<int>& z_cols,
                            const std::vector<size_t>& rows, const TestOptions& options);

/// Encodes `column` over `rows` as categorical codes: a categorical column
/// keeps its dictionary codes, a numeric column is quantile-discretised
/// into `bins` buckets over these rows, nulls map to -1. Routed through
/// `cache` when non-null (pass the precomputed `rows_sig` to amortise the
/// row-set hash across columns; 0 means "compute it here"). This is the
/// encoding primitive shared by the G-test dispatcher and the drill-down
/// engine builder.
std::shared_ptr<const ColumnEncodingCache::Encoding> EncodeAsCategoricalCached(
    const Column& column, const std::vector<size_t>& rows, int bins,
    ColumnEncodingCache* cache, uint64_t rows_sig = 0);

/// G-test of independence between two categorical columns over `rows`.
TestResult GTestIndependence(const Column& x, const Column& y, const std::vector<size_t>& rows,
                             const TestOptions& options = {});

/// Kendall τ test of independence between two numeric vectors.
TestResult TauTestIndependence(const std::vector<double>& x, const std::vector<double>& y,
                               const TestOptions& options = {});

/// The decision layer of TauTestIndependence applied to an
/// already-computed KendallResult (Gaussian p, exact-null escape hatch for
/// small tie-free samples). Exposed so the mergeable shard summaries
/// (stats/shard_stats.h), which rebuild the KendallResult from accumulated
/// counts, share the exact routing logic with the in-memory path.
TestResult TauTestFromKendall(const KendallResult& kr, const TestOptions& options = {});

/// Collapses `ct` to its live (positive-marginal) categories and, when the
/// live table is exactly 2×2, returns Fisher's exact two-sided p-value;
/// nullopt otherwise. Shared by the in-memory dispatcher's Fisher routing
/// and the shard summaries so the a/b/c/d cells come from one code path.
std::optional<double> FisherExact2x2FromContingency(const ContingencyTable& ct);

/// One stratum's complete-pair codes for the G permutation fallback.
struct PermutationStratum {
  std::vector<int32_t> x;
  std::vector<int32_t> y;
};

/// The Sec. 4.3 Monte-Carlo "exact test" fallback p-value for the G path:
/// shuffles each stratum's y codes `iterations` times (one Rng seeded with
/// `seed`, strata consumed in order each round) and compares Σ c·log c
/// over joint cells against the observed value, with the (r+1)/(iters+1)
/// correction. A permuted statistic that ties the observed one counts as
/// "at least as extreme", so the test is conservative on tie-heavy tables
/// (e.g. all-singleton cells). Strata must be passed in stratum order with
/// rows in row order, and codes must be non-negative; the in-memory
/// dispatcher and the sharded second pass share this function so their
/// fallback p-values are bit-identical.
///
/// Each stratum's rows are counting-sorted by x once; each evaluation
/// counts y per x group into a dense array and adds a precomputed c·ln c
/// over the repeated cells in ascending (x, y) order — the summation order
/// of a std::map over the cells, so the sums are bit-identical to one.
/// Nothing is allocated per iteration. Besides the shuffled copy of y
/// (4 B per row), memory is the x order (4 B per row, plus one bound per
/// x group), a count array sized by the largest code of either column,
/// and a c·ln c table and touched list sized by the largest x group.
double GPermutationFallbackPValue(const std::vector<PermutationStratum>& strata,
                                  size_t iterations, uint64_t seed);

/// The full dispatcher behind Algorithm 1:
///  * picks G vs τ from the column types (mixed pairs: the numeric column
///    is quantile-discretised and the pair runs through the G-test);
///  * a non-empty conditioning set `z_cols` stratifies the data by the
///    exact Z values and combines per-stratum tests (G: statistics and
///    dofs add; τ: S and Var(S) add, then one Gaussian tail).
/// Null cells in X/Y are excluded per stratum.
Result<TestResult> IndependenceTest(const Table& table, int x_col, int y_col,
                                    const std::vector<int>& z_cols,
                                    const std::vector<size_t>& rows,
                                    const TestOptions& options = {});

/// Convenience overload over all rows of `table`.
Result<TestResult> IndependenceTest(const Table& table, int x_col, int y_col,
                                    const std::vector<int>& z_cols = {},
                                    const TestOptions& options = {});

/// Monte-Carlo permutation test: shuffles Y within each Z-stratum
/// `iterations` times and reports the fraction of permuted statistics at
/// least as extreme as the observed one ((r+1)/(iters+1) correction).
/// This is the "exact test" escape hatch of Sec. 4.3 for small samples.
Result<TestResult> PermutationIndependenceTest(const Table& table, int x_col, int y_col,
                                               const std::vector<int>& z_cols, size_t iterations,
                                               Rng& rng, const TestOptions& options = {});

}  // namespace scoded

#endif  // SCODED_STATS_HYPOTHESIS_H_
