#include "stats/hypothesis.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>

#include "common/check.h"
#include "common/math.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/contingency.h"
#include "stats/correlation.h"
#include "stats/fisher.h"
#include "stats/kendall.h"
#include "stats/ranks.h"
#include "stats/stratified.h"
#include "table/group_by.h"

namespace scoded {

namespace {

// Extracts the rows where both numeric cells are present.
void ExtractNumericPair(const Column& xc, const Column& yc, const std::vector<size_t>& rows,
                        std::vector<double>* x, std::vector<double>* y) {
  x->clear();
  y->clear();
  x->reserve(rows.size());
  y->reserve(rows.size());
  for (size_t row : rows) {
    if (xc.IsNull(row) || yc.IsNull(row)) {
      continue;
    }
    x->push_back(xc.NumericAt(row));
    y->push_back(yc.NumericAt(row));
  }
}

// Encodes a column over `rows` as categorical codes: a categorical column
// keeps its dictionary codes; a numeric column is quantile-discretised over
// these rows. Nulls map to -1. `cardinality` receives the code universe.
std::vector<int32_t> EncodeAsCategorical(const Column& column, const std::vector<size_t>& rows,
                                         int bins, size_t* cardinality) {
  std::vector<int32_t> codes;
  codes.reserve(rows.size());
  if (column.type() == ColumnType::kCategorical) {
    for (size_t row : rows) {
      codes.push_back(column.CodeAt(row));
    }
    *cardinality = column.NumCategories();
    return codes;
  }
  std::vector<double> values;
  std::vector<size_t> positions;
  values.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (column.IsNull(rows[i])) {
      continue;
    }
    values.push_back(column.NumericAt(rows[i]));
    positions.push_back(i);
  }
  std::vector<int32_t> bucket = QuantileBins(values, bins);
  codes.assign(rows.size(), -1);
  for (size_t i = 0; i < positions.size(); ++i) {
    codes[positions[i]] = bucket[i];
  }
  *cardinality = static_cast<size_t>(bins);
  return codes;
}

// Strata below this many total rows are not worth shipping to the pool:
// per-chunk overhead (queueing, span, counter) would dominate the
// statistic itself. Below the threshold the primitives run with one chunk,
// i.e. fully inline.
constexpr size_t kMinParallelRows = 2048;

// Chunk grain for a per-stratum parallel loop. Depends only on the input
// sizes (never on the thread count) so the chunk grid — and therefore any
// in-order fold over it — is identical at every thread count.
size_t StrataGrain(size_t num_groups, size_t num_rows) {
  if (num_groups <= 1) {
    return 1;
  }
  if (num_rows < kMinParallelRows) {
    return num_groups;  // one chunk: inline serial execution
  }
  return std::max<size_t>(1, num_groups / 64);
}

// Per-row stratification keys for one conditioning column: a numeric
// column with many distinct values is quantile-binned, everything else is
// keyed by its exact (encoded) value. Pure function of (column, rows,
// binning policy) — the contract ColumnEncodingCache requires.
std::vector<int64_t> ComputeStratumKeys(const Column& column, const std::vector<size_t>& rows,
                                        const TestOptions& options) {
  std::vector<int64_t> keys(rows.size());
  if (column.type() == ColumnType::kNumeric) {
    std::vector<double> values;
    values.reserve(rows.size());
    for (size_t row : rows) {
      if (!column.IsNull(row)) {
        values.push_back(column.NumericAt(row));
      }
    }
    size_t distinct = 0;
    DenseRanks(values, &distinct);
    if (distinct > options.condition_max_distinct) {
      std::vector<int32_t> bins = QuantileBins(values, options.condition_bins);
      size_t vi = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        keys[i] = column.IsNull(rows[i]) ? INT64_MIN : bins[vi++];
      }
      return keys;
    }
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    keys[i] = EncodeCellKey(column, rows[i]);
  }
  return keys;
}

// Packs the binning policy into the cache key's `param` slot.
int StratumKeyParam(const TestOptions& options) {
  int max_distinct = static_cast<int>(
      std::min<size_t>(options.condition_max_distinct, 0x7fff));
  return (options.condition_bins << 16) | max_distinct;
}

}  // namespace

Stratification StratifyRows(const Table& table, const std::vector<int>& z_cols,
                            const std::vector<size_t>& rows, const TestOptions& options) {
  Stratification result;
  if (z_cols.empty()) {
    result.groups.push_back(rows);
    result.group_of_row.assign(rows.size(), 0);
    return result;
  }
  // Per-column key vectors, memoised across tests that condition on the
  // same column over the same row set (every PC level does).
  ColumnEncodingCache* cache = options.encoding_cache;
  uint64_t rows_sig = cache != nullptr ? ColumnEncodingCache::RowsSignature(rows) : 0;
  std::vector<std::shared_ptr<const std::vector<int64_t>>> col_keys(z_cols.size());
  for (size_t c = 0; c < z_cols.size(); ++c) {
    const Column& column = table.column(static_cast<size_t>(z_cols[c]));
    auto compute = [&] { return ComputeStratumKeys(column, rows, options); };
    col_keys[c] = cache != nullptr
                      ? cache->GetOrComputeKeys(column, rows_sig, StratumKeyParam(options), compute)
                      : std::make_shared<const std::vector<int64_t>>(compute());
  }
  std::map<std::vector<int64_t>, size_t> index;
  result.group_of_row.reserve(rows.size());
  std::vector<int64_t> key(z_cols.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < z_cols.size(); ++c) {
      key[c] = (*col_keys[c])[i];
    }
    auto [it, inserted] = index.emplace(key, result.groups.size());
    if (inserted) {
      result.groups.emplace_back();
    }
    result.groups[it->second].push_back(rows[i]);
    result.group_of_row.push_back(it->second);
  }
  return result;
}

std::shared_ptr<const ColumnEncodingCache::Encoding> EncodeAsCategoricalCached(
    const Column& column, const std::vector<size_t>& rows, int bins,
    ColumnEncodingCache* cache, uint64_t rows_sig) {
  auto compute = [&] {
    ColumnEncodingCache::Encoding encoding;
    encoding.codes = EncodeAsCategorical(column, rows, bins, &encoding.cardinality);
    return encoding;
  };
  if (cache == nullptr) {
    return std::make_shared<const ColumnEncodingCache::Encoding>(compute());
  }
  if (rows_sig == 0) {
    rows_sig = ColumnEncodingCache::RowsSignature(rows);
  }
  return cache->GetOrComputeCodes(column, rows_sig, bins, compute);
}

std::string_view TestMethodToString(TestMethod method) {
  switch (method) {
    case TestMethod::kGTest:
      return "G-test";
    case TestMethod::kTauTest:
      return "tau-test";
    case TestMethod::kSpearmanTest:
      return "spearman-test";
    case TestMethod::kPermutation:
      return "permutation-test";
  }
  return "unknown";
}

TestResult GTestIndependence(const Column& x, const Column& y, const std::vector<size_t>& rows,
                             const TestOptions& options) {
  ColumnEncodingCache* cache = options.encoding_cache;
  uint64_t rows_sig = cache != nullptr ? ColumnEncodingCache::RowsSignature(rows) : 0;
  auto x_enc = EncodeAsCategoricalCached(x, rows, options.discretize_bins, cache, rows_sig);
  auto y_enc = EncodeAsCategoricalCached(y, rows, options.discretize_bins, cache, rows_sig);
  ContingencyTable ct(x_enc->codes, y_enc->codes, x_enc->cardinality, y_enc->cardinality);
  StratifiedAccumulator acc;
  acc.is_tau = false;
  acc.AddG(PiecesOf(ct));
  return acc.Finish(options);
}

TestResult TauTestFromKendall(const KendallResult& kr, const TestOptions& options) {
  TestResult result;
  result.method = TestMethod::kTauTest;
  result.n = kr.n;
  result.strata_used = 1;
  result.statistic = std::fabs(kr.z);
  result.p_value = kr.p_two_sided;
  result.effect = kr.tau_b;
  if (kr.n >= 2 && options.allow_exact &&
      static_cast<size_t>(kr.n) <= options.tau_exact_max_n) {
    bool tie_free = kr.ties_x == 0 && kr.ties_y == 0 && kr.ties_xy == 0;
    if (tie_free) {
      result.p_value = KendallExactPValue(kr.s, kr.n);
      result.used_exact = true;
    } else {
      result.approximation_suspect = true;
    }
  }
  return result;
}

TestResult TauTestIndependence(const std::vector<double>& x, const std::vector<double>& y,
                               const TestOptions& options) {
  return TauTestFromKendall(KendallTau(x, y), options);
}

std::optional<double> FisherExact2x2FromContingency(const ContingencyTable& ct) {
  // Collapse to live codes; Fisher applies only when exactly 2×2.
  std::vector<size_t> live_x;
  std::vector<size_t> live_y;
  for (size_t x = 0; x < ct.num_x() && live_x.size() <= 2; ++x) {
    if (ct.RowMarginal(x) > 0) {
      live_x.push_back(x);
    }
  }
  for (size_t y = 0; y < ct.num_y() && live_y.size() <= 2; ++y) {
    if (ct.ColMarginal(y) > 0) {
      live_y.push_back(y);
    }
  }
  if (live_x.size() != 2 || live_y.size() != 2) {
    return std::nullopt;
  }
  static obs::Counter* const fisher_tests =
      obs::Metrics::Global().FindOrCreateCounter("stats.fisher_exact_tests");
  fisher_tests->Add();
  return FisherExact2x2TwoSided(ct.Count(live_x[0], live_y[0]), ct.Count(live_x[0], live_y[1]),
                                ct.Count(live_x[1], live_y[0]), ct.Count(live_x[1], live_y[1]));
}

namespace {

// Σ c·ln c over the joint (x, y) cells of each permutation stratum, for
// the G fallback's 1 + iterations evaluations. Only y is shuffled, so the
// rows are grouped by x once (a counting sort: `order_` lists each
// stratum's row positions x ascending); an evaluation then counts y per x
// group into `counts_`, remembers the codes it touched, and adds
// `xlogx_[c]` over the touched codes sorted ascending. That is the
// ascending (x, y) cell order, and the t·ln t values and the single
// running sum, of a std::map over the cells, so every sum is bit-identical
// to it. Count-1 cells are skipped: 1·ln 1 is exactly +0.0, and adding
// +0.0 to a sum of non-negative terms leaves its bits alone — which also
// drops every one-row x group from `order_`.
class JointCellSums {
 public:
  explicit JointCellSums(const std::vector<PermutationStratum>& strata) {
    int32_t max_code = -1;
    size_t rows = 0;
    for (const PermutationStratum& s : strata) {
      SCODED_CHECK(s.x.size() == s.y.size());
      for (size_t i = 0; i < s.x.size(); ++i) {
        SCODED_CHECK(s.x[i] >= 0 && s.y[i] >= 0);
        max_code = std::max({max_code, s.x[i], s.y[i]});
      }
      rows += s.x.size();
    }
    SCODED_CHECK(rows < kLoneRow);
    counts_.assign(static_cast<size_t>(max_code) + 1, 0);
    uint32_t max_group = 1;
    group_bound_.push_back(0);
    stratum_groups_.reserve(strata.size() + 1);
    stratum_groups_.push_back(0);
    for (const PermutationStratum& s : strata) {
      // Histogram x, then turn each multi-row group's count into its
      // offset in `order_` (x ascending) and place the rows stably.
      touched_.clear();
      for (int32_t x : s.x) {
        if (counts_[x]++ == 0) {
          touched_.push_back(x);
        }
      }
      std::sort(touched_.begin(), touched_.end());
      uint32_t placed = static_cast<uint32_t>(order_.size());
      for (int32_t x : touched_) {
        uint32_t size = counts_[x];
        if (size < 2) {
          counts_[x] = kLoneRow;
          continue;
        }
        counts_[x] = placed;
        placed += size;
        group_bound_.push_back(placed);
        max_group = std::max(max_group, size);
      }
      order_.resize(placed);
      for (size_t i = 0; i < s.x.size(); ++i) {
        uint32_t& slot = counts_[s.x[i]];
        if (slot != kLoneRow) {
          order_[slot++] = static_cast<uint32_t>(i);
        }
      }
      for (int32_t x : touched_) {
        counts_[x] = 0;
      }
      stratum_groups_.push_back(group_bound_.size() - 1);
    }
    touched_.assign(max_group, 0);
    touched_.shrink_to_fit();
    xlogx_.resize(static_cast<size_t>(max_group) + 1);
    for (size_t c = 1; c < xlogx_.size(); ++c) {
      double t = static_cast<double>(c);
      xlogx_[c] = t * std::log(t);
    }
  }

  // Σ c·ln c over stratum `s`'s cells with its y codes as given (row order
  // of the stratum passed to the constructor).
  double Sum(size_t s, const std::vector<int32_t>& y) {
    double sum = 0.0;
    for (size_t g = stratum_groups_[s]; g < stratum_groups_[s + 1]; ++g) {
      size_t touched = 0;
      for (uint32_t p = group_bound_[g]; p < group_bound_[g + 1]; ++p) {
        int32_t v = y[order_[p]];
        if (counts_[v]++ == 0) {
          touched_[touched++] = v;
        }
      }
      size_t repeated = 0;
      for (size_t i = 0; i < touched; ++i) {
        int32_t v = touched_[i];
        if (counts_[v] >= 2) {
          touched_[repeated++] = v;
        } else {
          counts_[v] = 0;
        }
      }
      std::sort(touched_.begin(), touched_.begin() + static_cast<std::ptrdiff_t>(repeated));
      for (size_t i = 0; i < repeated; ++i) {
        uint32_t& count = counts_[touched_[i]];
        sum += xlogx_[count];
        count = 0;
      }
    }
    return sum;
  }

 private:
  static constexpr uint32_t kLoneRow = UINT32_MAX;

  std::vector<uint32_t> order_;          // multi-row x groups, x ascending
  std::vector<uint32_t> group_bound_;    // group g is order_[bound[g], bound[g + 1])
  std::vector<size_t> stratum_groups_;   // stratum s owns groups [gs[s], gs[s + 1])
  std::vector<uint32_t> counts_;         // all zero between uses
  std::vector<int32_t> touched_;
  std::vector<double> xlogx_;            // xlogx_[c] = c·ln c
};

}  // namespace

double GPermutationFallbackPValue(const std::vector<PermutationStratum>& strata,
                                  size_t iterations, uint64_t seed) {
  JointCellSums sums(strata);
  std::vector<std::vector<int32_t>> permuted_y;
  permuted_y.reserve(strata.size());
  double observed = 0.0;
  for (size_t s = 0; s < strata.size(); ++s) {
    observed += sums.Sum(s, strata[s].y);
    permuted_y.push_back(strata[s].y);
  }
  Rng rng(seed);
  size_t at_least = 0;
  for (size_t iter = 0; iter < iterations; ++iter) {
    double stat = 0.0;
    for (size_t s = 0; s < permuted_y.size(); ++s) {
      rng.Shuffle(permuted_y[s]);
      stat += sums.Sum(s, permuted_y[s]);
    }
    at_least += stat >= observed ? 1 : 0;
  }
  static obs::Counter* const fallbacks =
      obs::Metrics::Global().FindOrCreateCounter("stats.permutation_fallbacks");
  fallbacks->Add();
  return (static_cast<double>(at_least) + 1.0) /
         (static_cast<double>(iterations) + 1.0);
}

namespace {

// Core dispatcher; the public wrapper below adds metrics and tracing.
Result<TestResult> IndependenceTestImpl(const Table& table, int x_col, int y_col,
                                        const std::vector<int>& z_cols,
                                        const std::vector<size_t>& rows,
                                        const TestOptions& options) {
  if (x_col < 0 || static_cast<size_t>(x_col) >= table.NumColumns() || y_col < 0 ||
      static_cast<size_t>(y_col) >= table.NumColumns()) {
    return InvalidArgumentError("IndependenceTest: column index out of range");
  }
  if (x_col == y_col) {
    return InvalidArgumentError("IndependenceTest: X and Y must be distinct columns");
  }
  for (int z : z_cols) {
    if (z < 0 || static_cast<size_t>(z) >= table.NumColumns()) {
      return InvalidArgumentError("IndependenceTest: conditioning column index out of range");
    }
    if (z == x_col || z == y_col) {
      return InvalidArgumentError("IndependenceTest: Z must be disjoint from X and Y");
    }
  }
  const Column& xc = table.column(static_cast<size_t>(x_col));
  const Column& yc = table.column(static_cast<size_t>(y_col));
  bool is_tau =
      xc.type() == ColumnType::kNumeric && yc.type() == ColumnType::kNumeric;

  // τ paths (the exact-test escape hatch lives in TauTestIndependence).
  if (is_tau && z_cols.empty()) {
    std::vector<double> x;
    std::vector<double> y;
    ExtractNumericPair(xc, yc, rows, &x, &y);
    if (options.numeric_method == NumericMethod::kSpearman) {
      TestResult result;
      result.method = TestMethod::kSpearmanTest;
      result.n = static_cast<int64_t>(x.size());
      result.strata_used = 1;
      double rho = SpearmanCorrelation(x, y);
      result.effect = rho;
      result.statistic = std::fabs(rho);
      result.p_value = SpearmanPValue(rho, x.size());
      result.approximation_suspect = x.size() < 10;
      return result;
    }
    return TauTestIndependence(x, y, options);
  }
  if (is_tau) {
    Stratification strata = StratifyRows(table, z_cols, rows, options);
    StratifiedAccumulator acc;
    acc.is_tau = true;
    // Per-stratum Kendall statistics in parallel; the pooled S / Var(S)
    // sums are folded serially in stratum order so the combined z (and
    // hence the p-value) is bit-identical at any thread count.
    struct TauSlot {
      bool small = false;
      KendallResult kr;
    };
    std::vector<TauSlot> slots = parallel::ParallelMap<TauSlot>(
        strata.groups.size(), StrataGrain(strata.groups.size(), rows.size()), [&](size_t gi) {
          TauSlot slot;
          const std::vector<size_t>& stratum = strata.groups[gi];
          if (stratum.size() < options.min_stratum_size) {
            slot.small = true;
            return slot;
          }
          std::vector<double> x;
          std::vector<double> y;
          ExtractNumericPair(xc, yc, stratum, &x, &y);
          slot.kr = KendallTau(x, y);
          return slot;
        });
    for (const TauSlot& slot : slots) {
      if (slot.small) {
        ++acc.skipped;
      } else {
        acc.AddTau(slot.kr);
      }
    }
    return acc.Finish(options);
  }

  // G path: encode strata once so a permutation fallback can reuse them.
  // Encoding and the per-stratum contingency statistic run in parallel;
  // the accumulator folds the per-stratum pieces serially in stratum order
  // (both the pooled G/dof sums and the `encoded` vector the fallbacks
  // read keep their serial order).
  struct EncodedStratum {
    std::vector<int32_t> x;
    std::vector<int32_t> y;
    size_t cx = 0;
    size_t cy = 0;
    GPieces pieces;
    bool small = false;
  };
  ColumnEncodingCache* cache = options.encoding_cache;
  // `enforce_min` applies only to conditioning strata: the unconditional
  // test always runs (degenerate tables are skipped inside AddG instead).
  auto encode_stratum = [&](const std::vector<size_t>& stratum, bool enforce_min) {
    EncodedStratum e;
    if (enforce_min && stratum.size() < options.min_stratum_size) {
      e.small = true;
      return e;
    }
    uint64_t sig = cache != nullptr ? ColumnEncodingCache::RowsSignature(stratum) : 0;
    auto x_enc = EncodeAsCategoricalCached(xc, stratum, options.discretize_bins, cache, sig);
    auto y_enc = EncodeAsCategoricalCached(yc, stratum, options.discretize_bins, cache, sig);
    e.cx = x_enc->cardinality;
    e.cy = y_enc->cardinality;
    e.pieces = PiecesOf(ContingencyTable(x_enc->codes, y_enc->codes, e.cx, e.cy));
    // Keep only complete pairs: the permutation below shuffles Y within the
    // stratum and must preserve the marginals, which nulls would break.
    for (size_t i = 0; i < x_enc->codes.size(); ++i) {
      if (x_enc->codes[i] >= 0 && y_enc->codes[i] >= 0) {
        e.x.push_back(x_enc->codes[i]);
        e.y.push_back(y_enc->codes[i]);
      }
    }
    return e;
  };
  std::vector<EncodedStratum> encoded;
  StratifiedAccumulator acc;
  acc.is_tau = false;
  if (z_cols.empty()) {
    EncodedStratum e = encode_stratum(rows, /*enforce_min=*/false);
    acc.AddG(e.pieces);
    encoded.push_back(std::move(e));
  } else {
    Stratification strata = StratifyRows(table, z_cols, rows, options);
    std::vector<EncodedStratum> slots = parallel::ParallelMap<EncodedStratum>(
        strata.groups.size(), StrataGrain(strata.groups.size(), rows.size()),
        [&](size_t gi) { return encode_stratum(strata.groups[gi], /*enforce_min=*/true); });
    encoded.reserve(slots.size());
    for (EncodedStratum& e : slots) {
      if (e.small) {
        ++acc.skipped;
        continue;
      }
      acc.AddG(e.pieces);
      encoded.push_back(std::move(e));
    }
  }
  TestResult result = acc.Finish(options);

  // Optional Fisher routing: small unconditional 2×2 tables have an exact
  // null that is cheap to evaluate.
  if (options.use_fisher_for_2x2 && encoded.size() == 1 && result.strata_used == 1 &&
      result.n > 0 && result.n <= options.fisher_max_n) {
    const auto& stratum = encoded[0];
    std::optional<double> fisher_p = FisherExact2x2FromContingency(
        ContingencyTable(stratum.x, stratum.y, stratum.cx, stratum.cy));
    if (fisher_p.has_value()) {
      result.p_value = *fisher_p;
      result.used_exact = true;
      return result;
    }
  }

  // Sec. 4.3 exact-test fallback: when the χ² approximation is *grossly*
  // inadequate (dof of the order of n, or near-empty expected cells — the
  // high-cardinality FD-as-DSC regime), replace the p-value by a
  // Monte-Carlo permutation null. Only Σ f(O) over joint cells varies
  // under within-stratum permutation of Y (marginals are fixed), so that
  // sum is the comparison statistic.
  bool grossly_inadequate = result.strata_used > 0 &&
                            (result.dof >= static_cast<double>(result.n) ||
                             result.min_expected < options.g_severe_min_expected);
  if (options.allow_exact && grossly_inadequate &&
      options.permutation_fallback_iterations > 0) {
    std::vector<PermutationStratum> perm;
    perm.reserve(encoded.size());
    for (EncodedStratum& e : encoded) {
      perm.push_back(PermutationStratum{std::move(e.x), std::move(e.y)});
    }
    result.p_value = GPermutationFallbackPValue(perm, options.permutation_fallback_iterations,
                                                options.permutation_seed);
    result.used_exact = true;
  }
  return result;
}

}  // namespace

void RecordTestMetrics(const TestResult& result) {
  static obs::Counter* const tests_executed =
      obs::Metrics::Global().FindOrCreateCounter("stats.tests_executed");
  static obs::Counter* const tests_g =
      obs::Metrics::Global().FindOrCreateCounter("stats.tests_g");
  static obs::Counter* const tests_tau =
      obs::Metrics::Global().FindOrCreateCounter("stats.tests_tau");
  static obs::Counter* const tests_spearman =
      obs::Metrics::Global().FindOrCreateCounter("stats.tests_spearman");
  static obs::Counter* const tests_exact =
      obs::Metrics::Global().FindOrCreateCounter("stats.tests_exact");
  static obs::Counter* const tests_asymptotic =
      obs::Metrics::Global().FindOrCreateCounter("stats.tests_asymptotic");
  static obs::Counter* const rows_scanned =
      obs::Metrics::Global().FindOrCreateCounter("stats.rows_scanned");
  static obs::Counter* const strata_used =
      obs::Metrics::Global().FindOrCreateCounter("stats.strata_used");
  static obs::Counter* const strata_skipped =
      obs::Metrics::Global().FindOrCreateCounter("stats.strata_skipped");
  static obs::Histogram* const test_rows =
      obs::Metrics::Global().FindOrCreateHistogram("stats.test_n_rows");
  tests_executed->Add();
  rows_scanned->Add(result.n);
  test_rows->Observe(result.n);
  strata_used->Add(static_cast<int64_t>(result.strata_used));
  strata_skipped->Add(static_cast<int64_t>(result.strata_skipped));
  (result.used_exact ? tests_exact : tests_asymptotic)->Add();
  switch (result.method) {
    case TestMethod::kGTest:
      tests_g->Add();
      break;
    case TestMethod::kTauTest:
      tests_tau->Add();
      break;
    case TestMethod::kSpearmanTest:
      tests_spearman->Add();
      break;
    case TestMethod::kPermutation:
      break;  // counted by PermutationIndependenceTest
  }
}

Result<TestResult> IndependenceTest(const Table& table, int x_col, int y_col,
                                    const std::vector<int>& z_cols,
                                    const std::vector<size_t>& rows, const TestOptions& options) {
  obs::ScopedSpan span("stats/independence_test");
  Result<TestResult> result = IndependenceTestImpl(table, x_col, y_col, z_cols, rows, options);
  if (result.ok()) {
    RecordTestMetrics(*result);
    if (span.active()) {
      span.Arg("n", result->n)
          .Arg("method", TestMethodToString(result->method))
          .Arg("strata_used", static_cast<int64_t>(result->strata_used))
          .Arg("dof", result->dof)
          .Arg("p", result->p_value)
          .Arg("exact", static_cast<int64_t>(result->used_exact ? 1 : 0));
    }
  }
  return result;
}

Result<TestResult> IndependenceTest(const Table& table, int x_col, int y_col,
                                    const std::vector<int>& z_cols, const TestOptions& options) {
  std::vector<size_t> rows(table.NumRows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = i;
  }
  return IndependenceTest(table, x_col, y_col, z_cols, rows, options);
}

Result<TestResult> PermutationIndependenceTest(const Table& table, int x_col, int y_col,
                                               const std::vector<int>& z_cols, size_t iterations,
                                               Rng& rng, const TestOptions& options) {
  if (iterations == 0) {
    return InvalidArgumentError("PermutationIndependenceTest: iterations must be positive");
  }
  static obs::Counter* const tests_permutation =
      obs::Metrics::Global().FindOrCreateCounter("stats.tests_permutation");
  obs::ScopedSpan span("stats/permutation_test");
  if (span.active()) {
    span.Arg("iterations", static_cast<int64_t>(iterations));
  }
  tests_permutation->Add();
  std::vector<size_t> rows(table.NumRows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = i;
  }
  const Column& xc = table.column(static_cast<size_t>(x_col));
  const Column& yc = table.column(static_cast<size_t>(y_col));
  bool is_tau = xc.type() == ColumnType::kNumeric && yc.type() == ColumnType::kNumeric;

  // Pre-extract per-stratum (x, y) pairs so each permutation round only
  // shuffles y within its stratum.
  std::vector<std::vector<size_t>> strata;
  if (z_cols.empty()) {
    strata.push_back(rows);
  } else {
    strata = StratifyRows(table, z_cols, rows, options).groups;
  }

  struct StratumData {
    std::vector<double> x_num;
    std::vector<double> y_num;
    std::vector<int32_t> x_codes;
    std::vector<int32_t> y_codes;
    size_t cx = 0;
    size_t cy = 0;
  };
  std::vector<StratumData> data;
  for (const std::vector<size_t>& stratum : strata) {
    if (stratum.size() < options.min_stratum_size) {
      continue;
    }
    StratumData d;
    if (is_tau) {
      ExtractNumericPair(xc, yc, stratum, &d.x_num, &d.y_num);
      if (d.x_num.size() < 2) {
        continue;
      }
    } else {
      uint64_t sig = options.encoding_cache != nullptr
                         ? ColumnEncodingCache::RowsSignature(stratum)
                         : 0;
      auto x_enc = EncodeAsCategoricalCached(xc, stratum, options.discretize_bins,
                                             options.encoding_cache, sig);
      auto y_enc = EncodeAsCategoricalCached(yc, stratum, options.discretize_bins,
                                             options.encoding_cache, sig);
      d.x_codes = x_enc->codes;
      d.y_codes = y_enc->codes;
      d.cx = x_enc->cardinality;
      d.cy = y_enc->cardinality;
      if (d.x_codes.size() < 2) {
        continue;
      }
    }
    data.push_back(std::move(d));
  }

  auto evaluate = [&](const std::vector<StratumData>& ds) -> double {
    if (is_tau) {
      // |ΣS| is a monotone transform of the combined z under permutation
      // (the variance is tie-structure-only, which permutation preserves).
      double s = 0.0;
      for (const StratumData& d : ds) {
        s += static_cast<double>(KendallTau(d.x_num, d.y_num).s);
      }
      return std::fabs(s);
    }
    double g = 0.0;
    for (const StratumData& d : ds) {
      g += ContingencyTable(d.x_codes, d.y_codes, d.cx, d.cy).GStatistic();
    }
    return g;
  };

  double observed = evaluate(data);
  size_t at_least_as_extreme = 0;
  std::vector<StratumData> permuted = data;
  for (size_t iter = 0; iter < iterations; ++iter) {
    for (StratumData& d : permuted) {
      if (is_tau) {
        rng.Shuffle(d.y_num);
      } else {
        rng.Shuffle(d.y_codes);
      }
    }
    if (evaluate(permuted) >= observed) {
      ++at_least_as_extreme;
    }
  }
  TestResult result;
  result.method = TestMethod::kPermutation;
  result.statistic = observed;
  result.p_value = (static_cast<double>(at_least_as_extreme) + 1.0) /
                   (static_cast<double>(iterations) + 1.0);
  result.used_exact = true;
  result.strata_used = data.size();
  for (const StratumData& d : data) {
    result.n += static_cast<int64_t>(is_tau ? d.x_num.size() : d.x_codes.size());
  }
  return result;
}

}  // namespace scoded
