#ifndef SCODED_CORE_SC_MONITOR_H_
#define SCODED_CORE_SC_MONITOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/approximate_sc.h"
#include "stats/hypothesis.h"
#include "stats/segment_tree.h"
#include "table/table.h"

namespace scoded {

/// Per-monitor streaming policy.
struct MonitorOptions {
  /// 0 (default): unbounded — the monitor keeps its full stream state and
  /// numeric appends cost amortised O(log^2 n) via the ConcordanceIndex,
  /// each stratum's non-null rows of a batch entering it as one run.
  /// W > 0: bounded memory — only the W most recent non-null observations
  /// (FIFO across strata) contribute to the statistic; evicted rows are
  /// unwound exactly (pair weights, tie groups, contingency cells), and
  /// numeric appends cost O(W) pair scans against the live window.
  size_t window = 0;
};

/// Streaming SC enforcement (Sec. 8 future work: "incremental on-line
/// versions of SCODED"; the Sec. 1 deployment scenario: check that
/// incoming training data still satisfies the user's SCs before
/// retraining).
///
/// An ScMonitor is created for one singleton approximate SC — optionally
/// conditional on categorical columns — and then fed batches of rows. It
/// maintains the test state incrementally, per conditioning stratum:
///  * categorical pairs: sparse joint-cell counts and marginals — O(1)
///    per appended row; G, dof, and the χ² p-value come from
///    incrementally maintained Σ f(·) sums;
///  * numeric pairs: the stratum's S = n_c − n_d updated in amortised
///    O(log^2 n_stratum) per appended row through a log-structured
///    ConcordanceIndex (the on-line form of the paper's Algorithm 2
///    segment-tree machinery). Append hands each stratum's non-null rows
///    of a batch to its index at once, which takes them as one sorted run
///    (32 rows or more) or point by point; the index also keeps the
///    tie-group sums for the τ variance. Strata pool as in the batch
///    tests.
///
/// Numeric values order as in the batch τ test (NanAwareLess): a non-null
/// NaN sits above every number and ties every other NaN, in the unbounded
/// and the windowed mode alike. Statistics and p-values do not depend on
/// how the rows are cut into batches while the tie sums stay exact (below
/// 2^53; see TieSums).
///
/// The monitor reports the running p-value and whether the constraint is
/// currently violated, so a deployment pipeline can gate retraining on it.
class ScMonitor {
 public:
  /// Validates the constraint against the schema and builds an empty
  /// monitor. X and Y must both be numeric or both categorical; any
  /// conditioning columns must be categorical (streams cannot be
  /// quantile-binned before the data exists).
  static Result<ScMonitor> Create(const Table& prototype, const ApproximateSc& asc,
                                  TestOptions options = {},
                                  MonitorOptions monitor_options = {});

  ScMonitor(ScMonitor&&) = default;
  ScMonitor& operator=(ScMonitor&&) = default;

  /// Checks that `batch` can be appended (columns present, X/Y/Z types
  /// matching the monitor) without mutating any state.
  Status ValidateBatch(const Table& batch) const;

  /// Appends all rows of `batch` (same schema as the prototype). Rows
  /// with nulls in X or Y are counted but excluded from the statistic,
  /// mirroring the batch tests (registry counter
  /// `core.monitor_null_rows_skipped`). Validation runs against the whole
  /// batch up front: a failed Append leaves the monitor untouched.
  Status Append(const Table& batch);

  /// Appends one (x, y) observation directly (numeric pairs;
  /// unconditional monitors only — use Append for conditional ones).
  Status AppendNumeric(double x, double y);

  /// Appends one (x, y) observation by category name (categorical pairs;
  /// unseen categories extend the dictionaries).
  Status AppendCategorical(const std::string& x, const std::string& y);

  /// Current state.
  size_t NumRecords() const { return records_; }
  size_t NumStrata() const { return strata_.size(); }
  /// Non-null observations currently contributing to the statistic (equal
  /// to the appended non-null rows when unbounded; at most the window
  /// size in bounded-memory mode).
  size_t WindowOccupancy() const { return live_rows_; }
  double CurrentStatistic() const;
  double CurrentPValue() const;
  /// Violated under the SC's semantics: p < α for an ISC, p > α for a DSC.
  bool Violated() const;

  const ApproximateSc& constraint() const { return asc_; }
  const MonitorOptions& monitor_options() const { return monitor_options_; }

 private:
  ScMonitor() = default;

  // Bounded-memory pair window as two parallel contiguous arrays with a
  // lazily compacted head, so the per-append Kendall scan runs through the
  // simd::PairSignScan kernel over flat doubles instead of walking a
  // deque's chunked storage.
  struct PairWindow {
    std::vector<double> xs;
    std::vector<double> ys;
    size_t head = 0;

    size_t size() const { return xs.size() - head; }
    bool empty() const { return size() == 0; }
    double front_x() const { return xs[head]; }
    double front_y() const { return ys[head]; }
    const double* x_data() const { return xs.data() + head; }
    const double* y_data() const { return ys.data() + head; }
    void push_back(double x, double y) {
      xs.push_back(x);
      ys.push_back(y);
    }
    void pop_front() {
      ++head;
      if (head >= 64 && head * 2 >= xs.size()) {
        xs.erase(xs.begin(), xs.begin() + static_cast<ptrdiff_t>(head));
        ys.erase(ys.begin(), ys.begin() + static_cast<ptrdiff_t>(head));
        head = 0;
      }
    }
  };

  // Tie groups of one margin of a window: exact-value lookup by
  // NanAwareKey (all NaNs one group, ±0 one group) is all the τ variance
  // needs beside the maintained sums, so a hash map keeps updates O(1).
  struct WindowTies {
    std::unordered_map<uint64_t, int64_t> counts;
    TieSums sums;
  };

  struct Stratum {
    // --- categorical state ---
    std::map<std::pair<int32_t, int32_t>, int64_t> cells;
    std::map<int32_t, int64_t> row_marginal;
    std::map<int32_t, int64_t> col_marginal;
    int64_t n = 0;
    double sum_f_cells = 0.0;  // Σ f(·), f = t ln t, maintained per append
    double sum_f_rows = 0.0;
    double sum_f_cols = 0.0;
    // --- numeric (τ) state ---
    int64_t pairs = 0;  // live numeric observations
    int64_t s = 0;
    ConcordanceIndex index;  // unbounded mode, tie sums included
    PairWindow window;       // bounded-memory mode
    WindowTies x_ties;       // bounded-memory mode
    WindowTies y_ties;
  };

  // One evictable observation in bounded-memory mode: enough to unwind it
  // from its stratum exactly.
  struct FifoEntry {
    Stratum* stratum = nullptr;
    double x = 0.0;
    double y = 0.0;
    int32_t x_code = 0;
    int32_t y_code = 0;
  };

  struct BoundColumns {
    int x = -1;
    int y = -1;
    std::vector<int> z;
  };
  Result<BoundColumns> ResolveBatch(const Table& batch) const;

  Stratum& StratumFor(const std::string& key) { return strata_[key]; }
  void AddCategoricalCodes(Stratum& stratum, int32_t x, int32_t y);
  // Numeric rows of one stratum, in arrival order.
  void AddNumericPairs(Stratum& stratum, const double* xs, const double* ys, size_t n);
  void EvictIfFull();
  void EvictOldest();
  // Adds one append call's null-skipped rows and window evictions to the
  // registry, once per call.
  void CountAppend(size_t live_before, size_t added, size_t null_rows) const;

  ApproximateSc asc_;
  TestOptions options_;
  MonitorOptions monitor_options_;
  bool is_tau_ = false;
  size_t records_ = 0;
  size_t live_rows_ = 0;
  std::map<std::string, int32_t> x_dict_;
  std::map<std::string, int32_t> y_dict_;
  std::map<std::string, Stratum> strata_;  // key = joined Z categories
  std::deque<FifoEntry> fifo_;             // bounded-memory eviction order
};

}  // namespace scoded

#endif  // SCODED_CORE_SC_MONITOR_H_
