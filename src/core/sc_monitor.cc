#include "core/sc_monitor.h"

#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/kendall.h"
#include "stats/ranks.h"
#include "stats/simd.h"

namespace scoded {

namespace {

double XLogX(double t) { return t > 0.0 ? t * std::log(t) : 0.0; }

// Adds (+1) or removes (-1) one occurrence of `value` from a window's
// tie groups, keeping the three τ-variance sums in step.
void BumpTieGroup(std::unordered_map<uint64_t, int64_t>& counts, TieSums& sums, double value,
                  int direction) {
  const uint64_t key = NanAwareKey(value);
  int64_t& count = counts[key];
  SCODED_CHECK(count + direction >= 0);
  sums.Resize(count, count + direction);
  count += direction;
  if (count == 0) {
    counts.erase(key);
  }
}

// Adds or removes one occurrence of `key` in a contingency marginal,
// keeping the Σ f(·) sum in step.
void BumpMarginal(std::map<int32_t, int64_t>& marginal, int32_t key, int direction,
                  double* sum) {
  int64_t& count = marginal[key];
  *sum -= XLogX(static_cast<double>(count));
  count += direction;
  SCODED_CHECK(count >= 0);
  *sum += XLogX(static_cast<double>(count));
  if (count == 0) {
    marginal.erase(key);
  }
}

}  // namespace

Result<ScMonitor> ScMonitor::Create(const Table& prototype, const ApproximateSc& asc,
                                    TestOptions options, MonitorOptions monitor_options) {
  if (asc.sc.x.size() != 1 || asc.sc.y.size() != 1) {
    return UnimplementedError("ScMonitor requires singleton X and Y");
  }
  if (asc.alpha < 0.0 || asc.alpha > 1.0) {
    return InvalidArgumentError("alpha must lie in [0, 1]");
  }
  SCODED_ASSIGN_OR_RETURN(BoundConstraint bound, BindConstraint(asc.sc, prototype));
  const Column& xc = prototype.column(static_cast<size_t>(bound.x[0]));
  const Column& yc = prototype.column(static_cast<size_t>(bound.y[0]));
  bool x_numeric = xc.type() == ColumnType::kNumeric;
  bool y_numeric = yc.type() == ColumnType::kNumeric;
  if (x_numeric != y_numeric) {
    return UnimplementedError(
        "ScMonitor supports numeric/numeric and categorical/categorical pairs only");
  }
  for (int z : bound.z) {
    if (prototype.column(static_cast<size_t>(z)).type() != ColumnType::kCategorical) {
      return UnimplementedError(
          "ScMonitor conditioning columns must be categorical (a stream cannot be "
          "quantile-binned before the data exists)");
    }
  }
  ScMonitor monitor;
  monitor.asc_ = asc;
  monitor.options_ = options;
  monitor.monitor_options_ = monitor_options;
  monitor.is_tau_ = x_numeric;
  return monitor;
}

Result<ScMonitor::BoundColumns> ScMonitor::ResolveBatch(const Table& batch) const {
  BoundColumns bound;
  SCODED_ASSIGN_OR_RETURN(bound.x, batch.ColumnIndex(asc_.sc.x[0]));
  SCODED_ASSIGN_OR_RETURN(bound.y, batch.ColumnIndex(asc_.sc.y[0]));
  for (const std::string& name : asc_.sc.z) {
    SCODED_ASSIGN_OR_RETURN(int z, batch.ColumnIndex(name));
    if (batch.column(static_cast<size_t>(z)).type() != ColumnType::kCategorical) {
      return InvalidArgumentError("conditioning column '" + name + "' must be categorical");
    }
    bound.z.push_back(z);
  }
  ColumnType expected = is_tau_ ? ColumnType::kNumeric : ColumnType::kCategorical;
  if (batch.column(static_cast<size_t>(bound.x)).type() != expected ||
      batch.column(static_cast<size_t>(bound.y)).type() != expected) {
    return InvalidArgumentError("batch column types do not match the monitor");
  }
  return bound;
}

Status ScMonitor::ValidateBatch(const Table& batch) const {
  return ResolveBatch(batch).status();
}

Status ScMonitor::Append(const Table& batch) {
  static obs::Counter* const batches_counter =
      obs::Metrics::Global().FindOrCreateCounter("core.monitor_batches");
  // Validate the whole batch before touching any state: a failed Append
  // must leave the monitor exactly as it was.
  SCODED_ASSIGN_OR_RETURN(BoundColumns bound, ResolveBatch(batch));
  batches_counter->Add();
  obs::ScopedSpan span("core/monitor/append");
  if (span.active()) {
    span.Arg("rows", static_cast<int64_t>(batch.NumRows()));
  }
  const Column& xc = batch.column(static_cast<size_t>(bound.x));
  const Column& yc = batch.column(static_cast<size_t>(bound.y));
  const size_t live_before = live_rows_;
  size_t null_rows = 0;
  // Unbounded τ strata take their rows of the batch as one run each.
  struct StratumRows {
    std::vector<double> xs;
    std::vector<double> ys;
  };
  const bool batch_runs = is_tau_ && monitor_options_.window == 0;
  std::unordered_map<Stratum*, StratumRows> pending;
  for (size_t i = 0; i < batch.NumRows(); ++i) {
    ++records_;
    if (xc.IsNull(i) || yc.IsNull(i)) {
      ++null_rows;
      continue;
    }
    // Stratum key: the conditioning categories joined with an unlikely
    // separator (nulls form their own stratum).
    std::string key;
    for (int z : bound.z) {
      const Column& zc = batch.column(static_cast<size_t>(z));
      key += zc.IsNull(i) ? std::string("\x01<null>") : zc.CategoryAt(i);
      key.push_back('\x1f');
    }
    Stratum& stratum = StratumFor(key);
    if (batch_runs) {
      StratumRows& rows = pending[&stratum];
      rows.xs.push_back(xc.NumericAt(i));
      rows.ys.push_back(yc.NumericAt(i));
    } else if (is_tau_) {
      const double x = xc.NumericAt(i);
      const double y = yc.NumericAt(i);
      AddNumericPairs(stratum, &x, &y, 1);
    } else {
      auto [xit, xi] = x_dict_.emplace(xc.CategoryAt(i), static_cast<int32_t>(x_dict_.size()));
      auto [yit, yi] = y_dict_.emplace(yc.CategoryAt(i), static_cast<int32_t>(y_dict_.size()));
      AddCategoricalCodes(stratum, xit->second, yit->second);
    }
  }
  for (auto& [stratum, rows] : pending) {
    AddNumericPairs(*stratum, rows.xs.data(), rows.ys.data(), rows.xs.size());
  }
  CountAppend(live_before, batch.NumRows() - null_rows, null_rows);
  return OkStatus();
}

Status ScMonitor::AppendNumeric(double x, double y) {
  if (!is_tau_) {
    return FailedPreconditionError("AppendNumeric on a categorical monitor");
  }
  if (!asc_.sc.z.empty()) {
    return FailedPreconditionError("AppendNumeric on a conditional monitor; use Append");
  }
  ++records_;
  const size_t live_before = live_rows_;
  AddNumericPairs(StratumFor(""), &x, &y, 1);
  CountAppend(live_before, 1, 0);
  return OkStatus();
}

Status ScMonitor::AppendCategorical(const std::string& x, const std::string& y) {
  if (is_tau_) {
    return FailedPreconditionError("AppendCategorical on a numeric monitor");
  }
  if (!asc_.sc.z.empty()) {
    return FailedPreconditionError("AppendCategorical on a conditional monitor; use Append");
  }
  ++records_;
  const size_t live_before = live_rows_;
  auto [xit, xi] = x_dict_.emplace(x, static_cast<int32_t>(x_dict_.size()));
  auto [yit, yi] = y_dict_.emplace(y, static_cast<int32_t>(y_dict_.size()));
  AddCategoricalCodes(StratumFor(""), xit->second, yit->second);
  CountAppend(live_before, 1, 0);
  return OkStatus();
}

void ScMonitor::AddCategoricalCodes(Stratum& stratum, int32_t x, int32_t y) {
  BumpMarginal(stratum.row_marginal, x, +1, &stratum.sum_f_rows);
  BumpMarginal(stratum.col_marginal, y, +1, &stratum.sum_f_cols);
  int64_t& cell = stratum.cells[{x, y}];
  stratum.sum_f_cells -= XLogX(static_cast<double>(cell));
  ++cell;
  stratum.sum_f_cells += XLogX(static_cast<double>(cell));
  ++stratum.n;
  ++live_rows_;
  if (monitor_options_.window > 0) {
    FifoEntry entry;
    entry.stratum = &stratum;
    entry.x_code = x;
    entry.y_code = y;
    fifo_.push_back(entry);
    EvictIfFull();
  }
}

void ScMonitor::AddNumericPairs(Stratum& stratum, const double* xs, const double* ys, size_t n) {
  if (monitor_options_.window == 0) {
    // On-line Algorithm 2: the index scores the rows against everything
    // already indexed and against each other in amortised O(log^2 n).
    stratum.s += stratum.index.Append(xs, ys, n);
    stratum.pairs += static_cast<int64_t>(n);
    live_rows_ += n;
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    // Bounded-memory mode: exact pair scan against the live window (the
    // signed sum is exactly Σ PairWeight).
    int64_t s = 0;
    int64_t nonzero = 0;
    simd::PairSignScan(stratum.window.x_data(), stratum.window.y_data(), stratum.window.size(),
                       xs[i], ys[i], &s, &nonzero);
    stratum.s += s;
    stratum.window.push_back(xs[i], ys[i]);
    BumpTieGroup(stratum.x_ties.counts, stratum.x_ties.sums, xs[i], +1);
    BumpTieGroup(stratum.y_ties.counts, stratum.y_ties.sums, ys[i], +1);
    ++stratum.pairs;
    ++live_rows_;
    FifoEntry entry;
    entry.stratum = &stratum;
    entry.x = xs[i];
    entry.y = ys[i];
    fifo_.push_back(entry);
    EvictIfFull();
  }
}

void ScMonitor::EvictIfFull() {
  while (live_rows_ > monitor_options_.window) {
    EvictOldest();
  }
}

void ScMonitor::EvictOldest() {
  SCODED_CHECK(!fifo_.empty());
  FifoEntry entry = fifo_.front();
  fifo_.pop_front();
  Stratum& stratum = *entry.stratum;
  if (is_tau_) {
    // Per-stratum windows preserve arrival order, so the globally oldest
    // observation is the front of its stratum's deque.
    SCODED_CHECK(!stratum.window.empty());
    SCODED_CHECK(NanAwareEqual(stratum.window.front_x(), entry.x) &&
                 NanAwareEqual(stratum.window.front_y(), entry.y));
    stratum.window.pop_front();
    int64_t s = 0;
    int64_t nonzero = 0;
    simd::PairSignScan(stratum.window.x_data(), stratum.window.y_data(), stratum.window.size(),
                       entry.x, entry.y, &s, &nonzero);
    stratum.s -= s;
    BumpTieGroup(stratum.x_ties.counts, stratum.x_ties.sums, entry.x, -1);
    BumpTieGroup(stratum.y_ties.counts, stratum.y_ties.sums, entry.y, -1);
    --stratum.pairs;
  } else {
    BumpMarginal(stratum.row_marginal, entry.x_code, -1, &stratum.sum_f_rows);
    BumpMarginal(stratum.col_marginal, entry.y_code, -1, &stratum.sum_f_cols);
    auto cell = stratum.cells.find({entry.x_code, entry.y_code});
    SCODED_CHECK(cell != stratum.cells.end() && cell->second > 0);
    stratum.sum_f_cells -= XLogX(static_cast<double>(cell->second));
    --cell->second;
    stratum.sum_f_cells += XLogX(static_cast<double>(cell->second));
    if (cell->second == 0) {
      stratum.cells.erase(cell);
    }
    --stratum.n;
  }
  --live_rows_;
}

void ScMonitor::CountAppend(size_t live_before, size_t added, size_t null_rows) const {
  static obs::Counter* const null_rows_counter =
      obs::Metrics::Global().FindOrCreateCounter("core.monitor_null_rows_skipped");
  static obs::Counter* const evicted_counter =
      obs::Metrics::Global().FindOrCreateCounter("core.monitor_rows_evicted");
  // Each live add raises live_rows_ by one and each eviction lowers it by
  // one, so the evictions are the adds the occupancy change leaves over.
  size_t evicted = live_before + added - live_rows_;
  if (null_rows > 0) {
    null_rows_counter->Add(static_cast<int64_t>(null_rows));
  }
  if (evicted > 0) {
    evicted_counter->Add(static_cast<int64_t>(evicted));
  }
}

double ScMonitor::CurrentStatistic() const {
  if (is_tau_) {
    int64_t total = 0;
    for (const auto& [key, stratum] : strata_) {
      (void)key;
      total += stratum.s;
    }
    return std::fabs(static_cast<double>(total));
  }
  double g_half = 0.0;
  for (const auto& [key, stratum] : strata_) {
    (void)key;
    if (stratum.n < 2) {
      continue;
    }
    g_half += stratum.sum_f_cells - stratum.sum_f_rows - stratum.sum_f_cols +
              XLogX(static_cast<double>(stratum.n));
  }
  return std::max(0.0, 2.0 * g_half);
}

double ScMonitor::CurrentPValue() const {
  if (is_tau_) {
    // Tie-corrected Gaussian approximation pooled over strata: S values
    // and Var(S) values add (the same combination as the batch tests).
    double total_s = 0.0;
    double total_var = 0.0;
    for (const auto& [key, stratum] : strata_) {
      (void)key;
      double n = static_cast<double>(stratum.pairs);
      if (n < 2.0) {
        continue;
      }
      total_s += static_cast<double>(stratum.s);
      const bool windowed = monitor_options_.window > 0;
      const TieSums& xt = windowed ? stratum.x_ties.sums : stratum.index.x_ties();
      const TieSums& yt = windowed ? stratum.y_ties.sums : stratum.index.y_ties();
      double v0 = n * (n - 1.0) * (2.0 * n + 5.0);
      double var = (v0 - xt.t3 - yt.t3) / 18.0;
      var += xt.t1 * yt.t1 / (2.0 * n * (n - 1.0));
      if (n > 2.0) {
        var += xt.t2 * yt.t2 / (9.0 * n * (n - 1.0) * (n - 2.0));
      }
      total_var += std::max(0.0, var);
    }
    if (total_var <= 0.0) {
      return 1.0;
    }
    return NormalTwoSidedP(total_s / std::sqrt(total_var));
  }
  double dof = 0.0;
  bool any = false;
  for (const auto& [key, stratum] : strata_) {
    (void)key;
    if (stratum.n < 2) {
      continue;
    }
    size_t live_rows = 0;
    size_t live_cols = 0;
    for (const auto& [code, count] : stratum.row_marginal) {
      (void)code;
      live_rows += count > 0 ? 1 : 0;
    }
    for (const auto& [code, count] : stratum.col_marginal) {
      (void)code;
      live_cols += count > 0 ? 1 : 0;
    }
    dof += std::max(1.0, (static_cast<double>(live_rows) - 1.0) *
                             (static_cast<double>(live_cols) - 1.0));
    any = true;
  }
  if (!any) {
    return 1.0;
  }
  return ChiSquaredSf(CurrentStatistic(), std::max(1.0, dof));
}

bool ScMonitor::Violated() const {
  double p = CurrentPValue();
  return asc_.sc.is_independence() ? p < asc_.alpha : p > asc_.alpha;
}

}  // namespace scoded
