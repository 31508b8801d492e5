#include "core/drilldown.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/check.h"
#include "common/math.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/encoding_cache.h"
#include "stats/kendall.h"
#include "stats/ranks.h"
#include "table/group_by.h"

namespace scoded {

namespace internal {

namespace {

// t·ln t with the 0·ln 0 := 0 convention.
double XLogX(double t) { return t > 0.0 ? t * std::log(t) : 0.0; }

// Chunk grain for the greedy loops' parallel scans. Fixed (never derived
// from the thread count) so the chunk grid — and the in-order fold of the
// per-chunk argmax winners — is identical at every thread count; also the
// serial cutoff: scans below one grain run inline with zero pool traffic.
constexpr size_t kScanGrain = 4096;

// Per-chunk argmax candidate for the greedy selection scans.
struct BestCandidate {
  double improvement = -std::numeric_limits<double>::infinity();
  size_t index = SIZE_MAX;
};

// --------------------------------------------------------------------------
// τ engine: benefits initialised by two segment-tree passes (Algorithm 2),
// then maintained exactly under removals (each update is linear in the
// stratum size, matching the paper's efficiency analysis).
// --------------------------------------------------------------------------
class TauEngine : public DrilldownEngine {
 public:
  TauEngine(std::vector<double> x, std::vector<double> y, std::vector<size_t> strata,
            std::vector<size_t> row_ids, size_t num_strata)
      : x_(std::move(x)),
        y_(std::move(y)),
        stratum_(std::move(strata)),
        row_(std::move(row_ids)),
        alive_(x_.size(), true),
        benefit_(x_.size(), 0),
        members_(num_strata),
        stratum_s_(num_strata, 0),
        stratum_alive_(num_strata, 0) {
    size_t n = x_.size();
    for (size_t i = 0; i < n; ++i) {
      members_[stratum_[i]].push_back(i);
      ++stratum_alive_[stratum_[i]];
    }
    for (size_t s = 0; s < members_.size(); ++s) {
      const std::vector<size_t>& member = members_[s];
      std::vector<double> xs;
      std::vector<double> ys;
      xs.reserve(member.size());
      ys.reserve(member.size());
      for (size_t i : member) {
        xs.push_back(x_[i]);
        ys.push_back(y_[i]);
      }
      std::vector<int64_t> benefits = ComputeTauBenefits(xs, ys);
      int64_t sum = 0;
      for (size_t j = 0; j < member.size(); ++j) {
        benefit_[member[j]] = benefits[j];
        sum += benefits[j];
      }
      // Each pair's weight is counted once in each endpoint's benefit.
      stratum_s_[s] = sum / 2;
      total_s_ += stratum_s_[s];
    }
    alive_count_ = n;
  }

  size_t AliveCount() const override { return alive_count_; }

  bool SelectAndRemove(RemovalGoal goal, size_t* removed_row) override {
    if (alive_count_ == 0) {
      return false;
    }
    double current_abs = std::fabs(static_cast<double>(total_s_));
    // Chunked argmax: each chunk reports its best candidate under the
    // serial rule — max improvement, ties broken by the smaller row id —
    // and the winners fold in chunk order. The rule is a total order over
    // (improvement, row id), so the fold reproduces the serial pick
    // exactly at any thread count.
    std::vector<BestCandidate> partials = parallel::ParallelChunks<BestCandidate>(
        x_.size(), kScanGrain, [&](size_t lo, size_t hi) {
          BestCandidate best;
          for (size_t i = lo; i < hi; ++i) {
            if (!alive_[i]) {
              continue;
            }
            double after_abs = std::fabs(static_cast<double>(total_s_ - benefit_[i]));
            double improvement = goal == RemovalGoal::kReduceDependence
                                     ? current_abs - after_abs
                                     : after_abs - current_abs;
            if (improvement > best.improvement ||
                (improvement == best.improvement && best.index != SIZE_MAX &&
                 row_[i] < row_[best.index])) {
              best.improvement = improvement;
              best.index = i;
            }
          }
          return best;
        });
    double best_improvement = -std::numeric_limits<double>::infinity();
    size_t best = SIZE_MAX;
    for (const BestCandidate& candidate : partials) {
      if (candidate.index == SIZE_MAX) {
        continue;
      }
      if (candidate.improvement > best_improvement ||
          (candidate.improvement == best_improvement && best != SIZE_MAX &&
           row_[candidate.index] < row_[best])) {
        best_improvement = candidate.improvement;
        best = candidate.index;
      }
    }
    SCODED_CHECK(best != SIZE_MAX);
    Remove(best);
    *removed_row = row_[best];
    return true;
  }

  double CurrentStatistic() const override {
    return std::fabs(static_cast<double>(total_s_));
  }

  double CurrentPValue() const override {
    // No-ties Gaussian approximation of the combined conditional S; the
    // greedy loop only needs a monotone surrogate, and callers re-test the
    // final subset exactly via DetectViolation.
    double var = 0.0;
    for (size_t s = 0; s < stratum_alive_.size(); ++s) {
      double ns = static_cast<double>(stratum_alive_[s]);
      if (ns >= 2.0) {
        var += ns * (ns - 1.0) * (2.0 * ns + 5.0) / 18.0;
      }
    }
    if (var <= 0.0) {
      return 1.0;
    }
    double z = static_cast<double>(total_s_) / std::sqrt(var);
    return NormalTwoSidedP(z);
  }

 private:
  void Remove(size_t i) {
    size_t s = stratum_[i];
    stratum_s_[s] -= benefit_[i];
    total_s_ -= benefit_[i];
    alive_[i] = false;
    --alive_count_;
    --stratum_alive_[s];
    // Each member's benefit slot is written by exactly one iteration and
    // alive_/x_/y_ are read-only here, so the updates parallelise freely.
    const std::vector<size_t>& member = members_[s];
    parallel::ParallelFor(0, member.size(), kScanGrain, [&](size_t m) {
      size_t j = member[m];
      if (!alive_[j]) {
        return;
      }
      benefit_[j] -= PairWeight(x_[i], y_[i], x_[j], y_[j]);
    });
  }

  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<size_t> stratum_;
  std::vector<size_t> row_;
  std::vector<bool> alive_;
  std::vector<int64_t> benefit_;
  std::vector<std::vector<size_t>> members_;
  std::vector<int64_t> stratum_s_;
  std::vector<int64_t> stratum_alive_;
  int64_t total_s_ = 0;
  size_t alive_count_ = 0;
};

// --------------------------------------------------------------------------
// G engine: records grouped into contingency cells (Sec. 5.3 "Categorical
// Data"); removing one record from cell (x, y) changes
//   G/2 = Σ f(O) − Σ f(R) − Σ f(C) + f(N)   (f = t·ln t)
// by four O(1) terms, so each greedy step costs O(#live cells). Each term
// is a bracket f(t−1) − f(t) of one count — the cell's, its row and
// column marginals', and the stratum's n — cached beside that count and
// refreshed when a removal changes it, so the scan does no logs.
// --------------------------------------------------------------------------
class GEngine : public DrilldownEngine {
 public:
  GEngine(const std::vector<int32_t>& x_codes, const std::vector<int32_t>& y_codes,
          const std::vector<size_t>& strata, const std::vector<size_t>& row_ids,
          size_t num_strata, size_t cx, size_t cy, GObjective objective)
      : cx_(cx), cy_(cy), objective_(objective) {
    strata_.resize(num_strata);
    for (StratumState& st : strata_) {
      st.row_marginal.assign(cx_, 0);
      st.col_marginal.assign(cy_, 0);
    }
    std::unordered_map<uint64_t, size_t> cell_index;
    for (size_t i = 0; i < x_codes.size(); ++i) {
      uint64_t key = (static_cast<uint64_t>(strata[i]) << 40) |
                     (static_cast<uint64_t>(static_cast<uint32_t>(x_codes[i])) << 20) |
                     static_cast<uint64_t>(static_cast<uint32_t>(y_codes[i]));
      auto [it, inserted] = cell_index.emplace(key, cells_.size());
      if (inserted) {
        Cell cell;
        cell.stratum = strata[i];
        cell.x = static_cast<size_t>(x_codes[i]);
        cell.y = static_cast<size_t>(y_codes[i]);
        cells_.push_back(std::move(cell));
      }
      Cell& cell = cells_[it->second];
      cell.rows.push_back(row_ids[i]);
      ++cell.count;
      StratumState& st = strata_[strata[i]];
      ++st.row_marginal[cell.x];
      ++st.col_marginal[cell.y];
      ++st.n;
      ++alive_count_;
    }
    g_half_ = 0.0;
    for (StratumState& st : strata_) {
      g_half_ += XLogX(static_cast<double>(st.n));
      st.n_drop = Drop(st.n);
      st.row_drop.reserve(cx_);
      for (int64_t m : st.row_marginal) {
        g_half_ -= XLogX(static_cast<double>(m));
        st.live_rows += m > 0 ? 1 : 0;
        st.row_drop.push_back(Drop(m));
      }
      st.col_drop.reserve(cy_);
      for (int64_t m : st.col_marginal) {
        g_half_ -= XLogX(static_cast<double>(m));
        st.live_cols += m > 0 ? 1 : 0;
        st.col_drop.push_back(Drop(m));
      }
    }
    for (Cell& cell : cells_) {
      g_half_ += XLogX(static_cast<double>(cell.count));
      cell.drop = Drop(cell.count);
    }
  }

  size_t AliveCount() const override { return alive_count_; }

  bool SelectAndRemove(RemovalGoal goal, size_t* removed_row) override {
    if (alive_count_ == 0) {
      return false;
    }
    // Greedy objective: the dof-centred excess statistic G − dof (the χ²
    // mean is its dof, so G − dof is a cheap monotone significance proxy).
    // Using raw G would mis-handle removals that empty a whole category —
    // e.g. deleting a typo'd Zipcode deletes one row category and ~C dof
    // with it, a large significance gain invisible to ΔG alone.
    // Chunked argmax with the serial tie rule (strict > keeps the first
    // cell index); folding the chunk winners in chunk order keeps exactly
    // the first-lowest-index maximiser the serial scan would pick.
    std::vector<BestCandidate> partials = parallel::ParallelChunks<BestCandidate>(
        cells_.size(), kScanGrain, [&](size_t lo, size_t hi) {
          BestCandidate best;
          for (size_t c = lo; c < hi; ++c) {
            const Cell& cell = cells_[c];
            if (cell.count == 0) {
              continue;
            }
            double delta_excess = 2.0 * RemovalDeltaHalf(cell);
            if (objective_ == GObjective::kExcess) {
              delta_excess -= RemovalDeltaDof(cell);
            }
            double improvement =
                goal == RemovalGoal::kReduceDependence ? -delta_excess : delta_excess;
            if (improvement > best.improvement) {
              best.improvement = improvement;
              best.index = c;
            }
          }
          return best;
        });
    double best_improvement = -std::numeric_limits<double>::infinity();
    size_t best = SIZE_MAX;
    for (const BestCandidate& candidate : partials) {
      if (candidate.index != SIZE_MAX && candidate.improvement > best_improvement) {
        best_improvement = candidate.improvement;
        best = candidate.index;
      }
    }
    SCODED_CHECK(best != SIZE_MAX);
    Cell& cell = cells_[best];
    g_half_ += RemovalDeltaHalf(cell);
    StratumState& st = strata_[cell.stratum];
    --cell.count;
    --st.row_marginal[cell.x];
    --st.col_marginal[cell.y];
    if (st.row_marginal[cell.x] == 0) {
      --st.live_rows;
    }
    if (st.col_marginal[cell.y] == 0) {
      --st.live_cols;
    }
    --st.n;
    cell.drop = Drop(cell.count);
    st.row_drop[cell.x] = Drop(st.row_marginal[cell.x]);
    st.col_drop[cell.y] = Drop(st.col_marginal[cell.y]);
    st.n_drop = Drop(st.n);
    --alive_count_;
    *removed_row = cell.rows.back();
    cell.rows.pop_back();
    return true;
  }

  double CurrentStatistic() const override { return std::max(0.0, 2.0 * g_half_); }

  double CurrentPValue() const override {
    double dof = 0.0;
    bool any = false;
    for (const StratumState& st : strata_) {
      if (st.n < 2) {
        continue;
      }
      dof += std::max(1.0, (static_cast<double>(st.live_rows) - 1.0) *
                               (static_cast<double>(st.live_cols) - 1.0));
      any = true;
    }
    if (!any) {
      return 1.0;
    }
    return ChiSquaredSf(CurrentStatistic(), std::max(1.0, dof));
  }

 private:
  struct Cell {
    size_t stratum = 0;
    size_t x = 0;
    size_t y = 0;
    int64_t count = 0;
    double drop = 0.0;         // Drop(count)
    std::vector<size_t> rows;  // stack: removals pop the most recent row
  };
  struct StratumState {
    std::vector<int64_t> row_marginal;
    std::vector<int64_t> col_marginal;
    std::vector<double> row_drop;  // Drop(row_marginal[x])
    std::vector<double> col_drop;  // Drop(col_marginal[y])
    int64_t n = 0;
    double n_drop = 0.0;           // Drop(n)
    int64_t live_rows = 0;  // categories with a positive marginal
    int64_t live_cols = 0;
  };

  // f(t−1) − f(t): the change to one f term of G/2 when its count t
  // loses a record.
  static double Drop(int64_t count) {
    double t = static_cast<double>(count);
    return XLogX(t - 1.0) - XLogX(t);
  }

  // Change to the stratum's dof (live_rows−1)(live_cols−1) if one record
  // were removed from `cell`.
  double RemovalDeltaDof(const Cell& cell) const {
    const StratumState& st = strata_[cell.stratum];
    bool drop_row = st.row_marginal[cell.x] == 1;
    bool drop_col = st.col_marginal[cell.y] == 1;
    if (!drop_row && !drop_col) {
      return 0.0;
    }
    auto dof = [](int64_t r, int64_t c) {
      return std::max(0.0, (static_cast<double>(r) - 1.0) * (static_cast<double>(c) - 1.0));
    };
    double before = dof(st.live_rows, st.live_cols);
    double after = dof(st.live_rows - (drop_row ? 1 : 0), st.live_cols - (drop_col ? 1 : 0));
    return after - before;
  }

  // Change to G/2 caused by removing one record from `cell`.
  double RemovalDeltaHalf(const Cell& cell) const {
    const StratumState& st = strata_[cell.stratum];
    return cell.drop - st.row_drop[cell.x] - st.col_drop[cell.y] + st.n_drop;
  }

  size_t cx_;
  size_t cy_;
  GObjective objective_;
  std::vector<Cell> cells_;
  std::vector<StratumState> strata_;
  double g_half_ = 0.0;
  size_t alive_count_ = 0;
};

}  // namespace

Result<std::unique_ptr<DrilldownEngine>> MakeEngine(const Table& table, int x_col, int y_col,
                                                    const std::vector<int>& z_cols,
                                                    const std::vector<size_t>& rows,
                                                    const TestOptions& options,
                                                    GObjective g_objective) {
  if (x_col < 0 || static_cast<size_t>(x_col) >= table.NumColumns() || y_col < 0 ||
      static_cast<size_t>(y_col) >= table.NumColumns() || x_col == y_col) {
    return InvalidArgumentError("MakeEngine: invalid X/Y column indices");
  }
  const Column& xc = table.column(static_cast<size_t>(x_col));
  const Column& yc = table.column(static_cast<size_t>(y_col));

  // Stratum id per candidate row.
  std::vector<size_t> strata(rows.size(), 0);
  size_t num_strata = 1;
  if (!z_cols.empty()) {
    Stratification grouped = StratifyRows(table, z_cols, rows, options);
    strata = grouped.group_of_row;
    num_strata = grouped.groups.size();
  }

  bool is_tau = xc.type() == ColumnType::kNumeric && yc.type() == ColumnType::kNumeric;
  if (is_tau) {
    std::vector<double> x;
    std::vector<double> y;
    std::vector<size_t> st;
    std::vector<size_t> ids;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (xc.IsNull(rows[i]) || yc.IsNull(rows[i])) {
        continue;
      }
      x.push_back(xc.NumericAt(rows[i]));
      y.push_back(yc.NumericAt(rows[i]));
      st.push_back(strata[i]);
      ids.push_back(rows[i]);
    }
    return std::unique_ptr<DrilldownEngine>(
        new TauEngine(std::move(x), std::move(y), std::move(st), std::move(ids), num_strata));
  }

  // G engine: encode both columns as categorical codes via the shared
  // hypothesis-layer encoder (a numeric column is quantile-discretised
  // over the candidate rows, consistent with the violation-detection
  // dispatcher) — so a drill-down after a violation check on the same
  // rows hits the batch's encoding cache instead of re-encoding.
  ColumnEncodingCache* cache = options.encoding_cache;
  uint64_t rows_sig = cache != nullptr ? ColumnEncodingCache::RowsSignature(rows) : 0;
  auto x_enc = EncodeAsCategoricalCached(xc, rows, options.discretize_bins, cache, rows_sig);
  auto y_enc = EncodeAsCategoricalCached(yc, rows, options.discretize_bins, cache, rows_sig);
  size_t cx = x_enc->cardinality;
  size_t cy = y_enc->cardinality;
  const std::vector<int32_t>& x_codes = x_enc->codes;
  const std::vector<int32_t>& y_codes = y_enc->codes;
  std::vector<int32_t> fx;
  std::vector<int32_t> fy;
  std::vector<size_t> st;
  std::vector<size_t> ids;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (x_codes[i] < 0 || y_codes[i] < 0) {
      continue;
    }
    fx.push_back(x_codes[i]);
    fy.push_back(y_codes[i]);
    st.push_back(strata[i]);
    ids.push_back(rows[i]);
  }
  return std::unique_ptr<DrilldownEngine>(
      new GEngine(fx, fy, st, ids, num_strata, cx, cy, g_objective));
}

}  // namespace internal

namespace {

using internal::DrilldownEngine;
using internal::RemovalGoal;

// Picks the SC component to drill into: after decomposition, the component
// with the smallest p-value (the strongest observed dependence).
Result<BoundConstraint> ChooseComponent(const Table& table, const ApproximateSc& asc,
                                        const std::vector<size_t>& rows,
                                        const TestOptions& options) {
  std::vector<StatisticalConstraint> components = DecomposeToSingletons(asc.sc);
  SCODED_CHECK(!components.empty());
  if (components.size() == 1) {
    return BindConstraint(components[0], table);
  }
  double best_p = 2.0;
  size_t best = 0;
  for (size_t i = 0; i < components.size(); ++i) {
    SCODED_ASSIGN_OR_RETURN(BoundConstraint bound, BindConstraint(components[i], table));
    SCODED_ASSIGN_OR_RETURN(
        TestResult test,
        IndependenceTest(table, bound.x[0], bound.y[0], bound.z, rows, options));
    if (test.p_value < best_p) {
      best_p = test.p_value;
      best = i;
    }
  }
  return BindConstraint(components[best], table);
}

Strategy ResolveStrategy(const ApproximateSc& asc, Strategy requested) {
  if (requested != Strategy::kAuto) {
    return requested;
  }
  return asc.sc.is_independence() ? Strategy::kComplement : Strategy::kDirect;
}

RemovalGoal DirectGoal(const ApproximateSc& asc) {
  // K strategy: remove records so the data moves *toward* the constraint —
  // reduce dependence for an ISC, increase it for a DSC.
  return asc.sc.is_independence() ? RemovalGoal::kReduceDependence
                                  : RemovalGoal::kIncreaseDependence;
}

RemovalGoal Opposite(RemovalGoal goal) {
  return goal == RemovalGoal::kReduceDependence ? RemovalGoal::kIncreaseDependence
                                                : RemovalGoal::kReduceDependence;
}

std::vector<size_t> AllRows(const Table& table) {
  std::vector<size_t> rows(table.NumRows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = i;
  }
  return rows;
}

}  // namespace

Result<DrillDownResult> DrillDown(const Table& table, const ApproximateSc& asc, size_t k,
                                  const DrillDownOptions& options) {
  return DrillDown(table, asc, k, AllRows(table), options);
}

Result<DrillDownResult> DrillDown(const Table& table, const ApproximateSc& asc, size_t k,
                                  const std::vector<size_t>& rows,
                                  const DrillDownOptions& options) {
  static obs::Counter* const removals_counter =
      obs::Metrics::Global().FindOrCreateCounter("core.drilldown_removals");
  obs::ScopedSpan span("core/drilldown");
  if (span.active()) {
    span.Arg("k", static_cast<int64_t>(k)).Arg("rows", static_cast<int64_t>(rows.size()));
  }
  DrillDownResult result;

  // Component choice and engine construction encode the same columns over
  // the same rows; a call-scoped cache (unless the caller installed one)
  // makes the second pass free.
  ColumnEncodingCache local_cache;
  TestOptions test_options = options.test;
  if (test_options.encoding_cache == nullptr) {
    test_options.encoding_cache = &local_cache;
  }
  BoundConstraint bound;
  std::unique_ptr<DrilldownEngine> engine;
  {
    obs::ScopedSpan choose("core/drilldown/choose_component");
    SCODED_ASSIGN_OR_RETURN(bound, ChooseComponent(table, asc, rows, test_options));
  }
  {
    obs::ScopedSpan build("core/drilldown/build_engine");
    SCODED_ASSIGN_OR_RETURN(
        engine, internal::MakeEngine(table, bound.x[0], bound.y[0], bound.z, rows, test_options,
                                     options.g_objective));
  }
  obs::ScopedSpan greedy("core/drilldown/greedy");

  result.initial_statistic = engine->CurrentStatistic();
  result.initial_p = engine->CurrentPValue();
  Strategy strategy = ResolveStrategy(asc, options.strategy);
  result.strategy_used = strategy;
  RemovalGoal direct = DirectGoal(asc);
  size_t alive = engine->AliveCount();
  k = std::min(k, alive);

  if (strategy == Strategy::kDirect) {
    result.rows.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      size_t removed = 0;
      if (!engine->SelectAndRemove(direct, &removed)) {
        break;
      }
      result.rows.push_back(removed);
    }
    result.final_statistic = engine->CurrentStatistic();
    result.final_p = engine->CurrentPValue();
    removals_counter->Add(static_cast<int64_t>(result.rows.size()));
    return result;
  }

  // Kᶜ: remove the worst (for the constraint) alive-k records; what
  // remains is the suspicious set. Continuing the removals to exhaustion
  // yields an internal ordering of that set (most suspicious = removed
  // last), so prefixes of the reversed order are consistent top-k answers.
  RemovalGoal complement_goal = Opposite(direct);
  std::vector<size_t> removal_order;
  removal_order.reserve(alive);
  bool captured = false;
  while (engine->AliveCount() > 0) {
    if (!captured && engine->AliveCount() == k) {
      result.final_statistic = engine->CurrentStatistic();
      result.final_p = engine->CurrentPValue();
      captured = true;
    }
    size_t removed = 0;
    if (!engine->SelectAndRemove(complement_goal, &removed)) {
      break;
    }
    removal_order.push_back(removed);
  }
  if (!captured) {
    result.final_statistic = engine->CurrentStatistic();
    result.final_p = engine->CurrentPValue();
  }
  result.rows.assign(removal_order.rbegin(),
                     removal_order.rbegin() + static_cast<ptrdiff_t>(k));
  removals_counter->Add(static_cast<int64_t>(removal_order.size()));
  return result;
}

Result<std::vector<size_t>> RankSuspiciousRecords(const Table& table, const ApproximateSc& asc,
                                                  size_t max_rank,
                                                  const DrillDownOptions& options) {
  obs::ScopedSpan span("core/rank_suspicious");
  if (span.active()) {
    span.Arg("max_rank", static_cast<int64_t>(max_rank));
  }
  std::vector<size_t> rows = AllRows(table);
  ColumnEncodingCache local_cache;
  TestOptions test_options = options.test;
  if (test_options.encoding_cache == nullptr) {
    test_options.encoding_cache = &local_cache;
  }
  SCODED_ASSIGN_OR_RETURN(BoundConstraint bound, ChooseComponent(table, asc, rows, test_options));
  SCODED_ASSIGN_OR_RETURN(
      std::unique_ptr<DrilldownEngine> engine,
      internal::MakeEngine(table, bound.x[0], bound.y[0], bound.z, rows, test_options,
                           options.g_objective));
  Strategy strategy = ResolveStrategy(asc, options.strategy);
  RemovalGoal direct = DirectGoal(asc);
  size_t alive = engine->AliveCount();
  max_rank = std::min(max_rank, alive);

  std::vector<size_t> order;
  order.reserve(alive);
  if (strategy == Strategy::kDirect) {
    for (size_t i = 0; i < max_rank; ++i) {
      size_t removed = 0;
      if (!engine->SelectAndRemove(direct, &removed)) {
        break;
      }
      order.push_back(removed);
    }
    return order;
  }
  RemovalGoal complement_goal = Opposite(direct);
  while (engine->AliveCount() > 0) {
    size_t removed = 0;
    if (!engine->SelectAndRemove(complement_goal, &removed)) {
      break;
    }
    order.push_back(removed);
  }
  std::vector<size_t> ranking(order.rbegin(), order.rend());
  ranking.resize(std::min(max_rank, ranking.size()));
  return ranking;
}

}  // namespace scoded

namespace scoded::internal {

Result<DrillDownResult> BruteForceTopK(const Table& table, const ApproximateSc& asc, size_t k,
                                       const TestOptions& options) {
  std::vector<StatisticalConstraint> components = DecomposeToSingletons(asc.sc);
  if (components.size() != 1) {
    return UnimplementedError("BruteForceTopK requires singleton X and Y");
  }
  SCODED_ASSIGN_OR_RETURN(BoundConstraint bound, BindConstraint(components[0], table));
  size_t n = table.NumRows();
  if (k > n) {
    return InvalidArgumentError("BruteForceTopK: k exceeds the row count");
  }
  double combos = 1.0;
  for (size_t i = 0; i < k; ++i) {
    combos *= static_cast<double>(n - i) / static_cast<double>(i + 1);
    if (combos > 2e6) {
      return InvalidArgumentError("BruteForceTopK: C(n, k) too large to enumerate");
    }
  }
  std::vector<size_t> all_rows(n);
  for (size_t i = 0; i < n; ++i) {
    all_rows[i] = i;
  }

  auto statistic_without = [&](const std::vector<size_t>& removed) -> Result<double> {
    std::vector<bool> drop(n, false);
    for (size_t row : removed) {
      drop[row] = true;
    }
    std::vector<size_t> keep;
    keep.reserve(n - removed.size());
    for (size_t i = 0; i < n; ++i) {
      if (!drop[i]) {
        keep.push_back(i);
      }
    }
    SCODED_ASSIGN_OR_RETURN(
        TestResult test,
        IndependenceTest(table, bound.x[0], bound.y[0], bound.z, keep, options));
    return test.statistic;
  };

  DrillDownResult best;
  best.strategy_used = Strategy::kDirect;
  SCODED_ASSIGN_OR_RETURN(best.initial_statistic, statistic_without({}));
  bool minimise = asc.sc.is_independence();
  double best_value = minimise ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<double>::infinity();

  // Iterative combination enumeration over row subsets of size k.
  std::vector<size_t> subset(k);
  for (size_t i = 0; i < k; ++i) {
    subset[i] = i;
  }
  while (true) {
    SCODED_ASSIGN_OR_RETURN(double value, statistic_without(subset));
    if ((minimise && value < best_value) || (!minimise && value > best_value)) {
      best_value = value;
      best.rows = subset;
      best.final_statistic = value;
    }
    // Next combination.
    size_t i = k;
    while (i > 0 && subset[i - 1] == n - k + (i - 1)) {
      --i;
    }
    if (i == 0) {
      break;
    }
    ++subset[i - 1];
    for (size_t j = i; j < k; ++j) {
      subset[j] = subset[j - 1] + 1;
    }
  }
  return best;
}

}  // namespace scoded::internal
