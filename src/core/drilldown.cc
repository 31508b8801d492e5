#include "core/drilldown.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>

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

// benefit[j] -= PairWeight(xr, yr, x[j], y[j]) for j in [0, n), two lanes
// per step. A lane compare yields all-ones (−1) where it holds; x > and <
// exclude each other, as do y's, so at most one of the concordant and
// discordant masks is set, and adding concordant − discordant subtracts
// the pair's weight.
// NaN and ±0 compare exactly as in PairWeight, so the result is
// bit-identical to the scalar loop.
void SubtractPairWeights(double xr, double yr, const double* x, const double* y,
                         int64_t* benefit, size_t n) {
  typedef double Pair __attribute__((vector_size(16)));
  using Mask = decltype(Pair{} < Pair{});
  static_assert(sizeof(Mask) == 2 * sizeof(int64_t), "two int64 lanes");
  const Pair xv = {xr, xr};
  const Pair yv = {yr, yr};
  size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    Pair xj = {};
    Pair yj = {};
    Mask b = {};
    std::memcpy(&xj, x + j, sizeof(xj));
    std::memcpy(&yj, y + j, sizeof(yj));
    std::memcpy(&b, benefit + j, sizeof(b));
    Mask x_gt = xv > xj;
    Mask x_lt = xv < xj;
    Mask y_gt = yv > yj;
    Mask y_lt = yv < yj;
    b += ((x_gt & y_gt) | (x_lt & y_lt)) - ((x_gt & y_lt) | (x_lt & y_gt));
    std::memcpy(benefit + j, &b, sizeof(b));
  }
  for (; j < n; ++j) {
    benefit[j] -= PairWeight(xr, yr, x[j], y[j]);
  }
}

// --------------------------------------------------------------------------
// τ engine: benefits initialised by two segment-tree passes (Algorithm 2),
// then maintained exactly under removals. Records are packed per stratum
// into flat slot arrays: stratum s owns
// [begin_[s], begin_[s] + stratum_alive_[s]), and a removal moves the
// stratum's last alive slot into the hole. Each SelectAndRemove is one
// chunked pass over the alive slots: a chunk first applies the previous
// removal's pair weights to its slots of that removal's stratum (linear in
// the stratum, as in the paper's analysis), then scores its slots for this
// call's goal.
// --------------------------------------------------------------------------
class TauEngine : public DrilldownEngine {
 public:
  TauEngine(const std::vector<double>& x, const std::vector<double>& y,
            const std::vector<size_t>& strata, const std::vector<size_t>& row_ids,
            size_t num_strata)
      : x_(x.size()),
        y_(y.size()),
        benefit_(x.size()),
        row_(x.size()),
        begin_(num_strata + 1, 0),
        stratum_alive_(num_strata, 0),
        alive_end_(num_strata, 0) {
    // Slots in input order within each stratum.
    for (size_t s : strata) {
      ++stratum_alive_[s];
    }
    for (size_t s = 0; s < num_strata; ++s) {
      begin_[s + 1] = begin_[s] + stratum_alive_[s];
    }
    std::vector<size_t> next(begin_.begin(), begin_.end() - 1);
    for (size_t i = 0; i < x.size(); ++i) {
      size_t slot = next[strata[i]]++;
      x_[slot] = x[i];
      y_[slot] = y[i];
      row_[slot] = row_ids[i];
    }
    parallel::ParallelFor(0, num_strata, 1, [&](size_t s) {
      std::vector<double> xs(x_.begin() + begin_[s], x_.begin() + begin_[s + 1]);
      std::vector<double> ys(y_.begin() + begin_[s], y_.begin() + begin_[s + 1]);
      std::vector<int64_t> benefits = ComputeTauBenefits(xs, ys);
      std::copy(benefits.begin(), benefits.end(), benefit_.begin() + begin_[s]);
    });
    for (size_t s = 0; s < num_strata; ++s) {
      int64_t sum = 0;
      for (size_t i = begin_[s]; i < begin_[s + 1]; ++i) {
        sum += benefit_[i];
      }
      // Each pair's weight is counted once in each endpoint's benefit.
      total_s_ += sum / 2;
    }
    alive_count_ = x.size();
  }

  size_t AliveCount() const override { return alive_count_; }

  bool SelectAndRemove(RemovalGoal goal, size_t* removed_row) override {
    if (alive_count_ == 0) {
      return false;
    }
    // The pass walks the alive slots as one index space [0, alive_count_):
    // stratum s holds [alive_end_[s] − stratum_alive_[s], alive_end_[s]).
    size_t end = 0;
    for (size_t s = 0; s < stratum_alive_.size(); ++s) {
      end += stratum_alive_[s];
      alive_end_[s] = end;
    }
    double current_abs = std::fabs(static_cast<double>(total_s_));
    // Each chunk reports its best candidate under the serial rule — max
    // improvement, ties broken by the smaller row id — and the winners
    // fold in chunk order. The rule is a total order over (improvement,
    // row id), so the pick is the same for any chunk grid or slot order,
    // at any thread count.
    std::vector<BestCandidate> partials = parallel::ParallelChunks<BestCandidate>(
        alive_count_, kScanGrain, [&](size_t lo, size_t hi) {
          if (pending_stratum_ != SIZE_MAX) {
            auto [first, last] = SlotsIn(pending_stratum_, lo, hi);
            SubtractPairWeights(pending_x_, pending_y_, x_.data() + first, y_.data() + first,
                                benefit_.data() + first, last - first);
          }
          BestCandidate best;
          size_t s = static_cast<size_t>(
              std::upper_bound(alive_end_.begin(), alive_end_.end(), lo) - alive_end_.begin());
          for (; s < stratum_alive_.size() && alive_end_[s] - stratum_alive_[s] < hi; ++s) {
            auto [first, last] = SlotsIn(s, lo, hi);
            for (size_t i = first; i < last; ++i) {
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
    size_t s = static_cast<size_t>(std::upper_bound(begin_.begin(), begin_.end(), best) -
                                   begin_.begin()) - 1;
    total_s_ -= benefit_[best];
    *removed_row = row_[best];
    pending_stratum_ = s;
    pending_x_ = x_[best];
    pending_y_ = y_[best];
    size_t last = begin_[s] + stratum_alive_[s] - 1;
    x_[best] = x_[last];
    y_[best] = y_[last];
    benefit_[best] = benefit_[last];
    row_[best] = row_[last];
    --stratum_alive_[s];
    --alive_count_;
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
    for (size_t alive : stratum_alive_) {
      double ns = static_cast<double>(alive);
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
  // The slots of stratum s's alive run that fall in [lo, hi) of the
  // pass's index space.
  std::pair<size_t, size_t> SlotsIn(size_t s, size_t lo, size_t hi) const {
    size_t run = alive_end_[s] - stratum_alive_[s];
    size_t a = std::max(lo, run);
    size_t b = std::max(a, std::min(hi, alive_end_[s]));
    return {begin_[s] + (a - run), begin_[s] + (b - run)};
  }

  // Slot arrays, packed per stratum.
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<int64_t> benefit_;
  std::vector<size_t> row_;
  std::vector<size_t> begin_;          // first slot of each stratum, plus the end
  std::vector<size_t> stratum_alive_;  // alive slots per stratum
  std::vector<size_t> alive_end_;      // running sum of stratum_alive_, set per pass
  // The last removal, whose pair weights the next pass subtracts from its
  // stratum's benefits; SIZE_MAX before the first removal.
  size_t pending_stratum_ = SIZE_MAX;
  double pending_x_ = 0.0;
  double pending_y_ = 0.0;
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
    std::unordered_map<CellKey, size_t, CellKeyHash> cell_index;
    for (size_t i = 0; i < x_codes.size(); ++i) {
      CellKey key{strata[i], (static_cast<uint64_t>(static_cast<uint32_t>(x_codes[i])) << 32) |
                                 static_cast<uint64_t>(static_cast<uint32_t>(y_codes[i]))};
      auto [it, inserted] = cell_index.try_emplace(key, cells_.size());
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
  // A cell's (stratum, x, y): the two 32-bit codes fill one word exactly,
  // so distinct cells never share a key.
  struct CellKey {
    size_t stratum;
    uint64_t xy;
    bool operator==(const CellKey& other) const {
      return stratum == other.stratum && xy == other.xy;
    }
  };
  struct CellKeyHash {
    size_t operator()(const CellKey& key) const {
      return static_cast<size_t>((key.xy ^ (static_cast<uint64_t>(key.stratum) << 17)) *
                                 0x9E3779B97F4A7C15ull);
    }
  };
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
    return std::unique_ptr<DrilldownEngine>(new TauEngine(x, y, st, ids, num_strata));
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
  SCODED_ASSIGN_OR_RETURN(DrillDownResult result, DrillDown(table, asc, max_rank, options));
  return std::move(result.rows);
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
