#ifndef SCODED_CORE_DRILLDOWN_H_
#define SCODED_CORE_DRILLDOWN_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/approximate_sc.h"
#include "stats/hypothesis.h"
#include "table/table.h"

namespace scoded {

/// Greedy search strategies of Sec. 5.2.
enum class Strategy {
  /// K strategy: directly remove the k best-to-remove records.
  kDirect,
  /// Kᶜ strategy: remove the worst n-k records; the remaining k records
  /// are the answer.
  kComplement,
  /// The paper's experimental default (Sec. 6.1): K for dependence SCs,
  /// Kᶜ for independence SCs.
  kAuto,
};

/// Greedy objective of the categorical (G) drill-down engine — exposed for
/// the ablation benchmark. `kExcess` (the default) optimises the
/// dof-centred excess statistic G − dof, which correctly credits removals
/// that delete a whole spurious category (e.g. typo'd FD keys); `kRawG`
/// optimises the raw G statistic, the literal reading of Definition 7.
enum class GObjective {
  kExcess,
  kRawG,
};

/// Options for the drill-down engines.
struct DrillDownOptions {
  Strategy strategy = Strategy::kAuto;
  TestOptions test;
  GObjective g_objective = GObjective::kExcess;
};

/// Result of a top-k drill-down (Definition 7/8).
struct DrillDownResult {
  /// The k records most likely responsible for the violation, most
  /// suspicious first (original row ids).
  std::vector<size_t> rows;
  /// Dependence statistic (G, or |combined τ S|) before any removal.
  double initial_statistic = 0.0;
  /// Statistic after the strategy finished: for K, of the surviving data;
  /// for Kᶜ, of the returned suspicious subset.
  double final_statistic = 0.0;
  /// p-values matching the two statistics above (asymptotic approximation,
  /// kept incrementally during the greedy loop).
  double initial_p = 1.0;
  double final_p = 1.0;
  Strategy strategy_used = Strategy::kDirect;
};

/// Top-k drill-down for an approximate SC on the full table. Set-valued
/// SCs are decomposed first and the component with the strongest observed
/// dependence (ISC) or weakest (DSC) is drilled into.
Result<DrillDownResult> DrillDown(const Table& table, const ApproximateSc& asc, size_t k,
                                  const DrillDownOptions& options = {});

/// As above, over a subset of rows.
Result<DrillDownResult> DrillDown(const Table& table, const ApproximateSc& asc, size_t k,
                                  const std::vector<size_t>& rows,
                                  const DrillDownOptions& options = {});

/// Produces a full suspicion ranking (most suspicious first) of up to
/// `max_rank` records. Prefixes of the ranking equal DrillDown results for
/// the corresponding k, which is how the Sec. 6 precision/recall@K sweeps
/// are computed without re-running the greedy search per k.
Result<std::vector<size_t>> RankSuspiciousRecords(const Table& table, const ApproximateSc& asc,
                                                  size_t max_rank,
                                                  const DrillDownOptions& options = {});

namespace internal {

/// Direction of one greedy removal step.
enum class RemovalGoal {
  kReduceDependence,
  kIncreaseDependence,
};

/// Incremental statistic engine shared by the K and Kᶜ strategies. One
/// concrete engine exists per statistic family: grouped cells for the
/// G-test, benefit arrays initialised by two segment trees (Algorithm 2)
/// for Kendall's τ.
class DrilldownEngine {
 public:
  virtual ~DrilldownEngine() = default;

  /// Number of records still alive (removable).
  virtual size_t AliveCount() const = 0;

  /// Removes the best record for `goal`; returns false when exhausted.
  /// On success stores the removed record's original row id.
  virtual bool SelectAndRemove(RemovalGoal goal, size_t* removed_row) = 0;

  /// Current dependence statistic of the alive set (G, or |Σ S|).
  virtual double CurrentStatistic() const = 0;

  /// Asymptotic p-value of the alive set (χ² or Gaussian tail).
  virtual double CurrentPValue() const = 0;
};

/// Builds the appropriate engine for a singleton-variable bound SC.
Result<std::unique_ptr<DrilldownEngine>> MakeEngine(const Table& table, int x_col, int y_col,
                                                    const std::vector<int>& z_cols,
                                                    const std::vector<size_t>& rows,
                                                    const TestOptions& options,
                                                    GObjective g_objective = GObjective::kExcess);

/// Exhaustive solution of the top-k contribution problem (Definition 7/8):
/// enumerates all C(n, k) subsets and returns one whose removal optimises
/// the dependence statistic (minimises it for an ISC, maximises for a
/// DSC). Exponential — usable only for tiny n; exists to validate the
/// greedy K strategy against the true optimum in tests and ablations.
/// Requires a singleton, unconditional SC and C(n, k) <= 2'000'000.
Result<DrillDownResult> BruteForceTopK(const Table& table, const ApproximateSc& asc, size_t k,
                                       const TestOptions& options = {});

}  // namespace internal

}  // namespace scoded

#endif  // SCODED_CORE_DRILLDOWN_H_
