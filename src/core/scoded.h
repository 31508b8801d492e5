#ifndef SCODED_CORE_SCODED_H_
#define SCODED_CORE_SCODED_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "constraints/graphoid.h"
#include "constraints/sc.h"
#include "core/approximate_sc.h"
#include "core/drilldown.h"
#include "core/partition.h"
#include "core/violation.h"
#include "table/table.h"

namespace scoded {

/// System-wide knobs: hypothesis-test tuning plus execution settings.
struct ScodedOptions {
  TestOptions test;
  /// Worker threads for the parallel primitives (batch checking,
  /// stratified tests, drill-down, discovery). 0 keeps the global default
  /// (the `SCODED_THREADS` environment variable, then the hardware
  /// concurrency); 1 forces fully serial execution. Applied process-wide
  /// at construction — the thread pool is global, mirroring the CLI's
  /// `--threads` flag.
  int threads = 0;
};

/// The SCODED system facade (Fig. 3): holds a dataset and exposes the four
/// architecture components —
///  * consistency checking of a constraint set (graphoid axioms),
///  * SC violation detection (Algorithm 1),
///  * error drill-down (K / Kᶜ strategies, Sec. 5),
///  * dataset partition (Definition 6 via the Theorem 1 reduction).
/// SC discovery lives in the separate `discovery` library and produces
/// `StatisticalConstraint`s consumable here.
///
/// Typical use:
///
///   Scoded system(table);
///   ApproximateSc asc{ParseConstraint("Model _||_ Color").value(), 0.05};
///   ViolationReport report = system.CheckViolation(asc).value();
///   if (report.violated) {
///     DrillDownResult top = system.DrillDown(asc, 5).value();
///   }
class Scoded {
 public:
  /// Takes ownership of the dataset. `options` tune the hypothesis tests
  /// (discretisation bins, stratum minimums, exact-test thresholds).
  explicit Scoded(Table table, TestOptions options = {})
      : table_(std::move(table)), options_(options) {}

  /// As above with execution settings (see ScodedOptions::threads).
  explicit Scoded(Table table, const ScodedOptions& options);

  const Table& table() const { return table_; }
  const TestOptions& options() const { return options_; }

  /// Parses and validates a constraint against this dataset's schema.
  Result<StatisticalConstraint> Parse(const std::string& text) const;

  /// Algorithm 1: does the dataset violate the approximate SC?
  Result<ViolationReport> CheckViolation(const ApproximateSc& asc) const;

  /// Top-k drill-down. Strategy::kAuto follows the paper: K for
  /// dependence SCs, Kᶜ for independence SCs.
  Result<DrillDownResult> DrillDown(const ApproximateSc& asc, size_t k,
                                    Strategy strategy = Strategy::kAuto) const;

  /// Full suspicion ranking (most suspicious first) for precision@K /
  /// recall@K sweeps.
  Result<std::vector<size_t>> RankRecords(const ApproximateSc& asc, size_t max_rank,
                                          Strategy strategy = Strategy::kAuto) const;

  /// Dataset partition: the (greedy-)minimum dirty subset whose removal
  /// restores the constraint.
  Result<PartitionResult> Partition(const ApproximateSc& asc,
                                    double max_removal_fraction = 0.5) const;

  /// Consistency check for a set of SCs via the semi-graphoid closure.
  static Result<ConsistencyReport> CheckConstraintConsistency(
      const std::vector<StatisticalConstraint>& constraints);

  /// Batch violation check: first verifies the constraint set is mutually
  /// consistent (Fig. 3's Consistency Checking stage), then runs
  /// Algorithm 1 per constraint — constraints are checked in parallel
  /// (deterministically: `reports` matches the input order and every
  /// report is bit-identical to a serial run), sharing one
  /// ColumnEncodingCache so constraints over the same columns encode them
  /// once. `reports` is parallel to the input.
  struct BatchCheckResult {
    ConsistencyReport consistency;
    std::vector<ViolationReport> reports;
    /// Number of constraints flagged as violated.
    size_t violations = 0;
  };
  Result<BatchCheckResult> CheckAll(const std::vector<ApproximateSc>& constraints) const;

 private:
  Table table_;
  TestOptions options_;
};

}  // namespace scoded

#endif  // SCODED_CORE_SCODED_H_
