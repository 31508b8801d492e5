#ifndef SCODED_CORE_VIOLATION_H_
#define SCODED_CORE_VIOLATION_H_

#include <vector>

#include "common/result.h"
#include "constraints/graphoid.h"
#include "constraints/sc.h"
#include "core/approximate_sc.h"
#include "obs/telemetry.h"
#include "stats/hypothesis.h"
#include "table/table.h"

namespace scoded {

/// Result of testing one singleton SC component after decomposition.
struct ComponentResult {
  StatisticalConstraint component;
  TestResult test;
};

/// Outcome of Algorithm 1 (SC violation detection), including the
/// decomposition trace when X or Y were variable sets.
struct ViolationReport {
  bool violated = false;
  /// The decision p-value: for a singleton SC, the test's p-value; for a
  /// decomposed ISC the minimum component p (the ISC holds only if every
  /// component holds); for a decomposed DSC the maximum component p (the
  /// DSC already holds if any component dependence is present).
  double p_value = 1.0;
  double alpha = 0.05;
  /// Combined/selected test result driving the decision.
  TestResult test;
  /// One entry per decomposed singleton component (size 1 when X and Y
  /// were already singletons).
  std::vector<ComponentResult> components;
  /// Cost summary: wall-clock of the detect phase, tests executed,
  /// exact-vs-asymptotic split, rows scanned, strata used/skipped.
  obs::RunTelemetry telemetry;
};

/// Algorithm 1's decision over tested components: fills `report` from
/// `report.components` (one entry per decomposed singleton, in
/// decomposition order). The decision p-value is the minimum component p —
/// the first component wins ties — and the report takes that component's
/// test. An ISC is violated iff p < α, a DSC iff p > α. Also adds each
/// component to the report's telemetry and counts the components.
void DecideViolation(const ApproximateSc& asc, ViolationReport& report);

/// The batch gate every checker runs before enforcement: the constraint
/// set must be consistent (Sec. 3), or the check fails with
/// kInvalidArgument naming the first conflict.
Result<ConsistencyReport> CheckEnforceable(const std::vector<ApproximateSc>& constraints);

/// Algorithm 1: evaluates the approximate SC on `table` via hypothesis
/// testing. Set-valued X/Y are decomposed into singleton SCs by the
/// decomposition principle first (Sec. 4.2).
Result<ViolationReport> DetectViolation(const Table& table, const ApproximateSc& asc,
                                        const TestOptions& options = {});

/// As above, restricted to a subset of rows.
Result<ViolationReport> DetectViolation(const Table& table, const ApproximateSc& asc,
                                        const std::vector<size_t>& rows,
                                        const TestOptions& options = {});

}  // namespace scoded

#endif  // SCODED_CORE_VIOLATION_H_
