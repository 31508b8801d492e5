#include "core/violation.h"

#include <algorithm>

#include "obs/trace.h"

namespace scoded {

Result<ViolationReport> DetectViolation(const Table& table, const ApproximateSc& asc,
                                        const TestOptions& options) {
  std::vector<size_t> rows(table.NumRows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = i;
  }
  return DetectViolation(table, asc, rows, options);
}

Result<ViolationReport> DetectViolation(const Table& table, const ApproximateSc& asc,
                                        const std::vector<size_t>& rows,
                                        const TestOptions& options) {
  if (asc.alpha < 0.0 || asc.alpha > 1.0) {
    return InvalidArgumentError("alpha must lie in [0, 1]");
  }
  ViolationReport report;
  report.alpha = asc.alpha;
  obs::ScopedSpan span("core/detect_violation");
  for (StatisticalConstraint& component : DecomposeToSingletons(asc.sc)) {
    SCODED_ASSIGN_OR_RETURN(BoundConstraint bound, BindConstraint(component, table));
    SCODED_ASSIGN_OR_RETURN(
        TestResult test,
        IndependenceTest(table, bound.x[0], bound.y[0], bound.z, rows, options));
    report.components.push_back(ComponentResult{std::move(component), test});
  }
  DecideViolation(asc, report);
  return report;
}

void DecideViolation(const ApproximateSc& asc, ViolationReport& report) {
  // ISC over sets: holds iff every component independence holds, so the
  // decision p-value is the minimum component p. DSC over sets: the
  // dependence is present iff at least one component dependence shows, so
  // the decision p-value is again driven by the strongest dependence —
  // min p — but the violation condition flips (violated iff min p > α,
  // i.e. even the strongest component dependence is too weak).
  double decision_p = 1.0;
  bool have_component = false;
  for (const ComponentResult& part : report.components) {
    const TestResult& test = part.test;
    if (!have_component || test.p_value < decision_p) {
      decision_p = test.p_value;
      report.test = test;
      have_component = true;
    }
  }
  report.p_value = decision_p;
  report.violated =
      asc.sc.is_independence() ? (decision_p < asc.alpha) : (decision_p > asc.alpha);
}

Result<ConsistencyReport> CheckEnforceable(const std::vector<ApproximateSc>& constraints) {
  // Consistency over borrowed pointers: the constraints already live in
  // `constraints`, no per-SC copy needed.
  std::vector<const StatisticalConstraint*> scs;
  scs.reserve(constraints.size());
  for (const ApproximateSc& asc : constraints) {
    scs.push_back(&asc.sc);
  }
  SCODED_ASSIGN_OR_RETURN(ConsistencyReport consistency, CheckConsistency(scs));
  if (!consistency.consistent) {
    return InvalidArgumentError(
        "constraint set is inconsistent; resolve the conflicts before enforcement: " +
        (consistency.conflicts.empty() ? std::string() : consistency.conflicts[0]));
  }
  return consistency;
}

}  // namespace scoded
