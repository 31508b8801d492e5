#ifndef SCODED_CORE_APPROXIMATE_SC_H_
#define SCODED_CORE_APPROXIMATE_SC_H_

#include <string>

#include "constraints/sc.h"

namespace scoded {

/// An approximate statistical constraint ⟨φ, α⟩ (Definition 4): a
/// statistical constraint paired with a false dependence rate α. The test
/// statistic φ is chosen automatically from the column types (G-test for
/// categorical pairs, Kendall's τ for numeric pairs, Sec. 4.3).
///
/// Violation semantics (Definition 5 and the Sec. 6.2 case studies):
///  * an independence SC is violated when p(D) < α — the data exhibit a
///    dependence too strong to be chance;
///  * a dependence SC is violated when p(D) > α — the data fail to exhibit
///    the required dependence.
struct ApproximateSc {
  StatisticalConstraint sc;
  double alpha = 0.05;

  std::string ToString() const {
    std::string out = "<";
    out += sc.ToString();
    out += ", alpha=";
    out += std::to_string(alpha);
    out += '>';
    return out;
  }
};

}  // namespace scoded

#endif  // SCODED_CORE_APPROXIMATE_SC_H_
