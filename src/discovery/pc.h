#ifndef SCODED_DISCOVERY_PC_H_
#define SCODED_DISCOVERY_PC_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "constraints/sc.h"
#include "stats/hypothesis.h"
#include "table/table.h"

namespace scoded {

/// Options for the PC structure-learning pass.
struct PcOptions {
  /// Significance level of the conditional-independence tests: a pair is
  /// declared independent (edge removed) when p > alpha.
  double alpha = 0.05;
  /// Largest conditioning-set size searched.
  int max_conditioning = 2;
  TestOptions test;
};

/// Output of PC: the undirected skeleton, the separating sets that removed
/// each absent edge, and the v-structure orientations.
struct PcResult {
  std::vector<std::string> names;
  /// Symmetric adjacency of the learned skeleton.
  std::vector<std::vector<bool>> adjacent;
  /// For each removed pair (i < j), the conditioning set that rendered it
  /// independent.
  std::map<std::pair<int, int>, std::vector<int>> separating_sets;
  /// Collider orientations discovered from v-structures: (from, to) pairs,
  /// each meaning from -> to.
  std::vector<std::pair<int, int>> directed;

  bool IsAdjacent(int i, int j) const {
    return adjacent[static_cast<size_t>(i)][static_cast<size_t>(j)];
  }

  /// The SCs this structure justifies: one conditional ISC per removed
  /// edge (with its separating set) and one DSC per remaining edge. This
  /// is the constraint-based SC discovery the paper's Sec. 3 points to
  /// ([16, 24, 48]); a user reviews the list before enforcement.
  std::vector<StatisticalConstraint> DiscoveredConstraints() const;
};

/// Runs the PC algorithm's skeleton phase (stepwise conditional-
/// independence pruning of the complete graph) followed by v-structure
/// detection. Statistical tests come from the same G/τ engine as
/// violation detection, so the discovery and enforcement stages agree on
/// what "independent" means.
Result<PcResult> LearnPcStructure(const Table& table, const PcOptions& options = {});

}  // namespace scoded

#endif  // SCODED_DISCOVERY_PC_H_
