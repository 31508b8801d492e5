#ifndef SCODED_E2EBENCH_WORKLOADS_H_
#define SCODED_E2EBENCH_WORKLOADS_H_

// The benchmark's three workloads. Each is a seeded generator plus the
// fixed sequence of user operations run over what it generates: a
// constraint batch to check, one K and one Kᶜ drill-down, a stream for a
// local StreamMonitor, and a request mix for the `scoded serve` clients.
// Sizes are chosen so that one round of every operation fits several
// times into a run; `scale` shrinks them for the self-test.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/approximate_sc.h"
#include "table/table.h"

namespace scoded::e2e {

struct DrillSpec {
  std::string constraint;
  double alpha = 0.05;
  size_t k = 0;
  /// Rows [0, rows) form the drill row set; 0 means every row.
  size_t rows = 0;
};

struct StreamSpec {
  std::vector<std::pair<std::string, double>> constraints;
  /// 0 = unbounded monitors; W > 0 = sliding window of W observations.
  size_t window = 0;
  size_t batch_rows = 0;
  size_t batches = 0;
  /// States() after every `query_every` batches (and always at the end).
  size_t query_every = 0;
};

/// Per client and per round: open a session over the stream constraints,
/// append `batches` batches of `batch_rows` rows, query after every
/// `query_every` appends and once at the end, close.
struct ServeSpec {
  size_t batch_rows = 0;
  size_t batches = 0;
  size_t query_every = 0;
};

struct WorkloadSpec {
  std::string name;
  size_t rows = 0;
  std::vector<std::pair<std::string, double>> batch;
  size_t shard_rows = 0;
  DrillSpec drill_k;
  DrillSpec drill_kc;
  StreamSpec stream;
  ServeSpec serve;
  /// Numeric pair timed with ComputeTauBenefits in the traced run; null
  /// when the workload has none.
  const char* tau_x = nullptr;
  const char* tau_y = nullptr;
};

Result<WorkloadSpec> GetWorkload(const std::string& name, double scale);

/// Generates the workload's table from `seed` (same seed, same table).
Result<Table> GenerateTable(const WorkloadSpec& spec, uint64_t seed);

/// Parses a constraint list.
Result<std::vector<ApproximateSc>> ParseBatch(
    const std::vector<std::pair<std::string, double>>& constraints);

}  // namespace scoded::e2e

#endif  // SCODED_E2EBENCH_WORKLOADS_H_
