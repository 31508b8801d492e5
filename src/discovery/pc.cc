#include "discovery/pc.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/encoding_cache.h"

namespace scoded {

namespace {

// Enumerates all size-`k` subsets of `candidates`, invoking `fn` with each;
// stops early when `fn` returns true (subset accepted).
bool ForEachSubset(const std::vector<int>& candidates, int k,
                   const std::function<bool(const std::vector<int>&)>& fn) {
  if (k == 0) {
    std::vector<int> empty;
    return fn(empty);
  }
  if (static_cast<size_t>(k) > candidates.size()) {
    return false;
  }
  std::vector<int> indices(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    indices[static_cast<size_t>(i)] = i;
  }
  int n = static_cast<int>(candidates.size());
  while (true) {
    std::vector<int> subset;
    subset.reserve(static_cast<size_t>(k));
    for (int idx : indices) {
      subset.push_back(candidates[static_cast<size_t>(idx)]);
    }
    if (fn(subset)) {
      return true;
    }
    int i = k - 1;
    while (i >= 0 && indices[static_cast<size_t>(i)] == n - k + i) {
      --i;
    }
    if (i < 0) {
      return false;
    }
    ++indices[static_cast<size_t>(i)];
    for (int j = i + 1; j < k; ++j) {
      indices[static_cast<size_t>(j)] = indices[static_cast<size_t>(j - 1)] + 1;
    }
  }
}

}  // namespace

std::vector<StatisticalConstraint> PcResult::DiscoveredConstraints() const {
  std::vector<StatisticalConstraint> out;
  int n = static_cast<int>(names.size());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (IsAdjacent(i, j)) {
        out.push_back(Dependence({names[static_cast<size_t>(i)]},
                                 {names[static_cast<size_t>(j)]}));
        continue;
      }
      auto it = separating_sets.find({i, j});
      std::vector<std::string> z;
      if (it != separating_sets.end()) {
        for (int v : it->second) {
          z.push_back(names[static_cast<size_t>(v)]);
        }
      }
      out.push_back(Independence({names[static_cast<size_t>(i)]},
                                 {names[static_cast<size_t>(j)]}, z));
    }
  }
  return out;
}

Result<PcResult> LearnPcStructure(const Table& table, const PcOptions& options) {
  int n = static_cast<int>(table.NumColumns());
  if (n < 2) {
    return InvalidArgumentError("LearnPcStructure needs at least two columns");
  }
  if (options.alpha <= 0.0 || options.alpha >= 1.0) {
    return InvalidArgumentError("PC alpha must lie in (0, 1)");
  }
  // Conditioning on a continuous variable is only consistent as the
  // number of strata grows with n; scale the quantile-bin count so each
  // stratum holds ~15 records (bounded to [8, 64]).
  PcOptions tuned = options;
  int64_t adaptive_bins = static_cast<int64_t>(table.NumRows()) / 15;
  tuned.test.condition_bins = std::max(
      tuned.test.condition_bins,
      static_cast<int>(std::clamp<int64_t>(adaptive_bins, 8, 64)));

  PcResult result;
  for (int c = 0; c < n; ++c) {
    result.names.push_back(table.schema().field(static_cast<size_t>(c)).name);
  }
  result.adjacent.assign(static_cast<size_t>(n),
                         std::vector<bool>(static_cast<size_t>(n), true));
  for (int i = 0; i < n; ++i) {
    result.adjacent[static_cast<size_t>(i)][static_cast<size_t>(i)] = false;
  }

  static obs::Counter* const edges_pruned =
      obs::Metrics::Global().FindOrCreateCounter("discovery.pc_edges_pruned");
  obs::ScopedSpan span("discovery/pc");
  if (span.active()) {
    span.Arg("columns", static_cast<int64_t>(n));
  }
  // Every CI test at every level shares one encoding cache: each level
  // re-tests the same columns under overlapping conditioning sets, which
  // is exactly the recurrence the cache memoises.
  ColumnEncodingCache encoding_cache;
  tuned.test.encoding_cache = &encoding_cache;
  // The per-pair verdict of one level, produced by a worker and folded
  // into `result` on the caller thread.
  struct PairOutcome {
    bool pruned = false;
    std::vector<int> sepset;
    Status error;
  };
  // Skeleton phase: prune with conditioning sets of growing size. This is
  // the PC-stable variant (Colombo & Maathuis): every pair at a level is
  // decided against the adjacency structure as it stood when the level
  // began, so the pair decisions are order-free — they run in parallel —
  // and deletions are applied serially in pair order afterwards. The
  // skeleton is therefore independent of both the pair visiting order and
  // the thread count.
  {
    obs::ScopedSpan skeleton_span("discovery/pc/skeleton");
    for (int level = 0; level <= options.max_conditioning; ++level) {
      std::vector<std::pair<int, int>> pairs;
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          if (result.IsAdjacent(i, j)) {
            pairs.emplace_back(i, j);
          }
        }
      }
      // `result.adjacent` is read-only until the fold below, so workers can
      // consult it directly as the level-start snapshot.
      std::vector<PairOutcome> outcomes = parallel::ParallelMap<PairOutcome>(
          pairs.size(), /*grain=*/1, [&](size_t p) {
            const auto [i, j] = pairs[p];
            PairOutcome out;
            // Candidate conditioning variables: neighbours of either
            // endpoint at level start, excluding the pair itself.
            std::vector<int> candidates;
            for (int v = 0; v < n; ++v) {
              if (v != i && v != j &&
                  (result.IsAdjacent(i, v) || result.IsAdjacent(j, v))) {
                candidates.push_back(v);
              }
            }
            ForEachSubset(candidates, level, [&](const std::vector<int>& subset) {
              Result<TestResult> test = IndependenceTest(table, i, j, subset, tuned.test);
              if (!test.ok()) {
                out.error = test.status();
                return true;  // abort subset search; error propagated below
              }
              if (test->p_value > options.alpha) {
                out.pruned = true;
                out.sepset = subset;
                return true;
              }
              return false;
            });
            return out;
          });
      int64_t pruned = 0;
      for (size_t p = 0; p < pairs.size(); ++p) {
        PairOutcome& out = outcomes[p];
        if (!out.error.ok()) {
          return std::move(out.error);
        }
        if (out.pruned) {
          const auto [i, j] = pairs[p];
          result.adjacent[static_cast<size_t>(i)][static_cast<size_t>(j)] = false;
          result.adjacent[static_cast<size_t>(j)][static_cast<size_t>(i)] = false;
          result.separating_sets[{i, j}] = std::move(out.sepset);
          ++pruned;
        }
      }
      edges_pruned->Add(pruned);
    }
  }
  obs::ScopedSpan orient_span("discovery/pc/orient");

  // V-structure phase: for every i - k - j with i, j non-adjacent and k
  // outside sep(i, j), orient i -> k <- j.
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (i == k || j == k || !result.IsAdjacent(i, k) || !result.IsAdjacent(j, k) ||
            result.IsAdjacent(i, j)) {
          continue;
        }
        auto it = result.separating_sets.find({i, j});
        bool k_in_sepset =
            it != result.separating_sets.end() &&
            std::find(it->second.begin(), it->second.end(), k) != it->second.end();
        if (!k_in_sepset) {
          result.directed.emplace_back(i, k);
          result.directed.emplace_back(j, k);
        }
      }
    }
  }
  std::sort(result.directed.begin(), result.directed.end());
  result.directed.erase(std::unique(result.directed.begin(), result.directed.end()),
                        result.directed.end());

  // Meek propagation (rules R1–R3; R4 only matters with background
  // knowledge): extend the v-structure orientations to the maximal CPDAG.
  auto is_directed = [&](int a, int b) {
    return std::find(result.directed.begin(), result.directed.end(), std::pair<int, int>{a, b}) !=
           result.directed.end();
  };
  auto orient = [&](int a, int b) {
    if (is_directed(a, b) || is_directed(b, a)) {
      return false;
    }
    result.directed.emplace_back(a, b);
    return true;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (a == b || !result.IsAdjacent(a, b) || is_directed(a, b) || is_directed(b, a)) {
          continue;
        }
        // R1: c -> a, a - b, c and b non-adjacent  =>  a -> b.
        for (int c = 0; c < n && !is_directed(a, b); ++c) {
          if (c != a && c != b && is_directed(c, a) && !result.IsAdjacent(c, b)) {
            changed |= orient(a, b);
          }
        }
        // R2: a -> c -> b with a - b  =>  a -> b.
        for (int c = 0; c < n && !is_directed(a, b); ++c) {
          if (c != a && c != b && is_directed(a, c) && is_directed(c, b)) {
            changed |= orient(a, b);
          }
        }
        // R3: a - c -> b and a - d -> b with c, d non-adjacent  =>  a -> b.
        for (int c = 0; c < n && !is_directed(a, b); ++c) {
          if (c == a || c == b || !result.IsAdjacent(a, c) || is_directed(a, c) ||
              is_directed(c, a) || !is_directed(c, b)) {
            continue;
          }
          for (int d = c + 1; d < n; ++d) {
            if (d == a || d == b || !result.IsAdjacent(a, d) || is_directed(a, d) ||
                is_directed(d, a) || !is_directed(d, b) || result.IsAdjacent(c, d)) {
              continue;
            }
            changed |= orient(a, b);
            break;
          }
        }
      }
    }
  }
  std::sort(result.directed.begin(), result.directed.end());
  return result;
}

}  // namespace scoded
