#include "stats/ranks.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "stats/simd.h"

namespace scoded {

namespace {

bool ContainsNan(const std::vector<double>& values) {
  return std::any_of(values.begin(), values.end(), [](double v) { return std::isnan(v); });
}

}  // namespace

std::vector<size_t> DenseRanks(const std::vector<double>& values, size_t* num_distinct) {
  std::vector<size_t> ranks(values.size());
  size_t distinct = simd::DenseRanks(values.data(), values.size(), ranks.data());
  if (num_distinct != nullptr) {
    *num_distinct = distinct;
  }
  return ranks;
}

std::vector<double> AverageRanks(const std::vector<double>& values) {
  size_t n = values.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return NanAwareLess()(values[a], values[b]); });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && NanAwareEqual(values[order[j + 1]], values[order[i]])) {
      ++j;
    }
    // Positions i..j (0-based) share the average of 1-based ranks i+1..j+1.
    double avg = (static_cast<double>(i + 1) + static_cast<double>(j + 1)) / 2.0;
    for (size_t k = i; k <= j; ++k) {
      ranks[order[k]] = avg;
    }
    i = j + 1;
  }
  return ranks;
}

std::vector<double> QuantileCutsFromSorted(const std::vector<double>& sorted, int bins) {
  SCODED_CHECK(bins >= 1);
  std::vector<double> cuts;
  size_t n = sorted.size();
  if (n == 0 || bins <= 1) {
    return cuts;
  }
  cuts.reserve(static_cast<size_t>(bins) - 1);
  for (int b = 1; b < bins; ++b) {
    size_t idx = static_cast<size_t>(
        std::min<double>(static_cast<double>(n) - 1.0,
                         std::floor(static_cast<double>(b) * static_cast<double>(n) /
                                    static_cast<double>(bins))));
    cuts.push_back(sorted[idx]);
  }
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

std::vector<double> QuantileCutsFromCounts(const std::vector<std::pair<double, int64_t>>& counts,
                                           int bins) {
  SCODED_CHECK(bins >= 1);
  std::vector<double> cuts;
  int64_t n = 0;
  for (const auto& [value, count] : counts) {
    (void)value;
    n += count;
  }
  if (n == 0 || bins <= 1) {
    return cuts;
  }
  cuts.reserve(static_cast<size_t>(bins) - 1);
  // The cut indices are non-decreasing in b, so one cumulative walk over
  // the (value, count) runs serves every cut.
  size_t run = 0;
  int64_t covered = counts.empty() ? 0 : counts[0].second;  // expansion prefix ending run 0
  for (int b = 1; b < bins; ++b) {
    int64_t idx = static_cast<int64_t>(
        std::min<double>(static_cast<double>(n) - 1.0,
                         std::floor(static_cast<double>(b) * static_cast<double>(n) /
                                    static_cast<double>(bins))));
    while (idx >= covered) {
      ++run;
      covered += counts[run].second;
    }
    cuts.push_back(counts[run].first);
  }
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

int32_t QuantileCodeOf(const std::vector<double>& cuts, double value) {
  if (std::isnan(value)) {
    return -1;
  }
  return static_cast<int32_t>(std::lower_bound(cuts.begin(), cuts.end(), value) - cuts.begin());
}

std::vector<int32_t> QuantileBins(const std::vector<double>& values, int bins) {
  SCODED_CHECK(bins >= 1);
  size_t n = values.size();
  std::vector<int32_t> codes(n, 0);
  if (n == 0) {
    return codes;
  }
  std::vector<double> sorted;
  sorted.reserve(n);
  for (double v : values) {
    if (!std::isnan(v)) {
      sorted.push_back(v);
    }
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> cuts = QuantileCutsFromSorted(sorted, bins);
  for (size_t i = 0; i < n; ++i) {
    codes[i] = QuantileCodeOf(cuts, values[i]);
  }
  return codes;
}

Result<std::vector<size_t>> DenseRanksChecked(const std::vector<double>& values,
                                              size_t* num_distinct) {
  if (ContainsNan(values)) {
    return InvalidArgumentError("DenseRanks: input contains NaN (unfiltered null cells?)");
  }
  return DenseRanks(values, num_distinct);
}

Result<std::vector<double>> AverageRanksChecked(const std::vector<double>& values) {
  if (ContainsNan(values)) {
    return InvalidArgumentError("AverageRanks: input contains NaN (unfiltered null cells?)");
  }
  return AverageRanks(values);
}

Result<std::vector<int32_t>> QuantileBinsChecked(const std::vector<double>& values, int bins) {
  if (ContainsNan(values)) {
    return InvalidArgumentError("QuantileBins: input contains NaN (unfiltered null cells?)");
  }
  return QuantileBins(values, bins);
}

}  // namespace scoded
