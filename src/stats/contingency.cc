#include "stats/contingency.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/math.h"
#include "stats/simd.h"
#include "table/group_by.h"

namespace scoded {

ContingencyTable::ContingencyTable(size_t nx, size_t ny)
    : nx_(nx), ny_(ny), counts_(nx * ny, 0), row_marginals_(nx, 0), col_marginals_(ny, 0) {}

ContingencyTable::ContingencyTable(const std::vector<int32_t>& x_codes,
                                   const std::vector<int32_t>& y_codes, size_t x_cardinality,
                                   size_t y_cardinality)
    : ContingencyTable(x_cardinality, y_cardinality) {
  SCODED_CHECK(x_codes.size() == y_codes.size());
  simd::Contingency(x_codes.data(), y_codes.data(), x_codes.size(), nx_, ny_, counts_.data());
  DeriveMarginalsFromCounts();
}

void ContingencyTable::DeriveMarginalsFromCounts() {
  total_ = 0;
  for (size_t x = 0; x < nx_; ++x) {
    int64_t row_total = 0;
    const int64_t* row = counts_.data() + x * ny_;
    for (size_t y = 0; y < ny_; ++y) {
      row_total += row[y];
      col_marginals_[y] += row[y];
    }
    row_marginals_[x] = row_total;
    total_ += row_total;
  }
}

ContingencyTable ContingencyTable::FromCounts(const std::vector<int64_t>& counts,
                                              size_t x_cardinality, size_t y_cardinality) {
  SCODED_CHECK(counts.size() == x_cardinality * y_cardinality);
  ContingencyTable table(x_cardinality, y_cardinality);
  for (size_t x = 0; x < x_cardinality; ++x) {
    for (size_t y = 0; y < y_cardinality; ++y) {
      int64_t count = counts[x * y_cardinality + y];
      SCODED_CHECK(count >= 0);
      if (count > 0) {
        table.Adjust(x, y, count);
      }
    }
  }
  return table;
}

ContingencyTable ContingencyTable::FromColumns(const Column& x, const Column& y,
                                               const std::vector<size_t>& rows) {
  SCODED_CHECK(x.type() == ColumnType::kCategorical);
  SCODED_CHECK(y.type() == ColumnType::kCategorical);
  ContingencyTable table(x.NumCategories(), y.NumCategories());
  for (size_t row : rows) {
    int32_t cx = x.CodeAt(row);
    int32_t cy = y.CodeAt(row);
    if (cx < 0 || cy < 0) {
      continue;
    }
    table.Adjust(static_cast<size_t>(cx), static_cast<size_t>(cy), 1);
  }
  return table;
}

double ContingencyTable::ExpectedCount(size_t x, size_t y) const {
  if (total_ == 0) {
    return 0.0;
  }
  return static_cast<double>(row_marginals_[x]) * static_cast<double>(col_marginals_[y]) /
         static_cast<double>(total_);
}

double ContingencyTable::MinExpectedCount() const {
  double min_expected = std::numeric_limits<double>::infinity();
  for (size_t x = 0; x < nx_; ++x) {
    if (row_marginals_[x] == 0) {
      continue;
    }
    for (size_t y = 0; y < ny_; ++y) {
      if (col_marginals_[y] == 0) {
        continue;
      }
      min_expected = std::min(min_expected, ExpectedCount(x, y));
    }
  }
  return std::isinf(min_expected) ? 0.0 : min_expected;
}

void ContingencyTable::Adjust(size_t x, size_t y, int64_t delta) {
  SCODED_CHECK(x < nx_ && y < ny_);
  counts_[x * ny_ + y] += delta;
  row_marginals_[x] += delta;
  col_marginals_[y] += delta;
  total_ += delta;
  SCODED_DCHECK(counts_[x * ny_ + y] >= 0);
}

double ContingencyTable::MutualInformationNats() const {
  if (total_ == 0) {
    return 0.0;
  }
  double n = static_cast<double>(total_);
  double mi = 0.0;
  for (size_t x = 0; x < nx_; ++x) {
    if (row_marginals_[x] == 0) {
      continue;
    }
    for (size_t y = 0; y < ny_; ++y) {
      int64_t count = counts_[x * ny_ + y];
      if (count == 0) {
        continue;
      }
      double joint = static_cast<double>(count) / n;
      double px = static_cast<double>(row_marginals_[x]) / n;
      double py = static_cast<double>(col_marginals_[y]) / n;
      mi += joint * std::log(joint / (px * py));
    }
  }
  return std::max(0.0, mi);
}

double ContingencyTable::MutualInformationBits() const {
  return MutualInformationNats() / std::log(2.0);
}

double ContingencyTable::GStatistic() const {
  return 2.0 * static_cast<double>(total_) * MutualInformationNats();
}

double ContingencyTable::ChiSquaredStatistic() const {
  double stat = 0.0;
  for (size_t x = 0; x < nx_; ++x) {
    for (size_t y = 0; y < ny_; ++y) {
      double expected = ExpectedCount(x, y);
      if (expected <= 0.0) {
        continue;
      }
      double diff = static_cast<double>(counts_[x * ny_ + y]) - expected;
      stat += diff * diff / expected;
    }
  }
  return stat;
}

double ContingencyTable::Dof() const {
  size_t live_rows = 0;
  size_t live_cols = 0;
  for (int64_t m : row_marginals_) {
    live_rows += m > 0 ? 1 : 0;
  }
  for (int64_t m : col_marginals_) {
    live_cols += m > 0 ? 1 : 0;
  }
  double dof = (static_cast<double>(live_rows) - 1.0) * (static_cast<double>(live_cols) - 1.0);
  return std::max(1.0, dof);
}

double ContingencyTable::CramersV() const {
  if (total_ == 0) {
    return 0.0;
  }
  size_t live_rows = 0;
  size_t live_cols = 0;
  for (int64_t m : row_marginals_) {
    live_rows += m > 0 ? 1 : 0;
  }
  for (int64_t m : col_marginals_) {
    live_cols += m > 0 ? 1 : 0;
  }
  size_t min_dim = std::min(live_rows, live_cols);
  if (min_dim <= 1) {
    return 0.0;
  }
  double chi2 = ChiSquaredStatistic();
  return std::sqrt(chi2 / (static_cast<double>(total_) * (static_cast<double>(min_dim) - 1.0)));
}

double MutualInformationBits(const Table& table, const std::vector<int>& x_cols,
                             const std::vector<int>& y_cols) {
  // I(X;Y) = H(X) + H(Y) - H(X,Y) over exact empirical group counts.
  std::vector<int> xy = x_cols;
  xy.insert(xy.end(), y_cols.begin(), y_cols.end());
  double hx = EntropyBits(table, x_cols);
  double hy = EntropyBits(table, y_cols);
  double hxy = EntropyBits(table, xy);
  return std::max(0.0, hx + hy - hxy);
}

double EntropyBits(const Table& table, const std::vector<int>& cols) {
  GroupByResult groups = GroupRows(table, cols);
  double n = static_cast<double>(table.NumRows());
  if (n == 0.0) {
    return 0.0;
  }
  double entropy = 0.0;
  for (const std::vector<size_t>& group : groups.groups) {
    double p = static_cast<double>(group.size()) / n;
    entropy -= p * Log2Safe(p);
  }
  return entropy;
}

}  // namespace scoded
