#include "stats/shard_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "stats/ranks.h"
#include "stats/stratified.h"

namespace scoded {

namespace {

// Same key convention as EncodeCellKey (table/group_by.cc): the double's
// bit pattern with -0.0 normalised to +0.0. The normalisation also keeps
// the value space disjoint from kNullCell (INT64_MIN is the -0.0 pattern).
int64_t CanonicalBits(double value) {
  if (value == 0.0) {
    value = 0.0;
  }
  int64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleOfBits(int64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Lexicographic order of two `stride`-long keys, signed per entry — the
// order of std::vector<int64_t>. Negative, zero or positive like memcmp.
int CompareKeys(const int64_t* a, const int64_t* b, size_t stride) {
  for (size_t r = 0; r < stride; ++r) {
    if (a[r] != b[r]) {
      return a[r] < b[r] ? -1 : 1;
    }
  }
  return 0;
}

// Open-addressing hash table from a cell key to its place in three
// parallel arrays of distinct cells, in first-seen order. The slot table
// starts small and doubles at half load, so memory follows the distinct
// cells, not the rows.
class CellTable {
 public:
  explicit CellTable(size_t stride) : stride_(stride) { Rehash(64); }

  void Add(const int64_t* key, uint64_t row) {
    size_t slot = SlotOf(key);
    while (uint32_t entry = slots_[slot]) {
      const size_t cell = entry - 1;
      if (std::equal(key, key + stride_, keys.data() + cell * stride_)) {
        ++counts[cell];
        return;
      }
      slot = (slot + 1) & mask_;
    }
    SCODED_CHECK(counts.size() + 1 < UINT32_MAX);
    slots_[slot] = static_cast<uint32_t>(counts.size() + 1);
    keys.insert(keys.end(), key, key + stride_);
    counts.push_back(1);
    first_rows.push_back(row);
    if (2 * counts.size() > slots_.size()) {
      Rehash(2 * slots_.size());
    }
  }

  std::vector<int64_t> keys;
  std::vector<int64_t> counts;
  std::vector<uint64_t> first_rows;

 private:
  // Multiplicative hashing; the slot is the top bits, which depend on
  // every bit of the key.
  size_t SlotOf(const int64_t* key) const {
    uint64_t h = 0;
    for (size_t r = 0; r < stride_; ++r) {
      h = (h ^ static_cast<uint64_t>(key[r])) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 32;
    }
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Rehash(size_t size) {
    slots_.assign(size, 0);
    mask_ = size - 1;
    shift_ = 64 - static_cast<int>(std::countr_zero(size));
    for (size_t cell = 0; cell < counts.size(); ++cell) {
      size_t slot = SlotOf(keys.data() + cell * stride_);
      while (slots_[slot] != 0) {
        slot = (slot + 1) & mask_;
      }
      slots_[slot] = static_cast<uint32_t>(cell + 1);
    }
  }

  size_t stride_;
  std::vector<uint32_t> slots_;  // 0 = empty, else cell index + 1
  size_t mask_ = 0;
  int shift_ = 0;
};

// Sorts (value, count) pairs by NanAwareLess and adds up equal values, all
// NaNs being one value ordered last: a numeric role's marginal in the
// order of its values.
void SortAndCoalesce(std::vector<std::pair<double, int64_t>>& values) {
  NanAwareLess less;
  std::sort(values.begin(), values.end(),
            [&](const auto& a, const auto& b) { return less(a.first, b.first); });
  size_t out = 0;
  for (const auto& [value, count] : values) {
    if (out > 0 && NanAwareEqual(values[out - 1].first, value)) {
      values[out - 1].second += count;
    } else {
      values[out++] = {value, count};
    }
  }
  values.resize(out);
}

}  // namespace

PairwiseShardSummary::PairwiseShardSummary(const Table& schema, Spec spec)
    : spec_(std::move(spec)) {
  SCODED_CHECK(spec_.x_col >= 0 && static_cast<size_t>(spec_.x_col) < schema.NumColumns());
  SCODED_CHECK(spec_.y_col >= 0 && static_cast<size_t>(spec_.y_col) < schema.NumColumns());
  SCODED_CHECK(spec_.x_col != spec_.y_col);
  for (int z : spec_.z_cols) {
    SCODED_CHECK(z >= 0 && static_cast<size_t>(z) < schema.NumColumns());
    SCODED_CHECK(z != spec_.x_col && z != spec_.y_col);
  }
  role_cols_ = spec_.z_cols;
  role_cols_.push_back(spec_.x_col);
  role_cols_.push_back(spec_.y_col);
  role_types_.reserve(role_cols_.size());
  for (int col : role_cols_) {
    role_types_.push_back(schema.column(static_cast<size_t>(col)).type());
  }
  dicts_.resize(role_cols_.size());
  valid_ = true;
}

int32_t PairwiseShardSummary::Intern(Dict& dict, const std::string& value) {
  auto [it, inserted] = dict.index.emplace(value, static_cast<int32_t>(dict.values.size()));
  if (inserted) {
    dict.values.push_back(value);
  }
  return it->second;
}

void PairwiseShardSummary::SortRun(Cells& run, size_t stride) {
  const size_t n = run.counts.size();
  SCODED_CHECK(n < UINT32_MAX);
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), uint32_t{0});
  const int64_t* keys = run.keys.data();
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return CompareKeys(keys + a * stride, keys + b * stride, stride) < 0;
  });
  Cells sorted;
  sorted.keys.reserve(run.keys.size());
  sorted.counts.reserve(n);
  sorted.first_rows.reserve(n);
  for (uint32_t cell : order) {
    sorted.keys.insert(sorted.keys.end(), keys + cell * stride, keys + (cell + 1) * stride);
    sorted.counts.push_back(run.counts[cell]);
    sorted.first_rows.push_back(run.first_rows[cell]);
  }
  run = std::move(sorted);
}

void PairwiseShardSummary::MergeRun(const Cells& run) {
  if (cells_.counts.empty()) {
    cells_ = run;
    return;
  }
  const size_t stride = role_cols_.size();
  const Cells& a = cells_;
  const size_t na = a.counts.size();
  const size_t nb = run.counts.size();
  Cells out;
  out.keys.reserve(a.keys.size() + run.keys.size());
  out.counts.reserve(na + nb);
  out.first_rows.reserve(na + nb);
  auto append = [&](const Cells& from, size_t cell) {
    const int64_t* key = from.keys.data() + cell * stride;
    out.keys.insert(out.keys.end(), key, key + stride);
    out.counts.push_back(from.counts[cell]);
    out.first_rows.push_back(from.first_rows[cell]);
  };
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    int cmp = CompareKeys(a.keys.data() + i * stride, run.keys.data() + j * stride, stride);
    if (cmp < 0) {
      append(a, i++);
    } else if (cmp > 0) {
      append(run, j++);
    } else {
      append(a, i++);
      out.counts.back() += run.counts[j];
      out.first_rows.back() = std::min(out.first_rows.back(), run.first_rows[j]);
      ++j;
    }
  }
  for (; i < na; ++i) {
    append(a, i);
  }
  for (; j < nb; ++j) {
    append(run, j);
  }
  cells_ = std::move(out);
}

void PairwiseShardSummary::Accumulate(const Table& shard, uint64_t row_offset) {
  SCODED_CHECK(valid_);
  size_t num_roles = role_cols_.size();
  std::vector<const Column*> cols(num_roles);
  // Translate each shard-local dictionary into this summary's ids. The
  // shard dictionary lists values in first appearance order within the
  // shard, so interning it in order — shard after shard — reproduces the
  // whole-file first-appearance dictionary.
  std::vector<std::vector<int32_t>> translate(num_roles);
  for (size_t r = 0; r < num_roles; ++r) {
    cols[r] = &shard.column(static_cast<size_t>(role_cols_[r]));
    SCODED_CHECK(cols[r]->type() == role_types_[r]);
    if (role_types_[r] == ColumnType::kCategorical) {
      const std::vector<std::string>& dict = cols[r]->dictionary();
      translate[r].reserve(dict.size());
      for (const std::string& value : dict) {
        translate[r].push_back(Intern(dicts_[r], value));
      }
    }
  }
  size_t num_rows = shard.NumRows();
  rows_ += static_cast<int64_t>(num_rows);
  Cells run;
  // Dense fast path for the unconditional categorical×categorical shape:
  // map nulls onto one extra bucket per role, count the shard's codes
  // straight into a grid that also keeps each cell's first row within the
  // shard, and read the grid out in key order — the null bucket first,
  // since kNullCell sorts below every id. Nothing is staged per row, so a
  // task's memory is the grid. The grid is bounded both absolutely and
  // relative to the shard so tiny shards over large accumulated
  // dictionaries never pay an O(cells) sweep.
  constexpr size_t kDenseCellCap = size_t{1} << 18;
  const bool dense_shape = num_roles == 2 && role_types_[0] == ColumnType::kCategorical &&
                           role_types_[1] == ColumnType::kCategorical && num_rows > 0 &&
                           num_rows < UINT32_MAX;
  const size_t nx = dicts_[0].values.size();
  const size_t nyv = dicts_[num_roles - 1].values.size();
  const size_t grid_cells = (nx + 1) * (nyv + 1);
  if (dense_shape && grid_cells <= kDenseCellCap && grid_cells <= 4 * num_rows + 64) {
    const std::vector<int32_t>& x_codes = cols[0]->codes();
    const std::vector<int32_t>& y_codes = cols[1]->codes();
    std::vector<int64_t> counts(grid_cells, 0);
    std::vector<uint32_t> first(grid_cells, 0);
    for (size_t row = 0; row < num_rows; ++row) {
      const int32_t xc = x_codes[row];
      const int32_t yc = y_codes[row];
      const size_t xi = xc < 0 ? nx : static_cast<size_t>(translate[0][static_cast<size_t>(xc)]);
      const size_t yi = yc < 0 ? nyv : static_cast<size_t>(translate[1][static_cast<size_t>(yc)]);
      const size_t cell = xi * (nyv + 1) + yi;
      if (counts[cell]++ == 0) {
        first[cell] = static_cast<uint32_t>(row);
      }
    }
    for (size_t xo = 0; xo <= nx; ++xo) {
      const size_t xi = xo == 0 ? nx : xo - 1;
      for (size_t yo = 0; yo <= nyv; ++yo) {
        const size_t yi = yo == 0 ? nyv : yo - 1;
        const size_t cell = xi * (nyv + 1) + yi;
        if (counts[cell] == 0) {
          continue;
        }
        run.keys.push_back(xi == nx ? kNullCell : static_cast<int64_t>(xi));
        run.keys.push_back(yi == nyv ? kNullCell : static_cast<int64_t>(yi));
        run.counts.push_back(counts[cell]);
        run.first_rows.push_back(row_offset + first[cell]);
      }
    }
  } else {
    CellTable table(num_roles);
    std::vector<int64_t> key(num_roles);
    for (size_t row = 0; row < num_rows; ++row) {
      for (size_t r = 0; r < num_roles; ++r) {
        const Column& col = *cols[r];
        if (col.IsNull(row)) {
          key[r] = kNullCell;
        } else if (role_types_[r] == ColumnType::kCategorical) {
          key[r] = translate[r][static_cast<size_t>(col.CodeAt(row))];
        } else {
          key[r] = CanonicalBits(col.NumericAt(row));
        }
      }
      table.Add(key.data(), row_offset + row);
    }
    run.keys = std::move(table.keys);
    run.counts = std::move(table.counts);
    run.first_rows = std::move(table.first_rows);
    SortRun(run, num_roles);
  }
  if (cells_.counts.empty()) {
    cells_ = std::move(run);
  } else {
    MergeRun(run);
  }
}

PairwiseShardSummary PairwiseShardSummary::FromShard(const Table& shard, Spec spec,
                                                     uint64_t row_offset) {
  PairwiseShardSummary summary(shard, std::move(spec));
  summary.Accumulate(shard, row_offset);
  return summary;
}

void PairwiseShardSummary::Merge(const PairwiseShardSummary& other) {
  SCODED_CHECK(valid_ && other.valid_);
  SCODED_CHECK(role_cols_ == other.role_cols_);
  size_t num_roles = role_cols_.size();
  std::vector<std::vector<int32_t>> translate(num_roles);
  bool identity = true;
  bool increasing = true;
  for (size_t r = 0; r < num_roles; ++r) {
    if (role_types_[r] != ColumnType::kCategorical) {
      continue;  // numeric keys are bit patterns, never translated
    }
    translate[r].reserve(other.dicts_[r].values.size());
    for (const std::string& value : other.dicts_[r].values) {
      int32_t id = Intern(dicts_[r], value);
      identity = identity && id == static_cast<int32_t>(translate[r].size());
      increasing = increasing && (translate[r].empty() || id > translate[r].back());
      translate[r].push_back(id);
    }
  }
  rows_ += other.rows_;
  if (identity) {
    MergeRun(other.cells_);
    return;
  }
  // Translation is injective, so the run keeps distinct keys; but it need
  // not keep their order, and then the run is sorted again.
  Cells run = other.cells_;
  for (size_t at = 0; at < run.keys.size(); at += num_roles) {
    for (size_t r = 0; r < num_roles; ++r) {
      int64_t& k = run.keys[at + r];
      if (k != kNullCell && role_types_[r] == ColumnType::kCategorical) {
        k = translate[r][static_cast<size_t>(k)];
      }
    }
  }
  if (!increasing) {
    SortRun(run, num_roles);
  }
  if (cells_.counts.empty()) {
    cells_ = std::move(run);
  } else {
    MergeRun(run);
  }
}

PairwiseShardSummary::Snapshot PairwiseShardSummary::ToSnapshot() const& {
  return PairwiseShardSummary(*this).ToSnapshot();
}

PairwiseShardSummary::Snapshot PairwiseShardSummary::ToSnapshot() && {
  SCODED_CHECK(valid_);
  Snapshot snapshot;
  snapshot.spec = spec_;
  snapshot.role_types = role_types_;
  snapshot.dicts.reserve(dicts_.size());
  for (Dict& dict : dicts_) {
    snapshot.dicts.push_back(std::move(dict.values));
  }
  snapshot.keys = std::move(cells_.keys);
  snapshot.counts = std::move(cells_.counts);
  snapshot.first_rows = std::move(cells_.first_rows);
  snapshot.rows = rows_;
  valid_ = false;
  return snapshot;
}

Result<PairwiseShardSummary> PairwiseShardSummary::FromSnapshot(const Table& schema,
                                                                Snapshot snapshot) {
  const Spec& spec = snapshot.spec;
  auto column_ok = [&](int col) {
    return col >= 0 && static_cast<size_t>(col) < schema.NumColumns();
  };
  if (!column_ok(spec.x_col) || !column_ok(spec.y_col) || spec.x_col == spec.y_col) {
    return InvalidArgumentError("snapshot spec has invalid x/y columns");
  }
  for (int z : spec.z_cols) {
    if (!column_ok(z) || z == spec.x_col || z == spec.y_col) {
      return InvalidArgumentError("snapshot spec has invalid conditioning columns");
    }
  }
  PairwiseShardSummary summary(schema, spec);
  const size_t num_roles = summary.role_cols_.size();
  if (snapshot.role_types != summary.role_types_) {
    return InvalidArgumentError("snapshot role types do not match the schema");
  }
  if (snapshot.dicts.size() != num_roles) {
    return InvalidArgumentError("snapshot has " + std::to_string(snapshot.dicts.size()) +
                                " dictionaries, expected " + std::to_string(num_roles));
  }
  for (size_t r = 0; r < num_roles; ++r) {
    if (summary.role_types_[r] != ColumnType::kCategorical) {
      if (!snapshot.dicts[r].empty()) {
        return InvalidArgumentError("snapshot has a dictionary for a numeric role");
      }
      continue;
    }
    Dict& dict = summary.dicts_[r];
    for (const std::string& value : snapshot.dicts[r]) {
      int32_t before = static_cast<int32_t>(dict.values.size());
      if (summary.Intern(dict, value) != before) {
        return InvalidArgumentError("snapshot dictionary has duplicate value '" + value + "'");
      }
    }
  }
  const size_t num_cells = snapshot.counts.size();
  if (snapshot.first_rows.size() != num_cells ||
      snapshot.keys.size() / num_roles != num_cells || snapshot.keys.size() % num_roles != 0) {
    return InvalidArgumentError("snapshot cell arrays have inconsistent sizes");
  }
  if (snapshot.rows < 0) {
    return InvalidArgumentError("snapshot claims a negative row count");
  }
  int64_t total = 0;
  for (size_t cell = 0; cell < num_cells; ++cell) {
    const int64_t* key = snapshot.keys.data() + cell * num_roles;
    for (size_t r = 0; r < num_roles; ++r) {
      int64_t k = key[r];
      if (k != kNullCell && summary.role_types_[r] == ColumnType::kCategorical &&
          (k < 0 || static_cast<size_t>(k) >= summary.dicts_[r].values.size())) {
        return InvalidArgumentError("snapshot cell key is outside its dictionary");
      }
    }
    // Strictly ascending keys: the run is sorted and holds no repeats.
    if (cell > 0 && CompareKeys(key - num_roles, key, num_roles) >= 0) {
      return InvalidArgumentError("snapshot cell keys are not strictly ascending");
    }
    int64_t count = snapshot.counts[cell];
    if (count <= 0) {
      return InvalidArgumentError("snapshot cell count must be positive");
    }
    if (count > snapshot.rows - total) {
      return InvalidArgumentError("snapshot cell counts sum past its " +
                                  std::to_string(snapshot.rows) + " rows");
    }
    total += count;
  }
  if (total != snapshot.rows) {
    return InvalidArgumentError("snapshot cell counts sum to " + std::to_string(total) +
                                " but claim " + std::to_string(snapshot.rows) + " rows");
  }
  summary.cells_.keys = std::move(snapshot.keys);
  summary.cells_.counts = std::move(snapshot.counts);
  summary.cells_.first_rows = std::move(snapshot.first_rows);
  summary.rows_ = snapshot.rows;
  return summary;
}

int64_t PairwiseShardSummary::StratumKeyOfCell(size_t z_role, int64_t raw) const {
  if (raw == kNullCell) {
    return kNullCell;
  }
  const ZKeyPlan& plan = z_plan_[z_role];
  if (role_types_[z_role] == ColumnType::kNumeric && plan.binned) {
    return QuantileCodeOf(plan.cuts, DoubleOfBits(raw));
  }
  return raw;
}

Result<PairwiseShardSummary::FinishOutcome> PairwiseShardSummary::Finish(
    const TestOptions& options) {
  SCODED_CHECK(valid_);
  const size_t nz = spec_.z_cols.size();
  const size_t stride = role_cols_.size();
  const size_t x_role = nz;
  const size_t y_role = nz + 1;
  const bool is_tau = role_types_[x_role] == ColumnType::kNumeric &&
                      role_types_[y_role] == ColumnType::kNumeric;

  if (is_tau && nz == 0 && options.numeric_method == NumericMethod::kSpearman) {
    // Spearman's ρ sums products of midranks in row order; the float
    // accumulation order is part of the result, which counts cannot
    // reproduce bit-for-bit.
    return UnimplementedError(
        "sharded checking does not support numeric_method=Spearman; "
        "use Kendall's tau or the in-memory path");
  }

  const size_t num_cells = cells_.counts.size();
  SCODED_CHECK(num_cells < UINT32_MAX);
  const int64_t* keys = cells_.keys.data();
  const int64_t* counts = cells_.counts.data();
  // Cells in stratum order; strata are contiguous ranges of it.
  std::vector<uint32_t> order(num_cells);
  std::iota(order.begin(), order.end(), uint32_t{0});
  // Ascending value counts of numeric `role` over order[begin, end) — the
  // multiset the in-memory encoders sort. Scratch shared by every caller.
  std::vector<std::pair<double, int64_t>> marginal;
  auto fill_marginal = [&](size_t role, size_t begin, size_t end) {
    marginal.clear();
    for (size_t i = begin; i < end; ++i) {
      int64_t key = keys[order[i] * stride + role];
      if (key != kNullCell) {
        marginal.emplace_back(DoubleOfBits(key), counts[order[i]]);
      }
    }
    SortAndCoalesce(marginal);
  };
  auto drop_nan = [&] {
    if (!marginal.empty() && std::isnan(marginal.back().first)) {
      marginal.pop_back();  // NaN sorts last
    }
  };

  // Stratification keys per conditioning column, mirroring
  // ComputeStratumKeys: a numeric column with more than
  // condition_max_distinct distinct non-null values (NaNs count as one) is
  // quantile-binned over its non-NaN values; otherwise cells key by exact
  // value. The marginal over cells loses nothing: distinct counts and
  // quantile cuts are multiset functions.
  z_plan_.assign(nz, ZKeyPlan{});
  bool any_binned = false;
  for (size_t zr = 0; zr < nz; ++zr) {
    if (role_types_[zr] != ColumnType::kNumeric) {
      continue;
    }
    fill_marginal(zr, 0, num_cells);
    if (marginal.size() > options.condition_max_distinct) {
      drop_nan();
      z_plan_[zr].binned = true;
      z_plan_[zr].cuts = QuantileCutsFromCounts(marginal, options.condition_bins);
      any_binned = true;
    }
  }

  // Group cells into strata. Cells are sorted by key, so exact-value z
  // prefixes are already contiguous; binned values are keyed again and the
  // cells re-sorted by signature.
  std::vector<int64_t> binned_sigs;
  auto sig_of = [&](uint32_t cell) -> const int64_t* {
    if (nz == 0) {
      return nullptr;  // the one stratum has the empty signature
    }
    return any_binned ? binned_sigs.data() + cell * nz : keys + cell * stride;
  };
  if (any_binned) {
    binned_sigs.resize(num_cells * nz);
    for (size_t cell = 0; cell < num_cells; ++cell) {
      for (size_t zr = 0; zr < nz; ++zr) {
        binned_sigs[cell * nz + zr] = StratumKeyOfCell(zr, keys[cell * stride + zr]);
      }
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return CompareKeys(sig_of(a), sig_of(b), nz) < 0;
    });
  }
  struct Stratum {
    size_t begin = 0;  // range of `order`
    size_t end = 0;
    uint64_t first_row = UINT64_MAX;
    int64_t rows = 0;
  };
  std::vector<Stratum> strata;
  if (nz == 0) {
    strata.push_back({0, num_cells});  // one stratum, even when empty
  } else {
    for (size_t i = 0; i < num_cells;) {
      size_t j = i + 1;
      while (j < num_cells && CompareKeys(sig_of(order[i]), sig_of(order[j]), nz) == 0) {
        ++j;
      }
      strata.push_back({i, j});
      i = j;
    }
  }
  // Order the strata by their minimum global row — the first-appearance
  // order StratifyRows assigns.
  for (Stratum& s : strata) {
    for (size_t i = s.begin; i < s.end; ++i) {
      s.first_row = std::min(s.first_row, cells_.first_rows[order[i]]);
      s.rows += counts[order[i]];
    }
  }
  std::sort(strata.begin(), strata.end(),
            [](const Stratum& a, const Stratum& b) { return a.first_row < b.first_row; });

  // Per-stratum code of an x/y cell key, mirroring EncodeAsCategorical:
  // categorical cells keep their dictionary ids, numeric cells are
  // quantile-coded by the stratum's cuts, nulls and NaN map to -1.
  auto code_of_key = [&](size_t role, const std::vector<double>& cuts, int64_t key) -> int32_t {
    if (key == kNullCell) {
      return -1;
    }
    if (role_types_[role] == ColumnType::kCategorical) {
      return static_cast<int32_t>(key);
    }
    return QuantileCodeOf(cuts, DoubleOfBits(key));
  };
  // Quantile cuts of one numeric role over a stratum's non-null, non-NaN
  // cells — the cuts EncodeAsCategorical computes from the stratum's rows.
  auto cuts_of_role = [&](size_t role, const Stratum& s) -> std::vector<double> {
    fill_marginal(role, s.begin, s.end);
    drop_nan();
    return QuantileCutsFromCounts(marginal, options.discretize_bins);
  };

  StratifiedAccumulator acc;
  acc.is_tau = is_tau;
  stratum_sigs_.clear();
  stratum_slots_.clear();
  stratum_plans_.clear();
  std::vector<uint32_t> kept_cells;  // one cell of each kept stratum, for its signature
  std::optional<ContingencyTable> first_kept_ct;
  for (const Stratum& s : strata) {
    // The minimum-size rule applies only to conditioning strata; the
    // unconditional test always runs (degenerate tables are skipped inside
    // the accumulator instead).
    if (nz > 0 && static_cast<size_t>(s.rows) < options.min_stratum_size) {
      ++acc.skipped;
      continue;
    }
    if (is_tau) {
      std::vector<WeightedPoint> points;
      points.reserve(s.end - s.begin);
      for (size_t i = s.begin; i < s.end; ++i) {
        const int64_t* key = keys + order[i] * stride;
        if (key[x_role] != kNullCell && key[y_role] != kNullCell) {
          points.push_back(
              {DoubleOfBits(key[x_role]), DoubleOfBits(key[y_role]), counts[order[i]]});
        }
      }
      KendallResult kr = KendallTauFromCounts(std::move(points));
      if (nz == 0) {
        FinishOutcome outcome;
        outcome.result = TauTestFromKendall(kr, options);
        return outcome;
      }
      acc.AddTau(kr);
      continue;
    }
    StratumPlan plan;
    size_t cx;
    size_t cy;
    if (role_types_[x_role] == ColumnType::kCategorical) {
      cx = dicts_[x_role].values.size();
    } else {
      plan.x_cuts = cuts_of_role(x_role, s);
      cx = static_cast<size_t>(options.discretize_bins);
    }
    if (role_types_[y_role] == ColumnType::kCategorical) {
      cy = dicts_[y_role].values.size();
    } else {
      plan.y_cuts = cuts_of_role(y_role, s);
      cy = static_cast<size_t>(options.discretize_bins);
    }
    std::vector<int64_t> grid(cx * cy, 0);
    for (size_t i = s.begin; i < s.end; ++i) {
      const int64_t* key = keys + order[i] * stride;
      int32_t xc = code_of_key(x_role, plan.x_cuts, key[x_role]);
      int32_t yc = code_of_key(y_role, plan.y_cuts, key[y_role]);
      if (xc >= 0 && yc >= 0) {
        grid[static_cast<size_t>(xc) * cy + static_cast<size_t>(yc)] += counts[order[i]];
      }
    }
    ContingencyTable ct = ContingencyTable::FromCounts(grid, cx, cy);
    acc.AddG(PiecesOf(ct));
    if (kept_cells.empty()) {
      first_kept_ct.emplace(std::move(ct));
    }
    kept_cells.push_back(s.begin < s.end ? order[s.begin] : 0);
    stratum_plans_.push_back(std::move(plan));
  }

  FinishOutcome outcome;
  outcome.result = acc.Finish(options);
  if (is_tau) {
    return outcome;  // stratified τ has no Fisher or permutation routing
  }
  TestResult& result = outcome.result;
  const size_t kept = kept_cells.size();

  if (options.use_fisher_for_2x2 && kept == 1 && result.strata_used == 1 && result.n > 0 &&
      result.n <= options.fisher_max_n) {
    std::optional<double> fisher_p = FisherExact2x2FromContingency(*first_kept_ct);
    if (fisher_p.has_value()) {
      result.p_value = *fisher_p;
      result.used_exact = true;
      stratum_plans_.clear();
      return outcome;
    }
  }

  bool grossly_inadequate = result.strata_used > 0 &&
                            (result.dof >= static_cast<double>(result.n) ||
                             result.min_expected < options.g_severe_min_expected);
  if (options.allow_exact && grossly_inadequate && options.permutation_fallback_iterations > 0) {
    // The Monte-Carlo fallback permutes row-order code vectors — the one
    // statistic counts cannot reproduce. Keep the encoding plan recorded
    // above, with the kept strata's signatures sorted for the second
    // pass's lookups.
    outcome.needs_row_pass = true;
    std::vector<size_t> by_sig(kept);
    std::iota(by_sig.begin(), by_sig.end(), size_t{0});
    std::sort(by_sig.begin(), by_sig.end(), [&](size_t a, size_t b) {
      return CompareKeys(sig_of(kept_cells[a]), sig_of(kept_cells[b]), nz) < 0;
    });
    stratum_sigs_.reserve(kept * nz);
    for (size_t k : by_sig) {
      const int64_t* sig = sig_of(kept_cells[k]);
      stratum_sigs_.insert(stratum_sigs_.end(), sig, sig + nz);
      stratum_slots_.push_back(k);
    }
  } else {
    stratum_plans_.clear();
  }
  return outcome;
}

void PairwiseShardSummary::CollectPermutationCodes(const Table& shard,
                                                   std::vector<PermutationStratum>* strata) const {
  SCODED_CHECK(valid_);
  SCODED_CHECK(strata->size() == stratum_plans_.size());
  const size_t nz = spec_.z_cols.size();
  const size_t x_role = nz;
  const size_t y_role = nz + 1;
  std::vector<const Column*> cols(role_cols_.size());
  for (size_t r = 0; r < role_cols_.size(); ++r) {
    cols[r] = &shard.column(static_cast<size_t>(role_cols_[r]));
    SCODED_CHECK(cols[r]->type() == role_types_[r]);
  }
  // Code of one x/y cell under a kept stratum's plan; -1 for null (and for
  // NaN under quantile cuts), matching the first pass and the in-memory
  // encoder.
  auto code_of_cell = [&](size_t role, const std::vector<double>& cuts, size_t row) -> int32_t {
    const Column& col = *cols[role];
    if (col.IsNull(row)) {
      return -1;
    }
    if (role_types_[role] == ColumnType::kCategorical) {
      const auto& index = dicts_[role].index;
      auto it = index.find(col.CategoryAt(row));
      SCODED_CHECK(it != index.end());  // every value was seen in the first pass
      return it->second;
    }
    return QuantileCodeOf(cuts, col.NumericAt(row));
  };
  // The kept stratum with signature `sig` (binary search over the sorted
  // signatures), or -1 when the row's stratum was skipped as small.
  const size_t kept = stratum_slots_.size();
  auto slot_of = [&](const int64_t* sig) -> ptrdiff_t {
    if (nz == 0) {
      return kept > 0 ? static_cast<ptrdiff_t>(stratum_slots_[0]) : -1;
    }
    size_t lo = 0;
    size_t hi = kept;
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (CompareKeys(stratum_sigs_.data() + mid * nz, sig, nz) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < kept && CompareKeys(stratum_sigs_.data() + lo * nz, sig, nz) == 0) {
      return static_cast<ptrdiff_t>(stratum_slots_[lo]);
    }
    return -1;
  };
  size_t num_rows = shard.NumRows();
  std::vector<int64_t> sig(nz);
  for (size_t row = 0; row < num_rows; ++row) {
    for (size_t zr = 0; zr < nz; ++zr) {
      const Column& col = *cols[zr];
      int64_t raw;
      if (col.IsNull(row)) {
        raw = kNullCell;
      } else if (role_types_[zr] == ColumnType::kCategorical) {
        const auto& index = dicts_[zr].index;
        auto it = index.find(col.CategoryAt(row));
        SCODED_CHECK(it != index.end());
        raw = it->second;
      } else {
        raw = CanonicalBits(col.NumericAt(row));
      }
      sig[zr] = StratumKeyOfCell(zr, raw);
    }
    ptrdiff_t slot = slot_of(sig.data());
    if (slot < 0) {
      continue;  // row belongs to a skipped (small) stratum
    }
    const StratumPlan& plan = stratum_plans_[static_cast<size_t>(slot)];
    int32_t xc = code_of_cell(x_role, plan.x_cuts, row);
    int32_t yc = code_of_cell(y_role, plan.y_cuts, row);
    if (xc >= 0 && yc >= 0) {
      PermutationStratum& out = (*strata)[static_cast<size_t>(slot)];
      out.x.push_back(xc);
      out.y.push_back(yc);
    }
  }
}

}  // namespace scoded
